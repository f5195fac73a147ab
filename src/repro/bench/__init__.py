"""Benchmark harness: experiment drivers for every table and figure.

- :mod:`repro.bench.harness` — timing helpers, time-capped query-set
  execution (the paper's timeout ``X`` marks), aligned-table rendering;
- :mod:`repro.bench.engines` — simulated mainstream graph engines for
  Table V (the paper anonymizes two commercial systems; we substitute
  architecturally-faithful interpreted engines);
- :mod:`repro.bench.experiments` — one driver per paper artifact
  (Table III/IV/V, Fig. 3-7, plus the design-choice ablations), each
  returning a :class:`~repro.bench.harness.ResultTable` that the
  ``benchmarks/`` scripts print and assert on.
"""

from repro.bench.harness import (
    TIMED_OUT,
    ResultTable,
    format_micros,
    format_seconds,
    run_engine_query_set,
    run_query_set,
    time_call,
)
from repro.bench.plotting import ascii_plot, series_from_table
from repro.bench import engines, experiments

__all__ = [
    "TIMED_OUT",
    "ResultTable",
    "ascii_plot",
    "engines",
    "experiments",
    "format_micros",
    "format_seconds",
    "run_engine_query_set",
    "run_query_set",
    "series_from_table",
    "time_call",
]
