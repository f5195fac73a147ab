"""Benchmark harness: experiment drivers for every table and figure.

- :mod:`repro.bench.harness` — timing helpers, the one time-capped
  query-set loop every query-time figure uses (it times only each
  query's evaluation; the paper's timeout ``X`` marks), aligned-table
  rendering;
- :mod:`repro.bench.experiments` — one driver per paper artifact
  (Table III/IV/V, Fig. 3-7, plus the design-choice ablations), each
  returning a :class:`~repro.bench.harness.ResultTable` that
  ``benchmarks/run_all_experiments.py --only NAME`` writes out and the
  test-suite asserts on.
"""

from repro.bench.harness import (
    TIMED_OUT,
    ResultTable,
    format_micros,
    format_seconds,
    run_query_set,
    time_call,
)
from repro.bench import experiments

__all__ = [
    "TIMED_OUT",
    "ResultTable",
    "experiments",
    "format_micros",
    "format_seconds",
    "run_query_set",
    "time_call",
]
