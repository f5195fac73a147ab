"""Shared helpers for the benchmark scripts.

Benchmark scales: pytest-benchmark targets use reduced graph scales so
``pytest benchmarks/ --benchmark-only`` completes in minutes; running a
script directly (``python benchmarks/bench_table4_indexing.py``)
regenerates the corresponding paper artifact at full stand-in scale
(``benchmarks/run_all_experiments.py`` regenerates all of them).

Engine construction goes through the registry/facade
(:func:`fresh_engine`, :func:`build_index`, :func:`dataset_session`) so
the drivers never hand-roll an answerer: what a benchmark times is the
same code path ``repro.api.Session`` and the CLI serve.
"""

from __future__ import annotations

import argparse
from functools import lru_cache

from repro.api import Session
from repro.engine import create_engine, filter_engine_options
from repro.graph import datasets
from repro.workloads import generate_workload

# Datasets cheap enough for per-round pytest-benchmark timing.
FAST_DATASETS = ("AD", "EP", "TW", "WN", "WS", "WG", "WT", "WB")
# Heavy stand-ins: benchmarked at reduced scale, full runs via __main__.
HEAVY_DATASETS = ("WH", "PR", "SO", "LJ", "WF")
HEAVY_BENCH_SCALE = 0.25


@lru_cache(maxsize=None)
def dataset(name: str, scale: float = 1.0):
    """Cached dataset stand-in (graphs are immutable)."""
    return datasets.load_dataset(name, scale=scale)


@lru_cache(maxsize=None)
def dataset_session(name: str, scale: float = 1.0) -> Session:
    """Cached :class:`repro.api.Session` over a dataset stand-in.

    One session per (name, scale): engines asked for by spec are shared
    across benchmark targets exactly like ``dataset_index`` used to
    share its index.
    """
    return Session(dataset(name, scale), graph_name=name)


def fresh_engine(spec: str, graph, **options):
    """Registry-built, freshly-prepared engine (for timed builds).

    ``options`` are offered generically and filtered against the spec's
    constructor chain, so one call site serves every engine family.
    """
    return create_engine(spec, graph, **filter_engine_options(spec, options))


def build_index(graph, k: int = 2, **options):
    """Facade-routed RLC index build (what the drivers time).

    Goes through the ``rlc-index`` registry adapter — the identical
    construction path of ``Session.engine("rlc-index?...")`` — and
    returns the built :class:`~repro.core.index.RlcIndex` backend.
    """
    return fresh_engine("rlc-index", graph, k=k, **options).backend


@lru_cache(maxsize=None)
def dataset_index(name: str, scale: float = 1.0, k: int = 2):
    """Cached RLC index for a dataset stand-in (via the session facade)."""
    return dataset_session(name, scale).engine(f"rlc-index?k={k}").backend


@lru_cache(maxsize=None)
def dataset_workload(
    name: str, scale: float = 1.0, k: int = 2, num_queries: int = 100, seed: int = 7
):
    """Cached true/false workload for a dataset stand-in."""
    return generate_workload(
        dataset(name, scale),
        k,
        num_true=num_queries,
        num_false=num_queries,
        seed=seed,
        graph_name=name,
    )


def standard_parser(description: str) -> argparse.ArgumentParser:
    """The CLI shared by all __main__ benchmark entry points."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiplier on the stand-in graph sizes (default 1.0)",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=1000,
        help="queries per true/false set (paper uses 1000)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small graphs and query sets (seconds instead of minutes)",
    )
    return parser
