"""Table V — speed-ups and break-even points over graph engines (WN, k=3).

Queries: Q1 ``a+``, Q2 ``(a b)+``, Q3 ``(a b a)+`` (frequent labels —
see experiments.py for why the third-most-frequent label would
trivialize the search at this scale), and the extended Q4 ``a+ b+``
evaluated with the RLC index plus an online traversal.  Engines are the
architecturally simulated Sys1 (tuple-at-a-time property graph), Sys2
(set-at-a-time RDF semi-naive) and VirtuosoSim (transitive rounds over
sorted sets) — see the :mod:`repro.bench.engines` docstring for how
each simulates its system.

Expected shape: the index wins by orders of magnitude on Q1-Q3 and the
break-even point (queries needed to amortize the index build) drops as
engine cost grows.

pytest-benchmark targets time single queries per engine on WN.

Full run: ``python benchmarks/bench_table5_systems.py [--scale S]``.
"""

from __future__ import annotations

import pytest

from repro.bench.engines import Sys1PropertyGraphEngine, Sys2RdfEngine, VirtuosoSimEngine
from repro.bench.experiments import experiment_table5
from repro.graph.stats import label_histogram

if __package__ in (None, ""):  # direct execution: make `benchmarks` importable
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks._common import dataset, dataset_index, standard_parser

ENGINES = {
    "sys1": Sys1PropertyGraphEngine,
    "sys2": Sys2RdfEngine,
    "virtuoso": VirtuosoSimEngine,
}


def _setup(scale=0.5):
    graph = dataset("WN", scale)
    histogram = label_histogram(graph)
    frequent = sorted(histogram, key=lambda label: -histogram[label])
    a, b = frequent[0], frequent[1]
    source = int(graph.out_degrees().argmax())
    target = int(graph.in_degrees().argmax())
    return graph, source, target, (a, b)


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_engine_q2(benchmark, engine_name):
    graph, source, target, (a, b) = _setup()
    engine = ENGINES[engine_name](graph)
    benchmark(engine.query, source, target, (a, b))


def test_rlc_index_q2(benchmark):
    graph, source, target, (a, b) = _setup()
    index = dataset_index("WN", 0.5, k=3)
    benchmark(index.query, source, target, (a, b))


def test_rlc_index_q3(benchmark):
    graph, source, target, (a, b) = _setup()
    index = dataset_index("WN", 0.5, k=3)
    benchmark(index.query, source, target, (a, b, a))


def test_speedup_shape():
    """Q2: every engine must be slower than the index lookup."""
    import time

    graph, source, target, (a, b) = _setup()
    index = dataset_index("WN", 0.5, k=3)

    def once(fn):
        started = time.perf_counter()
        fn(source, target, (a, b))
        return time.perf_counter() - started

    once(index.query)  # warm-up
    index_seconds = min(once(index.query) for _ in range(5))
    for engine_cls in ENGINES.values():
        engine = engine_cls(graph)
        engine_seconds = min(once(engine.query) for _ in range(3))
        assert engine_seconds > index_seconds, engine_cls.name


def main() -> None:
    args = standard_parser(__doc__).parse_args()
    if args.quick:
        table = experiment_table5(scale=0.4, repeats=3, time_cap=20.0)
    else:
        table = experiment_table5(scale=args.scale, repeats=20, time_cap=120.0)
    table.print()


if __name__ == "__main__":
    main()
