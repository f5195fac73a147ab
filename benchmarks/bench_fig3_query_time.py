"""Fig. 3 — execution time of 1000 true / 1000 false queries.

Engines: NFA-guided BFS, bidirectional BFS, ETC (where it can be
built — AD-like behaviour) and the RLC index.  The paper reports up to
six orders of magnitude between BFS and the index at full scale; the
shape (RLC < ETC ~ RLC << BiBFS << BFS, with BFS worst on false
queries) is what the stand-ins reproduce.

pytest-benchmark targets time whole query sets per engine on AD.

Full run: ``python benchmarks/bench_fig3_query_time.py [--scale S]``.
"""

from __future__ import annotations

import pytest

from repro.baselines import NfaBfs, NfaBiBfs
from repro.bench.experiments import experiment_fig3
from repro.queries import RlcQuery, validate_rlc_query

if __package__ in (None, ""):  # direct execution: make `benchmarks` importable
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks._common import (
    dataset,
    dataset_index,
    dataset_workload,
    standard_parser,
)


def _run_set(query_fn, queries):
    for query in queries:
        query_fn(query.source, query.target, query.labels)


@pytest.fixture(scope="module")
def ad_workload():
    return dataset_workload("AD", num_queries=100)


def test_bfs_true_queries(benchmark, ad_workload):
    engine = NfaBfs(dataset("AD"))
    benchmark(_run_set, engine.query, ad_workload.true_queries)


def test_bfs_false_queries(benchmark, ad_workload):
    engine = NfaBfs(dataset("AD"))
    benchmark(_run_set, engine.query, ad_workload.false_queries)


def test_bibfs_true_queries(benchmark, ad_workload):
    engine = NfaBiBfs(dataset("AD"))
    benchmark(_run_set, engine.query, ad_workload.true_queries)


def test_bibfs_false_queries(benchmark, ad_workload):
    engine = NfaBiBfs(dataset("AD"))
    benchmark(_run_set, engine.query, ad_workload.false_queries)


def test_rlc_index_true_queries(benchmark, ad_workload):
    index = dataset_index("AD")
    benchmark(_run_set, index.query, ad_workload.true_queries)


def test_rlc_index_false_queries(benchmark, ad_workload):
    index = dataset_index("AD")
    benchmark(_run_set, index.query, ad_workload.false_queries)


def test_rlc_index_fast_variant(benchmark, ad_workload):
    index = dataset_index("AD")
    validated = [
        RlcQuery(
            q.source,
            q.target,
            validate_rlc_query(index, q.source, q.target, q.labels, k=index.k),
        )
        for q in ad_workload
    ]
    benchmark(_run_set, index.query_mr, validated)


def main() -> None:
    args = standard_parser(__doc__).parse_args()
    if args.quick:
        table = experiment_fig3(
            names=("AD", "TW", "WN"), scale=0.5, num_queries=100, time_cap=10.0
        )
    else:
        table = experiment_fig3(
            scale=args.scale, num_queries=args.queries, time_cap=60.0
        )
    table.print()


if __name__ == "__main__":
    main()
