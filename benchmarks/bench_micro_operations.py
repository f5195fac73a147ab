"""Micro-benchmarks of the core primitives.

Not a paper artifact — these pin the costs that the macro results are
built from: minimum-repeat computation (the KMP hot path of Algorithm
2), constraint-automaton construction, single product-BFS steps, index
point queries (validated ``query`` vs the pre-validated ``query_mr``
hub lookup), and workload verification.
Regressions here surface before they blur a paper-level table.
"""

from __future__ import annotations

from functools import lru_cache

from repro.automata.compile import constraint_automaton
from repro.baselines import NfaBfs
from repro.engine import create_engine
from repro.graph import datasets
from repro.labels.minimum_repeat import minimum_repeat
from repro.queries import validate_rlc_query
from repro.workloads import generate_workload


@lru_cache(maxsize=None)
def dataset(name: str, scale: float = 1.0):
    """Cached dataset stand-in (graphs are immutable)."""
    return datasets.load_dataset(name, scale=scale)


@lru_cache(maxsize=None)
def dataset_index(name: str, scale: float = 1.0, k: int = 2):
    """Cached RLC index for a dataset stand-in, built through the registry."""
    return create_engine("rlc-index", dataset(name, scale), k=k).backend


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


def test_minimum_repeat_short(benchmark):
    benchmark(minimum_repeat, (0, 1, 0, 1))


def test_minimum_repeat_long(benchmark):
    sequence = (0, 1, 2, 3) * 16
    benchmark(minimum_repeat, sequence)


def test_constraint_automaton_build(benchmark):
    benchmark(constraint_automaton, (0, 1, 2))


def test_index_query(benchmark):
    index = dataset_index("EP")
    workload = dataset_workload("EP", num_queries=50)
    query = workload.true_queries[0]
    benchmark(index.query, query.source, query.target, query.labels)


def test_index_query_hub_lookup(benchmark):
    index = dataset_index("EP")
    workload = dataset_workload("EP", num_queries=50)
    query = workload.true_queries[0]
    mr = validate_rlc_query(index, query.source, query.target, query.labels, k=index.k)
    benchmark(index.query_mr, query.source, query.target, mr)


def test_index_query_false(benchmark):
    index = dataset_index("EP")
    workload = dataset_workload("EP", num_queries=50)
    query = workload.false_queries[0]
    benchmark(index.query, query.source, query.target, query.labels)


def test_bfs_single_query(benchmark):
    graph = dataset("EP")
    engine = NfaBfs(graph)
    workload = dataset_workload("EP", num_queries=50)
    query = workload.true_queries[0]
    benchmark(engine.query, query.source, query.target, query.labels)


# ----------------------------------------------------------------------
# Engine layer: batched vs query-at-a-time execution
# ----------------------------------------------------------------------


def _shared_constraint_queries(num_queries: int = 1000):
    """A workload whose queries share a handful of constraints.

    Cycles the endpoint pairs of the EP workload through its four most
    frequent constraints — the shape batched execution amortizes
    (each distinct constraint validated once per batch).
    """
    from collections import Counter

    from repro.queries import RlcQuery

    workload = dataset_workload("EP", num_queries=250)
    base = list(workload)
    constraints = [
        labels for labels, _ in Counter(q.labels for q in base).most_common(4)
    ]
    queries = []
    for position in range(num_queries):
        endpoint = base[position % len(base)]
        labels = constraints[position % len(constraints)]
        queries.append(RlcQuery(endpoint.source, endpoint.target, labels))
    return queries


def _rlc_engine():
    from repro.engine import RlcIndexEngine

    return RlcIndexEngine.from_index(dataset_index("EP"))


def _answer_per_call(engine, queries):
    """One ``query_prepared`` call per query, preparing its constraint each time."""
    return [engine.query_prepared(q.labels, q.source, q.target) for q in queries]


def test_engine_query_at_a_time(benchmark):
    engine = _rlc_engine()
    queries = _shared_constraint_queries()
    benchmark(_answer_per_call, engine, queries)


def test_engine_query_batch(benchmark):
    engine = _rlc_engine()
    queries = _shared_constraint_queries()
    benchmark(engine.query_batch, queries)


def test_batched_execution_beats_query_at_a_time():
    """The engine-layer guarantee: batching wins on shared constraints.

    Asserted (not just reported) so a regression in the grouped batched
    path fails the benchmark smoke run: >= 1.3x over query-at-a-time on
    a 1000-query shared-constraint workload, answers identical.
    """
    import time

    engine = _rlc_engine()
    queries = _shared_constraint_queries(1000)
    sequential_answers = _answer_per_call(engine, queries)  # warm up
    assert engine.query_batch(queries) == sequential_answers

    def best_of(fn, repeats=3):
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - started)
        return min(samples)

    sequential = best_of(lambda: _answer_per_call(engine, queries))
    batched = best_of(lambda: engine.query_batch(queries))
    speedup = sequential / batched
    print(f"\nbatched speedup over query-at-a-time: {speedup:.2f}x")
    assert speedup >= 1.3, (
        f"batched execution only {speedup:.2f}x faster "
        f"(sequential {sequential * 1e3:.2f}ms, batched {batched * 1e3:.2f}ms)"
    )


# ----------------------------------------------------------------------
# Prepared-query lifecycle: compile-once vs per-call compilation
# ----------------------------------------------------------------------


def test_engine_query_prepared_reuse(benchmark):
    engine = _rlc_engine()
    queries = _shared_constraint_queries()
    prepared = {
        labels: engine.prepare_query(labels)
        for labels in {q.labels for q in queries}
    }
    benchmark(
        lambda: [
            engine.query_prepared(prepared[q.labels], q.source, q.target)
            for q in queries
        ]
    )


def test_prepared_reuse_beats_per_call_compilation():
    """The prepared-parity guarantee: compile-once wins on shared constraints.

    Asserted (not just reported) so a regression in the prepared path
    fails the CI micro-benchmark smoke run:
    preparing each distinct constraint once and re-using it across a
    1000-query shared-constraint workload is >= 1.3x faster than
    passing the raw labels to ``query_prepared``, which validates the
    constraint on every call.  Answers identical.
    """
    import time

    engine = _rlc_engine()
    queries = _shared_constraint_queries(1000)
    per_call_answers = _answer_per_call(engine, queries)  # warm up
    prepared = {
        labels: engine.prepare_query(labels)
        for labels in {q.labels for q in queries}
    }

    def prepared_run():
        return [
            engine.query_prepared(prepared[q.labels], q.source, q.target)
            for q in queries
        ]

    assert prepared_run() == per_call_answers

    def best_of(fn, repeats=3):
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - started)
        return min(samples)

    per_call = best_of(lambda: _answer_per_call(engine, queries))
    reused = best_of(prepared_run)
    speedup = per_call / reused
    print(f"\nprepared re-use speedup over per-call compilation: {speedup:.2f}x")
    assert speedup >= 1.3, (
        f"prepared re-use only {speedup:.2f}x faster "
        f"(per-call {per_call * 1e3:.2f}ms, prepared {reused * 1e3:.2f}ms)"
    )
