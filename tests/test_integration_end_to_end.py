"""End-to-end integration tests across the whole library."""

from __future__ import annotations

import pytest

from repro import (
    ExtendedQueryEvaluator,
    ExtendedTransitiveClosure,
    NfaBfs,
    NfaBiBfs,
    RlcIndex,
    build_rlc_index,
)
from repro.graph import datasets
from repro.graph.io import load_graph_npz, save_graph_npz
from repro.workloads import generate_workload, load_workload, save_workload


@pytest.fixture(scope="module")
def pipeline():
    """Dataset -> workload -> index, shared across this module."""
    graph = datasets.load_dataset("AD", scale=0.4)
    workload = generate_workload(
        graph, 2, num_true=40, num_false=40, seed=11, graph_name="AD"
    )
    index = build_rlc_index(graph, 2)
    return graph, workload, index


class TestFullPipeline:
    def test_index_answers_whole_workload(self, pipeline):
        graph, workload, index = pipeline
        for query, expected in workload.labeled_queries():
            assert index.query(query.source, query.target, query.labels) == expected

    def test_all_engines_agree_on_workload(self, pipeline):
        graph, workload, index = pipeline
        engines = [
            NfaBfs(graph).query,
            NfaBiBfs(graph).query,
            ExtendedTransitiveClosure.build(graph, 2).query,
            index.query,
            index.query_mr,
        ]
        for query, expected in workload.labeled_queries():
            for engine in engines:
                assert engine(query.source, query.target, query.labels) == expected

    def test_graph_and_index_round_trip_together(self, tmp_path, pipeline):
        graph, workload, index = pipeline
        graph_path = tmp_path / "graph.npz"
        index_path = tmp_path / "index.npz"
        save_graph_npz(graph, graph_path)
        index.save(index_path)

        graph2 = load_graph_npz(graph_path)
        index2 = RlcIndex.load(index_path)
        assert graph2 == graph
        for query, expected in workload.labeled_queries():
            assert index2.query(query.source, query.target, query.labels) == expected

    def test_workload_round_trip(self, tmp_path, pipeline):
        _, workload, _ = pipeline
        path = tmp_path / "workload.txt"
        save_workload(workload, path)
        assert list(load_workload(path)) == list(workload)

    def test_extended_queries_over_dataset(self, pipeline):
        graph, _, index = pipeline
        evaluator = ExtendedQueryEvaluator(index, graph)
        bfs = NfaBfs(graph)
        from repro.automata import parse_regex

        hits = 0
        for source in range(0, graph.num_vertices, 29):
            for target in range(0, graph.num_vertices, 31):
                expression = "0+ 1+"
                expected = bfs.query_regex(source, target, parse_regex(expression))
                assert evaluator.query(source, target, expression) == expected
                hits += expected
        assert hits >= 0


class TestPaperNarrative:
    """Cheap sanity checks of the paper's headline claims at small scale."""

    def test_rlc_index_smaller_and_faster_than_etc(self):
        graph = datasets.load_dataset("AD", scale=0.4)
        index = build_rlc_index(graph, 2)
        etc = ExtendedTransitiveClosure.build(graph, 2)
        assert index.estimated_size_bytes() < etc.estimated_size_bytes()
        assert index.num_entries < etc.num_entries

    def test_index_query_beats_online_traversal(self, pipeline):
        import time

        graph, workload, index = pipeline
        bfs = NfaBfs(graph)

        def total_time(fn):
            started = time.perf_counter()
            for query in workload:
                fn(query.source, query.target, query.labels)
            return time.perf_counter() - started

        # Warm up, then measure; the index must win comfortably.
        total_time(index.query)
        assert total_time(index.query) < total_time(bfs.query)

    def test_fig1_fraud_scenario(self, fig1):
        """Example 1 of the paper, end to end on the Fig. 1 graph."""
        index = build_rlc_index(fig1, k=3)
        a14, a19 = 5, 9
        p10, p13 = 0, 3
        q1 = fig1.encode_sequence(("debits", "credits"))
        q2 = fig1.encode_sequence(("knows", "knows", "worksFor"))
        assert index.query(a14, a19, q1) is True
        assert index.query(p10, p13, q2) is False
