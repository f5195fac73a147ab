"""Tests for workload generation and persistence."""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines import NfaBfs
from repro.errors import QueryError, SerializationError
from repro.graph import generators
from repro.graph.datasets import load_dataset
from repro.labels.minimum_repeat import is_primitive
from repro.queries import RlcQuery
from repro.workloads import (
    QueryWorkload,
    generate_workload,
    load_workload,
    save_workload,
)


@pytest.fixture(scope="module")
def medium_graph():
    return generators.labeled_barabasi_albert(300, 3, 4, seed=42)


@pytest.fixture(scope="module")
def workload(medium_graph):
    return generate_workload(
        medium_graph, 2, num_true=30, num_false=30, seed=5, graph_name="test"
    )


class TestGeneration:
    def test_counts(self, workload):
        assert len(workload.true_queries) == 30
        assert len(workload.false_queries) == 30
        assert len(workload) == 60

    def test_answers_verified_against_bfs(self, medium_graph, workload):
        oracle = NfaBfs(medium_graph)
        for query, expected in workload.labeled_queries():
            assert oracle.query(query.source, query.target, query.labels) == expected

    def test_constraints_primitive_and_bounded(self, workload):
        for query in workload:
            assert is_primitive(query.labels)
            assert query.recursive_length == 2  # default: |L| = k

    def test_no_duplicates(self, workload):
        keys = [(q.source, q.target, q.labels) for q in workload]
        assert len(keys) == len(set(keys))

    def test_deterministic(self, medium_graph):
        a = generate_workload(medium_graph, 2, num_true=10, num_false=10, seed=9)
        b = generate_workload(medium_graph, 2, num_true=10, num_false=10, seed=9)
        assert list(a) == list(b)

    def test_constraint_length_one(self, medium_graph):
        w = generate_workload(
            medium_graph, 2, num_true=5, num_false=5, constraint_length=1, seed=3
        )
        assert all(q.recursive_length == 1 for q in w)

    def test_uniform_sampler(self, medium_graph):
        w = generate_workload(
            medium_graph,
            2,
            num_true=3,
            num_false=10,
            seed=1,
            sampler="uniform",
            max_attempts_factor=20000,
        )
        assert len(w.true_queries) == 3

    def test_unfillable_raises(self):
        # An edgeless graph has no true queries at all.
        from repro.graph.digraph import EdgeLabeledDigraph

        graph = EdgeLabeledDigraph(5, [], num_labels=2)
        with pytest.raises(QueryError, match="could not fill"):
            generate_workload(
                graph, 2, num_true=1, num_false=1, max_attempts_factor=50
            )

    def test_empty_graph_rejected(self):
        from repro.graph.digraph import EdgeLabeledDigraph

        with pytest.raises(QueryError):
            generate_workload(EdgeLabeledDigraph(0, []), 2)

    def test_bad_sampler(self, medium_graph):
        with pytest.raises(QueryError, match="sampler"):
            generate_workload(medium_graph, 2, sampler="bogus")

    def test_bad_constraint_length(self, medium_graph):
        with pytest.raises(QueryError):
            generate_workload(medium_graph, 2, constraint_length=3)

    def test_negative_counts(self, medium_graph):
        with pytest.raises(QueryError):
            generate_workload(medium_graph, 2, num_true=-1)

    def test_zero_counts_allowed(self, medium_graph):
        w = generate_workload(medium_graph, 2, num_true=0, num_false=0)
        assert len(w) == 0


    def test_ep_workload_is_pinned(self, tmp_path):
        # Random walks index into out_edges (by label, then target), so
        # this pins that order together with the samplers.  Query pools
        # cached by a graph's content digest assume it never changes.
        graph = load_dataset("EP", scale=0.1)
        workload = generate_workload(graph, 2, num_true=50, num_false=50, seed=1)
        path = tmp_path / "ep.workload"
        save_workload(workload, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "470cfc2da18107f2f1c4e3cfe234748b63146dd39246ffa3183a4426e75e1cdd"
        )


class TestContainer:
    def test_iteration_order(self, workload):
        queries = list(workload)
        assert queries[: len(workload.true_queries)] == workload.true_queries

    def test_constraint_lengths(self, workload):
        assert workload.constraint_lengths() == (2,)

    def test_mislabeled_true_query_rejected(self):
        with pytest.raises(SerializationError):
            QueryWorkload(
                k=1, true_queries=[RlcQuery(0, 1, (0,), expected=False)]
            )

    def test_mislabeled_false_query_rejected(self):
        with pytest.raises(SerializationError):
            QueryWorkload(
                k=1, false_queries=[RlcQuery(0, 1, (0,), expected=True)]
            )


class TestPersistence:
    def test_round_trip(self, tmp_path, workload):
        path = tmp_path / "w.txt"
        save_workload(workload, path)
        loaded = load_workload(path)
        assert loaded.k == workload.k
        assert loaded.graph_name == "test"
        assert loaded.true_queries == workload.true_queries
        assert loaded.false_queries == workload.false_queries

    def test_header_optional(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("0 1 0,1 true\n2 3 1 false\n")
        loaded = load_workload(path)
        assert loaded.k == 2  # inferred from the longest constraint
        assert loaded.true_queries[0] == RlcQuery(0, 1, (0, 1), expected=True)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("0 1 0,1\n")
        with pytest.raises(SerializationError):
            load_workload(path)

    def test_malformed_labels(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("0 1 a,b true\n")
        with pytest.raises(SerializationError):
            load_workload(path)
