"""Tests for the core edge-labeled digraph."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.datasets import load_dataset
from repro.graph.digraph import EdgeLabeledDigraph
from repro.labels.sequences import LabelDictionary
from tests.helpers import random_graph, tracked_objects_added


@pytest.fixture
def small():
    return EdgeLabeledDigraph(
        4,
        [(0, 0, 1), (0, 1, 1), (1, 0, 2), (2, 1, 0), (3, 0, 3)],
        num_labels=2,
    )


class TestConstruction:
    def test_sizes(self, small):
        assert small.num_vertices == 4
        assert small.num_edges == 5
        assert small.num_labels == 2
        assert len(small) == 4

    def test_duplicate_edges_collapse(self):
        g = EdgeLabeledDigraph(2, [(0, 0, 1), (0, 0, 1), (0, 0, 1)])
        assert g.num_edges == 1

    def test_parallel_labels_kept(self):
        g = EdgeLabeledDigraph(2, [(0, 0, 1), (0, 1, 1)])
        assert g.num_edges == 2

    def test_empty_graph(self):
        g = EdgeLabeledDigraph(0, [])
        assert g.num_vertices == 0 and g.num_edges == 0 and g.num_labels == 0

    def test_isolated_vertices(self):
        g = EdgeLabeledDigraph(10, [(0, 0, 1)])
        assert g.num_vertices == 10
        assert g.out_degree(9) == 0

    def test_label_count_inferred(self):
        g = EdgeLabeledDigraph(2, [(0, 5, 1)])
        assert g.num_labels == 6

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            EdgeLabeledDigraph(2, [(-1, 0, 1)])

    def test_vertex_too_large_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            EdgeLabeledDigraph(2, [(0, 0, 2)])

    def test_negative_label_rejected(self):
        with pytest.raises(GraphError, match="non-negative"):
            EdgeLabeledDigraph(2, [(0, -1, 1)])

    def test_label_out_of_declared_range(self):
        with pytest.raises(GraphError, match="label id"):
            EdgeLabeledDigraph(2, [(0, 3, 1)], num_labels=2)

    def test_negative_num_vertices(self):
        with pytest.raises(GraphError):
            EdgeLabeledDigraph(-1, [])

    def test_from_edges_infers_vertices(self):
        g = EdgeLabeledDigraph.from_edges([(0, 0, 4)])
        assert g.num_vertices == 5

    def test_from_edges_empty(self):
        g = EdgeLabeledDigraph.from_edges([])
        assert g.num_vertices == 0

    def test_dictionary_bounds_labels(self):
        d = LabelDictionary(["a"])
        with pytest.raises(GraphError):
            EdgeLabeledDigraph(2, [(0, 1, 1)], label_dictionary=d)


class TestAdjacency:
    def test_out_edges_sorted(self, small):
        assert list(small.out_edges(0)) == [(0, 1), (1, 1)]

    def test_in_edges(self, small):
        assert list(small.in_edges(1)) == [(0, 0), (1, 0)]

    def test_out_neighbors_by_label(self, small):
        assert small.out_neighbors(0, 0) == (1,)
        assert small.out_neighbors(0, 1) == (1,)

    def test_missing_label_empty(self, small):
        assert small.out_neighbors(1, 1) == ()
        assert small.in_neighbors(3, 1) == ()

    def test_self_loop(self, small):
        assert small.out_neighbors(3, 0) == (3,)
        assert small.in_neighbors(3, 0) == (3,)

    def test_out_labels(self, small):
        assert sorted(small.out_labels(0)) == [0, 1]
        assert small.out_labels(1) == (0,)

    def test_in_labels(self, small):
        assert small.in_labels(0) == (1,)

    def test_degrees(self, small):
        assert small.out_degree(0) == 2
        assert small.in_degree(1) == 2
        assert list(small.out_degrees()) == [2, 1, 1, 1]
        assert list(small.in_degrees()) == [1, 2, 1, 1]

    def test_has_edge(self, small):
        assert small.has_edge(0, 0, 1)
        assert not small.has_edge(0, 0, 2)
        assert not small.has_edge(-1, 0, 1)

    def test_has_vertex(self, small):
        assert small.has_vertex(0) and small.has_vertex(3)
        assert not small.has_vertex(4) and not small.has_vertex(-1)


class TestViews:
    def test_edges_iterates_all(self, small):
        assert sorted(small.edges()) == [
            (0, 0, 1),
            (0, 1, 1),
            (1, 0, 2),
            (2, 1, 0),
            (3, 0, 3),
        ]

    def test_reverse(self, small):
        reversed_graph = small.reverse()
        assert reversed_graph.has_edge(1, 0, 0)
        assert reversed_graph.num_edges == small.num_edges
        assert reversed_graph.reverse() == small

    def test_adjacency_matrix(self, small):
        matrix = small.adjacency_matrix()
        assert matrix.shape == (4, 4)
        assert bool(matrix[0, 1]) is True
        assert bool(matrix[1, 0]) is False

    def test_parallel_edges_single_matrix_entry(self):
        g = EdgeLabeledDigraph(2, [(0, 0, 1), (0, 1, 1)])
        assert g.adjacency_matrix().nnz == 1

    def test_equality(self, small):
        twin = EdgeLabeledDigraph(
            4,
            [(3, 0, 3), (2, 1, 0), (1, 0, 2), (0, 1, 1), (0, 0, 1)],
            num_labels=2,
        )
        assert small == twin
        assert small != EdgeLabeledDigraph(4, [(0, 0, 1)], num_labels=2)

    def test_repr(self, small):
        assert "|V|=4" in repr(small)

    def test_edge_arrays_consistent(self, small):
        sources, labels, targets = small.edge_arrays()
        assert len(sources) == len(labels) == len(targets) == 5
        assert np.all(sources[:-1] <= sources[1:])  # sorted by source


class TestLabelNames:
    def test_label_roundtrip(self):
        d = LabelDictionary(["knows", "likes"])
        g = EdgeLabeledDigraph(2, [(0, 1, 1)], label_dictionary=d)
        assert g.label_id("likes") == 1
        assert g.label_name(1) == "likes"

    def test_encode_sequence_names(self):
        d = LabelDictionary(["a", "b"])
        g = EdgeLabeledDigraph(2, [(0, 0, 1)], label_dictionary=d)
        assert g.encode_sequence(("b", "a")) == (1, 0)

    def test_encode_sequence_without_dictionary(self):
        g = EdgeLabeledDigraph(2, [(0, 0, 1)], num_labels=2)
        assert g.encode_sequence((1, 0)) == (1, 0)
        with pytest.raises(GraphError):
            g.encode_sequence(("a",))
        with pytest.raises(GraphError):
            g.encode_sequence((5,))

    def test_name_access_without_dictionary(self):
        g = EdgeLabeledDigraph(2, [(0, 0, 1)])
        with pytest.raises(GraphError, match="no label dictionary"):
            g.label_id("a")
        with pytest.raises(GraphError, match="no label dictionary"):
            g.label_name(0)


class TestHashability:
    """Regression: ``__eq__`` without ``__hash__`` made graphs unhashable."""

    def test_equal_graphs_hash_equal(self):
        edges = [(0, 0, 1), (1, 1, 2), (2, 0, 0)]
        a = EdgeLabeledDigraph(3, edges, num_labels=2)
        b = EdgeLabeledDigraph(3, reversed(edges), num_labels=2)
        assert a == b
        assert hash(a) == hash(b)

    def test_distinct_graphs_hash_differently(self):
        a = EdgeLabeledDigraph(3, [(0, 0, 1)], num_labels=2)
        b = EdgeLabeledDigraph(3, [(0, 1, 1)], num_labels=2)
        assert a != b
        assert hash(a) != hash(b)

    def test_usable_as_dict_key(self):
        edges = [(0, 0, 1), (1, 0, 2)]
        cache = {EdgeLabeledDigraph(3, edges): "prepared"}
        assert cache[EdgeLabeledDigraph(3, list(edges))] == "prepared"

    def test_duplicate_edges_do_not_change_hash(self):
        a = EdgeLabeledDigraph(2, [(0, 0, 1)])
        b = EdgeLabeledDigraph(2, [(0, 0, 1), (0, 0, 1)])
        assert a == b and hash(a) == hash(b)


class TestOneAdjacencyLayout:
    """Edge pairs and degrees are derived from the per-label adjacency."""

    def test_pairs_and_degrees_match_the_edge_list(self):
        shapes = set()
        for seed in range(60):
            graph = random_graph(seed)
            edges = list(graph.edges())
            if any(s == t for s, _, t in edges):
                shapes.add("self-loop")
            if len({(s, t) for s, _, t in edges}) < len(edges):
                shapes.add("parallel labels")
            for v in range(graph.num_vertices):
                out_pairs = sorted((label, t) for s, label, t in edges if s == v)
                in_pairs = sorted((label, s) for s, label, t in edges if t == v)
                if not out_pairs and not in_pairs:
                    shapes.add("isolated vertex")
                assert list(graph.out_edges(v)) == out_pairs
                assert list(graph.in_edges(v)) == in_pairs
                assert graph.out_degree(v) == len(out_pairs) == graph.out_degrees()[v]
                assert graph.in_degree(v) == len(in_pairs) == graph.in_degrees()[v]
        assert shapes == {"self-loop", "parallel labels", "isolated vertex"}

    def test_adjacency_is_untracked_after_a_full_collection(self):
        # Per-vertex dicts of int keys and int tuples: CPython stops
        # tracking them in a full collection, so a graph's adjacency
        # costs later collections nothing.
        graph = load_dataset("EP", scale=0.1)
        triples = np.column_stack(graph.edge_arrays())
        copy, added = tracked_objects_added(
            lambda: EdgeLabeledDigraph(
                graph.num_vertices, triples, num_labels=graph.num_labels
            )
        )
        assert copy == graph
        assert added < 10
