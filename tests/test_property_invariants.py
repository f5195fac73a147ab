"""Hypothesis property tests: the load-bearing cross-validation invariants.

The central invariant of the whole reproduction: for any graph and any
valid RLC query, the RLC index (under any pruning configuration), the
ETC, and all online traversals return the same answer as a brute-force
product search.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import ExtendedTransitiveClosure, NfaBfs, NfaBiBfs
from repro.core import build_rlc_index
from repro.graph.digraph import EdgeLabeledDigraph
from repro.labels.minimum_repeat import is_primitive, minimum_repeat

from tests.helpers import brute_force_rlc


@st.composite
def graphs(draw, max_vertices=8, max_labels=3):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    num_labels = draw(st.integers(min_value=1, max_value=max_labels))
    edges = draw(
        st.sets(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, num_labels - 1),
                st.integers(0, n - 1),
            ),
            max_size=3 * n,
        )
    )
    return EdgeLabeledDigraph(n, sorted(edges), num_labels=num_labels)


@st.composite
def graph_and_query(draw):
    graph = draw(graphs())
    source = draw(st.integers(0, graph.num_vertices - 1))
    target = draw(st.integers(0, graph.num_vertices - 1))
    length = draw(st.integers(1, 2))
    labels = tuple(
        draw(st.integers(0, graph.num_labels - 1)) for _ in range(length)
    )
    if not is_primitive(labels):
        labels = minimum_repeat(labels)
    return graph, source, target, labels


SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestCrossValidation:
    @SETTINGS
    @given(graph_and_query())
    def test_index_matches_brute_force(self, data):
        graph, source, target, labels = data
        index = build_rlc_index(graph, 2)
        expected = brute_force_rlc(graph, source, target, labels)
        assert index.query(source, target, labels) == expected
        assert index.query_mr(source, target, labels) == expected

    @SETTINGS
    @given(graph_and_query())
    def test_all_engines_agree(self, data):
        graph, source, target, labels = data
        expected = brute_force_rlc(graph, source, target, labels)
        assert NfaBfs(graph).query(source, target, labels) == expected
        assert NfaBiBfs(graph).query(source, target, labels) == expected
        assert (
            ExtendedTransitiveClosure.build(graph, 2).query(source, target, labels)
            == expected
        )

    @SETTINGS
    @given(graph_and_query(), st.booleans(), st.booleans(), st.booleans())
    def test_pruning_configurations_complete(self, data, pr1, pr2, pr3):
        graph, source, target, labels = data
        index = build_rlc_index(graph, 2, use_pr1=pr1, use_pr2=pr2, use_pr3=pr3)
        assert index.query(source, target, labels) == brute_force_rlc(
            graph, source, target, labels
        )

    @SETTINGS
    @given(graph_and_query())
    def test_lazy_strategy_matches(self, data):
        graph, source, target, labels = data
        index = build_rlc_index(graph, 2, strategy="lazy")
        assert index.query(source, target, labels) == brute_force_rlc(
            graph, source, target, labels
        )


class TestStructuralInvariants:
    @SETTINGS
    @given(graphs())
    def test_index_condensed(self, graph):
        index = build_rlc_index(graph, 2)
        assert index.condensedness_violations() == []

    @SETTINGS
    @given(graphs())
    def test_entries_sorted_by_access_id(self, graph):
        index = build_rlc_index(graph, 2)
        for vertex in range(graph.num_vertices):
            for entries in (index.lin(vertex), index.lout(vertex)):
                aids = [index.access_id(hub) for hub, _ in entries]
                assert aids == sorted(aids)

    @SETTINGS
    @given(graphs())
    def test_every_entry_is_witnessed(self, graph):
        """Soundness of entries themselves: each MR is realizable."""
        index = build_rlc_index(graph, 2)
        for vertex in range(graph.num_vertices):
            for hub, mr in index.lout(vertex):
                assert brute_force_rlc(graph, vertex, hub, mr), (vertex, hub, mr)
            for hub, mr in index.lin(vertex):
                assert brute_force_rlc(graph, hub, vertex, mr), (hub, vertex, mr)

    @SETTINGS
    @given(graphs())
    def test_save_load_preserves_queries(self, graph):
        import os
        import tempfile

        from repro.core.index import RlcIndex

        index = build_rlc_index(graph, 2)
        handle, path = tempfile.mkstemp(suffix=".npz")
        os.close(handle)
        try:
            index.save(path)
            loaded = RlcIndex.load(path)
        finally:
            os.unlink(path)
        assert loaded.num_entries == index.num_entries
        for v in range(graph.num_vertices):
            assert loaded.lin(v) == index.lin(v)
            assert loaded.lout(v) == index.lout(v)
