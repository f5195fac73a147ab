"""Tests for the extended transitive closure baseline."""

from __future__ import annotations

import itertools

import pytest

from repro.baselines import ExtendedTransitiveClosure, NfaBfs
from repro.errors import BudgetExceededError, CapabilityError, QueryError
from repro.graph.digraph import EdgeLabeledDigraph
from repro.labels.minimum_repeat import minimum_repeat

from tests.helpers import (
    all_primitive_constraints,
    brute_force_rlc,
    enumerate_label_sequences,
    random_graph,
)


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(15))
    def test_queries_match_brute_force(self, seed):
        graph = random_graph(seed)
        etc = ExtendedTransitiveClosure.build(graph, 2)
        for s, t in itertools.product(range(graph.num_vertices), repeat=2):
            for labels in all_primitive_constraints(graph.num_labels, 2):
                assert etc.query(s, t, labels) == brute_force_rlc(
                    graph, s, t, labels
                ), (seed, s, t, labels)

    @pytest.mark.parametrize("seed", range(5))
    def test_concise_sets_complete_for_short_paths(self, seed):
        """S_k(u, v) contains the MR of every witnessed short path."""
        graph = random_graph(seed, max_vertices=6)
        k = 2
        etc = ExtendedTransitiveClosure.build(graph, k)
        for source in range(graph.num_vertices):
            for endpoint, sequence in enumerate_label_sequences(graph, source, 2 * k):
                mr = minimum_repeat(sequence)
                if len(mr) <= k:
                    assert mr in etc.minimum_repeats(source, endpoint), (
                        seed,
                        source,
                        endpoint,
                        sequence,
                    )

    def test_concise_sets_sound(self):
        """Every recorded MR is realizable (checked via the BFS oracle)."""
        graph = random_graph(3, max_vertices=6)
        etc = ExtendedTransitiveClosure.build(graph, 2)
        bfs = NfaBfs(graph)
        for source in range(graph.num_vertices):
            for target in range(graph.num_vertices):
                for mr in etc.minimum_repeats(source, target):
                    assert bfs.query(source, target, mr)


class TestSemantics:
    @pytest.fixture
    def fig2_etc(self, fig2):
        return ExtendedTransitiveClosure.build(fig2, 2)

    def test_fig2_running_example(self, fig2_etc):
        # Q1(v3, v6, (l2 l1)+) = true (Example 4).
        assert fig2_etc.query(2, 5, (1, 0))
        # Q3(v1, v3, (l1)+) = false.
        assert not fig2_etc.query(0, 2, (0,))

    def test_k_property(self, fig2_etc):
        assert fig2_etc.k == 2

    def test_over_k_rejected(self, fig2_etc):
        with pytest.raises(CapabilityError):
            fig2_etc.query(0, 1, (0, 1, 2))

    def test_invalid_k(self, fig2):
        with pytest.raises(QueryError):
            ExtendedTransitiveClosure.build(fig2, 0)

    def test_validation(self, fig2_etc):
        with pytest.raises(QueryError):
            fig2_etc.query(0, 99, (0,))


class TestBudgets:
    def test_time_budget(self):
        graph = random_graph(1, max_vertices=9)
        with pytest.raises(BudgetExceededError, match="exceeded"):
            ExtendedTransitiveClosure.build(graph, 2, time_budget=0.0)

    def test_entry_budget(self):
        graph = random_graph(2, max_vertices=9, density=(2.0, 3.0))
        with pytest.raises(BudgetExceededError, match="entries"):
            ExtendedTransitiveClosure.build(graph, 2, max_entries=1)

    def test_generous_budget_succeeds(self):
        graph = random_graph(3, max_vertices=5)
        etc = ExtendedTransitiveClosure.build(
            graph, 2, time_budget=60.0, max_entries=10**7
        )
        assert etc.num_entries > 0


class TestSizeAccounting:
    def test_counts(self, fig2):
        etc = ExtendedTransitiveClosure.build(fig2, 2)
        assert etc.num_pairs > 0
        assert etc.num_entries >= etc.num_pairs
        assert etc.estimated_size_bytes() > 8 * etc.num_pairs

    def test_build_seconds_recorded(self, fig2):
        etc = ExtendedTransitiveClosure.build(fig2, 2)
        assert etc.build_seconds > 0

    def test_etc_larger_than_rlc_index(self, fig2):
        """The Table IV headline at miniature scale."""
        from repro.core import build_rlc_index

        etc = ExtendedTransitiveClosure.build(fig2, 2)
        index = build_rlc_index(fig2, 2)
        assert etc.num_entries >= index.num_entries
