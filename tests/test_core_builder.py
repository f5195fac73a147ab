"""Tests for the indexing algorithm: strategies, pruning rules, budgets."""

from __future__ import annotations

import itertools

import pytest

from repro.core import build_rlc_index
from repro.errors import BudgetExceededError, QueryError
from repro.graph.digraph import EdgeLabeledDigraph

from tests.helpers import all_primitive_constraints, brute_force_rlc, random_graph

PRUNING_CONFIGS = [
    {},
    {"use_pr1": False},
    {"use_pr2": False},
    {"use_pr3": False},
    {"use_pr1": False, "use_pr3": False},
    {"use_pr1": False, "use_pr2": False, "use_pr3": False},
]


def _assert_sound_complete(graph, index, k):
    for s, t in itertools.product(range(graph.num_vertices), repeat=2):
        for labels in all_primitive_constraints(graph.num_labels, k):
            assert index.query(s, t, labels) == brute_force_rlc(graph, s, t, labels)


class TestPruningAblations:
    @pytest.mark.parametrize("config", PRUNING_CONFIGS, ids=lambda c: str(c) or "all")
    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_sound_and_complete(self, config, seed):
        graph = random_graph(seed)
        index = build_rlc_index(graph, 2, **config)
        _assert_sound_complete(graph, index, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_pruning_never_grows_index(self, seed):
        graph = random_graph(seed + 40)
        pruned = build_rlc_index(graph, 2)
        unpruned = build_rlc_index(
            graph, 2, use_pr1=False, use_pr2=False, use_pr3=False
        )
        assert pruned.num_entries <= unpruned.num_entries

    def test_stats_counters_consistent(self, fig2):
        index = build_rlc_index(fig2, 2)
        stats = index.build_stats
        assert stats.inserted == index.num_entries == 26
        assert (
            stats.inserted + stats.duplicates + stats.pruned_pr1 + stats.pruned_pr2
            == stats.insert_attempts
        )
        assert stats.kernel_searches == 2 * fig2.num_vertices
        assert stats.seconds > 0
        assert 0 < stats.phase1_seconds + stats.phase2_seconds <= stats.seconds

    def test_disabled_rules_record_zero(self, fig2):
        stats = build_rlc_index(
            fig2, 2, use_pr1=False, use_pr2=False, use_pr3=False
        ).build_stats
        assert stats.pruned_pr1 == 0
        assert stats.pruned_pr2 == 0
        assert stats.pr3_stops == 0

    def test_stats_as_dict(self, fig2):
        flat = build_rlc_index(fig2, 2).build_stats.as_dict()
        assert flat["inserted"] == 26
        assert "pruned_pr1" in flat

    def test_second_build_starts_fresh(self, fig2):
        first = build_rlc_index(fig2, 2)
        second = build_rlc_index(fig2, 2)

        def counts(index):
            stats = index.build_stats.as_dict()
            for wall_time in ("seconds", "phase1_seconds", "phase2_seconds"):
                del stats[wall_time]
            return stats

        assert counts(second) == counts(first)
        assert counts(second)["kernel_searches"] == 2 * fig2.num_vertices
        assert second.build_stats is not first.build_stats
        assert second._out_by_mr is not first._out_by_mr
        assert second._in_by_mr is not first._in_by_mr
        for vertex in range(fig2.num_vertices):
            assert second.lout(vertex) == first.lout(vertex)
            assert second.lin(vertex) == first.lin(vertex)


class TestLazyStrategy:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [1, 2])
    def test_lazy_sound_and_complete(self, seed, k):
        graph = random_graph(seed + 90)
        index = build_rlc_index(graph, k, strategy="lazy")
        _assert_sound_complete(graph, index, k)

    def test_lazy_explores_deeper_in_phase1(self, fig2):
        eager = build_rlc_index(fig2, 2, strategy="eager").build_stats
        lazy = build_rlc_index(fig2, 2, strategy="lazy").build_stats
        # Lazy expands raw paths to depth 2k instead of k.
        assert lazy.phase1_expansions > eager.phase1_expansions

    def test_unknown_strategy(self, fig2):
        with pytest.raises(QueryError, match="strategy"):
            build_rlc_index(fig2, 2, strategy="wrong")


class TestOrderings:
    @pytest.mark.parametrize("ordering", ["in-out", "degree", "random"])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_any_order_is_correct(self, ordering, seed):
        graph = random_graph(seed)
        index = build_rlc_index(graph, 2, ordering=ordering, seed=seed)
        _assert_sound_complete(graph, index, 2)

    def test_unknown_ordering(self, fig2):
        with pytest.raises(Exception):
            build_rlc_index(fig2, 2, ordering="nope")


class TestParameters:
    def test_invalid_k(self, fig2):
        with pytest.raises(QueryError, match="recursive k"):
            build_rlc_index(fig2, 0)

    def test_k1_only_single_labels(self, fig2):
        index = build_rlc_index(fig2, 1)
        assert index.k == 1
        for _, mr in itertools.chain(
            *(index.lin(v) for v in range(6)), *(index.lout(v) for v in range(6))
        ):
            assert len(mr) == 1

    def test_time_budget_exceeded(self):
        graph = random_graph(5, max_vertices=9, density=(2.0, 3.0))
        with pytest.raises(BudgetExceededError):
            build_rlc_index(graph, 2, time_budget=0.0)

    @pytest.mark.parametrize("budget", [-1, -0.5])
    def test_negative_time_budget_rejected(self, fig2, budget):
        with pytest.raises(QueryError, match="must be"):
            build_rlc_index(fig2, 2, time_budget=budget)

    def test_determinism(self):
        graph = random_graph(17)
        a = build_rlc_index(graph, 2)
        b = build_rlc_index(graph, 2)
        assert a.num_entries == b.num_entries
        for v in range(graph.num_vertices):
            assert a.lin(v) == b.lin(v)
            assert a.lout(v) == b.lout(v)


class TestEdgeCaseGraphs:
    def test_empty_graph(self):
        index = build_rlc_index(EdgeLabeledDigraph(0, []), 2)
        assert index.num_entries == 0

    def test_edgeless_graph(self):
        index = build_rlc_index(EdgeLabeledDigraph(5, [], num_labels=2), 2)
        assert index.num_entries == 0
        assert index.query(0, 4, (0,)) is False

    def test_single_self_loop(self):
        graph = EdgeLabeledDigraph(1, [(0, 0, 0)], num_labels=1)
        index = build_rlc_index(graph, 2)
        assert index.query(0, 0, (0,)) is True

    def test_self_loop_traversed_multiple_times(self):
        # Section II: "a self loop might need to be traversed multiple
        # times depending on label sequences along paths".
        # 0 -a-> 1 (loop b) -a-> 2, query (a b a)+... not expressible;
        # instead: loop must be taken twice for (a b)+: 0 -a-> 1 -b-> 1
        # -a-> ... fails; use (b,) on the loop vertex and a 2-copy
        # constraint through the loop:
        graph = EdgeLabeledDigraph(
            3, [(0, 0, 1), (1, 1, 1), (1, 0, 2)], num_labels=2
        )
        index = build_rlc_index(graph, 2)
        # Path 0 -a-> 1 -b-> 1 -a-> 2 has labels (a b a): MR length 3 > k.
        assert index.query(0, 2, (0, 1)) is False
        # Loop twice: (a b) (a b) needs 0 -a-> 1 -b-> 1 -a-> 2 -b-> ?: no.
        assert index.query(1, 1, (1,)) is True

    def test_two_cycle_odd_constraint(self):
        # 0 <-> 1 with label a: (a)+ reaches everything, cycles included.
        graph = EdgeLabeledDigraph(2, [(0, 0, 1), (1, 0, 0)], num_labels=1)
        index = build_rlc_index(graph, 2)
        assert index.query(0, 0, (0,)) is True
        assert index.query(0, 1, (0,)) is True

    def test_long_chain_completeness(self):
        # The regression scenario for the PR3 direction (see the
        # repro.core.builder docstring): a uniform chain must stay fully
        # reachable under (a)+.
        n = 12
        graph = EdgeLabeledDigraph(
            n, [(i, 0, i + 1) for i in range(n - 1)], num_labels=1
        )
        index = build_rlc_index(graph, 2)
        for s in range(n):
            for t in range(n):
                assert index.query(s, t, (0,)) == (s < t), (s, t)

    def test_parallel_labels(self):
        graph = EdgeLabeledDigraph(2, [(0, 0, 1), (0, 1, 1)], num_labels=2)
        index = build_rlc_index(graph, 2)
        assert index.query(0, 1, (0,))
        assert index.query(0, 1, (1,))
        assert not index.query(0, 1, (0, 1))
