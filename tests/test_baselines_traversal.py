"""Tests for the online traversal baselines (BFS, BiBFS, DFS)."""

from __future__ import annotations

import itertools

import pytest

from repro.automata.compile import compile_regex
from repro.automata.regex import parse_regex
from repro.baselines import NfaBfs, NfaBiBfs, NfaDfs
from repro.baselines.bfs import evaluate_nfa_bfs
from repro.baselines.bibfs import evaluate_nfa_bibfs
from repro.baselines.dfs import evaluate_nfa_dfs
from repro.errors import NonPrimitiveConstraintError, QueryError
from repro.graph.digraph import EdgeLabeledDigraph

from tests.helpers import all_primitive_constraints, brute_force_rlc, random_graph

ENGINES = [NfaBfs, NfaBiBfs, NfaDfs]


@pytest.fixture(params=ENGINES, ids=lambda cls: cls.name)
def engine_cls(request):
    return request.param


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_graphs(self, engine_cls, seed):
        graph = random_graph(seed)
        engine = engine_cls(graph)
        for s, t in itertools.product(range(graph.num_vertices), repeat=2):
            for labels in all_primitive_constraints(graph.num_labels, 2):
                assert engine.query(s, t, labels) == brute_force_rlc(
                    graph, s, t, labels
                ), (seed, s, t, labels)


class TestSemantics:
    @pytest.fixture
    def cycle(self):
        # 0 -a-> 1 -b-> 2 -a-> 0 and a self-loop c at 1.
        return EdgeLabeledDigraph(
            3, [(0, 0, 1), (1, 1, 2), (2, 0, 0), (1, 2, 1)], num_labels=3
        )

    def test_single_edge(self, engine_cls, cycle):
        assert engine_cls(cycle).query(0, 1, (0,))

    def test_needs_full_copies(self, engine_cls, cycle):
        # (a b)+ from 0 reaches 2 after one full copy.
        assert engine_cls(cycle).query(0, 2, (0, 1))
        # ... but never reaches 1 at a copy boundary.
        assert not engine_cls(cycle).query(0, 1, (0, 1))

    def test_self_loop_single(self, engine_cls, cycle):
        assert engine_cls(cycle).query(1, 1, (2,))

    def test_self_loop_repetition_crosses_cycle(self, engine_cls, cycle):
        # (a b a)+ — one traversal of the 3-cycle.
        assert engine_cls(cycle).query(0, 0, (0, 1, 0))

    def test_source_equals_target_plus_requires_cycle(self, engine_cls, cycle):
        assert not engine_cls(cycle).query(0, 0, (0,))

    def test_star_with_equal_endpoints(self, engine_cls, cycle):
        # A star matches the empty path, which a plus never does.
        assert engine_cls(cycle).query_regex(0, 0, "0*")

    def test_star_distinct_endpoints_same_as_plus(self, engine_cls, cycle):
        engine = engine_cls(cycle)
        assert engine.query_regex(0, 1, "0*") is engine.query(0, 1, (0,)) is True
        assert engine.query_regex(0, 1, "1*") is engine.query(0, 1, (1,)) is False

    def test_validation_errors(self, engine_cls, cycle):
        engine = engine_cls(cycle)
        with pytest.raises(QueryError):
            engine.query(0, 9, (0,))
        with pytest.raises(NonPrimitiveConstraintError):
            engine.query(0, 1, (0, 0))
        with pytest.raises(QueryError):
            engine.query(0, 1, ())

    def test_graph_property(self, engine_cls, cycle):
        assert engine_cls(cycle).graph is cycle


class TestRegexQueries:
    @pytest.fixture
    def graph(self):
        return EdgeLabeledDigraph(
            4, [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 1, 3)], num_labels=2
        )

    def test_concatenation_of_pluses(self, engine_cls, graph):
        engine = engine_cls(graph)
        assert engine.query_regex(0, 3, parse_regex("0+ 1+"))
        assert not engine.query_regex(0, 2, parse_regex("0+ 1+"))

    def test_alternation(self, engine_cls, graph):
        engine = engine_cls(graph)
        assert engine.query_regex(0, 3, parse_regex("(0 | 1)+"))

    def test_string_expression_labels_need_dictionary(self, engine_cls, graph):
        engine = engine_cls(graph)
        with pytest.raises(Exception):
            engine.query_regex(0, 3, parse_regex("knows+"))


class TestEvaluateFunctions:
    """The raw evaluate_* functions handle empty-accepting automata."""

    @pytest.mark.parametrize(
        "evaluate", [evaluate_nfa_bfs, evaluate_nfa_bibfs, evaluate_nfa_dfs]
    )
    def test_star_accepts_empty_path(self, evaluate):
        graph = EdgeLabeledDigraph(2, [(0, 0, 1)], num_labels=1)
        nfa = compile_regex(parse_regex("0*"))
        assert evaluate(graph, 0, 0, nfa)
        assert evaluate(graph, 0, 1, nfa)
        assert not evaluate(graph, 1, 0, nfa)

    @pytest.mark.parametrize(
        "evaluate", [evaluate_nfa_bfs, evaluate_nfa_bibfs, evaluate_nfa_dfs]
    )
    def test_dead_automaton(self, evaluate):
        graph = EdgeLabeledDigraph(2, [(0, 0, 1)], num_labels=2)
        nfa = compile_regex(parse_regex("1+"))
        assert not evaluate(graph, 0, 1, nfa)


class TestBfsVsBibfsLargerGraphs:
    @pytest.mark.parametrize("seed", range(8))
    def test_equivalence_on_medium_graphs(self, seed):
        graph = random_graph(seed + 1000, max_vertices=40, max_labels=4)
        bfs, bibfs, dfs = NfaBfs(graph), NfaBiBfs(graph), NfaDfs(graph)
        import random as _random

        rng = _random.Random(seed)
        constraints = all_primitive_constraints(graph.num_labels, 2)
        for _ in range(150):
            s = rng.randrange(graph.num_vertices)
            t = rng.randrange(graph.num_vertices)
            labels = constraints[rng.randrange(len(constraints))]
            expected = bfs.query(s, t, labels)
            assert bibfs.query(s, t, labels) == expected
            assert dfs.query(s, t, labels) == expected
