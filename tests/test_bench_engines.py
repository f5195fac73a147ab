"""Tests for the simulated Table V engines: they must be *correct*."""

from __future__ import annotations

import itertools

import pytest

from repro.baselines import NfaBfs
from repro.baselines.simulated import (
    Sys1PropertyGraphEngine,
    Sys2RdfEngine,
    VirtuosoSimEngine,
)
from repro.errors import QueryError

from tests.helpers import all_primitive_constraints, random_graph

ENGINE_CLASSES = [Sys1PropertyGraphEngine, Sys2RdfEngine, VirtuosoSimEngine]


@pytest.fixture(params=ENGINE_CLASSES, ids=lambda cls: cls.name)
def engine_cls(request):
    return request.param


class TestRlcCorrectness:
    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_bfs(self, engine_cls, seed):
        graph = random_graph(seed + 77)
        engine = engine_cls(graph)
        oracle = NfaBfs(graph)
        for s, t in itertools.product(range(graph.num_vertices), repeat=2):
            for labels in all_primitive_constraints(graph.num_labels, 2):
                assert engine.query(s, t, labels) == oracle.query(s, t, labels), (
                    engine.name,
                    seed,
                    s,
                    t,
                    labels,
                )


class TestRegexCorrectness:
    EXPRESSIONS = ["0+ 1+", "(0 1)+", "(0 | 1)+", "0* 1+"]

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_bfs_on_regex(self, engine_cls, seed):
        from repro.automata import parse_regex

        graph = random_graph(seed + 200, max_labels=2, min_labels=2)
        engine = engine_cls(graph)
        oracle = NfaBfs(graph)
        for expression in self.EXPRESSIONS:
            parsed = parse_regex(expression)
            for s, t in itertools.product(range(graph.num_vertices), repeat=2):
                assert engine.query_regex(s, t, expression) == oracle.query_regex(
                    s, t, parsed
                ), (engine.name, expression, s, t)


class TestEngineBehaviour:
    def test_validation(self, engine_cls, fig2):
        engine = engine_cls(fig2)
        with pytest.raises(QueryError):
            engine.query(0, 99, (0,))

    def test_names_distinct(self, fig2):
        names = [cls(fig2).name for cls in ENGINE_CLASSES]
        assert names == ["Sys1", "Sys2", "VirtuosoSim"]

    def test_fig2_example(self, engine_cls, fig2):
        engine = engine_cls(fig2)
        assert engine.query(2, 5, (1, 0)) is True  # Q1(v3, v6, (l2 l1)+)
        assert engine.query(0, 2, (0,)) is False  # Q3(v1, v3, (l1)+)

    def test_graphs_without_dictionary(self, engine_cls):
        graph = random_graph(3)
        engine = engine_cls(graph)
        assert engine.query(0, 1, (0,)) in (True, False)

    def test_engines_slower_than_index(self, fig2):
        """The Table V premise at miniature scale: engines do more work.

        We do not time at this scale; instead check they explore the
        full space (Sys2/Virtuoso have no early exit) by confirming a
        true query still returns True — behavioural smoke only.
        """
        for cls in ENGINE_CLASSES:
            assert cls(fig2).query(2, 5, (1, 0)) is True
