"""Tests for the engine contract, registry and adapters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    EngineBase,
    QueryService,
    RlcIndexEngine,
    available_engines,
    create_engine,
    engine_names,
    get_engine_class,
    parse_engine_spec,
    resolve_engine_spec,
)
from repro.errors import (
    BudgetExceededError,
    EngineError,
    GraphError,
    ReproError,
)
from repro.graph.digraph import EdgeLabeledDigraph
from repro.queries import RlcQuery

from tests.helpers import all_primitive_constraints

ALL_ENGINES = (
    "bfs", "bibfs", "dfs", "etc", "rlc-index", "sys1", "sys2", "virtuoso-sim",
)
NEEDS_K = {"rlc-index": {"k": 2}, "etc": {"k": 2}}


class TestRegistry:
    def test_all_eight_answerers_registered(self):
        assert engine_names() == ALL_ENGINES

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_create_prepares_a_protocol_instance(self, name, fig2):
        engine = create_engine(name, fig2, **NEEDS_K.get(name, {}))
        assert isinstance(engine, EngineBase)
        assert engine.prepared
        assert engine.name == name

    def test_lookup_is_case_insensitive(self, fig2):
        assert get_engine_class("BiBFS") is get_engine_class("bibfs")

    def test_unknown_name_lists_known_engines(self):
        with pytest.raises(EngineError, match="known engines.*rlc-index"):
            get_engine_class("no-such-engine")

    def test_unknown_option_raises_type_error(self, fig2):
        with pytest.raises(TypeError):
            create_engine("bfs", fig2, k=2)

    def test_available_engines_rows(self):
        rows = available_engines()
        assert [key for key, _, _ in rows] == list(ALL_ENGINES)
        by_key = {key: (label, doc) for key, label, doc in rows}
        assert by_key["rlc-index"][0] == "RLC"
        assert all(doc for _, doc in by_key.values())


class TestSpecs:
    def test_bare_name(self):
        assert parse_engine_spec("bibfs") == ("bibfs", {})

    def test_name_and_params(self):
        name, options = parse_engine_spec("RLC?k=4&ordering=degree")
        assert name == "rlc"
        assert options == {"k": 4, "ordering": "degree"}

    def test_param_value_coercion(self):
        _, options = parse_engine_spec("etc?k=3&time_budget=0.5&flag=true&s=x")
        assert options == {"k": 3, "time_budget": 0.5, "flag": True, "s": "x"}

    def test_malformed_param_rejected(self):
        with pytest.raises(EngineError, match="key=value"):
            parse_engine_spec("rlc?k")

    @pytest.mark.parametrize("spec", ["sharded:rlc", "rlc:bfs"])
    def test_composite_specs_rejected(self, spec, fig2):
        with pytest.raises(EngineError, match=f"unknown engine '{spec}'"):
            create_engine(spec, fig2)

    def test_get_engine_class_accepts_specs(self):
        assert get_engine_class("rlc-index?k=4") is RlcIndexEngine
        assert get_engine_class("rlc") is RlcIndexEngine  # alias

    def test_resolve_merges_spec_over_kwargs(self):
        cls, options = resolve_engine_spec("etc?k=3", k=2, time_budget=1.0)
        assert cls is get_engine_class("etc")
        assert options["k"] == 3  # spec wins
        assert options["time_budget"] == 1.0

    def test_create_engine_from_spec(self, fig2):
        engine = create_engine("rlc?k=3", fig2)
        assert engine.name == "rlc-index"
        assert engine.k == 3
        assert engine.query_prepared((1, 0), 2, 5) is True

    @pytest.mark.parametrize(
        "spec",
        [
            "rlc?k=2.5",
            "rlc?k=3.0",
            "rlc?k=true",
            "rlc?k=x",
            "rlc?time_budget=abc",
            "etc?k=x",
            "etc?max_entries=abc",
            "etc?max_entries=2.5",
            "rlc?use_pr1=no",
            "rlc?use_pr2=off",
            "rlc?use_pr3=2",
            "rlc?time_budget=nan",
            "rlc?time_budget=-1",
            "etc?time_budget=-1",
            "etc?max_entries=-1",
            "rlc?ordering=random&seed=abc",
            "rlc?ordering=random&seed=1.5",
            "rlc?ordering=random&seed=true",
        ],
    )
    def test_wrongly_typed_spec_values_rejected(self, spec, fig2):
        with pytest.raises(ReproError, match="must be"):
            create_engine(spec, fig2)

    def test_integer_seed_accepted(self, fig2):
        engine = create_engine("rlc?ordering=random&seed=3", fig2)
        assert engine.query_prepared((1, 0), 2, 5) is True

    def test_numpy_integer_k_accepted(self, fig2):
        assert create_engine("rlc", fig2, k=np.int64(3)).k == 3
        engine = create_engine("etc", fig2, k=np.int64(2), max_entries=np.int64(10**6))
        assert engine.k == 2

    def test_alias_resolves_everywhere_but_is_not_listed(self, fig2):
        assert "rlc" not in engine_names()
        engine = create_engine("rlc", fig2, k=2)
        assert engine.name == "rlc-index"

    def test_filter_options_follows_constructor(self):
        from repro.engine import filter_engine_options

        offered = {"k": 2, "time_budget": None, "bogus": 1}
        assert filter_engine_options("rlc", offered) == {"k": 2}
        assert filter_engine_options("rlc-index?k=3", offered) == {"k": 2}
        assert filter_engine_options("bfs", offered) == {}
        assert filter_engine_options("etc", offered) == {"k": 2}


class TestEngineLifecycle:
    def test_query_before_prepare_raises(self):
        engine = RlcIndexEngine(k=2)
        with pytest.raises(EngineError, match="before prepare"):
            engine.query_prepared((0,), 0, 1)

    def test_prepare_returns_self_and_times_itself(self, fig2):
        engine = RlcIndexEngine(k=2)
        assert engine.prepare(fig2) is engine
        assert engine.prepare_seconds > 0

    def test_counters_accumulate(self, fig2):
        # The engine keeps no counters; its service counts what it sends.
        service = QueryService(create_engine("bfs", fig2), cache_size=0)
        query = RlcQuery(2, 5, (1, 0))
        service.query_outcome(query.source, query.target, query.labels)
        service.run([query, query])
        counters = service.counters()
        assert counters["engine_queries"] == 1
        assert counters["engine_batches"] == 1
        # The run's two occurrences collapse onto one engine call even
        # with the cache off.
        assert counters["engine_batched_queries"] == 1
        assert counters["cache_misses"] == 3
        assert counters["engine_query_seconds"] > 0
        assert counters["engine_prepare_seconds"] > 0

    def test_from_index_wraps_without_prepare(self, fig2_index):
        engine = RlcIndexEngine.from_index(fig2_index)
        assert engine.prepared
        assert engine.backend is fig2_index
        assert engine.query_prepared((1, 0), 2, 5) is True

    def test_from_index_binds_a_matching_graph(self, fig2, fig2_index):
        engine = RlcIndexEngine.from_index(fig2_index, fig2)
        assert engine.graph is fig2 and engine.backend is fig2_index
        assert engine.query_prepared((1, 0), 2, 5) is True

    @pytest.mark.parametrize(
        "vertices, labels", [(1, 0), (0, 1)], ids=["vertices", "labels"]
    )
    def test_from_index_rejects_a_graph_of_another_size(
        self, fig2, fig2_index, vertices, labels
    ):
        other = EdgeLabeledDigraph(
            fig2.num_vertices + vertices, [], num_labels=fig2.num_labels + labels
        )
        with pytest.raises(GraphError) as caught:
            RlcIndexEngine.from_index(fig2_index, other)
        message = str(caught.value)
        assert f"{other.num_vertices} vertices / {other.num_labels} labels" in message
        assert (
            f"{fig2_index.num_vertices} vertices / {fig2_index.num_labels} labels"
            in message
        )


class TestBatchedRlcIndex:
    def test_batch_groups_constraints(self, fig2_index):
        engine = RlcIndexEngine.from_index(fig2_index)
        queries = [
            RlcQuery(2, 5, (1, 0)),   # true (Table II running example)
            RlcQuery(0, 2, (0,)),     # false
            RlcQuery(2, 5, (0,)),     # shares the constraint above
            RlcQuery(5, 2, (1, 0)),   # shares the first constraint
        ]
        sequential = [
            engine.query_prepared(q.labels, q.source, q.target)
            for q in queries
        ]
        assert engine.query_batch(queries) == sequential

    def test_batch_validates_every_endpoint(self, fig2_index):
        from repro.errors import QueryError

        engine = RlcIndexEngine.from_index(fig2_index)
        with pytest.raises(QueryError, match="unknown source"):
            engine.query_batch([RlcQuery(2, 5, (1, 0)), RlcQuery(99, 5, (1, 0))])

    def test_batch_rejects_bad_constraints(self, fig2_index):
        from repro.errors import NonPrimitiveConstraintError

        engine = RlcIndexEngine.from_index(fig2_index)
        with pytest.raises(NonPrimitiveConstraintError):
            engine.query_batch([RlcQuery(2, 5, (1, 1))])

    def test_empty_batch(self, fig2_index):
        engine = RlcIndexEngine.from_index(fig2_index)
        assert engine.query_batch([]) == []


class TestEngineBatches:
    """``EngineBase.query_batch``, the one batched path of every engine;
    ``test_engine_parity.py`` checks its answers and errors."""

    @pytest.fixture
    def graph(self):
        return EdgeLabeledDigraph(
            4, [(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 0), (1, 2, 1)], num_labels=3
        )

    @staticmethod
    def _mixed_batch(graph):
        constraints = all_primitive_constraints(graph.num_labels, 2)[:4]
        return [
            RlcQuery(s, t, constraints[(s + t) % len(constraints)])
            for s in range(graph.num_vertices)
            for t in range(graph.num_vertices)
        ]

    @pytest.mark.parametrize(
        "name", ("bfs", "bibfs", "dfs", "sys1", "sys2", "virtuoso-sim")
    )
    def test_one_automaton_per_distinct_constraint(self, name, graph, monkeypatch):
        import repro.engine.base as base_module

        calls = []
        real = base_module.constraint_automaton
        monkeypatch.setattr(
            base_module,
            "constraint_automaton",
            lambda labels, **kw: (calls.append(tuple(labels)), real(labels, **kw))[1],
        )
        engine = create_engine(name, graph)
        batch = self._mixed_batch(graph)
        engine.query_batch(batch)
        assert sorted(calls) == sorted({q.labels for q in batch})


class TestBudgetedEngines:
    def test_etc_budget_surfaces_at_create(self):
        from repro.graph import generators

        graph = generators.labeled_erdos_renyi(300, 4, 4, seed=3)
        with pytest.raises(BudgetExceededError):
            create_engine("etc", graph, k=2, max_entries=10)
