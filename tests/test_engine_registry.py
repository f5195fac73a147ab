"""Tests for the engine protocol, registry and adapters."""

from __future__ import annotations

import pytest

from repro.engine import (
    EngineBase,
    ReachabilityEngine,
    RlcIndexEngine,
    available_engines,
    create_engine,
    engine_names,
    get_engine_class,
    parse_engine_spec,
    register,
    register_alias,
    resolve_engine_spec,
)
from repro.errors import BudgetExceededError, EngineError
from repro.queries import RlcQuery

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
        assert isinstance(engine, ReachabilityEngine)
        assert engine.prepared
        assert engine.name == name

    def test_lookup_is_case_insensitive(self, fig2):
        assert get_engine_class("BiBFS") is get_engine_class("bibfs")

    def test_unknown_name_lists_known_engines(self):
        with pytest.raises(EngineError, match="known engines.*rlc-index"):
            get_engine_class("no-such-engine")

    def test_duplicate_registration_rejected(self):
        class Impostor(EngineBase):
            name = "bfs"

        with pytest.raises(EngineError, match="already registered"):
            register(Impostor)

    def test_reregistering_same_class_is_idempotent(self):
        cls = get_engine_class("bfs")
        assert register(cls) is cls

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
        assert engine.query(RlcQuery(2, 5, (1, 0))) is True

    def test_alias_resolves_everywhere_but_is_not_listed(self, fig2):
        assert "rlc" not in engine_names()
        engine = create_engine("rlc", fig2, k=2)
        assert engine.name == "rlc-index"

    def test_alias_cannot_shadow_engine(self):
        with pytest.raises(EngineError, match="shadows"):
            register_alias("bfs", "rlc-index")
        with pytest.raises(EngineError, match="unknown engine"):
            register_alias("fresh-alias", "no-such-engine")

    def test_realiasing_same_target_is_idempotent(self):
        register_alias("rlc", "rlc-index")  # already bound to the same target

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
            engine.query(RlcQuery(0, 1, (0,)))

    def test_prepare_returns_self_and_times_itself(self, fig2):
        engine = RlcIndexEngine(k=2)
        assert engine.prepare(fig2) is engine
        assert engine.stats().prepare_seconds > 0

    def test_counters_accumulate(self, fig2):
        engine = create_engine("bfs", fig2)
        query = RlcQuery(2, 5, (1, 0))
        engine.query(query)
        engine.query_batch([query, query])
        stats = engine.stats()
        assert stats.queries == 1
        assert stats.batches == 1
        assert stats.batched_queries == 2
        assert stats.query_seconds > 0
        assert stats.as_dict()["queries"] == 1

    def test_from_index_wraps_without_prepare(self, fig2_index):
        engine = RlcIndexEngine.from_index(fig2_index)
        assert engine.prepared
        assert engine.backend is fig2_index
        assert engine.query(RlcQuery(2, 5, (1, 0))) is True


class TestBatchedRlcIndex:
    def test_batch_groups_constraints(self, fig2_index):
        engine = RlcIndexEngine.from_index(fig2_index)
        queries = [
            RlcQuery(2, 5, (1, 0)),   # true (Table II running example)
            RlcQuery(0, 2, (0,)),     # false
            RlcQuery(2, 5, (0,)),     # shares the constraint above
            RlcQuery(5, 2, (1, 0)),   # shares the first constraint
        ]
        sequential = [engine.query(q) for q in queries]
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


class TestBudgetedEngines:
    def test_etc_budget_surfaces_at_create(self):
        from repro.graph import generators

        graph = generators.labeled_erdos_renyi(300, 4, 4, seed=3)
        with pytest.raises(BudgetExceededError):
            create_engine("etc", graph, k=2, max_entries=10)
