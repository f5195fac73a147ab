"""Tests for the prepared-query lifecycle (prepare -> execute -> outcome).

Covers the PR-5 API redesign end to end:

- :class:`PreparedQuery` compilation artifacts (normalization, NFA)
  and the engine's check-once stamp;
- randomized parity between ``query_prepared`` and the brute-force
  oracle for every registry engine;
- witnesses need a graph (that every engine's true answers get a
  real path spelling a power of the constraint is checked by the
  differential harness, ``test_engine_parity.py``);
- :class:`QueryOutcome` provenance through the service layer (cache
  layer attribution, one cache entry per normalized constraint);
- the error taxonomy (:class:`EngineOptionError` naming the spec,
  ``CapabilityError`` naming the engine).
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.engine import (
    PreparedQuery,
    QueryService,
    RlcIndexEngine,
    create_engine,
    filter_engine_options,
)
from repro.errors import (
    CapabilityError,
    EngineError,
    EngineOptionError,
    QueryError,
)
from repro.queries import RlcQuery

from tests.helpers import (
    all_primitive_constraints,
    assert_witness_valid,
    brute_force_rlc,
    random_graph,
)

FLAT_ENGINES = ("rlc-index", "bfs", "bibfs", "dfs", "etc", "sys1", "sys2", "virtuoso-sim")


def build(spec: str, graph, k: int = 2):
    """Create an engine, passing k only where its constructor accepts it."""
    return create_engine(spec, graph, **filter_engine_options(spec, {"k": k}))


class TestPreparedQueryObject:
    def test_normalizes_and_compiles_once(self, fig2):
        engine = create_engine("bfs", fig2)
        prepared = engine.prepare_query([1, 0])
        assert prepared.labels == (1, 0)
        assert prepared.m == 2
        assert prepared.nfa is prepared.nfa  # memoized
        assert prepared.constraint_text() == "(1, 0)+"

    def test_equality_and_hash_by_labels(self, fig2):
        engine = create_engine("bfs", fig2)
        assert engine.prepare_query((1, 0)) == engine.prepare_query([1, 0])
        assert len({engine.prepare_query((1, 0)), engine.prepare_query((1, 0))}) == 1

    def test_as_dict_is_json_ready(self, fig2):
        import json

        payload = create_engine("bfs", fig2).prepare_query((1, 0)).as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["m"] == 2 and payload["labels"] == [1, 0]

    def test_hand_built_prepared_queries_enforce_primitivity(self):
        # The structural contract holds even for objects built outside
        # prepare_query — a smuggled non-primitive constraint would
        # make engines silently disagree instead of raising.
        from repro.errors import NonPrimitiveConstraintError

        with pytest.raises(NonPrimitiveConstraintError):
            PreparedQuery((0, 0), num_labels=2)
        with pytest.raises(QueryError, match="at least one label"):
            PreparedQuery((), num_labels=2)

    def test_invalid_constraints_rejected_at_prepare(self, fig2):
        engine = create_engine("rlc-index", fig2, k=2)
        with pytest.raises(QueryError, match="unknown label id"):
            engine.prepare_query((99,))
        with pytest.raises(QueryError, match="at least one label"):
            engine.prepare_query(())
        with pytest.raises(CapabilityError, match="'rlc-index'.*k=2"):
            engine.prepare_query((0, 1, 0))

    def test_foreign_prepared_rechecked_for_engine_limits(self, fig2):
        wide = create_engine("bfs", fig2)  # no k bound
        narrow = create_engine("rlc-index", fig2, k=1)
        prepared = wide.prepare_query((1, 0))
        with pytest.raises(CapabilityError, match="'rlc-index'"):
            narrow.query_prepared(prepared, 2, 5)


class TestPreparedParity:
    """Prepared answers match the brute-force oracle on random graphs."""

    @pytest.mark.parametrize("spec", FLAT_ENGINES)
    def test_prepared_matches_legacy_and_oracle(self, spec):
        checked = 0
        for seed in range(6):
            graph = random_graph(seed, max_vertices=8)
            engine = build(spec, graph)
            for labels in all_primitive_constraints(graph.num_labels, 2):
                prepared = engine.prepare_query(labels)
                for source in range(0, graph.num_vertices, 2):
                    for target in range(0, graph.num_vertices, 3):
                        answer = engine.query_prepared(prepared, source, target)
                        assert type(answer) is bool
                        expected = brute_force_rlc(graph, source, target, labels)
                        assert answer == expected, (
                            spec, seed, source, target, labels,
                        )
                        checked += 1
        assert checked > 100

    def test_prepared_reusable_across_engines(self, fig2):
        prepared = create_engine("rlc-index", fig2, k=2).prepare_query((1, 0))
        for spec in ("bfs", "bibfs", "dfs"):
            engine = create_engine(spec, fig2)
            assert engine.query_prepared(prepared, 2, 5) is True
            assert engine.query_prepared(prepared, 0, 2) is False

    def test_reprepared_engine_never_serves_stale_memos(self):
        # Regression: re-binding an engine to a new graph must rotate
        # its PreparedQuery.state key, or hub lists memoized under the
        # old graph answer for the new one.
        from repro.graph.digraph import EdgeLabeledDigraph

        connected = EdgeLabeledDigraph(2, [(0, 0, 1)], num_labels=1)
        empty = EdgeLabeledDigraph(2, [], num_labels=1)
        engine = RlcIndexEngine(k=1).prepare(connected)
        prepared = engine.prepare_query((0,))
        assert engine.query_prepared(prepared, 0, 1) is True
        engine.prepare(empty)
        assert engine.query_prepared(prepared, 0, 1) is False

    def test_foreign_prepared_is_never_stamped(self, fig2):
        wide = create_engine("bfs", fig2)
        narrow = create_engine("rlc-index", fig2, k=1)
        foreign = wide.prepare_query((0,))
        hand_built = PreparedQuery((0,), num_labels=fig2.num_labels)
        for prepared, stamp in ((foreign, wide.backend), (hand_built, None)):
            assert narrow.query_prepared(prepared, 0, 2) is False
            assert prepared._checked_by is stamp

    def test_stamp_never_outlives_a_reprepare(self, fig2):
        from repro.graph.digraph import EdgeLabeledDigraph

        engine = RlcIndexEngine(k=2).prepare(fig2)
        prepared = engine.prepare_query((2,))
        engine.prepare(EdgeLabeledDigraph(2, [(0, 0, 1)], num_labels=1))
        with pytest.raises(QueryError, match="label id 2.*'rlc-index'"):
            engine.query_prepared(prepared, 0, 1)

    def test_state_memos_are_per_engine_instance(self):
        # Regression: PreparedQuery.state used to be keyed by engine
        # *name*, so two rlc-index instances with different orderings
        # (hence different hub access ids) sharing one prepared query
        # served each other's memoized hub lists and answered wrongly.
        for seed in range(4):
            graph = random_graph(seed, max_vertices=8)
            first = create_engine("rlc-index", graph, k=2, ordering="in-out")
            second = create_engine(
                "rlc-index", graph, k=2, ordering="random", seed=7
            )
            for labels in all_primitive_constraints(graph.num_labels, 2):
                prepared = first.prepare_query(labels)
                for source in range(graph.num_vertices):
                    for target in range(graph.num_vertices):
                        expected = brute_force_rlc(graph, source, target, labels)
                        # Warm first's memo slice, then ask second.
                        assert first.query_prepared(
                            prepared, source, target
                        ) == expected
                        assert second.query_prepared(
                            prepared, source, target
                        ) == expected


class TestWitnessParity:
    """Witnesses need a graph; the differential harness checks them on
    every engine's true answers (``test_engine_parity.py``)."""

    def test_witness_without_graph_raises(self, fig2_index):
        session = Session.from_prepared(
            RlcIndexEngine.from_index(fig2_index), spec="rlc-index"
        )
        assert session.query(2, 5, (1, 0)) is True
        with pytest.raises(EngineError, match="no bound graph"):
            session.query_outcome(2, 5, (1, 0), witness=True)


class TestServiceOutcomes:
    def test_cached_flag_attribution(self, fig2):
        import numpy as np

        service = QueryService(create_engine("rlc-index", fig2, k=2))
        first = service.query_outcome(2, 5, (1, 0))
        assert first.answer is True and first.cached is False
        second = service.query_outcome(2, 5, (1, 0))
        assert second.answer is True and second.cached is True
        # A numpy-int spelling hits the same label-keyed LRU entry.
        third = service.query_outcome(2, 5, [np.int64(1), np.int64(0)])
        assert third.cached is True
        assert service.cache_len == 1

    def test_equivalent_spellings_share_one_cache_entry(self, fig2):
        import numpy as np

        service = QueryService(create_engine("rlc-index", fig2, k=2))
        assert service.query_outcome(2, 5, (1, 0)).cached is False
        assert service.query_outcome(2, 5, [np.int64(1), np.int64(0)]).cached
        assert service.counters()["prepared_constraints"] == 1

    def test_cached_outcome_can_still_attach_witness(self, fig2):
        session = Session(fig2)
        session.query(2, 5, (1, 0))
        outcome = session.query_outcome(2, 5, (1, 0), witness=True)
        assert outcome.cached
        assert_witness_valid(fig2, 2, 5, (1, 0), outcome.witness)

    def test_service_prepare_is_memoized(self, fig2):
        service = QueryService(create_engine("bfs", fig2))
        assert service.prepare((1, 0)) is service.prepare([1, 0])

    def test_outcome_truthiness_matches_answer(self, fig2):
        service = QueryService(create_engine("bfs", fig2))
        assert service.query_outcome(2, 5, (1, 0))
        assert not service.query_outcome(0, 2, (0,))


class TestErrorTaxonomy:
    def test_engine_option_error_names_the_spec(self, fig2):
        # Options the constructor rejects name the full spec ...
        with pytest.raises(EngineOptionError, match="'bibfs[?]bogus_option=1'"):
            create_engine("bibfs?bogus_option=1", fig2)
        # ... and remain TypeErrors for legacy except-sites.
        with pytest.raises(TypeError):
            create_engine("bfs", fig2, k=2)

    def test_unknown_label_message_names_label_and_universe(self, fig2):
        engine = create_engine("bfs", fig2)
        with pytest.raises(QueryError, match=r"99.*valid ids 0\.\.2"):
            engine.prepare_query((99,))

    def test_foreign_prepared_label_universe_mismatch_named(self, fig2):
        wide = PreparedQuery((5,), num_labels=9)
        engine = create_engine("bfs", fig2)
        with pytest.raises(QueryError, match="label id 5.*'bfs'"):
            engine.query_prepared(wide, 0, 1)
