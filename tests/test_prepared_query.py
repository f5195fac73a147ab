"""Tests for the prepared-query lifecycle (prepare -> execute -> outcome).

Covers the PR-5 API redesign end to end:

- :class:`PreparedQuery` compilation artifacts (normalization, NFA,
  digest stability);
- randomized parity between ``query_prepared`` and the legacy bool
  path for every registry engine;
- witness-path validity for every engine advertising the ``witness``
  capability: the returned path must be a real path of the graph whose
  label sequence is a power of the constraint;
- :class:`QueryOutcome` provenance through the service layer (cache
  layer attribution, prepared-constraint digests);
- capability-based engine selection and the error taxonomy
  (:class:`EngineOptionError` naming the spec, ``CapabilityError``
  naming the engine).
"""

from __future__ import annotations

import pytest

from repro.engine import (
    KNOWN_CAPABILITIES,
    PreparedQuery,
    QueryOutcome,
    QueryService,
    RlcIndexEngine,
    create_engine,
    engine_capabilities,
    engine_names,
    engines_with_capabilities,
    get_engine_class,
)
from repro.errors import (
    CapabilityError,
    EngineError,
    EngineOptionError,
    QueryError,
)
from repro.queries import RlcQuery

from tests.helpers import all_primitive_constraints, brute_force_rlc, random_graph

FLAT_ENGINES = ("rlc-index", "bfs", "bibfs", "dfs", "etc", "sys1", "sys2", "virtuoso-sim")


def build(spec: str, graph, k: int = 2):
    """Create an engine, passing k only where its constructor accepts it."""
    from repro.engine import filter_engine_options

    return create_engine(spec, graph, **filter_engine_options(spec, {"k": k}))


def assert_witness_valid(graph, source, target, labels, witness):
    """A witness must be a real path spelling a power of the constraint."""
    vertices, path_labels = witness
    m = len(labels)
    assert vertices[0] == source
    assert vertices[-1] == target
    assert len(path_labels) == len(vertices) - 1
    assert len(path_labels) >= m and len(path_labels) % m == 0
    assert tuple(path_labels) == tuple(labels) * (len(path_labels) // m)
    for u, label, v in zip(vertices, path_labels, vertices[1:]):
        assert graph.has_edge(u, label, v), (u, label, v)


class TestPreparedQueryObject:
    def test_normalizes_and_compiles_once(self, fig2):
        engine = create_engine("bfs", fig2)
        prepared = engine.prepare_query([1, 0])
        assert prepared.labels == (1, 0)
        assert prepared.m == 2
        assert prepared.nfa is prepared.nfa  # memoized
        assert prepared.constraint_text() == "(1, 0)+"

    def test_digest_is_spelling_independent_and_length_sensitive(self, fig2):
        engine = create_engine("bfs", fig2)
        assert (
            engine.prepare_query((1, 0)).digest
            == engine.prepare_query([1, 0]).digest
        )
        assert (
            engine.prepare_query((0,)).digest
            != engine.prepare_query((0, 1)).digest
        )

    def test_polymorphic_prepare(self, fig2):
        engine = create_engine("bfs", fig2)
        prepared = engine.prepare((1, 0))
        assert isinstance(prepared, PreparedQuery)
        # Graph binding still returns the engine itself.
        assert create_engine("bfs", fig2).prepare(fig2).prepared

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


class TestCapabilities:
    def test_every_engine_declares_known_capabilities(self):
        for name in engine_names():
            assert frozenset(get_engine_class(name).capabilities) <= KNOWN_CAPABILITIES

    def test_selection_by_feature(self):
        assert "rlc-index" in engines_with_capabilities("witness", "batch-grouped")
        assert engines_with_capabilities("dynamic") == ()
        for name in ("sys1", "sys2", "virtuoso-sim"):
            assert name not in engines_with_capabilities("batch-grouped")

    def test_unknown_capability_token_rejected(self):
        with pytest.raises(EngineError, match="unknown capabilities"):
            engines_with_capabilities("telepathy")

    def test_spec_reports_outermost_capabilities(self):
        # A spec's parameters configure the engine, not its features.
        assert engine_capabilities("rlc?k=3") == engine_capabilities("rlc-index")
        assert "batch-grouped" in engine_capabilities("rlc?k=3")

    def test_unknown_declaration_fails_at_class_definition(self):
        from repro.engine.base import EngineBase

        with pytest.raises(EngineError, match="telepathy"):

            class Bogus(EngineBase):  # noqa: F841
                name = "bogus"
                capabilities = frozenset({"telepathy"})


class TestPreparedParity:
    """Prepared answers match the legacy bool path on random graphs."""

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
                        outcome = engine.query_prepared(prepared, source, target)
                        assert isinstance(outcome, QueryOutcome)
                        expected = brute_force_rlc(graph, source, target, labels)
                        assert outcome.answer == expected, (
                            spec, seed, source, target, labels,
                        )
                        checked += 1
        assert checked > 100

    def test_prepared_reusable_across_engines(self, fig2):
        prepared = create_engine("rlc-index", fig2, k=2).prepare_query((1, 0))
        for spec in ("bfs", "bibfs", "dfs"):
            engine = create_engine(spec, fig2)
            assert engine.query_prepared(prepared, 2, 5).answer is True
            assert engine.query_prepared(prepared, 0, 2).answer is False

    def test_reprepared_engine_never_serves_stale_memos(self):
        # Regression: re-binding an engine to a new graph must rotate
        # its PreparedQuery.state key, or hub lists memoized under the
        # old graph answer for the new one.
        from repro.graph.digraph import EdgeLabeledDigraph

        connected = EdgeLabeledDigraph(2, [(0, 0, 1)], num_labels=1)
        empty = EdgeLabeledDigraph(2, [], num_labels=1)
        engine = RlcIndexEngine(k=1).prepare(connected)
        prepared = engine.prepare_query((0,))
        assert engine.query_prepared(prepared, 0, 1).answer is True
        engine.prepare(empty)
        assert engine.query_prepared(prepared, 0, 1).answer is False

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
                        ).answer == expected
                        assert second.query_prepared(
                            prepared, source, target
                        ).answer == expected


class TestWitnessParity:
    """Every witness-capable engine returns genuinely path-valid witnesses."""

    @pytest.mark.parametrize("spec", engines_with_capabilities("witness"))
    def test_witnesses_are_real_paths(self, spec):
        verified = 0
        for seed in range(5):
            graph = random_graph(seed + 100, max_vertices=8)
            engine = build(spec, graph)
            assert engine.witness_ready
            for labels in all_primitive_constraints(graph.num_labels, 2):
                prepared = engine.prepare_query(labels)
                for source in range(graph.num_vertices):
                    for target in range(0, graph.num_vertices, 2):
                        outcome = engine.query_prepared(
                            prepared, source, target, witness=True
                        )
                        if not outcome.answer:
                            assert outcome.witness is None
                            continue
                        assert outcome.witness is not None
                        assert_witness_valid(
                            graph, source, target, labels, outcome.witness
                        )
                        verified += 1
        assert verified > 50, f"{spec}: too few true queries to verify"

    def test_witness_without_capability_raises(self, fig2):
        engine = create_engine("bfs", fig2)
        engine.capabilities = frozenset()  # instance-level mask
        with pytest.raises(CapabilityError, match="'bfs'.*witness"):
            engine.query_prepared(engine.prepare_query((1, 0)), 2, 5, witness=True)

    def test_witness_without_graph_raises(self, fig2_index):
        engine = RlcIndexEngine.from_index(fig2_index)
        assert not engine.witness_ready
        prepared = engine.prepare_query((1, 0))
        assert engine.query_prepared(prepared, 2, 5).answer is True
        with pytest.raises(EngineError, match="no bound graph"):
            engine.query_prepared(prepared, 2, 5, witness=True)


class TestServiceOutcomes:
    def test_cache_layer_attribution(self, fig2, tmp_path):
        from repro.api import PersistentResultCache, cache_file_name

        store = PersistentResultCache(
            tmp_path / "c.json", graph_digest="d", engine_spec="rlc-index"
        )
        service = QueryService(
            create_engine("rlc-index", fig2, k=2), store=store
        )
        first = service.query_outcome(2, 5, (1, 0))
        assert first.answer is True and first.cache_layer is None
        second = service.query_outcome(2, 5, (1, 0))
        assert second.cache_layer == "lru" and second.cached
        # A fresh service over the same store hits the persistent layer.
        warm = QueryService(create_engine("rlc-index", fig2, k=2), store=store)
        assert warm.query_outcome(2, 5, (1, 0)).cache_layer == "store"

    def test_equivalent_spellings_share_one_cache_entry(self, fig2):
        import numpy as np

        service = QueryService(create_engine("rlc-index", fig2, k=2))
        assert service.query_outcome(2, 5, (1, 0)).cache_layer is None
        assert (
            service.query_outcome(2, 5, [np.int64(1), np.int64(0)]).cache_layer
            == "lru"
        )
        assert service.counters()["prepared_constraints"] == 1

    def test_cached_outcome_can_still_attach_witness(self, fig2):
        service = QueryService(create_engine("rlc-index", fig2, k=2))
        service.query(2, 5, (1, 0))
        outcome = service.query_outcome(2, 5, (1, 0), witness=True)
        assert outcome.cache_layer == "lru"
        assert_witness_valid(fig2, 2, 5, (1, 0), outcome.witness)

    def test_service_prepare_is_memoized(self, fig2):
        service = QueryService(create_engine("bfs", fig2))
        assert service.prepare((1, 0)) is service.prepare([1, 0])

    def test_peek_is_a_safe_probe_on_malformed_constraints(self, fig2):
        service = QueryService(create_engine("rlc-index", fig2, k=2))
        assert service.peek(0, 1, (0, 0)) is None  # non-primitive
        assert service.peek(0, 1, (99,)) is None  # unknown label
        assert service.peek(0, 1, (0, 1, 0)) is None  # over k

    def test_witness_request_on_legacy_engine_raises(self, fig2, fig2_index):
        class LegacyEngine:
            name = "legacy"

            def query(self, query):
                return fig2_index.query(query.source, query.target, query.labels)

            def stats(self):
                from repro.engine import EngineStats

                return EngineStats()

        service = QueryService(LegacyEngine())
        assert service.query_outcome(2, 5, (1, 0)).answer is True
        with pytest.raises(CapabilityError, match="legacy"):
            service.query_outcome(2, 5, (1, 0), witness=True)

    def test_outcome_truthiness_matches_answer(self, fig2):
        engine = create_engine("bfs", fig2)
        assert engine.query_prepared(engine.prepare_query((1, 0)), 2, 5)
        assert not engine.query_prepared(engine.prepare_query((0,)), 0, 2)


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
