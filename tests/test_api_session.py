"""Tests for the :class:`repro.api.Session` facade."""

from __future__ import annotations

import gc
import re
import warnings

import numpy as np
import pytest

import repro
from repro.api import Session
from repro.core import RlcIndex, build_rlc_index
from repro.engine import (
    EngineBase,
    PreparedQuery,
    QueryService,
    RlcIndexEngine,
    create_engine,
    engine_names,
)
from repro.errors import EngineError, GraphError, QueryError
from repro.graph import generators
from repro.graph.generators import paper_figure2
from repro.graph.io import write_edge_list
from repro.queries import RlcQuery
from repro.workloads import generate_workload


@pytest.fixture(scope="module")
def random_graph():
    return generators.labeled_erdos_renyi(120, 3, 4, seed=11)


@pytest.fixture(scope="module")
def random_workload(random_graph):
    return generate_workload(
        random_graph, 2, num_true=30, num_false=30, seed=5, graph_name="er"
    )


class TestOpening:
    def test_in_memory_graph(self, fig2):
        session = Session(fig2)
        assert session.graph is fig2
        assert session.query(2, 5, (1, 0)) is True

    def test_graph_file_path(self, tmp_path):
        path = tmp_path / "fig2.txt"
        write_edge_list(paper_figure2(), path)
        with Session(path) as session:
            assert session.graph.num_edges == paper_figure2().num_edges
            assert session.name == str(path)

    def test_dataset_name(self):
        with Session("AD", scale=0.2) as session:
            assert session.graph.num_vertices > 0
            assert session.name == "AD"

    def test_unknown_source_raises(self, tmp_path):
        with pytest.raises(GraphError, match="not a file and not one of"):
            Session(str(tmp_path / "missing.txt"))

    def test_wrong_type_raises(self):
        with pytest.raises(GraphError, match="expected"):
            Session(42)


class TestEngineMemoization:
    def test_same_spec_returns_same_engine(self, fig2):
        session = Session(fig2)
        assert session.engine("bfs") is session.engine("bfs")

    def test_distinct_specs_and_options_are_distinct(self, fig2):
        session = Session(fig2)
        assert session.engine("rlc-index?k=2") is not session.engine("rlc-index?k=3")
        assert session.engine("rlc-index", k=2) is not session.engine("rlc-index", k=3)

    def test_service_shares_the_engine(self, fig2):
        session = Session(fig2)
        assert session.service("bibfs").engine is session.engine("bibfs")

    def test_engine_specs_lists_prepared(self, fig2):
        session = Session(fig2)
        session.engine("bfs")
        session.engine("dfs")
        assert session.engine_specs() == ("bfs", "dfs")

    @pytest.mark.parametrize(
        "spec, options",
        [
            ("rlc", {}),
            ("rlc-index", {}),
            ("rlc-index?k=2", {}),
            ("rlc-index", {"k": 2}),
            ("RLC?k=2&strategy=eager", {}),
        ],
    )
    def test_equivalent_spellings_share_one_engine(self, fig2, spec, options):
        session = Session(fig2)
        default = session.engine()
        assert session.engine(spec, **options) is default
        assert session.service(spec, **options) is session.service()
        assert session.engine_specs() == ("rlc-index",)

    def test_aliases_share_one_cache(self, fig2):
        session = Session(fig2)
        assert session.query_outcome(2, 5, (1, 0), engine="rlc").cached is False
        assert session.query_outcome(2, 5, (1, 0), engine="rlc-index", k=2).cached
        assert session.stats()["rlc"]["cache_hits"] == 1

    def test_string_option_is_not_the_int_option(self, fig2):
        # "2" == 2 once both are rendered with str; the memo must not
        # hand the k=2 engine to an option its constructor rejects.
        session = Session(fig2)
        with pytest.raises(QueryError, match="recursive k"):
            session.engine("rlc", k="2")
        session.engine("rlc", k=2)
        with pytest.raises(QueryError, match="recursive k"):
            session.engine("rlc", k="2")
        with pytest.raises(QueryError, match="recursive k"):
            session.query(2, 5, (1, 0), engine="rlc", k="2")

    def test_build_ends_with_one_full_collection(self, fig2):
        # The new index's containers must not leave the collector a full
        # pass to run during the queries that follow the build.
        generations = []

        def record(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        session = Session(fig2)
        gc.callbacks.append(record)
        try:
            session.engine()
            built = list(generations)
            session.engine("rlc")
        finally:
            gc.callbacks.remove(record)
        assert built and built[-1] == 2
        assert generations == built  # a memo hit builds and collects nothing

    def test_unknown_option_still_names_the_spec(self, fig2):
        from repro.errors import EngineOptionError

        session = Session(fig2)
        with pytest.raises(EngineOptionError, match="'bfs'"):
            session.engine("bfs", k=2)
        assert session.engine_specs() == ()


class TestParityWithFlatService:
    """Acceptance: the facade answers byte-identically to QueryService."""

    @pytest.mark.parametrize("spec", ["rlc-index", "bibfs", "rlc?k=3"])
    def test_run_matches_flat_service(self, spec, random_graph, random_workload):
        from repro.engine import filter_engine_options

        options = filter_engine_options(spec, {"k": 2})
        flat = QueryService(create_engine(spec, random_graph, **options))
        flat_report = flat.run(random_workload)
        session = Session(random_graph)
        report = session.run(random_workload, engine=spec, **options)
        assert report.answers == flat_report.answers
        assert report.ok and flat_report.ok

    def test_point_queries_match(self, random_graph, random_workload):
        flat = QueryService(create_engine("rlc-index", random_graph, k=2))
        session = Session(random_graph)
        for query in random_workload:
            expected = flat.query_outcome(
                query.source, query.target, query.labels
            ).answer
            assert session.query(query.source, query.target, query.labels) == expected

    def test_run_accepts_workload_path(self, tmp_path, random_graph, random_workload):
        from repro.workloads import save_workload

        path = tmp_path / "w.txt"
        save_workload(random_workload, path)
        session = Session(random_graph)
        report = session.run(path)
        assert report.ok
        assert report.total == len(list(random_workload))


class TestExplain:
    def test_explain_reports_answer_and_witness(self, fig2):
        session = Session(fig2)
        explanation = session.explain(2, 5, (1, 0))
        assert explanation["answer"] is True
        assert explanation["engine"] == "rlc-index"
        assert explanation["cached"] is False
        assert explanation["seconds"] >= 0.0
        witness = explanation["witness"]
        assert witness["vertices"][0] == 2 and witness["vertices"][-1] == 5
        assert len(witness["labels"]) % 2 == 0

    def test_explain_sees_cache_on_second_call(self, fig2):
        session = Session(fig2)
        assert session.explain(2, 5, (1, 0))["cached"] is False
        assert session.explain(2, 5, (1, 0))["cached"] is True

    def test_false_answer_has_no_witness(self, fig2):
        session = Session(fig2)
        explanation = session.explain(0, 2, (0,))
        assert explanation["answer"] is False
        assert "witness" not in explanation


class TestFromPrepared:
    def test_adopts_loaded_index(self, fig2, fig2_index):
        engine = RlcIndexEngine.from_index(fig2_index)
        session = Session.from_prepared(
            engine, spec="rlc-index?k=2", graph_name="fig2"
        )
        assert session.name == "fig2"
        assert session.query(2, 5, (1, 0)) is True
        assert session.engine() is engine

    def test_rejects_unprepared_engine(self):
        with pytest.raises(EngineError, match="prepared engine"):
            Session.from_prepared(RlcIndexEngine(), spec="rlc-index")

    def test_graph_property_raises_without_graph(self, fig2_index):
        session = Session.from_prepared(
            RlcIndexEngine.from_index(fig2_index), spec="rlc-index"
        )
        with pytest.raises(EngineError, match="no graph"):
            session.graph

    def test_rejects_unknown_options(self, fig2_index):
        with pytest.raises(EngineError, match="unknown from_prepared"):
            Session.from_prepared(
                RlcIndexEngine.from_index(fig2_index), spec="rlc-index", bogus=1
            )


class TestLifecycle:
    def test_closed_session_refuses_queries(self, fig2):
        session = Session(fig2)
        session.close()
        with pytest.raises(EngineError, match="closed"):
            session.query(2, 5, (1, 0))

    def test_close_is_idempotent(self, fig2):
        session = Session(fig2)
        session.close()
        session.close()

    def test_context_manager_closes(self, fig2):
        with Session(fig2) as session:
            session.query(2, 5, (1, 0))
        assert "closed" in repr(session)

    def test_stats_expose_service_counters(self, fig2):
        session = Session(fig2)
        session.query(2, 5, (1, 0))
        session.query(2, 5, (1, 0))
        counters = session.stats()["rlc-index"]
        assert counters["cache_hits"] == 1
        assert counters["cache_misses"] == 1


#: Names the top-level package no longer exports: the engine layer is
#: imported from :mod:`repro.engine`; ``DynamicRlcIndex`` and
#: ``open_session`` (spell it ``Session(...)``) are gone.
RETIRED = (
    "DynamicRlcIndex",
    "EngineStats",
    "QueryService",
    "ReachabilityEngine",
    "ServiceReport",
    "available_engines",
    "create_engine",
    "engine_names",
    "open_session",
)


class TestPackageSurface:
    """``repro`` exposes its facade only, with no import shims."""

    def test_canonical_engine_imports_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.engine import QueryService, create_engine  # noqa: F401

    def test_facade_imports_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro import Session  # noqa: F401

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
        for name in RETIRED:
            assert name not in dir(repro)
            with pytest.raises(AttributeError, match=name):
                getattr(repro, name)

    def test_all_names_resolve(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in repro.__all__:
                assert getattr(repro, name) is not None, name

    #: The public query surface, one owner per decision: the index
    #: probes, the engine answers a bool, the service builds the
    #: outcome, the session attaches witnesses.  "perfbench" marks the
    #: names perfbench/spans.py wraps through the owner's ``__dict__``.
    QUERY_SURFACE = {
        RlcIndex: {
            "query",
            "query_batch",  # perfbench
            "query_mr",  # perfbench
        },
        EngineBase: {
            "prepare_query",  # perfbench
            "query_batch",  # perfbench
            "query_prepared",  # perfbench
        },
        QueryService: {
            "prepare",
            "query_outcome",  # perfbench
            "run",  # perfbench
        },
        Session: {
            "explain",
            "prepare",
            "query",
            "query_outcome",  # perfbench
            "run",
        },
    }
    #: A matching name that builds an engine rather than answering.
    LIFECYCLE = {(EngineBase, "prepare")}

    def test_query_surface_is_pinned(self):
        pattern = re.compile(r"query\w*|\w*_query|explain\w*|witness\w*|run|prepare")
        for owner, expected in self.QUERY_SURFACE.items():
            names = {
                name
                for name in vars(owner)
                if not name.startswith("_")
                and pattern.fullmatch(name)
                and (owner, name) not in self.LIFECYCLE
            }
            assert names == expected, owner.__name__
        assert sum(map(len, self.QUERY_SURFACE.values())) == 14


class TestEndpointIds:
    """Vertex ids follow the label rule: integral only, never a bool."""

    LABELS = (1, 0)

    @staticmethod
    def _session(fig2, name, warm):
        session = Session(fig2, engine=name)
        if warm:
            # Cache the answers a bad id could alias: vertex 2 (from 2.5
            # or "2") and vertex 1 (from True), on both sides.
            for vertex in (1, 2):
                session.query_outcome(vertex, 5, TestEndpointIds.LABELS)
                session.query_outcome(0, vertex, TestEndpointIds.LABELS)
        return session

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("name", engine_names())
    def test_non_integer_ids_raise(self, fig2, name, warm):
        session = self._session(fig2, name, warm)
        for bad in (2.5, True, "2"):
            with pytest.raises(QueryError, match="unknown source"):
                session.query_outcome(bad, 5, self.LABELS)
            with pytest.raises(QueryError, match="unknown target"):
                session.query_outcome(0, bad, self.LABELS)
            with pytest.raises(QueryError, match="unknown source"):
                session.run([RlcQuery(bad, 5, self.LABELS)])
            with pytest.raises(QueryError, match="unknown source"):
                session.engine().query_batch([RlcQuery(bad, 5, self.LABELS)])

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("name", engine_names())
    def test_numpy_ids_answer_like_ints(self, fig2, name, warm):
        session = self._session(fig2, name, warm)
        expected = session.engine().query_prepared(self.LABELS, 2, 5)
        outcome = session.query_outcome(np.int64(2), np.int64(5), self.LABELS)
        assert outcome.answer is expected is True
        assert type(outcome.source) is int and type(outcome.target) is int
        report = session.run([RlcQuery(np.int64(2), np.int64(5), self.LABELS)])
        assert report.answers == [True]

    def test_backend_query_rejects_non_integer_ids(self, fig2):
        from repro.baselines import NfaBfs

        with pytest.raises(QueryError, match="unknown source"):
            NfaBfs(fig2).query(True, 5, self.LABELS)
        assert NfaBfs(fig2).query(np.int64(2), 5, self.LABELS) is True


class TestLabelSpellings:
    """Every entry point, cold or warm, accepts the spellings the rules do."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_float_and_bool_labels_raise(self, fig2, warm):
        session = Session(fig2)
        if warm:
            assert session.query(2, 5, (1, 0)) is True
        # 1.0 and True hash and compare equal to 1, so a memo keyed on
        # the label tuple alone would answer for them.
        for bad in ((1.0, 0), (True, 0)):
            with pytest.raises(QueryError):
                session.query(2, 5, bad)
        assert session.query(2, 5, (np.int64(1), 0)) is True

    GOOD = (1, 0)  # (v3, v6, (l2 l1)+) is true on Fig. 2
    BAD_LABELS = {
        "float": (1.0, 0),
        "bool": (True, 0),
        "str": ("1", 0),
        "fraction": (1.5, 0),
    }
    BAD_VERTICES = {  # Fig. 2 has vertices 0..5
        "bool": True,
        "float": 2.0,
        "negative": -1,
        "past-end": 6,
    }

    ENTRY_POINTS = (
        "PreparedQuery",
        "RlcIndex.query",
        "RlcIndex.query_batch",
        "Session.query",
        "Session.query_outcome",
        "Session.explain",
        "QueryService.query_outcome",
        *(f"query_prepared:{name}" for name in engine_names()),
        *(f"query_batch:{name}" for name in engine_names()),
    )

    @classmethod
    def _asker(cls, entry, graph, warm):
        """``ask(source, target, labels)`` through ``entry``.

        ``warm`` first answers the good query; a batched entry point
        gets it in the same batch, ahead of the asked query.  The
        ``PreparedQuery`` entry has no endpoints: it "answers" True
        when the labels normalize to ``GOOD``.  ``Session.query_outcome``
        asks for a witness, which must come with every true answer.
        """
        kind, _, engine_name = entry.partition(":")
        lead = [RlcQuery(2, 5, cls.GOOD)] if warm else []

        def batch(source, target, labels):
            return lead + [RlcQuery(source, target, labels)]

        if kind == "PreparedQuery":
            def ask(source, target, labels):
                prepared = PreparedQuery(labels, num_labels=graph.num_labels)
                return prepared.labels == cls.GOOD
        elif kind == "RlcIndex.query_batch":
            index = build_rlc_index(graph, 2)

            def ask(source, target, labels):
                return index.query_batch(batch(source, target, labels))[-1]
        elif kind.startswith("RlcIndex."):
            ask = getattr(build_rlc_index(graph, 2), kind.split(".")[1])
        elif kind == "Session.query":
            ask = Session(graph).query
        elif kind == "Session.query_outcome":
            session = Session(graph)

            def ask(source, target, labels):
                outcome = session.query_outcome(source, target, labels, witness=True)
                assert (outcome.witness is not None) == outcome.answer
                return outcome.answer
        elif kind == "Session.explain":
            session = Session(graph)

            def ask(source, target, labels):
                return session.explain(source, target, labels)["answer"]
        elif kind == "QueryService.query_outcome":
            service = QueryService(create_engine("rlc-index", graph, k=2))

            def ask(source, target, labels):
                return service.query_outcome(source, target, labels).answer
        elif kind == "query_prepared":
            engine = create_engine(engine_name, graph)

            def ask(source, target, labels):
                return engine.query_prepared(labels, source, target)
        else:
            engine = create_engine(engine_name, graph)

            def ask(source, target, labels):
                return engine.query_batch(batch(source, target, labels))[-1]
        if warm and not kind.endswith("query_batch"):
            assert ask(2, 5, cls.GOOD) is True
        return ask

    @pytest.mark.parametrize("spelling", BAD_LABELS)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_label_spellings_agree_on_every_entry_point(
        self, fig2, entry, warm, spelling
    ):
        ask = self._asker(entry, fig2, warm)
        with pytest.raises(QueryError, match="unknown label id"):
            ask(5, 5, self.BAD_LABELS[spelling])

    @pytest.mark.parametrize("spelling", BAD_VERTICES)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS[1:])  # PreparedQuery has none
    def test_endpoint_spellings_agree_on_every_entry_point(
        self, fig2, entry, warm, spelling
    ):
        ask = self._asker(entry, fig2, warm)
        bad = self.BAD_VERTICES[spelling]
        for source, target, role in (
            (bad, 5, "source"),
            (2, bad, "target"),
            (bad, bad, "source"),
        ):
            with pytest.raises(QueryError, match=f"unknown {role} vertex"):
                ask(source, target, self.GOOD)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_numpy_spellings_answer_on_every_entry_point(self, fig2, entry, warm):
        ask = self._asker(entry, fig2, warm)
        assert ask(2, 5, (np.int64(1), np.int64(0))) is True
        assert ask(np.int64(2), np.int64(5), self.GOOD) is True
        assert ask(2, 5, iter(self.GOOD)) is True
