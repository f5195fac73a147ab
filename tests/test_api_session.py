"""Tests for the :class:`repro.api.Session` facade."""

from __future__ import annotations

import pytest

from repro.api import Session, open_session
from repro.engine import QueryService, RlcIndexEngine, create_engine
from repro.errors import EngineError, GraphError
from repro.graph import generators
from repro.graph.generators import paper_figure2
from repro.graph.io import write_edge_list
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

    def test_open_session_function(self, fig2):
        session = open_session(fig2, engine="bfs")
        assert session.default_engine_spec == "bfs"


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
            expected = flat.query(query.source, query.target, query.labels)
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
