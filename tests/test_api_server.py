"""Tests for the ``repro serve`` replay server (:mod:`repro.api.server`)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.api import ReplayServer, Session
from repro.engine import QueryService, create_engine
from repro.graph import generators
from repro.workloads import generate_workload


@pytest.fixture(scope="module")
def graph():
    return generators.labeled_erdos_renyi(100, 3, 4, seed=29)


@pytest.fixture(scope="module")
def workload(graph):
    return generate_workload(
        graph, 2, num_true=20, num_false=20, seed=31, graph_name="er"
    )


@pytest.fixture()
def server(graph):
    with ReplayServer(Session(graph, graph_name="er"), port=0) as running:
        yield running


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def post(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHealthAndStats:
    def test_healthz_reports_graph_identity(self, server, graph):
        status, body = get(server, "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["engine"] == "rlc-index"
        assert body["graph"] == "er"
        assert body["digest"] == graph.content_digest()
        assert body["vertices"] == graph.num_vertices
        assert body["edges"] == graph.num_edges
        assert "witness" in body["capabilities"]

    def test_stats_lists_prepared_engines(self, server):
        post(server, "/query", {"source": 0, "target": 1, "labels": [0]})
        status, body = get(server, "/stats")
        assert status == 200
        assert "rlc-index" in body["engines"]
        assert body["services"]["rlc-index"]["cache_misses"] == 1

    def test_unknown_paths_are_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as caught:
            get(server, "/nope")
        assert caught.value.code == 404
        status, _ = post(server, "/nope", {})
        assert status == 404


class TestQueryEndpoint:
    def test_answers_match_the_engine_directly(self, server, graph, workload):
        """Acceptance: /query is byte-identical to the flat service."""
        flat = QueryService(create_engine("rlc-index", graph, k=2))
        for query in workload:
            status, body = post(
                server,
                "/query",
                {
                    "source": query.source,
                    "target": query.target,
                    "labels": list(query.labels),
                },
            )
            assert status == 200
            assert body["answer"] == flat.query(
                query.source, query.target, query.labels
            )

    def test_engine_override_per_request(self, server):
        status, body = post(
            server,
            "/query",
            {"source": 0, "target": 1, "labels": [0], "engine": "bibfs"},
        )
        assert status == 200
        assert body["engine"] == "bibfs"

    def test_query_returns_structured_outcome(self, server):
        status, body = post(
            server, "/query", {"source": 0, "target": 1, "labels": [0]}
        )
        assert status == 200
        assert body["engine"] == "rlc-index"
        assert body["engine_id"] == "rlc-index"
        assert body["cached"] is False and body["cache_layer"] is None
        assert body["labels"] == [0] and body["seconds"] >= 0.0
        status, body = post(
            server, "/query", {"source": 0, "target": 1, "labels": [0]}
        )
        assert body["cached"] is True and body["cache_layer"] == "lru"

    def test_query_witness_flag(self, server, graph, workload):
        true_query = next(q for q in workload if q.expected)
        status, body = post(
            server,
            "/query",
            {
                "source": true_query.source,
                "target": true_query.target,
                "labels": list(true_query.labels),
                "witness": True,
            },
        )
        assert status == 200 and body["answer"] is True
        witness = body["witness"]
        assert witness["vertices"][0] == true_query.source
        assert witness["vertices"][-1] == true_query.target
        assert len(witness["labels"]) % len(true_query.labels) == 0

    def test_explain_carries_witness(self, server, graph):
        query = next(
            q for q in generate_workload(
                graph, 2, num_true=1, num_false=0, seed=3, graph_name="er"
            )
        )
        status, body = post(
            server,
            "/query",
            {
                "source": query.source,
                "target": query.target,
                "labels": list(query.labels),
                "explain": True,
            },
        )
        assert status == 200
        assert body["answer"] is True
        assert body["witness"]["vertices"][0] == query.source

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"source": 0, "target": 1},
            {"source": 0, "target": 1, "labels": []},
            {"source": 0, "target": 1, "labels": "10"},
            {"source": "x", "target": 1, "labels": [0]},
            {"source": 0, "target": 1, "labels": [0], "engine": 7},
        ],
    )
    def test_malformed_queries_are_400(self, server, payload):
        status, body = post(server, "/query", payload)
        assert status == 400
        assert "error" in body

    def test_unknown_engine_spec_is_400(self, server):
        status, body = post(
            server,
            "/query",
            {"source": 0, "target": 1, "labels": [0], "engine": "nope"},
        )
        assert status == 400
        assert "unknown engine" in body["error"]

    @pytest.mark.parametrize("spec", ["sharded:rlc", "rlc:bfs"])
    def test_composite_engine_spec_is_400(self, server, spec):
        status, body = post(
            server,
            "/query",
            {"source": 0, "target": 1, "labels": [0], "engine": spec},
        )
        assert status == 400
        assert f"unknown engine '{spec}'" in body["error"]

    def test_non_json_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/query", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        assert caught.value.code == 400


class TestPrepareEndpoint:
    def test_prepare_returns_compiled_constraint(self, server, graph):
        from repro.engine import PreparedQuery

        status, body = post(server, "/prepare", {"labels": [0, 1]})
        assert status == 200
        assert body["labels"] == [0, 1]
        assert body["m"] == 2
        assert "rotations" not in body
        assert body["engine"] == "rlc-index"
        assert (
            body["digest"]
            == PreparedQuery((0, 1), num_labels=graph.num_labels).digest
        )
        assert "witness" in body["capabilities"]

    def test_prepare_respects_engine_override(self, server):
        status, body = post(
            server, "/prepare", {"labels": [0], "engine": "bfs"}
        )
        assert status == 200
        assert body["engine"] == "bfs" and body["engine_id"] == "bfs"

    def test_prepare_rejects_bad_bodies(self, server):
        status, body = post(server, "/prepare", {"labels": []})
        assert status == 400 and "error" in body
        status, body = post(server, "/prepare", {"labels": ["x"]})
        assert status == 400 and "error" in body
        status, body = post(server, "/prepare", {"labels": [99]})
        assert status == 400 and "unknown label" in body["error"]


class TestBatchEndpoint:
    def test_replays_a_workload_with_report_semantics(
        self, server, graph, workload
    ):
        queries = [
            {
                "source": q.source,
                "target": q.target,
                "labels": list(q.labels),
                "expected": expected,
            }
            for q, expected in workload.labeled_queries()
        ]
        status, body = post(server, "/batch", {"queries": queries})
        assert status == 200
        assert body["ok"] is True and body["mismatches"] == 0
        assert body["total"] == len(queries)

        flat = QueryService(create_engine("rlc-index", graph, k=2))
        flat_report = flat.run(workload)
        assert body["answers"] == flat_report.answers

        # The same replay again answers entirely from the LRU.
        status, warm = post(server, "/batch", {"queries": queries})
        assert warm["hit_rate"] == 1.0

    def test_batch_against_another_spec(self, server, workload):
        queries = [
            {"source": q.source, "target": q.target, "labels": list(q.labels)}
            for q in workload
        ]
        status, body = post(
            server, "/batch", {"queries": queries, "engine": "bibfs"}
        )
        assert status == 200 and body["ok"] is True

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"queries": "nope"},
            {"queries": [42]},
            {"queries": [{"source": 0, "target": 1, "labels": [0]}], "verify": 3},
            {
                "queries": [
                    {"source": 0, "target": 1, "labels": [0], "expected": "yes"}
                ]
            },
        ],
    )
    def test_malformed_batches_are_400(self, server, payload):
        status, body = post(server, "/batch", payload)
        assert status == 400
        assert "error" in body


class TestPersistence:
    def test_server_flushes_the_persistent_cache(self, tmp_path, graph):
        session = Session(graph, cache_dir=tmp_path)
        with ReplayServer(session, port=0) as running:
            post(running, "/query", {"source": 0, "target": 1, "labels": [0]})
        import os

        assert len(os.listdir(tmp_path)) == 1

        with Session(graph, cache_dir=tmp_path) as warm:
            warm.query(0, 1, (0,))
            assert warm.stats()["rlc-index"]["cache_hits"] == 1
