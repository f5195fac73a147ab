"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.graph.generators import paper_figure2
from repro.graph.io import write_edge_list


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.txt"
    write_edge_list(paper_figure2(), path)
    return path


class TestStats:
    def test_prints_statistics(self, fig2_file, capsys):
        assert main(["stats", str(fig2_file)]) == 0
        out = capsys.readouterr().out
        assert "|V|=" in out and "label histogram" in out

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "absent.npz")]) == 2
        assert "error:" in capsys.readouterr().err


class TestBuildAndQuery:
    def test_build_then_query(self, fig2_file, tmp_path, capsys):
        index_path = tmp_path / "fig2.npz"
        assert main(["build", str(fig2_file), "-k", "2", "-o", str(index_path)]) == 0
        assert "26 entries" in capsys.readouterr().out

        # Q1(v3, v6, (l2 l1)+) — true, exit code 0.
        assert main(["query", str(index_path), "2", "5", "(l2, l1)+"]) == 0
        assert capsys.readouterr().out.strip() == "true"

        # Q3(v1, v3, (l1)+) — false, exit code 1.
        assert main(["query", str(index_path), "0", "2", "l1+"]) == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_query_star(self, fig2_file, tmp_path, capsys):
        index_path = tmp_path / "fig2.npz"
        main(["build", str(fig2_file), "-o", str(index_path)])
        capsys.readouterr()
        assert main(["query", str(index_path), "5", "5", "l1*"]) == 0

    def test_query_integer_labels(self, fig2_file, tmp_path, capsys):
        index_path = tmp_path / "fig2.npz"
        main(["build", str(fig2_file), "-o", str(index_path)])
        capsys.readouterr()
        assert main(["query", str(index_path), "2", "5", "(1, 0)+"]) == 0

    def test_build_lazy_strategy(self, fig2_file, tmp_path):
        index_path = tmp_path / "lazy.npz"
        assert (
            main(
                [
                    "build", str(fig2_file), "-o", str(index_path),
                    "--strategy", "lazy", "--ordering", "degree",
                ]
            )
            == 0
        )


class TestWorkloadRoundTrip:
    def test_generate_and_run(self, tmp_path, capsys):
        from repro.graph import datasets
        from repro.graph.io import save_graph_npz

        graph_path = tmp_path / "ad.npz"
        save_graph_npz(datasets.load_dataset("AD", scale=0.2), graph_path)
        workload_path = tmp_path / "w.txt"
        index_path = tmp_path / "i.npz"

        assert (
            main(
                [
                    "workload", str(graph_path), "-k", "2",
                    "--true-queries", "10", "--false-queries", "10",
                    "-o", str(workload_path),
                ]
            )
            == 0
        )
        assert main(["build", str(graph_path), "-o", str(index_path)]) == 0
        capsys.readouterr()
        assert main(["run", str(index_path), str(workload_path)]) == 0
        assert "0 wrong answers" in capsys.readouterr().out


class TestEngineCommands:
    def test_engines_lists_registry(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for key in ("rlc-index", "bfs", "bibfs", "dfs", "etc",
                    "sys1", "sys2", "virtuoso-sim"):
            assert key in out
        assert "RLC" in out
        # The spec grammar is documented next to the table.
        assert "name[?key=value&...]" in out

    def test_run_reports_service_counters(self, tmp_path, capsys):
        from repro.graph import datasets
        from repro.graph.io import save_graph_npz

        graph_path = tmp_path / "ad.npz"
        save_graph_npz(datasets.load_dataset("AD", scale=0.2), graph_path)
        workload_path = tmp_path / "w.txt"
        index_path = tmp_path / "i.npz"
        main(["workload", str(graph_path), "-k", "2", "--true-queries", "5",
              "--false-queries", "5", "-o", str(workload_path)])
        main(["build", str(graph_path), "-o", str(index_path)])
        capsys.readouterr()
        assert main(["run", str(index_path), str(workload_path), "--batch-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "0 wrong answers" in out and "cache hit rate" in out

    def test_engines_lists_capabilities(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "batch-grouped,witness" in out
        assert "engines_with_capabilities" in out

    def test_run_json_and_witness(self, fig2_file, tmp_path, capsys):
        import json

        workload_path = tmp_path / "w.txt"
        index_path = tmp_path / "i.npz"
        main(["workload", str(fig2_file), "-k", "2", "--true-queries", "4",
              "--false-queries", "4", "-o", str(workload_path)])
        main(["build", str(fig2_file), "-o", str(index_path)])
        capsys.readouterr()
        assert main([
            "run", str(index_path), str(workload_path),
            "--json", "--witness", "--graph", str(fig2_file),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["total"] == 8
        assert len(payload["witnesses"]) == 8
        from repro.graph.io import load_graph

        graph = load_graph(fig2_file)
        for answer, witness in zip(payload["answers"], payload["witnesses"]):
            assert (witness is not None) == answer
            if witness is not None:
                for u, label, v in zip(
                    witness["vertices"], witness["labels"], witness["vertices"][1:]
                ):
                    assert graph.has_edge(u, label, v)

    def test_run_witness_requires_graph(self, fig2_file, tmp_path, capsys):
        workload_path = tmp_path / "w.txt"
        index_path = tmp_path / "i.npz"
        main(["workload", str(fig2_file), "-k", "2", "--true-queries", "2",
              "--false-queries", "2", "-o", str(workload_path)])
        main(["build", str(fig2_file), "-o", str(index_path)])
        capsys.readouterr()
        assert main([
            "run", str(index_path), str(workload_path), "--witness",
        ]) == 2
        assert "--graph" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["rlc-index", "bibfs", "sys2"])
    def test_bench_any_registered_engine(self, engine, fig2_file, tmp_path, capsys):
        workload_path = tmp_path / "w.txt"
        main(["workload", str(fig2_file), "-k", "2", "--true-queries", "5",
              "--false-queries", "5", "-o", str(workload_path)])
        capsys.readouterr()
        assert main(["bench", str(fig2_file), str(workload_path), "--engine", engine]) == 0
        out = capsys.readouterr().out
        assert f"prepared {engine}" in out and "0 wrong answers" in out

    def test_bench_unknown_engine_is_error(self, fig2_file, tmp_path, capsys):
        workload_path = tmp_path / "w.txt"
        main(["workload", str(fig2_file), "-k", "2", "--true-queries", "2",
              "--false-queries", "2", "-o", str(workload_path)])
        capsys.readouterr()
        assert main(["bench", str(fig2_file), str(workload_path), "--engine", "nope"]) == 2
        assert "unknown engine" in capsys.readouterr().err


class TestDataset:
    def test_materialize_npz(self, tmp_path, capsys):
        out = tmp_path / "tw.npz"
        assert main(["dataset", "TW", "--scale", "0.1", "-o", str(out)]) == 0
        assert out.exists()

    def test_materialize_text(self, tmp_path):
        out = tmp_path / "tw.edges"
        assert main(["dataset", "TW", "--scale", "0.1", "-o", str(out)]) == 0
        assert out.read_text().startswith("#")


class TestBenchPersistentCache:
    def test_second_run_is_fully_warm(self, fig2_file, tmp_path, capsys):
        workload_path = tmp_path / "w.txt"
        main(["workload", str(fig2_file), "-k", "2", "--true-queries", "5",
              "--false-queries", "5", "-o", str(workload_path)])
        cache_dir = tmp_path / "cache"
        args = ["bench", str(fig2_file), str(workload_path),
                "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        assert "cache hit rate 0%" in capsys.readouterr().out
        assert main(args) == 0
        assert "cache hit rate 100%" in capsys.readouterr().out

    def test_second_process_is_fully_warm(self, fig2_file, tmp_path):
        """Acceptance: a *separate process* replays entirely from disk."""
        import os
        import subprocess
        import sys

        workload_path = tmp_path / "w.txt"
        main(["workload", str(fig2_file), "-k", "2", "--true-queries", "5",
              "--false-queries", "5", "-o", str(workload_path)])
        cache_dir = tmp_path / "cache"
        command = [
            sys.executable, "-m", "repro", "bench",
            str(fig2_file), str(workload_path), "--cache-dir", str(cache_dir),
        ]
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        first = subprocess.run(
            command, capture_output=True, text=True, env=env, timeout=120
        )
        assert first.returncode == 0, first.stderr
        assert "cache hit rate 0%" in first.stdout
        second = subprocess.run(
            command, capture_output=True, text=True, env=env, timeout=120
        )
        assert second.returncode == 0, second.stderr
        assert "cache hit rate 100%" in second.stdout


class TestServe:
    def test_serve_starts_and_announces(self, fig2_file, capsys, monkeypatch):
        from repro.api import ReplayServer

        monkeypatch.setattr(ReplayServer, "serve_forever", lambda self: None)
        assert main(["serve", str(fig2_file), "--port", "0", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "serving" in out and "http://127.0.0.1:" in out
        assert "/healthz" in out

    def test_serve_answers_over_http(self, fig2_file, capsys, monkeypatch):
        """End-to-end: the CLI-built server answers a real request."""
        import json
        import threading
        import urllib.request

        from repro.api import ReplayServer

        started = threading.Event()
        captured = {}
        real = ReplayServer.serve_forever

        def capture(self):
            captured["server"] = self
            started.set()
            real(self)

        monkeypatch.setattr(ReplayServer, "serve_forever", capture)
        thread = threading.Thread(
            target=main,
            args=(["serve", str(fig2_file), "--port", "0", "--quiet"],),
            daemon=True,
        )
        thread.start()
        assert started.wait(timeout=30)
        server = captured["server"]
        try:
            request = urllib.request.Request(
                server.url + "/query",
                data=json.dumps(
                    {"source": 2, "target": 5, "labels": [1, 0]}
                ).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert json.loads(response.read())["answer"] is True
        finally:
            server._http.shutdown()
            thread.join(timeout=10)

    def test_serve_unknown_graph_is_error(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "missing.txt")]) == 2
        assert "error:" in capsys.readouterr().err
