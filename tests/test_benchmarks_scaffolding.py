"""Tests for the benchmark scaffolding (artifact registry, caching)."""

from __future__ import annotations

import argparse
import pathlib

import pytest

from benchmarks import bench_micro_operations, run_all_experiments
from benchmarks.run_all_experiments import FAST, HEAVY, build_artifacts
from repro.bench import experiments

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestArtifactRegistry:
    def _args(self):
        return argparse.Namespace(
            scale=1.0,
            queries=10,
            repeats=1,
            etc_budget=1.0,
            time_cap=5.0,
        )

    def test_covers_every_paper_artifact(self):
        names = [name for name, _ in build_artifacts(self._args())]
        assert names == [
            "table3",
            "table4",
            "fig3_fast",
            "fig3_heavy",
            "fig4",
            "fig5",
            "fig6",
            "table5",
            "fig7",
            "ablation_pruning",
            "ablation_strategies",
        ]

    def test_dataset_split_is_total(self):
        from repro.graph import datasets

        assert sorted(FAST + HEAVY) == sorted(datasets.dataset_names())

    def test_runners_are_callables(self):
        for _, runner in build_artifacts(self._args()):
            assert callable(runner)

    def test_only_choices_are_the_artifacts(self):
        names = [name for name, _ in build_artifacts(self._args())]
        assert list(run_all_experiments.ARTIFACTS) == names

    def test_only_rejects_an_unknown_artifact(self, tmp_path, capsys):
        out = tmp_path / "exp"
        with pytest.raises(SystemExit) as exc:
            run_all_experiments.main(["--only", "fig3", "table_4", "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'fig3'" in capsys.readouterr().err
        assert not out.exists()

    def test_only_runs_the_named_artifact(self, tmp_path):
        run_all_experiments.main(
            ["--only", "table3", "--scale", "0.05", "--out", str(tmp_path)]
        )
        assert [path.name for path in tmp_path.iterdir()] == ["table3.txt"]
        assert "Table III" in (tmp_path / "table3.txt").read_text()

    def test_default_scale_keeps_the_synthetic_sizes(self, monkeypatch):
        # --scale multiplies the synthetic figures' |V|; at 1.0 they run
        # exactly the sizes they ran before it did.
        received = {}

        def recorder(name):
            def record(**kwargs):
                received[name] = kwargs

            return record

        synthetic = ("fig5", "fig6", "fig7")
        for name in synthetic:
            monkeypatch.setattr(experiments, f"experiment_{name}", recorder(name))
        for name, runner in build_artifacts(self._args()):
            if name in synthetic:
                runner()
        assert received == {
            "fig5": {"num_vertices": 1000, "num_queries": 10},
            "fig6": {
                "sizes": (500, 1000, 2000, 4000, 8000),
                "num_queries": 10,
            },
            "fig7": {
                "num_vertices": 1000,
                "ks": (2, 3, 4),
                "num_queries": 10,
            },
        }

    def test_every_benchmark_file_is_run(self):
        # A benchmarks/ file is either the paper driver or a CI step;
        # anything else is code no run reaches.
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        unrun = [
            path.name
            for path in sorted((REPO / "benchmarks").glob("*.py"))
            if path.name != "run_all_experiments.py"
            and f"benchmarks/{path.name}" not in ci
        ]
        assert unrun == []


class TestCommonHelpers:
    """The cached inputs of ``benchmarks/bench_micro_operations.py``."""

    def test_dataset_cache_returns_same_object(self):
        a = bench_micro_operations.dataset("AD", 0.2)
        b = bench_micro_operations.dataset("AD", 0.2)
        assert a is b

    def test_index_cache(self):
        a = bench_micro_operations.dataset_index("AD", 0.2)
        assert a is bench_micro_operations.dataset_index("AD", 0.2)
        assert a.k == 2

    def test_workload_cache_counts(self):
        w = bench_micro_operations.dataset_workload("AD", 0.2, num_queries=5)
        assert len(w.true_queries) == 5 and len(w.false_queries) == 5
