"""Tests for the benchmark scaffolding (artifact registry, caching)."""

from __future__ import annotations

import argparse

import pytest

from benchmarks import _common, run_all_experiments
from benchmarks.run_all_experiments import FAST, HEAVY, build_artifacts


class TestArtifactRegistry:
    def _args(self):
        return argparse.Namespace(
            scale=1.0,
            queries=10,
            repeats=1,
            etc_budget=1.0,
            time_cap=5.0,
            fig5_vertices=100,
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


class TestCommonHelpers:
    def test_dataset_cache_returns_same_object(self):
        a = _common.dataset("AD", 0.2)
        b = _common.dataset("AD", 0.2)
        assert a is b

    def test_index_cache(self):
        a = _common.dataset_index("AD", 0.2)
        assert a is _common.dataset_index("AD", 0.2)
        assert a.k == 2

    def test_workload_cache_counts(self):
        w = _common.dataset_workload("AD", 0.2, num_queries=5)
        assert len(w.true_queries) == 5 and len(w.false_queries) == 5

    def test_standard_parser_flags(self):
        parser = _common.standard_parser("x")
        args = parser.parse_args(["--scale", "0.5", "--queries", "10", "--quick"])
        assert args.scale == 0.5 and args.queries == 10 and args.quick
