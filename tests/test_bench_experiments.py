"""Smoke/shape tests for every experiment driver (tiny scales).

These are the integration tests of the benchmark layer: each driver
must run end to end, produce the expected columns, and show the
paper's qualitative shape where it is cheap to check.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.baselines.simulated import Sys1PropertyGraphEngine
from repro.bench import experiments
from repro.bench.harness import TIMED_OUT
from repro.engine import EngineBase
from repro.graph import datasets
from repro.workloads import generate_workload

FAST = ["AD", "TW"]


@pytest.fixture(scope="module")
def table4():
    return experiments.experiment_table4(names=FAST, scale=0.5, etc_time_budget=20)


@pytest.fixture(scope="module")
def fig3():
    return experiments.experiment_fig3(
        names=["AD"], scale=0.5, num_queries=25, time_cap=20, etc_time_budget=20
    )


class TestTable3:
    def test_rows_and_columns(self):
        table = experiments.experiment_table3(names=FAST, scale=0.5)
        assert len(table.rows) == 2
        assert table.rows[0]["dataset"] == "AD"
        assert table.rows[0]["V"] > 0
        assert table.rows[0]["L"] == 3

    def test_renders(self):
        table = experiments.experiment_table3(names=["AD"], scale=0.25)
        assert "Table III" in table.render()


class TestTable4:
    def test_both_methods_reported(self, table4):
        assert table4.column("dataset") == FAST
        for row in table4.rows:
            assert row["rlc_it_s"] > 0
            assert row["rlc_is_bytes"] > 0

    def test_rlc_smaller_than_etc(self, table4):
        # The paper's headline: RLC index much smaller than ETC.
        for row in table4.rows:
            if row["etc_is_bytes"] is not None:
                assert row["rlc_is_bytes"] < row["etc_is_bytes"] / 5, row

    def test_budget_produces_dashes(self):
        table = experiments.experiment_table4(
            names=["AD"], scale=0.5, etc_time_budget=0.0
        )
        assert table.rows[0]["etc_it_s"] is None
        assert "-" in table.render()


class TestFig3:
    def test_engines_present(self, fig3):
        engines = fig3.column("engine")
        assert engines == ["BFS", "BiBFS", "ETC", "RLC"]

    def test_rlc_fastest_true_queries(self, fig3):
        by_engine = {row["engine"]: row for row in fig3.rows}
        rlc = by_engine["RLC"]["true_us"]
        bfs = by_engine["BFS"]["true_us"]
        if rlc is not TIMED_OUT and bfs is not TIMED_OUT:
            assert rlc < bfs

    def test_rlc_beats_bfs_on_false_queries(self, fig3):
        by_engine = {row["engine"]: row for row in fig3.rows}
        rlc = by_engine["RLC"]["false_us"]
        bfs = by_engine["BFS"]["false_us"]
        if rlc is not TIMED_OUT and bfs is not TIMED_OUT:
            assert rlc < bfs

    def test_prepares_each_constraint_once_per_set(self, monkeypatch):
        # Only the evaluation is timed: an engine prepares a constraint
        # once per query set, never once per query or per pass.
        calls = Counter()
        prepare_query = EngineBase.prepare_query

        def counting(engine, constraint):
            calls[engine.name, tuple(constraint)] += 1
            return prepare_query(engine, constraint)

        monkeypatch.setattr(EngineBase, "prepare_query", counting)
        experiments.experiment_fig3(names=["AD"], scale=0.2, num_queries=10)
        graph = datasets.load_dataset("AD", scale=0.2)
        workload = generate_workload(
            graph, 2, num_true=10, num_false=10, seed=7, graph_name="AD"
        )
        sets = Counter()
        for queries in (workload.true_queries, workload.false_queries):
            sets.update({q.labels for q in queries})
        assert {name for name, _ in calls} == {"bfs", "bibfs", "etc", "rlc-index"}
        for (name, labels), count in calls.items():
            assert count <= sets[labels], (name, labels, count)


class TestFig4:
    def test_k_growth_shape(self):
        table = experiments.experiment_fig4(
            names=["TW"], ks=(2, 3), scale=0.5, num_queries=20
        )
        assert [row["k"] for row in table.rows] == [2, 3]
        # Indexing time and size grow with k (paper Fig. 4).
        assert table.rows[0]["indexing_s"] <= table.rows[1]["indexing_s"] * 1.5
        assert table.rows[0]["size_bytes"] <= table.rows[1]["size_bytes"]


class TestFig5:
    def test_sweep_dimensions(self):
        table = experiments.experiment_fig5(
            families=("er",),
            num_vertices=300,
            degrees=(2, 3),
            label_sizes=(4, 8),
            num_queries=10,
        )
        assert len(table.rows) == 4
        assert {row["family"] for row in table.rows} == {"ER"}

    def test_degree_increases_indexing_time(self):
        table = experiments.experiment_fig5(
            families=("er",),
            num_vertices=400,
            degrees=(2, 5),
            label_sizes=(8,),
            num_queries=5,
        )
        low, high = table.rows[0], table.rows[1]
        assert high["indexing_s"] > low["indexing_s"]
        assert high["size_bytes"] > low["size_bytes"]


class TestFig6:
    def test_scalability_shape(self):
        table = experiments.experiment_fig6(
            families=("ba",), sizes=(200, 400), num_queries=5
        )
        assert [row["vertices"] for row in table.rows] == [200, 400]
        assert table.rows[1]["indexing_s"] > table.rows[0]["indexing_s"]
        assert table.rows[1]["size_bytes"] > table.rows[0]["size_bytes"]


class TestTable5:
    @pytest.fixture(scope="class")
    def table5(self):
        return experiments.experiment_table5(scale=0.3, repeats=2, time_cap=20)

    def test_all_engine_query_combinations(self, table5):
        engines = {row["engine"] for row in table5.rows}
        queries = {row["query"] for row in table5.rows}
        assert engines == {"Sys1", "Sys2", "VirtuosoSim"}
        assert queries == {"Q1", "Q2", "Q3", "Q4"}

    def test_index_wins_on_pure_rlc_queries(self, table5):
        # Q1-Q3 are single index lookups and must win at any scale.  Q4
        # (hybrid online+index) only pays off once the graph is large
        # enough that the index probes prune real work, so it is not
        # asserted at this miniature scale.
        for row in table5.rows:
            if row["query"] in ("Q1", "Q2", "Q3") and row["speedup"] is not None:
                assert row["speedup"] > 1, row

    def test_bep_positive(self, table5):
        for row in table5.rows:
            if row["bep"] is not None:
                assert row["bep"] >= 1

    def test_engine_answers_are_checked(self, monkeypatch):
        evaluate = Sys1PropertyGraphEngine.evaluate
        monkeypatch.setattr(
            Sys1PropertyGraphEngine,
            "evaluate",
            lambda self, source, target, nfa: not evaluate(self, source, target, nfa),
        )
        with pytest.raises(AssertionError, match="Sys1 answered"):
            experiments.experiment_table5(scale=0.3, repeats=1)


class TestFig7:
    def test_k_sweep_on_synthetic(self):
        table = experiments.experiment_fig7(
            families=("er",), num_vertices=300, ks=(2, 3), num_queries=5
        )
        assert [row["k"] for row in table.rows] == [2, 3]
        assert table.rows[1]["size_bytes"] >= table.rows[0]["size_bytes"]
        # Indexing time grows with k (paper Fig. 7).
        assert table.rows[1]["indexing_s"] > table.rows[0]["indexing_s"]


class TestAblations:
    def test_pruning_ablation_shape(self):
        table = experiments.experiment_ablation_pruning(dataset="AD", scale=0.3)
        variants = table.column("variant")
        assert variants[0] == "all rules" and variants[-1] == "no rules"
        by_variant = {row["variant"]: row for row in table.rows}
        # Removing all pruning rules grows the index and slows the build.
        unpruned, pruned = by_variant["no rules"], by_variant["all rules"]
        assert unpruned["entries"] > pruned["entries"]
        assert unpruned["indexing_s"] > pruned["indexing_s"]
        # With all rules on, both PR counters fire on a cyclic graph.
        assert by_variant["all rules"]["pruned_pr1"] > 0
        assert by_variant["all rules"]["pruned_pr2"] > 0

    def test_strategy_ablation_shape(self):
        table = experiments.experiment_ablation_strategies(dataset="AD", scale=0.3)
        variants = table.column("variant")
        assert "eager + in-out" in variants and "lazy + in-out" in variants
        by_variant = {row["variant"]: row for row in table.rows}
        # Lazy explores paths to depth 2k: strictly more phase-1 work.
        assert (
            by_variant["lazy + in-out"]["phase1_expansions"]
            > by_variant["eager + in-out"]["phase1_expansions"]
        )
