"""Tests for index diagnostics: the entry distribution."""

from __future__ import annotations

import itertools

import pytest

from repro.core import build_rlc_index
from repro.graph.digraph import EdgeLabeledDigraph


class TestEntryDistribution:
    def test_fig2_distribution(self, fig2_index):
        dist = fig2_index.entry_distribution()
        assert dist["mean"] == pytest.approx(2 * 26 / 6 / 2)  # 26 entries / 6 verts
        assert dist["max"] >= dist["mean"]
        assert dist["nonzero_vertices"] == 6

    def test_empty_index(self):
        index = build_rlc_index(EdgeLabeledDigraph(0, []), 2)
        dist = index.entry_distribution()
        assert dist["max"] == 0 and dist["nonzero_vertices"] == 0

    def test_ba_more_skewed_than_er(self):
        from repro.graph import generators

        er = build_rlc_index(
            generators.labeled_erdos_renyi(400, 4, 8, seed=1), 2
        ).entry_distribution()
        ba = build_rlc_index(
            generators.labeled_barabasi_albert(400, 4, 8, seed=1), 2
        ).entry_distribution()
        # Section VI-B: entries are hub-dominated on BA graphs.
        assert ba["max"] / max(ba["mean"], 1e-9) > er["max"] / max(er["mean"], 1e-9)

