"""Facts about the RLC index on adversarial graph topologies.

Random graphs rarely hit these structural extremes
(:data:`tests.helpers.ADVERSARIAL_TOPOLOGIES`): complete digraphs, long
and coprime cycles, alternating labels, a one-way bridge between two
strongly connected components, a star, label deserts and parallel
edges.  Each test checks that the index is condensed and pins a few
answers; the differential harness (``test_engine_parity.py``) checks
every engine on every query of these graphs against the oracle.
"""

from __future__ import annotations

import pytest

from repro.core import build_rlc_index

from tests.helpers import ADVERSARIAL_TOPOLOGIES, all_primitive_constraints


def condensed_index(name):
    index = build_rlc_index(ADVERSARIAL_TOPOLOGIES[name], 2)
    assert index.condensedness_violations() == []
    return index


class TestCompleteGraphs:
    def test_single_label_complete(self):
        index = condensed_index("complete-1")
        # Everything reaches everything: the 2-hop structure should be
        # tiny relative to the n^2 transitive closure.
        assert index.num_entries < index.num_vertices**2

    def test_two_label_complete(self):
        condensed_index("complete-2")


class TestLongCycles:
    @pytest.mark.parametrize("cycle_length", [5, 7, 9])
    def test_uniform_cycle(self, cycle_length):
        index = condensed_index(f"cycle-{cycle_length}")
        # On a single-label cycle, (l0)+ connects every ordered pair.
        assert index.query(0, cycle_length - 1, (0,))
        assert index.query(cycle_length - 1, 0, (0,))
        assert index.query(3, 3, (0,))

    def test_alternating_cycle_odd_length_never_matches_pairs(self):
        # Labels alternate a, b around a 6-cycle: (a b)+ matches only
        # even-phase-aligned pairs; (a)+ matches only single a-edges.
        index = condensed_index("alternating-cycle")
        assert index.query(0, 2, (0, 1))
        assert index.query(0, 0, (0, 1))
        assert not index.query(1, 3, (0, 1))  # starts mid-copy with b
        assert index.query(1, 1, (1, 0))

    def test_cycle_length_coprime_with_constraint(self):
        # 5-cycle labeled (a b a b a...) wraps with shifting phase: the
        # walk must loop the cycle twice for (a b)+ alignment.
        condensed_index("coprime-cycle")


class TestComponentStructure:
    def test_two_sccs_one_way_bridge(self):
        # SCC A: {0,1} on label a; SCC B: {3,4} on label a; bridge 1->3 b.
        index = condensed_index("scc-bridge")
        assert index.query(0, 4, (0,)) is False  # must cross the b bridge
        assert not index.query(3, 0, (0,))  # no way back

    def test_isolated_vertices_everywhere(self):
        # Edges 1 -> 3 -> 5 on one label among 7 vertices.
        index = condensed_index("isolated-vertices")
        assert index.query(1, 5, (0,))
        assert not index.query(0, 6, (0,))

    def test_star_in_and_out(self):
        # Hub 0 with spokes both ways: classic 2-hop best case.
        index = condensed_index("star")
        assert index.query(1, 2, (1, 0))
        assert not index.query(1, 2, (0, 1))


class TestLabelDeserts:
    def test_unused_label_ids(self):
        # Alphabet of 4, only label 3 used: constraints over 0..2 are
        # all false, and the index must not blow up handling them.
        index = condensed_index("unused-labels")
        assert index.query(0, 2, (3,))
        assert not index.query(0, 2, (0,))
        assert not index.query(0, 2, (0, 3))

    def test_every_edge_unique_label(self):
        # No label repeats at all: only |p| <= 1 constraints can match
        # under the Kleene plus with |L| = 1... and length-2 primitive
        # constraints match single two-edge paths.
        index = condensed_index("unique-labels")
        assert index.query(0, 2, (0, 1))
        assert not index.query(0, 3, (0, 1))


class TestDenseParallelLabels:
    def test_full_parallel_multigraph(self):
        # Every ordered pair connected by every label: worst-case
        # kernel-candidate count for k=2.
        index = condensed_index("parallel-multigraph")
        for labels in all_primitive_constraints(index.num_labels, 2):
            assert index.query(0, index.num_vertices - 1, labels)

    def test_self_loop_alphabet(self):
        # One vertex with self-loops on all labels: every primitive
        # constraint is a cycle witness.
        index = condensed_index("self-loop-alphabet")
        for labels in all_primitive_constraints(index.num_labels, 2):
            assert index.query(0, 0, labels)
