"""Hypothesis property tests: structural invariants of the RLC index.

On any graph the index is condensed, keeps its entries sorted by hub
access id, records only entries the graph witnesses, and survives
``save``/``load`` entry for entry.  That every engine, the index under
each pruning configuration and the lazy strategy included, answers as
a brute-force product search is checked by the differential harness,
``test_engine_parity.py``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.core import build_rlc_index

from tests.helpers import brute_force_rlc, graphs

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestStructuralInvariants:
    @SETTINGS
    @given(graphs())
    def test_index_condensed(self, graph):
        index = build_rlc_index(graph, 2)
        assert index.condensedness_violations() == []

    @SETTINGS
    @given(graphs())
    def test_entries_sorted_by_access_id(self, graph):
        index = build_rlc_index(graph, 2)
        for vertex in range(graph.num_vertices):
            for entries in (index.lin(vertex), index.lout(vertex)):
                aids = [index.access_id(hub) for hub, _ in entries]
                assert aids == sorted(aids)

    @SETTINGS
    @given(graphs())
    def test_every_entry_is_witnessed(self, graph):
        """Soundness of entries themselves: each MR is realizable."""
        index = build_rlc_index(graph, 2)
        for vertex in range(graph.num_vertices):
            for hub, mr in index.lout(vertex):
                assert brute_force_rlc(graph, vertex, hub, mr), (vertex, hub, mr)
            for hub, mr in index.lin(vertex):
                assert brute_force_rlc(graph, hub, vertex, mr), (hub, vertex, mr)

    @SETTINGS
    @given(graphs())
    def test_save_load_preserves_queries(self, graph):
        import os
        import tempfile

        from repro.core.index import RlcIndex

        index = build_rlc_index(graph, 2)
        handle, path = tempfile.mkstemp(suffix=".npz")
        os.close(handle)
        try:
            index.save(path)
            loaded = RlcIndex.load(path)
        finally:
            os.unlink(path)
        assert loaded.num_entries == index.num_entries
        for v in range(graph.num_vertices):
            assert loaded.lin(v) == index.lin(v)
            assert loaded.lout(v) == index.lout(v)
