"""Tests for the RLC index: Table II golden values, queries, persistence."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import build_rlc_index
from repro.errors import (
    CapabilityError,
    NonPrimitiveConstraintError,
    QueryError,
    SerializationError,
)
from repro.core.index import RlcIndex
from repro.graph.datasets import load_dataset
from repro.queries import RlcQuery

from tests.helpers import (
    CreatesMarker,
    all_primitive_constraints,
    brute_force_rlc,
    random_graph,
    tracked_objects_added,
)

# Vertex ids: v1=0 .. v6=5; label ids: l1=0, l2=1, l3=2.
L1, L2, L3 = 0, 1, 2
V = {f"v{i}": i - 1 for i in range(1, 7)}

# Table II of the paper, transcribed entry for entry.
PAPER_TABLE_II = {
    "lin": {
        V["v1"]: set(),
        V["v2"]: {(V["v1"], (L1,)), (V["v1"], (L2, L1))},
        V["v3"]: {(V["v1"], (L2,)), (V["v1"], (L1, L2))},
        V["v4"]: {(V["v1"], (L2,))},
        V["v5"]: {
            (V["v1"], (L1, L2)),
            (V["v1"], (L1,)),
            (V["v3"], (L1, L2)),
            (V["v2"], (L2,)),
        },
        V["v6"]: {
            (V["v1"], (L2, L1)),
            (V["v3"], (L1,)),
            (V["v3"], (L2, L3)),
            (V["v4"], (L3,)),
        },
    },
    "lout": {
        V["v1"]: {(V["v1"], (L2,)), (V["v1"], (L1,)), (V["v1"], (L2, L1))},
        V["v2"]: {(V["v1"], (L2, L1)), (V["v1"], (L1,))},
        V["v3"]: {
            (V["v1"], (L2,)),
            (V["v1"], (L2, L1)),
            (V["v1"], (L1,)),
            (V["v3"], (L1, L2)),
        },
        V["v4"]: {(V["v1"], (L1,)), (V["v3"], (L1, L2))},
        V["v5"]: {(V["v1"], (L1,)), (V["v3"], (L1, L2))},
        V["v6"]: set(),
    },
}


class TestPaperTableII:
    """The index of Fig. 2 with k=2 must reproduce Table II exactly."""

    def test_lin_entries(self, fig2_index):
        for vertex, expected in PAPER_TABLE_II["lin"].items():
            assert set(fig2_index.lin(vertex)) == expected, f"Lin(v{vertex + 1})"

    def test_lout_entries(self, fig2_index):
        for vertex, expected in PAPER_TABLE_II["lout"].items():
            assert set(fig2_index.lout(vertex)) == expected, f"Lout(v{vertex + 1})"

    def test_total_entry_count(self, fig2_index):
        assert fig2_index.num_entries == 26

    def test_entry_split(self, fig2_index):
        lout_total, lin_total = fig2_index.entry_counts()
        assert lout_total == 13 and lin_total == 13

    def test_access_order(self, fig2_index):
        order = [fig2_index.vertex_with_access_id(a) for a in range(1, 7)]
        assert order == [V["v1"], V["v3"], V["v2"], V["v4"], V["v5"], V["v6"]]
        assert fig2_index.access_id(V["v3"]) == 2

    def test_condensed(self, fig2_index):
        assert fig2_index.condensedness_violations() == []


class TestPaperExample4:
    """The three queries of Example 4."""

    def test_q1_true_via_case1(self, fig2_index):
        # Q1(v3, v6, (l2 l1)+): (v1,(l2,l1)) in Lout(v3) and in Lin(v6).
        assert fig2_index.query(V["v3"], V["v6"], (L2, L1)) is True

    def test_q2_true_via_case2(self, fig2_index):
        # Q2(v1, v2, (l2 l1)+): (v1,(l2,l1)) in Lin(v2).
        assert fig2_index.query(V["v1"], V["v2"], (L2, L1)) is True

    def test_q3_false(self, fig2_index):
        # Q3(v1, v3, (l1)+): v1 reaches v3 but not under (l1)+.
        assert fig2_index.query(V["v1"], V["v3"], (L1,)) is False

    def test_fast_variant_agrees(self, fig2_index):
        for s, t in itertools.product(range(6), repeat=2):
            for labels in all_primitive_constraints(3, 2):
                assert fig2_index.query(s, t, labels) == fig2_index.query_mr(
                    s, t, labels
                )

    def test_batch_matches_point_queries(self, fig2_index):
        batch = [
            RlcQuery(s, t, labels)
            for s, t in itertools.product(range(6), repeat=2)
            for labels in all_primitive_constraints(3, 2)
        ]
        assert fig2_index.query_batch(batch) == [
            fig2_index.query(q.source, q.target, q.labels) for q in batch
        ]


class TestQuerySemantics:
    def test_star_has_one_reduction(self):
        # The traversals and ETC answer stars through no copy of their
        # own: ``repro query`` is the one validated reduction.
        from repro.baselines import ExtendedTransitiveClosure
        from repro.baselines.bfs import _NfaTraversal

        assert not hasattr(_NfaTraversal, "query_star")
        assert not hasattr(ExtendedTransitiveClosure, "query_star")

    def test_self_cycle_plus(self, fig2_index):
        # v1 -l1-> v2 -l1-> v5 -l1-> v1: (l1)+ cycle at v1.
        assert fig2_index.query(V["v1"], V["v1"], (L1,)) is True

    def test_no_cycle_plus(self, fig2_index):
        assert fig2_index.query(V["v6"], V["v6"], (L1,)) is False

    def test_over_k_rejected(self, fig2_index):
        with pytest.raises(CapabilityError):
            fig2_index.query(0, 1, (L1, L2, L3))

    def test_non_primitive_rejected(self, fig2_index):
        with pytest.raises(NonPrimitiveConstraintError):
            fig2_index.query(0, 1, (L1, L1))

    def test_unknown_vertex(self, fig2_index):
        with pytest.raises(QueryError):
            fig2_index.query(0, 10, (L1,))

    def test_unknown_label(self, fig2_index):
        with pytest.raises(QueryError):
            fig2_index.query(0, 1, (7,))

    def test_repr(self, fig2_index):
        assert "RlcIndex(k=2" in repr(fig2_index)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_graphs(self, seed, k):
        graph = random_graph(seed * 31 + k)
        index = build_rlc_index(graph, k)
        for s, t in itertools.product(range(graph.num_vertices), repeat=2):
            for labels in all_primitive_constraints(graph.num_labels, k):
                expected = brute_force_rlc(graph, s, t, labels)
                assert index.query(s, t, labels) == expected, (seed, k, s, t, labels)
                assert index.query_mr(s, t, labels) == expected


class TestCondensedness:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs_condensed(self, seed):
        graph = random_graph(seed + 500)
        index = build_rlc_index(graph, 2)
        assert index.condensedness_violations() == [], seed


class TestPersistence:
    def test_round_trip(self, tmp_path, fig2_index):
        path = tmp_path / "index.npz"
        fig2_index.save(path)
        loaded = RlcIndex.load(path)
        assert loaded.k == fig2_index.k
        assert loaded.num_vertices == fig2_index.num_vertices
        assert loaded.num_entries == fig2_index.num_entries
        for vertex in range(6):
            assert set(loaded.lin(vertex)) == set(fig2_index.lin(vertex))
            assert set(loaded.lout(vertex)) == set(fig2_index.lout(vertex))

    def test_loaded_index_answers_queries(self, tmp_path, fig2_index):
        path = tmp_path / "index.npz"
        fig2_index.save(path)
        loaded = RlcIndex.load(path)
        for s, t in itertools.product(range(6), repeat=2):
            for labels in all_primitive_constraints(3, 2):
                assert loaded.query(s, t, labels) == fig2_index.query(s, t, labels)

    def test_label_dictionary_preserved(self, tmp_path, fig2_index):
        path = tmp_path / "index.npz"
        fig2_index.save(path)
        loaded = RlcIndex.load(path)
        assert loaded.label_dictionary is not None
        assert loaded.label_dictionary.id_of("l2") == 1

    @pytest.mark.parametrize(
        "name, change",
        [
            pytest.param("order", lambda a: a.__setitem__(1, a[0]), id="order-duplicate"),
            pytest.param("order", lambda a: a.__setitem__(0, 6), id="order-out-of-range"),
            pytest.param("hubs", lambda a: a.__setitem__(slice(None), a[::-1].copy()), id="hubs-shuffled"),
            pytest.param("hubs", lambda a: a.__setitem__(0, 0), id="hub-zero"),
            pytest.param("hubs", lambda a: a.__setitem__(0, 7), id="hub-above-n"),
            pytest.param("sides", lambda a: a.__setitem__(slice(None), 2), id="sides-2"),
            pytest.param("owners", lambda a: a.__setitem__(0, -1), id="owner-negative"),
            pytest.param("owners", lambda a: a.__setitem__(0, 6), id="owner-above-n"),
            pytest.param("lengths", lambda a: a.__setitem__(0, a[0] + 1), id="lengths-sum"),
            pytest.param("lengths", lambda a: a.__setitem__(slice(0, 2), (0, a[0] + a[1])), id="length-zero"),
            pytest.param("lengths", lambda a: a.__setitem__(slice(0, 2), (3, a[0] + a[1] - 3)), id="length-above-k"),
            pytest.param("flat_labels", lambda a: a.__setitem__(0, 3), id="label-above-num-labels"),
            pytest.param("flat_labels", lambda a: a.__setitem__(0, -1), id="label-negative"),
            pytest.param("label_names", lambda a: a.__setitem__(0, a[1]), id="label-names-duplicate"),
        ],
    )  # fmt: skip
    def test_malformed_archive_rejected(self, tmp_path, fig2_index, name, change):
        """A tampered archive fails to load rather than answer wrongly."""
        arrays = _saved_arrays(tmp_path, fig2_index, keep_label_names=True)
        change(arrays[name])
        path = tmp_path / "tampered.npz"
        np.savez(path, **arrays)
        with pytest.raises(SerializationError):
            RlcIndex.load(path)

    def test_unequal_entry_arrays_rejected(self, tmp_path, fig2_index):
        arrays = _saved_arrays(tmp_path, fig2_index, keep_label_names=True)
        arrays["owners"] = arrays["owners"][:-1]
        path = tmp_path / "tampered.npz"
        np.savez(path, **arrays)
        with pytest.raises(SerializationError):
            RlcIndex.load(path)

    def test_untampered_copy_loads(self, tmp_path, fig2_index):
        arrays = _saved_arrays(tmp_path, fig2_index, keep_label_names=True)
        path = tmp_path / "copy.npz"
        np.savez(path, **arrays)
        assert RlcIndex.load(path).num_entries == fig2_index.num_entries

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"garbage")
        with pytest.raises(SerializationError):
            RlcIndex.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            RlcIndex.load(tmp_path / "absent.npz")


def _saved_arrays(tmp_path, index, *, keep_label_names=False):
    """The arrays of ``index``'s saved archive, label names left out unless kept."""
    path = tmp_path / "index.npz"
    index.save(path)
    with np.load(path, allow_pickle=False) as archive:
        return {
            name: archive[name]
            for name in archive.files
            if keep_label_names or name != "label_names"
        }


class TestLoadRunsNoCode:
    """``RlcIndex.load`` never unpickles, whatever the archive claims."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_pickled_label_names_rejected(self, tmp_path, fig2_index, version):
        arrays = _saved_arrays(tmp_path, fig2_index)
        marker = tmp_path / "marker"
        arrays["format_version"] = np.int64(version)
        label_names = np.empty(1, dtype=object)
        label_names[0] = CreatesMarker(marker)
        arrays["label_names"] = label_names
        crafted = tmp_path / f"crafted-v{version}.npz"
        np.savez(crafted, **arrays)
        with pytest.raises(SerializationError):
            RlcIndex.load(crafted)
        assert not marker.exists()

    def test_version_1_names_the_rebuild(self, tmp_path, fig2_index):
        arrays = _saved_arrays(tmp_path, fig2_index)
        arrays["format_version"] = np.int64(1)
        path = tmp_path / "v1.npz"
        np.savez(path, **arrays)
        with pytest.raises(SerializationError, match="repro build"):
            RlcIndex.load(path)

    def test_saved_label_names_are_plain_strings(self, tmp_path, fig2_index):
        path = tmp_path / "index.npz"
        fig2_index.save(path)
        with np.load(path, allow_pickle=False) as archive:
            assert archive["label_names"].dtype.kind == "U"


class TestStoreFootprint:
    """After one full collection, the GC no longer tracks an index's entry store.

    Hub lists are tuples and each vertex's store a dict of them, all of
    ints; CPython untracks such tuples and dicts in a full collection.
    What is left is the index object and its few lists of vertices.
    """

    def test_built_and_loaded_stores_are_untracked(self, tmp_path):
        graph = load_dataset("EP", scale=0.1)
        index, added = tracked_objects_added(lambda: build_rlc_index(graph, k=2))
        assert index.num_entries > 10 * graph.num_vertices
        assert added < 50
        path = tmp_path / "ep.npz"
        index.save(path)
        loaded, added = tracked_objects_added(lambda: RlcIndex.load(path))
        assert loaded.num_entries == index.num_entries
        assert added < 50


class TestSizeModel:
    def test_entry_accounting(self, fig2_index):
        # 26 entries; each costs 4 (hub) + 2 (header) + |mr| bytes.
        total_mr_labels = sum(
            len(mr) for v in range(6) for _, mr in fig2_index.lin(v)
        ) + sum(len(mr) for v in range(6) for _, mr in fig2_index.lout(v))
        assert fig2_index.estimated_size_bytes() == 26 * 6 + total_mr_labels

    def test_empty_index(self):
        from repro.graph.digraph import EdgeLabeledDigraph

        index = build_rlc_index(EdgeLabeledDigraph(3, [], num_labels=1), 2)
        assert index.num_entries == 0
        assert index.estimated_size_bytes() == 0
