"""Golden builds: the index and its counters, entry for entry.

EP at k=2 and WN at k=3, at ``scale=0.1``, the two builds of the
``build`` benchmark workload shrunk to a fraction of a second, plus the
variants every builder branch takes: EP k=2 with each pruning rule off
and with all three off, and the lazy strategy on WN k=2 at
``scale=0.05`` (lazy EP at 0.1 takes seconds) and at k=4 on a
12-vertex random graph, where lazy kernel-BFS seeds sit mid-copy
(``2k mod |kernel| > 0``).  Every ``BuildStats``
counter except the wall times is pinned, together with the entry counts,
the size model and a SHA-256 over every entry.  A change to the builder
or to the entry store that claims to keep the index identical must
leave all of them unchanged; a change that means to alter the index
updates these values and says why.

The ETC baseline is pinned the same way on the EP k=2 and WN k=3
graphs: its pair and entry counts, its size model and a SHA-256 over
the sorted closure.
"""

from __future__ import annotations

import hashlib
from functools import partial

import pytest

from repro.baselines.etc import ExtendedTransitiveClosure
from repro.core import build_rlc_index
from repro.graph.datasets import load_dataset
from repro.graph.generators import labeled_erdos_renyi

EP = partial(load_dataset, "EP", scale=0.1)

#: case id -> (graph factory, k, builder options)
CASES = {
    "EP-k2": (EP, 2, {}),
    "WN-k3": (partial(load_dataset, "WN", scale=0.1), 3, {}),
    "EP-k2-no-pr1": (EP, 2, {"use_pr1": False}),
    "EP-k2-no-pr2": (EP, 2, {"use_pr2": False}),
    "EP-k2-no-pr3": (EP, 2, {"use_pr3": False}),
    "EP-k2-no-pruning": (EP, 2, {"use_pr1": False, "use_pr2": False, "use_pr3": False}),
    "WN-k2-lazy": (partial(load_dataset, "WN", scale=0.05), 2, {"strategy": "lazy"}),
    "ER12-k4-lazy": (partial(labeled_erdos_renyi, 12, 2.0, 3, seed=1), 4, {"strategy": "lazy"}),
}

GOLDEN = {
    "EP-k2": {
        "stats": {
            "kernel_searches": 300,
            "kernel_bfs_runs": 3839,
            "phase1_expansions": 23568,
            "phase2_expansions": 97239,
            "insert_attempts": 78775,
            "inserted": 4410,
            "duplicates": 34,
            "pruned_pr1": 35639,
            "pruned_pr2": 38692,
            "pr3_stops": 53191,
        },
        "entry_counts": (2087, 2323),
        "size_bytes": 34548,
        "sha256": "a6cb017e8e2f3f973cf0632bc8a089fc2cdaa738eca99aaa54c39440319cebef",
    },
    "WN-k3": {
        "stats": {
            "kernel_searches": 320,
            "kernel_bfs_runs": 8636,
            "phase1_expansions": 34964,
            "phase2_expansions": 129166,
            "insert_attempts": 67847,
            "inserted": 10177,
            "duplicates": 193,
            "pruned_pr1": 24435,
            "pruned_pr2": 33042,
            "pr3_stops": 30719,
        },
        "entry_counts": (7553, 2624),
        "size_bytes": 88792,
        "sha256": "c63979ae5eee73fdf065d30f4023e50e37b197c1fb4b5902688b5cb6d1bd7e0a",
    },
    "EP-k2-no-pr1": {
        "stats": {
            "kernel_searches": 300,
            "kernel_bfs_runs": 3839,
            "phase1_expansions": 23568,
            "phase2_expansions": 141402,
            "insert_attempts": 100848,
            "inserted": 55516,
            "duplicates": 251,
            "pruned_pr1": 0,
            "pruned_pr2": 45081,
            "pr3_stops": 33336,
        },
        "entry_counts": (27341, 28175),
        "size_bytes": 425862,
        "sha256": "4b05520baf8ff51689020878ddc2b3490b8f90f8ff975cb321b07972d53ba3ee",
        # Without PR1 the index keeps entries that other entries imply.
        "condensed": False,
    },
    # PR2 off stores the same index at EP k=2: PR1 prunes what PR2 would.
    "EP-k2-no-pr2": {
        "stats": {
            "kernel_searches": 300,
            "kernel_bfs_runs": 3839,
            "phase1_expansions": 23568,
            "phase2_expansions": 97239,
            "insert_attempts": 78775,
            "inserted": 4410,
            "duplicates": 34,
            "pruned_pr1": 74331,
            "pruned_pr2": 0,
            "pr3_stops": 53191,
        },
        "entry_counts": (2087, 2323),
        "size_bytes": 34548,
        "sha256": "a6cb017e8e2f3f973cf0632bc8a089fc2cdaa738eca99aaa54c39440319cebef",
    },
    "EP-k2-no-pr3": {
        "stats": {
            "kernel_searches": 300,
            "kernel_bfs_runs": 3839,
            "phase1_expansions": 23568,
            "phase2_expansions": 280402,
            "insert_attempts": 150008,
            "inserted": 4410,
            "duplicates": 34,
            "pruned_pr1": 71089,
            "pruned_pr2": 74475,
            "pr3_stops": 0,
        },
        "entry_counts": (2087, 2323),
        "size_bytes": 34548,
        "sha256": "a6cb017e8e2f3f973cf0632bc8a089fc2cdaa738eca99aaa54c39440319cebef",
    },
    "EP-k2-no-pruning": {
        "stats": {
            "kernel_searches": 300,
            "kernel_bfs_runs": 3839,
            "phase1_expansions": 23568,
            "phase2_expansions": 280402,
            "insert_attempts": 150008,
            "inserted": 149506,
            "duplicates": 502,
            "pruned_pr1": 0,
            "pruned_pr2": 0,
            "pr3_stops": 0,
        },
        "entry_counts": (74753, 74753),
        "size_bytes": 1146908,
        "sha256": "2defb065917f0f379740dae568744dd7ca13d2ea0674d8080b3de81c0186a3c7",
        # Without PR1 the index keeps entries that other entries imply.
        "condensed": False,
    },
    "WN-k2-lazy": {
        "stats": {
            "kernel_searches": 160,
            "kernel_bfs_runs": 647,
            "phase1_expansions": 69288,
            "phase2_expansions": 5834,
            "insert_attempts": 13427,
            "inserted": 1096,
            "duplicates": 579,
            "pruned_pr1": 5371,
            "pruned_pr2": 6381,
            "pr3_stops": 2123,
        },
        "entry_counts": (771, 325),
        "size_bytes": 8469,
        "sha256": "a86abf65a4463237a19072364e1c305b5f8cf42f67e57be66af9b8490a54c41d",
    },
    "ER12-k4-lazy": {
        "stats": {
            "kernel_searches": 24,
            "kernel_bfs_runs": 74,
            "phase1_expansions": 3938,
            "phase2_expansions": 412,
            "insert_attempts": 940,
            "inserted": 127,
            "duplicates": 161,
            "pruned_pr1": 228,
            "pruned_pr2": 424,
            "pr3_stops": 44,
        },
        "entry_counts": (51, 76),
        "size_bytes": 1133,
        "sha256": "48a2ec5095c1fb240b40f01ce7d305b3faea7b61f641a81e3de77c2701d8bc39",
    },
}


def entries_digest(index) -> str:
    """SHA-256 of the sorted ``(side, vertex, hub, mr)`` entries (side 0: Lout)."""
    entries = sorted(
        [(0, v, hub, mr) for v in range(index.num_vertices) for hub, mr in index.lout(v)]
        + [(1, v, hub, mr) for v in range(index.num_vertices) for hub, mr in index.lin(v)]
    )
    return hashlib.sha256(repr(entries).encode()).hexdigest()


@pytest.fixture(scope="module", params=sorted(CASES))
def golden_build(request):
    graph, k, options = CASES[request.param]
    return build_rlc_index(graph(), k, **options), GOLDEN[request.param]


class TestGoldenBuild:
    def test_build_stats(self, golden_build):
        index, golden = golden_build
        stats = index.build_stats.as_dict()
        for wall_time in ("seconds", "phase1_seconds", "phase2_seconds"):
            del stats[wall_time]
        assert stats == golden["stats"]

    def test_entry_counts(self, golden_build):
        index, golden = golden_build
        assert index.entry_counts() == golden["entry_counts"]
        assert index.num_entries == sum(golden["entry_counts"])

    def test_estimated_size_bytes(self, golden_build):
        index, golden = golden_build
        assert index.estimated_size_bytes() == golden["size_bytes"]

    def test_entries_digest(self, golden_build):
        index, golden = golden_build
        assert entries_digest(index) == golden["sha256"]

    def test_condensed(self, golden_build):
        index, golden = golden_build
        assert (index.condensedness_violations() == []) == golden.get("condensed", True)


#: ETC case id -> (graph factory, k)
ETC_CASES = {
    "EP-k2": (EP, 2),
    "WN-k3": (partial(load_dataset, "WN", scale=0.1), 3),
}

ETC_GOLDEN = {
    "EP-k2": {
        "num_pairs": 22286,
        "num_entries": 74753,
        "size_bytes": 452730,
        "sha256": "cb00bd7063441a413740c827dfb47014e1944d1324d159c9f94f90269b360865",
    },
    "WN-k3": {
        "num_pairs": 15834,
        "num_entries": 52683,
        "size_bytes": 361310,
        "sha256": "8fa42cefcdabe733d1d9320b290fdd34658ea5df342f2930816fa92bd4204b2c",
    },
}


def closure_digest(etc) -> str:
    """SHA-256 of the sorted ``(source, target, mr)`` entries of an ETC."""
    n = etc.graph.num_vertices
    entries = sorted(
        (s, t, mr) for s in range(n) for t in range(n) for mr in etc.minimum_repeats(s, t)
    )
    return hashlib.sha256(repr(entries).encode()).hexdigest()


@pytest.fixture(scope="module", params=sorted(ETC_CASES))
def golden_etc(request):
    graph, k = ETC_CASES[request.param]
    return ExtendedTransitiveClosure.build(graph(), k), ETC_GOLDEN[request.param]


class TestGoldenEtc:
    """The ETC baseline's closure, pinned like the RLC builds above."""

    def test_sizes(self, golden_etc):
        etc, golden = golden_etc
        assert etc.num_pairs == golden["num_pairs"]
        assert etc.num_entries == golden["num_entries"]
        assert etc.estimated_size_bytes() == golden["size_bytes"]

    def test_closure_digest(self, golden_etc):
        etc, golden = golden_etc
        assert closure_digest(etc) == golden["sha256"]
