"""Golden builds: the index and its counters, entry for entry.

EP at k=2 and WN at k=3, at ``scale=0.1``, the two builds of the
``build`` benchmark workload shrunk to a fraction of a second.  Every
``BuildStats`` counter except ``seconds`` is pinned, together with the
entry counts, the size model and a SHA-256 over every entry.  A change
to the builder or to the entry store that claims to keep the index
identical must leave all of them unchanged; a change that means to alter
the index updates these values and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import build_rlc_index
from repro.graph.datasets import load_dataset

GOLDEN = {
    ("EP", 2): {
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
    ("WN", 3): {
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
}


def entries_digest(index) -> str:
    """SHA-256 of the sorted ``(side, vertex, hub, mr)`` entries (side 0: Lout)."""
    entries = sorted(
        [(0, v, hub, mr) for v in range(index.num_vertices) for hub, mr in index.lout(v)]
        + [(1, v, hub, mr) for v in range(index.num_vertices) for hub, mr in index.lin(v)]
    )
    return hashlib.sha256(repr(entries).encode()).hexdigest()


@pytest.fixture(scope="module", params=sorted(GOLDEN), ids=lambda key: f"{key[0]}-k{key[1]}")
def golden_build(request):
    dataset, k = request.param
    return build_rlc_index(load_dataset(dataset, scale=0.1), k), GOLDEN[request.param]


class TestGoldenBuild:
    def test_build_stats(self, golden_build):
        index, golden = golden_build
        stats = index.build_stats.as_dict()
        del stats["seconds"]
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
        index, _ = golden_build
        assert index.condensedness_violations() == []
