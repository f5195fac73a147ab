"""The RLC index data structure and its query algorithm.

Definition 4 of the paper: the index assigns each vertex ``v`` two sets
of entries,

- ``Lout(v) = {(w, L) | v ~> w and L in S_k(v, w)}``
- ``Lin(v)  = {(u, L) | u ~> v and L in S_k(u, v)}``

and a query ``(s, t, L+)`` is true iff ``(t, L) in Lout(s)``, or
``(s, L) in Lin(t)``, or some hub ``x`` has ``(x, L) in Lout(s)`` and
``(x, L) in Lin(t)`` (checked with a merge join over the lists, which
are kept sorted by hub access id — Algorithm 1).

Entries are stored as ``(hub_access_id, mr)`` tuples.  Because the
builder processes vertices in access-id order and each search only
inserts entries whose hub is the search origin, per-vertex lists come
out already sorted — no post-sorting is needed, matching the paper's
complexity claim for Algorithm 1.

A parallel ``{mr: [hub_access_ids]}`` view of the same entries supports
the O(|hubs(L)|) point-lookup variant used heavily by the builder's
PR1 pruning checks (and exposed as :meth:`RlcIndex.query_mr`).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import QueryError, SerializationError
from repro.labels.sequences import LabelDictionary
from repro.queries import RlcQuery, validate_rlc_query

__all__ = ["BuildStats", "RlcIndex"]

Mr = Tuple[int, ...]
Entry = Tuple[int, Mr]  # (hub access id, minimum repeat)

_FORMAT_VERSION = 1

_NO_HUBS: Tuple[int, ...] = ()


@dataclass
class BuildStats:
    """Counters recorded by the indexing algorithm (for the ablations)."""

    seconds: float = 0.0
    kernel_searches: int = 0
    kernel_bfs_runs: int = 0
    phase1_expansions: int = 0
    phase2_expansions: int = 0
    insert_attempts: int = 0
    inserted: int = 0
    duplicates: int = 0
    pruned_pr1: int = 0
    pruned_pr2: int = 0
    pr3_stops: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Flat dict view (used by the benchmark harness)."""
        return {
            "seconds": self.seconds,
            "kernel_searches": self.kernel_searches,
            "kernel_bfs_runs": self.kernel_bfs_runs,
            "phase1_expansions": self.phase1_expansions,
            "phase2_expansions": self.phase2_expansions,
            "insert_attempts": self.insert_attempts,
            "inserted": self.inserted,
            "duplicates": self.duplicates,
            "pruned_pr1": self.pruned_pr1,
            "pruned_pr2": self.pruned_pr2,
            "pr3_stops": self.pr3_stops,
        }


class RlcIndex:
    """An immutable RLC index over a graph with recursive bound ``k``.

    Build one with :func:`repro.core.build_rlc_index`; query with
    :meth:`query` (the paper's Algorithm 1) or, for a constraint
    validated once up front, :meth:`query_mr` (hub-intersection
    variant, same answers).  The index is
    self-contained: it can be saved, loaded and queried without the
    graph (only vertex/label counts are validated).
    """

    def __init__(
        self,
        *,
        k: int,
        num_vertices: int,
        num_labels: int,
        order: Sequence[int],
        out_lists: List[List[Entry]],
        in_lists: List[List[Entry]],
        out_by_mr: Optional[List[Dict[Mr, List[int]]]] = None,
        in_by_mr: Optional[List[Dict[Mr, List[int]]]] = None,
        build_stats: Optional[BuildStats] = None,
        label_dictionary: Optional[LabelDictionary] = None,
    ) -> None:
        self._k = k
        self._num_vertices = num_vertices
        self._num_labels = num_labels
        self._order: List[int] = list(order)
        self._aid: List[int] = [0] * num_vertices
        for position, vertex in enumerate(self._order):
            self._aid[vertex] = position + 1
        self._out = out_lists
        self._in = in_lists
        self._out_by_mr = out_by_mr if out_by_mr is not None else self._group(out_lists)
        self._in_by_mr = in_by_mr if in_by_mr is not None else self._group(in_lists)
        self.build_stats = build_stats
        self.label_dictionary = label_dictionary

    @staticmethod
    def _group(lists: List[List[Entry]]) -> List[Dict[Mr, List[int]]]:
        grouped: List[Dict[Mr, List[int]]] = []
        for entries in lists:
            by_mr: Dict[Mr, List[int]] = {}
            for hub_aid, mr in entries:
                by_mr.setdefault(mr, []).append(hub_aid)
            grouped.append(by_mr)
        return grouped

    # ------------------------------------------------------------------
    # Metadata (duck-typed like a graph for query validation)
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """The recursive bound the index was built for."""
        return self._k

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_labels(self) -> int:
        return self._num_labels

    def has_vertex(self, vertex: int) -> bool:
        return 0 <= vertex < self._num_vertices

    def access_id(self, vertex: int) -> int:
        """The 1-based access id of ``vertex`` under the build ordering."""
        return self._aid[vertex]

    def vertex_with_access_id(self, aid: int) -> int:
        """Inverse of :meth:`access_id`."""
        return self._order[aid - 1]

    def __repr__(self) -> str:
        return (
            f"RlcIndex(k={self._k}, |V|={self._num_vertices}, "
            f"entries={self.num_entries})"
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, source: int, target: int, labels: Sequence[int]) -> bool:
        """Algorithm 1: Case-2 membership checks, then the merge join."""
        mr = validate_rlc_query(self, source, target, labels, k=self._k)
        return self._query_merge_join(source, target, mr)

    def query_star(self, source: int, target: int, labels: Sequence[int]) -> bool:
        """Kleene-star variant: true when ``source == target`` (empty path)."""
        if source == target and self.has_vertex(source):
            return True
        return self.query(source, target, labels)

    def query_batch(self, queries: Sequence[RlcQuery]) -> List[bool]:
        """Batched Algorithm 1: validate each distinct constraint once.

        Every query then costs one :meth:`query_mr` hub probe instead of
        full validation and the entry-list merge join; answers match
        :meth:`query` element-wise, errors included.
        """
        validated: Dict[Tuple[int, ...], Mr] = {}
        answers: List[bool] = []
        for query in queries:
            mr = validated.get(query.labels)
            if mr is None:
                mr = validate_rlc_query(
                    self, query.source, query.target, query.labels, k=self._k
                )
                validated[query.labels] = mr
            answers.append(self.query_mr(query.source, query.target, mr))
        return answers

    def _query_merge_join(self, source: int, target: int, mr: Mr) -> bool:
        out_entries = self._out[source]
        in_entries = self._in[target]
        # Case 2 of Definition 4.
        if _contains_entry(out_entries, self._aid[target], mr):
            return True
        if _contains_entry(in_entries, self._aid[source], mr):
            return True
        # Case 1: merge join on hub access id; within an aligned hub
        # group, the constraint must appear on both sides.
        i = j = 0
        len_out, len_in = len(out_entries), len(in_entries)
        while i < len_out and j < len_in:
            hub_out = out_entries[i][0]
            hub_in = in_entries[j][0]
            if hub_out < hub_in:
                i += 1
            elif hub_out > hub_in:
                j += 1
            else:
                hub = hub_out
                found_out = False
                scan = i
                while scan < len_out and out_entries[scan][0] == hub:
                    if out_entries[scan][1] == mr:
                        found_out = True
                        break
                    scan += 1
                if found_out:
                    scan = j
                    while scan < len_in and in_entries[scan][0] == hub:
                        if in_entries[scan][1] == mr:
                            return True
                        scan += 1
                while i < len_out and out_entries[i][0] == hub:
                    i += 1
                while j < len_in and in_entries[j][0] == hub:
                    j += 1
        return False

    def query_mr(self, source: int, target: int, mr: Mr) -> bool:
        """Point query for an **already-validated** primitive constraint.

        The hub-intersection form of Algorithm 1 and the evaluation
        behind :class:`repro.engine.RlcIndexEngine` and
        :meth:`query_batch`: endpoints are bounds-checked here (cheap),
        but ``mr`` must already be the validated minimum repeat —
        callers amortize that through
        :func:`repro.queries.validate_rlc_query` or a
        :class:`~repro.engine.PreparedQuery`.  Looks up only the hub
        lists of the constraint, ``O(|hubs_out(L)| + |hubs_in(L)|)``
        instead of the merge join's ``O(|Lout(s)| + |Lin(t)|)``: Case 2
        both ways (is the opposite endpoint itself a recorded hub?),
        then Case 1 as a sorted-list intersection.
        """
        if not 0 <= source < self._num_vertices:
            raise QueryError(f"unknown source vertex: {source}")
        if not 0 <= target < self._num_vertices:
            raise QueryError(f"unknown target vertex: {target}")
        hubs_out = self._out_by_mr[source].get(mr, _NO_HUBS)
        hubs_in = self._in_by_mr[target].get(mr, _NO_HUBS)
        if hubs_out and _binary_contains(hubs_out, self._aid[target]):
            return True
        if hubs_in and _binary_contains(hubs_in, self._aid[source]):
            return True
        if not hubs_out or not hubs_in:
            return False
        return _sorted_intersect(hubs_out, hubs_in)

    # ------------------------------------------------------------------
    # Entry inspection
    # ------------------------------------------------------------------

    def lout(self, vertex: int) -> Tuple[Tuple[int, Mr], ...]:
        """``Lout(vertex)`` as ``(hub_vertex_id, mr)`` pairs."""
        return tuple(
            (self._order[aid - 1], mr) for aid, mr in self._out[vertex]
        )

    def lin(self, vertex: int) -> Tuple[Tuple[int, Mr], ...]:
        """``Lin(vertex)`` as ``(hub_vertex_id, mr)`` pairs."""
        return tuple(
            (self._order[aid - 1], mr) for aid, mr in self._in[vertex]
        )

    @property
    def num_entries(self) -> int:
        """Total entries across all ``Lin`` and ``Lout`` sets."""
        return sum(len(entries) for entries in self._out) + sum(
            len(entries) for entries in self._in
        )

    def entry_counts(self) -> Tuple[int, int]:
        """``(total Lout entries, total Lin entries)``."""
        return (
            sum(len(entries) for entries in self._out),
            sum(len(entries) for entries in self._in),
        )

    def entry_distribution(self) -> Dict[str, float]:
        """Distribution statistics of per-vertex entry counts.

        Section VI-B explains query-time behaviour through the *skew*
        of entries across vertices (hub-dominated on BA graphs, uniform
        on ER graphs); these figures quantify that skew.
        """
        per_vertex = [
            len(self._out[v]) + len(self._in[v]) for v in range(self._num_vertices)
        ]
        if not per_vertex:
            return {"max": 0, "mean": 0.0, "nonzero_vertices": 0}
        return {
            "max": max(per_vertex),
            "mean": sum(per_vertex) / len(per_vertex),
            "nonzero_vertices": sum(1 for count in per_vertex if count),
        }

    def explain(self, source: int, target: int, labels: Sequence[int]) -> str:
        """Human-readable account of how Algorithm 1 answers the query.

        Returns one of: ``"case2: (t, L) in Lout(s)"``,
        ``"case2: (s, L) in Lin(t)"``, ``"case1: common hub v<id>"``, or
        ``"false: no entry pair"`` — with the same validation as
        :meth:`query`.
        """
        mr = validate_rlc_query(self, source, target, labels, k=self._k)
        if _contains_entry(self._out[source], self._aid[target], mr):
            return "case2: (t, L) in Lout(s)"
        if _contains_entry(self._in[target], self._aid[source], mr):
            return "case2: (s, L) in Lin(t)"
        hubs_out = self._out_by_mr[source].get(mr, ())
        hubs_in = set(self._in_by_mr[target].get(mr, ()))
        for hub_aid in hubs_out:
            if hub_aid in hubs_in:
                return f"case1: common hub v{self._order[hub_aid - 1]}"
        return "false: no entry pair"

    def estimated_size_bytes(self) -> int:
        """Storage model: 4 bytes per hub id + (2 + |mr|) bytes per entry.

        Identical per-entry accounting to
        :meth:`repro.baselines.ExtendedTransitiveClosure.estimated_size_bytes`,
        so Table IV's RLC-vs-ETC comparison is apples-to-apples.
        """
        total = 0
        for side in (self._out, self._in):
            for entries in side:
                for _, mr in entries:
                    total += 4 + 2 + len(mr)
        return total

    def condensedness_violations(self, limit: int = 10) -> List[Tuple[int, int, Mr]]:
        """Entries violating Definition 5 (should be empty, Theorem 2).

        An entry ``(t, L) in Lout(s)`` (or symmetrically ``(s, L)`` in
        ``Lin(t)``) is redundant when some hub ``x`` has
        ``(x, L) in Lout(s)`` and ``(x, L) in Lin(t)`` — *via other
        entries*: a witness pair that includes the entry under test
        (``x == t`` for an Lout entry, ``x == s`` for an Lin entry,
        possible when the hub has a self-cycle entry) does not make the
        entry removable, so it is excluded.  Returns up to ``limit``
        offending ``(s, t, L)`` triples; Theorem 2 says none exist.
        """
        violations: List[Tuple[int, int, Mr]] = []
        for s in range(self._num_vertices):
            for hub_aid, mr in self._out[s]:
                t = self._order[hub_aid - 1]
                if self._has_common_hub(s, t, mr, exclude_aid=hub_aid):
                    violations.append((s, t, mr))
                    if len(violations) >= limit:
                        return violations
        for t in range(self._num_vertices):
            for hub_aid, mr in self._in[t]:
                s = self._order[hub_aid - 1]
                if self._has_common_hub(s, t, mr, exclude_aid=hub_aid):
                    violations.append((s, t, mr))
                    if len(violations) >= limit:
                        return violations
        return violations

    def _has_common_hub(
        self, source: int, target: int, mr: Mr, *, exclude_aid: int = 0
    ) -> bool:
        hubs_out = self._out_by_mr[source].get(mr)
        hubs_in = self._in_by_mr[target].get(mr)
        if not hubs_out or not hubs_in:
            return False
        i = j = 0
        while i < len(hubs_out) and j < len(hubs_in):
            a, b = hubs_out[i], hubs_in[j]
            if a < b:
                i += 1
            elif a > b:
                j += 1
            elif a == exclude_aid:
                i += 1
                j += 1
            else:
                return True
        return False

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Persist the index as a compressed numpy archive."""
        owners: List[int] = []
        sides: List[int] = []
        hubs: List[int] = []
        lengths: List[int] = []
        flat_labels: List[int] = []
        for side_id, side in ((0, self._out), (1, self._in)):
            for vertex, entries in enumerate(side):
                for hub_aid, mr in entries:
                    owners.append(vertex)
                    sides.append(side_id)
                    hubs.append(hub_aid)
                    lengths.append(len(mr))
                    flat_labels.extend(mr)
        label_names = (
            np.asarray(list(self.label_dictionary), dtype=object)
            if self.label_dictionary is not None
            else np.asarray([], dtype=object)
        )
        np.savez_compressed(
            path,
            format_version=np.int64(_FORMAT_VERSION),
            k=np.int64(self._k),
            num_vertices=np.int64(self._num_vertices),
            num_labels=np.int64(self._num_labels),
            order=np.asarray(self._order, dtype=np.int64),
            owners=np.asarray(owners, dtype=np.int64),
            sides=np.asarray(sides, dtype=np.int8),
            hubs=np.asarray(hubs, dtype=np.int64),
            lengths=np.asarray(lengths, dtype=np.int64),
            flat_labels=np.asarray(flat_labels, dtype=np.int64),
            label_names=label_names,
        )

    @classmethod
    def load(cls, path) -> "RlcIndex":
        """Load an index written by :meth:`save`."""
        try:
            with np.load(path, allow_pickle=True) as archive:
                version = int(archive["format_version"])
                if version != _FORMAT_VERSION:
                    raise SerializationError(
                        f"unsupported index format version {version} in {path}"
                    )
                num_vertices = int(archive["num_vertices"])
                out_lists: List[List[Entry]] = [[] for _ in range(num_vertices)]
                in_lists: List[List[Entry]] = [[] for _ in range(num_vertices)]
                owners = archive["owners"].tolist()
                sides = archive["sides"].tolist()
                hubs = archive["hubs"].tolist()
                lengths = archive["lengths"].tolist()
                flat = archive["flat_labels"].tolist()
                cursor = 0
                for owner, side, hub, length in zip(owners, sides, hubs, lengths):
                    mr = tuple(flat[cursor : cursor + length])
                    cursor += length
                    (out_lists if side == 0 else in_lists)[owner].append((hub, mr))
                names = [str(name) for name in archive["label_names"]]
                return cls(
                    k=int(archive["k"]),
                    num_vertices=num_vertices,
                    num_labels=int(archive["num_labels"]),
                    order=archive["order"].tolist(),
                    out_lists=out_lists,
                    in_lists=in_lists,
                    label_dictionary=LabelDictionary(names) if names else None,
                )
        except SerializationError:
            raise
        except Exception as exc:  # corrupt archives raise various zip/pickle errors
            raise SerializationError(
                f"failed to load index from {path}: {exc}"
            ) from exc


def _contains_entry(entries: List[Entry], hub_aid: int, mr: Mr) -> bool:
    """Membership of ``(hub_aid, mr)`` in an aid-sorted entry list."""
    position = bisect_left(entries, hub_aid, key=_entry_key)
    while position < len(entries) and entries[position][0] == hub_aid:
        if entries[position][1] == mr:
            return True
        position += 1
    return False


def _entry_key(entry: Entry) -> int:
    return entry[0]


def _binary_contains(sorted_list: Sequence[int], value: int) -> bool:
    position = bisect_left(sorted_list, value)
    return position < len(sorted_list) and sorted_list[position] == value


def _sorted_intersect(left: Sequence[int], right: Sequence[int]) -> bool:
    """True when two sorted hub lists share an element (merge scan)."""
    i = j = 0
    len_left, len_right = len(left), len(right)
    while i < len_left and j < len_right:
        a, b = left[i], right[j]
        if a < b:
            i += 1
        elif a > b:
            j += 1
        else:
            return True
    return False
