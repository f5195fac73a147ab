"""The RLC index data structure and its query algorithm.

Definition 4 of the paper: the index assigns each vertex ``v`` two sets
of entries,

- ``Lout(v) = {(w, L) | v ~> w and L in S_k(v, w)}``
- ``Lin(v)  = {(u, L) | u ~> v and L in S_k(u, v)}``

and a query ``(s, t, L+)`` is true iff ``(t, L) in Lout(s)``, or
``(s, L) in Lin(t)``, or some hub ``x`` has ``(x, L) in Lout(s)`` and
``(x, L) in Lin(t)`` (Algorithm 1, :func:`hubs_answer`).

Each vertex stores its entries grouped by minimum repeat:
``{mr: (hub_access_ids...)}``, one dict for ``Lout`` and one for
``Lin``.  Because the builder processes vertices in access-id order and
each search only inserts entries whose hub is the search origin, every
hub list comes out already sorted — no post-sorting is needed, matching
the paper's complexity claim for Algorithm 1.  A query reads only the
two hub lists of its constraint.

Hub lists are tuples: an insert replaces a vertex's tuple with one a hub
longer.  The store then holds only ints and tuples of ints, which the
garbage collector stops tracking after one full collection, so a built
or loaded index adds nothing to later collections.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import QueryError, SerializationError
from repro.labels.sequences import LabelDictionary
from repro.queries import RlcQuery, validate_rlc_query

__all__ = ["BuildStats", "RlcIndex", "hubs_answer"]

Mr = Tuple[int, ...]
Entry = Tuple[int, Mr]  # (hub access id, minimum repeat)
HubLists = Dict[Mr, Tuple[int, ...]]  # mr -> ascending hub access ids

_FORMAT_VERSION = 2


def hubs_answer(
    hubs_out: Optional[Sequence[int]],
    hubs_in: Optional[Sequence[int]],
    source_aid: int,
    target_aid: int,
) -> bool:
    """Algorithm 1 over the hub lists of one constraint ``L``.

    ``hubs_out`` holds the hub access ids ``x`` with ``(x, L)`` in
    ``Lout(s)`` and ``hubs_in`` those with ``(x, L)`` in ``Lin(t)``,
    both ascending (``None`` or empty when there are none).  Case 2
    both ways (is the opposite endpoint itself a recorded hub?), then
    Case 1 as a sorted-list intersection, in
    ``O(|hubs_out| + |hubs_in|)``.  The probe of :meth:`RlcIndex.query_mr`.

    The builder's PR1 check asks the same question of the partial index
    in a fixed-origin set form.  During one search every insert goes to
    the side opposite the origin's own, so the origin's list is fixed
    and taken once as sets.  The case "the origin is one of the
    vertex's hubs" is the builder's duplicate test.  What is left --
    "the vertex is one of the origin's hubs, or the two lists share a
    hub" -- is one set intersection over a set of vertices and one
    ``isdisjoint`` per vertex, and is true exactly when this function
    is.
    """
    if hubs_out:
        position = bisect_left(hubs_out, target_aid)
        if position < len(hubs_out) and hubs_out[position] == target_aid:
            return True
    if hubs_in:
        position = bisect_left(hubs_in, source_aid)
        if position < len(hubs_in) and hubs_in[position] == source_aid:
            return True
    if not hubs_out or not hubs_in:
        return False
    i = j = 0
    len_out, len_in = len(hubs_out), len(hubs_in)
    while i < len_out and j < len_in:
        a, b = hubs_out[i], hubs_in[j]
        if a < b:
            i += 1
        elif a > b:
            j += 1
        else:
            return True
    return False


@dataclass
class BuildStats:
    """Counters recorded by the indexing algorithm (for the ablations).

    ``seconds`` is the whole build's wall time; ``phase1_seconds`` and
    ``phase2_seconds`` split the time spent inside the kernel searches
    (phase 1) and their kernel-BFS runs (phase 2), so their sum is at
    most ``seconds``.  The three are wall times; the rest are counts.
    """

    seconds: float = 0.0
    phase1_seconds: float = 0.0
    phase2_seconds: float = 0.0
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
        """Flat dict view in field order (used by the benchmark harness)."""
        return asdict(self)


class RlcIndex:
    """An immutable RLC index over a graph with recursive bound ``k``.

    Build one with :func:`repro.core.build_rlc_index`; query with
    :meth:`query` (the paper's Algorithm 1) or, for a constraint
    validated once up front, :meth:`query_mr` (same probe, no
    validation).  The index is self-contained: it can be saved, loaded
    and queried without the graph (only vertex/label counts are
    validated).
    """

    def __init__(
        self,
        *,
        k: int,
        num_vertices: int,
        num_labels: int,
        order: Sequence[int],
        out_by_mr: List[HubLists],
        in_by_mr: List[HubLists],
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
        self._out_by_mr = out_by_mr
        self._in_by_mr = in_by_mr
        self.build_stats = build_stats
        self.label_dictionary = label_dictionary

    # ------------------------------------------------------------------
    # Metadata (duck-typed like a graph for query validation)
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """The recursive bound the index was built for."""
        return self._k

    @property
    def num_vertices(self) -> int:
        """The number of vertices of the indexed graph."""
        return self._num_vertices

    @property
    def num_labels(self) -> int:
        """The size of the indexed graph's label universe."""
        return self._num_labels

    def has_vertex(self, vertex: int) -> bool:
        """Whether ``vertex`` is a vertex id of the indexed graph."""
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
        """Algorithm 1: validate the constraint, then probe its hub lists."""
        mr = validate_rlc_query(self, source, target, labels, k=self._k)
        return self.query_mr(source, target, mr)

    def query_batch(self, queries: Sequence[RlcQuery]) -> List[bool]:
        """:meth:`query` for each query of a batch, in input order.

        Batched validation is the engine layer's job
        (:meth:`repro.engine.EngineBase.query_batch`).
        """
        return [self.query(q.source, q.target, q.labels) for q in queries]

    def query_mr(self, source: int, target: int, mr: Mr) -> bool:
        """Point query for an **already-validated** primitive constraint.

        The evaluation behind :meth:`query` and
        :class:`repro.engine.RlcIndexEngine`: endpoints are
        bounds-checked here (cheap), but ``mr`` must already be the
        validated minimum repeat — callers amortize that through
        :func:`repro.queries.validate_rlc_query` or a
        :class:`~repro.engine.PreparedQuery`.  Looks up only the hub
        lists of the constraint and answers with :func:`hubs_answer`.
        """
        if not 0 <= source < self._num_vertices:
            raise QueryError(f"unknown source vertex: {source}")
        if not 0 <= target < self._num_vertices:
            raise QueryError(f"unknown target vertex: {target}")
        return hubs_answer(
            self._out_by_mr[source].get(mr),
            self._in_by_mr[target].get(mr),
            self._aid[source],
            self._aid[target],
        )

    # ------------------------------------------------------------------
    # Entry inspection
    # ------------------------------------------------------------------

    def lout(self, vertex: int) -> Tuple[Tuple[int, Mr], ...]:
        """``Lout(vertex)`` as ``(hub_vertex_id, mr)`` pairs, by hub access id."""
        return self._hub_vertex_entries(self._out_by_mr[vertex])

    def lin(self, vertex: int) -> Tuple[Tuple[int, Mr], ...]:
        """``Lin(vertex)`` as ``(hub_vertex_id, mr)`` pairs, by hub access id."""
        return self._hub_vertex_entries(self._in_by_mr[vertex])

    def _hub_vertex_entries(self, by_mr: HubLists) -> Tuple[Tuple[int, Mr], ...]:
        return tuple(
            (self._order[aid - 1], mr) for aid, mr in _sorted_entries(by_mr)
        )

    @property
    def num_entries(self) -> int:
        """Total entries across all ``Lin`` and ``Lout`` sets."""
        return sum(self.entry_counts())

    def entry_counts(self) -> Tuple[int, int]:
        """``(total Lout entries, total Lin entries)``."""
        return (
            sum(map(_entry_count, self._out_by_mr)),
            sum(map(_entry_count, self._in_by_mr)),
        )

    def entry_distribution(self) -> Dict[str, float]:
        """Distribution statistics of per-vertex entry counts.

        Section VI-B explains query-time behaviour through the *skew*
        of entries across vertices (hub-dominated on BA graphs, uniform
        on ER graphs); these figures quantify that skew.
        """
        per_vertex = [
            _entry_count(out) + _entry_count(in_)
            for out, in_ in zip(self._out_by_mr, self._in_by_mr)
        ]
        if not per_vertex:
            return {"max": 0, "mean": 0.0, "nonzero_vertices": 0}
        return {
            "max": max(per_vertex),
            "mean": sum(per_vertex) / len(per_vertex),
            "nonzero_vertices": sum(1 for count in per_vertex if count),
        }

    def estimated_size_bytes(self) -> int:
        """Storage model: 4 bytes per hub id + (2 + |mr|) bytes per entry.

        Identical per-entry accounting to
        :meth:`repro.baselines.ExtendedTransitiveClosure.estimated_size_bytes`,
        so Table IV's RLC-vs-ETC comparison is apples-to-apples.
        """
        return sum(
            (4 + 2 + len(mr)) * len(hubs)
            for side in (self._out_by_mr, self._in_by_mr)
            for by_mr in side
            for mr, hubs in by_mr.items()
        )

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
        for side, vertex, hub_aid, mr in self._entries():
            hub = self._order[hub_aid - 1]
            s, t = (vertex, hub) if side == 0 else (hub, vertex)
            common = set(self._out_by_mr[s].get(mr, ())).intersection(
                self._in_by_mr[t].get(mr, ())
            )
            common.discard(hub_aid)
            if common:
                violations.append((s, t, mr))
                if len(violations) >= limit:
                    return violations
        return violations

    def _entries(self) -> Iterator[Tuple[int, int, int, Mr]]:
        """Every entry as ``(side, vertex, hub_aid, mr)``: side 0 is ``Lout``.

        Ordered by side, vertex, then ``(hub_aid, mr)``.
        """
        for side_id, side in ((0, self._out_by_mr), (1, self._in_by_mr)):
            for vertex, by_mr in enumerate(side):
                for hub_aid, mr in _sorted_entries(by_mr):
                    yield side_id, vertex, hub_aid, mr

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Persist the index as a compressed numpy archive (no pickles)."""
        owners: List[int] = []
        sides: List[int] = []
        hubs: List[int] = []
        lengths: List[int] = []
        flat_labels: List[int] = []
        for side_id, vertex, hub_aid, mr in self._entries():
            owners.append(vertex)
            sides.append(side_id)
            hubs.append(hub_aid)
            lengths.append(len(mr))
            flat_labels.extend(mr)
        names = list(self.label_dictionary) if self.label_dictionary is not None else []
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
            label_names=np.asarray(names, dtype=str),
        )

    @classmethod
    def load(cls, path) -> "RlcIndex":
        """Load an index written by :meth:`save`; never unpickles anything."""
        try:
            with np.load(path, allow_pickle=False) as archive:
                version = int(archive["format_version"])
                if version == 1:
                    raise SerializationError(
                        f"{path} is an index archive of format version 1, which "
                        "stored label names as pickled objects and is no longer "
                        "loaded; rebuild the index with `repro build` to save "
                        f"it again as version {_FORMAT_VERSION}"
                    )
                if version != _FORMAT_VERSION:
                    raise SerializationError(
                        f"unsupported index format version {version} in {path}"
                    )
                k = int(archive["k"])
                num_vertices = int(archive["num_vertices"])
                num_labels = int(archive["num_labels"])
                order = archive["order"]
                owners = archive["owners"]
                sides = archive["sides"]
                hubs = archive["hubs"]
                lengths = archive["lengths"]
                flat = archive["flat_labels"]
                problem = _archive_problem(
                    k, num_vertices, num_labels, order, owners, sides, hubs, lengths, flat
                )
                if problem is not None:
                    raise SerializationError(f"malformed index archive {path}: {problem}")
                out_by_mr: List[HubLists] = [{} for _ in range(num_vertices)]
                in_by_mr: List[HubLists] = [{} for _ in range(num_vertices)]
                flat = flat.tolist()
                cursor = 0
                # save writes each vertex's entries by (hub_aid, mr), so
                # every hub list is rebuilt in strictly ascending order;
                # one that is not comes from a tampered archive.
                for owner, side, hub, length in zip(
                    owners.tolist(), sides.tolist(), hubs.tolist(), lengths.tolist()
                ):
                    mr = tuple(flat[cursor : cursor + length])
                    cursor += length
                    by_mr = (out_by_mr if side == 0 else in_by_mr)[owner]
                    hub_list = by_mr.get(mr)
                    if hub_list is None:
                        by_mr[mr] = (hub,)
                    elif hub_list[-1] < hub:
                        by_mr[mr] = hub_list + (hub,)
                    else:
                        raise SerializationError(
                            f"malformed index archive {path}: the hub list of "
                            f"vertex {owner} for {mr} is not strictly ascending"
                        )
                names = archive["label_names"].tolist()
                labels = LabelDictionary(names) if names else None
                if labels is not None and len(labels) != num_labels:
                    raise SerializationError(
                        f"malformed index archive {path}: {len(labels)} distinct "
                        f"label names for {num_labels} labels"
                    )
                return cls(
                    k=k,
                    num_vertices=num_vertices,
                    num_labels=num_labels,
                    order=order.tolist(),
                    out_by_mr=out_by_mr,
                    in_by_mr=in_by_mr,
                    label_dictionary=labels,
                )
        except SerializationError:
            raise
        except Exception as exc:  # corrupt archives raise various zip/value errors
            raise SerializationError(
                f"failed to load index from {path}: {exc}"
            ) from exc


def _archive_problem(
    k, num_vertices, num_labels, order, owners, sides, hubs, lengths, flat
) -> Optional[str]:
    """What makes an index archive's arrays inconsistent, or ``None``.

    A malformed archive would otherwise load and answer wrongly: the
    order must be a permutation of the vertices, every entry needs an
    owner vertex, a side (0 for ``Lout``, 1 for ``Lin``), a hub access
    id in ``1..num_vertices`` and an MR of 1 to ``k`` labels, each below
    ``num_labels``, and the MR lengths must use up ``flat_labels``.
    """
    if len(order) != num_vertices or not np.array_equal(
        np.sort(order), np.arange(num_vertices)
    ):
        return f"order is not a permutation of range({num_vertices})"
    if not len(owners) == len(sides) == len(hubs) == len(lengths):
        return "owners, sides, hubs and lengths differ in length"
    if owners.size and (owners.min() < 0 or owners.max() >= num_vertices):
        return f"an owner is outside range({num_vertices})"
    if sides.size and (sides.min() < 0 or sides.max() > 1):
        return "a side is neither 0 nor 1"
    if hubs.size and (hubs.min() < 1 or hubs.max() > num_vertices):
        return f"a hub access id is outside 1..{num_vertices}"
    if lengths.size and (lengths.min() < 1 or lengths.max() > k):
        return f"an MR length is outside 1..{k}"
    if int(lengths.sum()) != len(flat):
        return "the MR lengths do not sum to the number of flat labels"
    if flat.size and (flat.min() < 0 or flat.max() >= num_labels):
        return f"a label is outside range({num_labels})"
    return None


def _sorted_entries(by_mr: HubLists) -> List[Entry]:
    """One vertex's entries as ``(hub_aid, mr)`` pairs, sorted."""
    return sorted((hub_aid, mr) for mr, hubs in by_mr.items() for hub_aid in hubs)


def _entry_count(by_mr: HubLists) -> int:
    return sum(map(len, by_mr.values()))
