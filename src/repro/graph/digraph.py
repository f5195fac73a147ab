"""Immutable edge-labeled directed graph with label-partitioned adjacency.

Each direction keeps one adjacency layout: per vertex, a
``{label: (neighbors...)}`` dict, labels and neighbours ascending, built
once from the numpy-sorted, de-duplicated edge arrays (also kept for
statistics, serialization and reversal).  It holds only ints and tuples
of ints, which the garbage collector stops tracking after one full
collection.  Point lookups (``out_neighbors``, ``has_edge``) read one
dict entry; ``out_edges``/``in_edges`` and the degrees walk one vertex's
dict, by label, then neighbour.  The index builder
(:mod:`repro.core.builder`) reads the per-vertex dicts themselves through
:meth:`~EdgeLabeledDigraph.adjacency` in its phase 1, and the label-major
view that :meth:`~EdgeLabeledDigraph.label_adjacency` builds in its
phase 2.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError
from repro.labels.sequences import LabelDictionary

__all__ = ["EdgeLabeledDigraph"]

Edge = Tuple[int, int, int]

_EMPTY: Tuple[int, ...] = ()


class EdgeLabeledDigraph:
    """An immutable directed graph ``G = (V, E, L)`` with integer labels.

    Vertices are ``0 .. num_vertices - 1``; labels are
    ``0 .. num_labels - 1``.  Edges form a set: adding the same
    ``(source, label, target)`` twice stores it once (paper Section III
    defines ``E`` as a subset of ``V x L x V``).  Self-loops are allowed
    and significant (Table III tracks them; the paper notes a self-loop
    "might need to be traversed multiple times").

    Use :class:`repro.graph.GraphBuilder` for incremental construction
    with string labels, or :meth:`from_edges` for integer triples.
    """

    __slots__ = (
        "_num_vertices",
        "_num_labels",
        "_sources",
        "_labels",
        "_targets",
        "_out_by_label",
        "_in_by_label",
        "_hash",
        "label_dictionary",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Edge],
        *,
        num_labels: Optional[int] = None,
        label_dictionary: Optional[LabelDictionary] = None,
    ) -> None:
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
        edge_array = np.asarray(list(edges) or np.empty((0, 3)), dtype=np.int64)
        if edge_array.size and edge_array.ndim != 2:
            raise GraphError("edges must be (source, label, target) triples")
        edge_array = edge_array.reshape(-1, 3)
        sources, labels, targets = edge_array[:, 0], edge_array[:, 1], edge_array[:, 2]

        self._validate(num_vertices, sources, labels, targets, num_labels, label_dictionary)

        # Canonical form: lexicographically sorted by (source, label,
        # target), duplicates removed.  np.unique on the structured view
        # gives both in one pass.
        if edge_array.size:
            edge_array = np.unique(edge_array, axis=0)
            sources, labels, targets = edge_array[:, 0], edge_array[:, 1], edge_array[:, 2]

        self._num_vertices = int(num_vertices)
        self._sources = np.ascontiguousarray(sources)
        self._labels = np.ascontiguousarray(labels)
        self._targets = np.ascontiguousarray(targets)

        if label_dictionary is not None:
            resolved_labels = len(label_dictionary)
        elif num_labels is not None:
            resolved_labels = num_labels
        else:
            resolved_labels = int(labels.max()) + 1 if labels.size else 0
        self._num_labels = int(resolved_labels)
        self.label_dictionary = label_dictionary

        self._hash: Optional[int] = None
        self._out_by_label = self._by_label(self._sources, self._labels, self._targets)
        self._in_by_label = self._by_label(self._targets, self._labels, self._sources)

    @staticmethod
    def _validate(
        num_vertices: int,
        sources: np.ndarray,
        labels: np.ndarray,
        targets: np.ndarray,
        num_labels: Optional[int],
        label_dictionary: Optional[LabelDictionary],
    ) -> None:
        if sources.size == 0:
            return
        low = min(int(sources.min()), int(targets.min()))
        high = max(int(sources.max()), int(targets.max()))
        if low < 0 or high >= num_vertices:
            raise GraphError(
                f"edge endpoint out of range [0, {num_vertices}): found {low if low < 0 else high}"
            )
        if int(labels.min()) < 0:
            raise GraphError("labels must be non-negative integers")
        label_bound = None
        if label_dictionary is not None:
            label_bound = len(label_dictionary)
        elif num_labels is not None:
            label_bound = num_labels
        if label_bound is not None and int(labels.max()) >= label_bound:
            raise GraphError(
                f"label id {int(labels.max())} out of range [0, {label_bound})"
            )

    def _by_label(
        self, keys: np.ndarray, labels: np.ndarray, values: np.ndarray
    ) -> Tuple[Dict[int, Tuple[int, ...]], ...]:
        """Per key vertex, ``{label: values}``, labels and values ascending;
        a tuple, so no caller of :meth:`adjacency` can swap a vertex's dict."""
        n = self._num_vertices
        groups: List[Dict[int, Tuple[int, ...]]] = [{} for _ in range(n)]
        if keys.size == 0:
            return tuple(groups)
        order = np.lexsort((values, labels, keys))
        keys, labels = keys[order], labels[order]
        # One run per (key, label) pair: split where either changes.
        starts = [0, *(np.flatnonzero(np.diff(keys) | np.diff(labels)) + 1).tolist()]
        bounds = starts + [keys.size]
        neighbors = values[order].tolist()
        for key, label, low, high in zip(
            keys[starts].tolist(), labels[starts].tolist(), bounds, bounds[1:]
        ):
            groups[key][label] = tuple(neighbors[low:high])
        return tuple(groups)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        *,
        num_vertices: Optional[int] = None,
        num_labels: Optional[int] = None,
        label_dictionary: Optional[LabelDictionary] = None,
    ) -> "EdgeLabeledDigraph":
        """Build a graph from integer triples, inferring sizes if omitted."""
        edge_list = list(edges)
        if num_vertices is None:
            num_vertices = (
                max(max(u, v) for u, _, v in edge_list) + 1 if edge_list else 0
            )
        return cls(
            num_vertices,
            edge_list,
            num_labels=num_labels,
            label_dictionary=label_dictionary,
        )

    # ------------------------------------------------------------------
    # Size accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of distinct labeled edges ``|E|``."""
        return int(self._sources.shape[0])

    @property
    def num_labels(self) -> int:
        """Size of the label alphabet ``|L|``."""
        return self._num_labels

    def __len__(self) -> int:
        return self._num_vertices

    def __repr__(self) -> str:
        return (
            f"EdgeLabeledDigraph(|V|={self.num_vertices}, "
            f"|E|={self.num_edges}, |L|={self.num_labels})"
        )

    # ------------------------------------------------------------------
    # Adjacency accessors (hot paths)
    # ------------------------------------------------------------------

    def out_edges(self, vertex: int) -> Sequence[Tuple[int, int]]:
        """The ``(label, target)`` pairs leaving ``vertex``, by label, then target."""
        return _pairs(self._out_by_label[vertex])

    def in_edges(self, vertex: int) -> Sequence[Tuple[int, int]]:
        """The ``(label, source)`` pairs entering ``vertex``, by label, then source."""
        return _pairs(self._in_by_label[vertex])

    def out_neighbors(self, vertex: int, label: int) -> Sequence[int]:
        """Targets of edges ``vertex --label--> t`` (empty tuple if none)."""
        return self._out_by_label[vertex].get(label, _EMPTY)

    def in_neighbors(self, vertex: int, label: int) -> Sequence[int]:
        """Sources of edges ``s --label--> vertex`` (empty tuple if none)."""
        return self._in_by_label[vertex].get(label, _EMPTY)

    def adjacency(
        self, *, incoming: bool = False
    ) -> Sequence[Mapping[int, Tuple[int, ...]]]:
        """The graph's own adjacency layout: ``adjacency()[vertex]`` is
        the ``{label: neighbours}`` dict of the edges leaving ``vertex``
        (with ``incoming``, entering it), labels and neighbours ascending.

        Read-only: the outer sequence is a tuple, and the stored dicts
        are returned, not copies, so a caller must not change them.  A
        search that walks every label of a vertex iterates one dict
        instead of calling :meth:`out_labels` and :meth:`out_neighbors`.
        """
        return self._in_by_label if incoming else self._out_by_label

    def label_adjacency(self, *, incoming: bool = False) -> List[List[Tuple[int, ...]]]:
        """A label-major view: ``view[label][vertex]`` is the tuple
        :meth:`out_neighbors` (or, with ``incoming``, :meth:`in_neighbors`)
        returns for ``(vertex, label)``.

        Built on each call and not kept on the graph: a search that
        reads one label per step indexes two lists instead of making a
        method call and a dict probe.  It has ``num_labels *
        num_vertices`` slots that share the graph's neighbour tuples.
        """
        view = [[_EMPTY] * self._num_vertices for _ in range(self._num_labels)]
        by_label = self._in_by_label if incoming else self._out_by_label
        for vertex, groups in enumerate(by_label):
            for label, neighbors in groups.items():
                view[label][vertex] = neighbors
        return view

    def out_labels(self, vertex: int) -> Sequence[int]:
        """Distinct labels on out-edges of ``vertex``."""
        return tuple(self._out_by_label[vertex])

    def in_labels(self, vertex: int) -> Sequence[int]:
        """Distinct labels on in-edges of ``vertex``."""
        return tuple(self._in_by_label[vertex])

    def out_degree(self, vertex: int) -> int:
        """Number of out-edges of ``vertex``."""
        return sum(map(len, self._out_by_label[vertex].values()))

    def in_degree(self, vertex: int) -> int:
        """Number of in-edges of ``vertex``."""
        return sum(map(len, self._in_by_label[vertex].values()))

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an int64 array."""
        return np.bincount(self._sources, minlength=self._num_vertices)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex as an int64 array."""
        return np.bincount(self._targets, minlength=self._num_vertices)

    def has_edge(self, source: int, label: int, target: int) -> bool:
        """Return True when the labeled edge is present."""
        if not 0 <= source < self._num_vertices:
            return False
        return target in self._out_by_label[source].get(label, _EMPTY)

    def has_vertex(self, vertex: int) -> bool:
        """Return True when ``vertex`` is a valid vertex id."""
        return 0 <= vertex < self._num_vertices

    # ------------------------------------------------------------------
    # Whole-graph views
    # ------------------------------------------------------------------

    def edges(self) -> Iterator[Edge]:
        """Iterate over all ``(source, label, target)`` triples."""
        yield from zip(
            self._sources.tolist(), self._labels.tolist(), self._targets.tolist()
        )

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (sources, labels, targets) as read-only numpy views."""
        return self._sources, self._labels, self._targets

    def reverse(self) -> "EdgeLabeledDigraph":
        """Return the graph with every edge direction flipped."""
        flipped = np.column_stack((self._targets, self._labels, self._sources))
        return EdgeLabeledDigraph(
            self._num_vertices,
            flipped,
            num_labels=self._num_labels,
            label_dictionary=self.label_dictionary,
        )

    def adjacency_matrix(self):
        """Boolean CSR adjacency (labels ignored, duplicates collapsed)."""
        from scipy import sparse

        n = self._num_vertices
        data = np.ones(self.num_edges, dtype=bool)
        matrix = sparse.csr_matrix(
            (data, (self._sources, self._targets)), shape=(n, n), dtype=bool
        )
        matrix.sum_duplicates()
        return matrix

    # ------------------------------------------------------------------
    # Label-name conveniences
    # ------------------------------------------------------------------

    def label_id(self, name: str) -> int:
        """Resolve a label name through the attached dictionary."""
        if self.label_dictionary is None:
            raise GraphError("graph has no label dictionary; use integer labels")
        return self.label_dictionary.id_of(name)

    def label_name(self, label_id: int) -> str:
        """Resolve a label id to its name through the attached dictionary."""
        if self.label_dictionary is None:
            raise GraphError("graph has no label dictionary; use integer labels")
        return self.label_dictionary.name_of(label_id)

    def encode_sequence(self, sequence: Sequence) -> Tuple[int, ...]:
        """Translate a mixed name/id label sequence into an id tuple."""
        if self.label_dictionary is not None:
            return self.label_dictionary.encode(sequence)
        encoded = []
        for atom in sequence:
            if not isinstance(atom, int):
                raise GraphError(
                    "graph has no label dictionary; labels must be integers"
                )
            if not 0 <= atom < self._num_labels:
                raise GraphError(f"unknown label id: {atom}")
            encoded.append(atom)
        return tuple(encoded)

    def content_digest(self) -> str:
        """Hex SHA-256 over the canonical graph content.

        Unlike :meth:`__hash__` (process-local, salted for ``str``-free
        content here but kept an ``int``), the digest is stable across
        processes and Python versions, so it can identify a graph
        outside the process: ``repro serve`` reports it on
        ``/healthz``.
        """
        import hashlib

        hasher = hashlib.sha256()
        hasher.update(
            f"v{self._num_vertices} l{self._num_labels} e{self.num_edges}".encode()
        )
        hasher.update(self._sources.tobytes())
        hasher.update(self._labels.tobytes())
        hasher.update(self._targets.tobytes())
        return hasher.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeLabeledDigraph):
            return NotImplemented
        return (
            self._num_vertices == other._num_vertices
            and self._num_labels == other._num_labels
            and np.array_equal(self._sources, other._sources)
            and np.array_equal(self._labels, other._labels)
            and np.array_equal(self._targets, other._targets)
        )

    def __hash__(self) -> int:
        # Content hash over the canonical (sorted, de-duplicated) edge
        # arrays, so equal graphs hash equal and graphs can key the
        # engine/service caches.  Cached: the graph is immutable and
        # tobytes() is O(|E|).
        if self._hash is None:
            self._hash = hash(
                (
                    self._num_vertices,
                    self._num_labels,
                    self._sources.tobytes(),
                    self._labels.tobytes(),
                    self._targets.tobytes(),
                )
            )
        return self._hash


def _pairs(groups: Dict[int, Tuple[int, ...]]) -> List[Tuple[int, int]]:
    """One vertex's ``{label: neighbors}`` dict as ``(label, neighbor)`` pairs."""
    return [
        (label, neighbor) for label, neighbors in groups.items() for neighbor in neighbors
    ]
