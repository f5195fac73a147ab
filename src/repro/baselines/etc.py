"""ETC — the extended transitive closure baseline (Section VI-a).

The materialization extreme: for every reachable pair ``(u, v)`` record
the *complete* concise set ``S_k(u, v)`` of k-bounded minimum repeats
(Definition 2).  Queries are hash lookups; the price is quadratic
storage and an indexing pass that the paper could only complete on the
smallest dataset within 24 hours (Table IV reports ``-`` elsewhere).

Per the paper, ETC is built with **forward kernel-based searches from
every vertex, without pruning rules**, storing pairs in a hashmap.  The
optional time/entry budgets let the benchmark harness reproduce the
paper's cut-off behaviour at reproduction scale.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import BudgetExceededError, QueryError
from repro.graph.digraph import EdgeLabeledDigraph
from repro.labels.minimum_repeat import minimum_repeat
from repro.queries import group_queries_by_constraint, validate_rlc_query

__all__ = ["ExtendedTransitiveClosure"]

Pair = Tuple[int, int]
Mr = Tuple[int, ...]


class ExtendedTransitiveClosure:
    """Hashmap from vertex pairs to their concise sets of minimum repeats.

    Build with :meth:`build`; query with :meth:`query` (O(1) expected).

    >>> from repro.graph.generators import paper_figure2
    >>> g = paper_figure2()
    >>> etc = ExtendedTransitiveClosure.build(g, k=2)
    >>> etc.query(2, 5, (1, 0))  # v3 -> v6 under (l2 l1)+
    True
    """

    name = "ETC"

    def __init__(
        self,
        graph: EdgeLabeledDigraph,
        k: int,
        closure: Dict[Pair, FrozenSet[Mr]],
        *,
        build_seconds: float = 0.0,
    ) -> None:
        self._graph = graph
        self._k = k
        self._closure = closure
        self.build_seconds = build_seconds

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: EdgeLabeledDigraph,
        k: int,
        *,
        time_budget: Optional[float] = None,
        max_entries: Optional[int] = None,
    ) -> "ExtendedTransitiveClosure":
        """Run an unpruned forward KBS from every vertex.

        ``time_budget`` (seconds) and ``max_entries`` emulate the
        paper's 24-hour / out-of-memory cut-offs; exceeding either
        raises :class:`~repro.errors.BudgetExceededError`.
        """
        if k < 1:
            raise QueryError(f"recursive k must be >= 1, got {k}")
        started = time.perf_counter()
        closure: Dict[Pair, Set[Mr]] = {}
        entry_count = 0
        for source in range(graph.num_vertices):
            entry_count += cls._kbs_from(graph, k, source, closure)
            if time_budget is not None and time.perf_counter() - started > time_budget:
                raise BudgetExceededError(
                    f"ETC build exceeded {time_budget:.1f}s "
                    f"(at vertex {source + 1}/{graph.num_vertices})"
                )
            if max_entries is not None and entry_count > max_entries:
                raise BudgetExceededError(
                    f"ETC build exceeded {max_entries} entries "
                    f"(at vertex {source + 1}/{graph.num_vertices})"
                )
        frozen = {pair: frozenset(mrs) for pair, mrs in closure.items()}
        return cls(
            graph, k, frozen, build_seconds=time.perf_counter() - started
        )

    @staticmethod
    def _kbs_from(
        graph: EdgeLabeledDigraph,
        k: int,
        source: int,
        closure: Dict[Pair, Set[Mr]],
    ) -> int:
        """Forward eager KBS from ``source``; returns new-entry count."""
        added = 0
        kernels: Dict[Mr, Set[int]] = {}
        seen_paths: Set[Tuple[int, Tuple[int, ...]]] = set()
        queue = deque(((source, ()),))
        # Phase 1 — kernel search: every distinct label sequence of
        # length <= k; each endpoint contributes its MR and becomes a
        # copy-boundary frontier vertex of that kernel candidate.
        while queue:
            vertex, sequence = queue.popleft()
            for label, neighbor in graph.out_edges(vertex):
                extended = sequence + (label,)
                key = (neighbor, extended)
                if key in seen_paths:
                    continue
                seen_paths.add(key)
                mr = minimum_repeat(extended)
                bucket = closure.setdefault((source, neighbor), set())
                if mr not in bucket:
                    bucket.add(mr)
                    added += 1
                kernels.setdefault(mr, set()).add(neighbor)
                if len(extended) < k:
                    queue.append((neighbor, extended))
        # Phase 2 — kernel BFS: continue each kernel candidate L from
        # its frontier, consuming L cyclically; record an entry at every
        # newly reached copy boundary.  Each (vertex, phase) pair is
        # visited once, so the search terminates on any graph.
        for kernel, frontier in kernels.items():
            m = len(kernel)
            visited = [set() for _ in range(m)]
            boundary = visited[0]
            boundary.update(frontier)
            bfs_queue = deque((vertex, 0) for vertex in frontier)
            while bfs_queue:
                vertex, phase = bfs_queue.popleft()
                next_phase = phase + 1
                if next_phase == m:
                    for neighbor in graph.out_neighbors(vertex, kernel[phase]):
                        if neighbor in boundary:
                            continue
                        boundary.add(neighbor)
                        bucket = closure.setdefault((source, neighbor), set())
                        if kernel not in bucket:
                            bucket.add(kernel)
                            added += 1
                        bfs_queue.append((neighbor, 0))
                else:
                    seen = visited[next_phase]
                    for neighbor in graph.out_neighbors(vertex, kernel[phase]):
                        if neighbor in seen:
                            continue
                        seen.add(neighbor)
                        bfs_queue.append((neighbor, next_phase))
        return added

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def graph(self) -> EdgeLabeledDigraph:
        return self._graph

    @property
    def k(self) -> int:
        """The recursive bound the closure was computed for."""
        return self._k

    def query(self, source: int, target: int, labels: Sequence[int]) -> bool:
        """Evaluate ``(source, target, labels+)`` by hash lookup."""
        label_tuple = validate_rlc_query(
            self._graph, source, target, labels, k=self._k
        )
        entry = self._closure.get((source, target))
        return entry is not None and label_tuple in entry

    def query_mr(self, source: int, target: int, mr: Tuple[int, ...]) -> bool:
        """Hash probe for an **already-validated** minimum repeat.

        The evaluation unit behind the prepared-query path
        (:meth:`repro.engine.EtcEngine.query_prepared`): callers pay
        constraint validation once (through
        :func:`repro.queries.validate_rlc_query` or a
        :class:`~repro.engine.PreparedQuery`) and this probe is then a
        single dict lookup plus a set membership test per endpoint
        pair.
        """
        entry = self._closure.get((source, target))
        return entry is not None and mr in entry

    def query_batch(self, queries) -> List[bool]:
        """Batched lookups: validate each distinct constraint once.

        The closure lookup is already O(1); batching amortizes the
        remaining per-query cost, the KMP primitivity check of the
        constraint, across queries sharing it (the same grouping —
        :func:`repro.queries.group_queries_by_constraint` — the
        traversal baselines use).
        """
        answers: List[bool] = [False] * len(queries)
        groups = group_queries_by_constraint(self._graph, queries, k=self._k)
        for label_tuple, positions in groups:
            for position in positions:
                query = queries[position]
                entry = self._closure.get((query.source, query.target))
                answers[position] = entry is not None and label_tuple in entry
        return answers

    def query_star(self, source: int, target: int, labels: Sequence[int]) -> bool:
        """Evaluate ``(source, target, labels*)`` (reduces to Kleene plus)."""
        if source == target:
            return True
        return self.query(source, target, labels)

    def minimum_repeats(self, source: int, target: int) -> FrozenSet[Mr]:
        """The concise set ``S_k(source, target)`` (Definition 2)."""
        return self._closure.get((source, target), frozenset())

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    @property
    def num_pairs(self) -> int:
        """Number of reachable (restricted) vertex pairs stored."""
        return len(self._closure)

    @property
    def num_entries(self) -> int:
        """Total number of (pair, minimum repeat) entries."""
        return sum(len(mrs) for mrs in self._closure.values())

    def estimated_size_bytes(self) -> int:
        """Storage model: 8 bytes per pair key + (2 + |mr|) bytes per MR.

        The same vertex-id/label-byte accounting is used for the RLC
        index, so Table IV comparisons are apples-to-apples.
        """
        total = 8 * len(self._closure)
        for mrs in self._closure.values():
            for mr in mrs:
                total += 2 + len(mr)
        return total
