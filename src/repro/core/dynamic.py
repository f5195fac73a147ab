"""Incremental edge insertions on top of a static RLC index.

The paper's index is static; rebuilding on every edge insertion is the
(expensive) baseline, and incremental maintenance is left open.  This
module provides the standard pragmatic middle ground, exploiting that
RLC reachability is **monotone** under edge insertion:

- if the static index answers **true**, the answer is still true on the
  grown graph — a single lookup;
- if it answers false, the query is re-checked online on the *union*
  graph (base edges + buffered insertions), because new paths may mix
  old and new edges;
- once the buffer exceeds ``rebuild_threshold`` (fraction of the base
  edge count), the index is rebuilt over the union.

Deletions are rejected: they break monotonicity and would invalidate
the fast true-path (a full rebuild handles them).

This gives exact answers at all times, O(1)-ish latency for the
true-heavy workloads indexes are deployed for, and amortized rebuilds —
a useful systems extension, clearly beyond the paper itself.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.automata.compile import constraint_automaton
from repro.core.builder import build_rlc_index
from repro.core.index import RlcIndex
from repro.errors import GraphError
from repro.graph.digraph import EdgeLabeledDigraph
from repro.queries import validate_rlc_query

__all__ = ["DynamicRlcIndex"]


class DynamicRlcIndex:
    """An RLC index that absorbs edge insertions.

    >>> from repro.graph.digraph import EdgeLabeledDigraph
    >>> g = EdgeLabeledDigraph(3, [(0, 0, 1)], num_labels=1)
    >>> dyn = DynamicRlcIndex.build(g, k=2)
    >>> dyn.query(0, 2, (0,))
    False
    >>> dyn.insert_edge(1, 0, 2)
    >>> dyn.query(0, 2, (0,))
    True
    """

    def __init__(
        self,
        graph: EdgeLabeledDigraph,
        index: RlcIndex,
        *,
        rebuild_threshold: float = 0.2,
    ) -> None:
        if rebuild_threshold <= 0:
            raise GraphError("rebuild_threshold must be positive")
        self._base_graph = graph
        self._index = index
        self._threshold = rebuild_threshold
        # Buffered insertions, also label-partitioned for traversal.
        self._delta_edges: Set[Tuple[int, int, int]] = set()
        self._delta_out: Dict[Tuple[int, int], List[int]] = {}
        self.rebuild_count = 0

    @classmethod
    def build(
        cls,
        graph: EdgeLabeledDigraph,
        k: int,
        *,
        rebuild_threshold: float = 0.2,
        **builder_kwargs,
    ) -> "DynamicRlcIndex":
        """Build the initial static index and wrap it."""
        index = build_rlc_index(graph, k, **builder_kwargs)
        return cls(graph, index, rebuild_threshold=rebuild_threshold)

    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        return self._index.k

    @property
    def graph(self) -> EdgeLabeledDigraph:
        """The base graph of the current static index (without buffer)."""
        return self._base_graph

    @property
    def pending_insertions(self) -> int:
        """Buffered edges not yet folded into the static index."""
        return len(self._delta_edges)

    def insert_edge(self, source: int, label: int, target: int) -> None:
        """Insert a labeled edge (buffered; triggers rebuild at threshold)."""
        for vertex in (source, target):
            if not self._base_graph.has_vertex(vertex):
                raise GraphError(f"unknown vertex: {vertex}")
        if not 0 <= label < self._base_graph.num_labels:
            raise GraphError(f"unknown label: {label}")
        edge = (source, label, target)
        if self._base_graph.has_edge(*edge) or edge in self._delta_edges:
            return
        self._delta_edges.add(edge)
        self._delta_out.setdefault((source, label), []).append(target)
        if len(self._delta_edges) > self._threshold * max(
            self._base_graph.num_edges, 1
        ):
            self.rebuild()

    def delete_edge(self, source: int, label: int, target: int) -> None:
        """Deletions are not supported incrementally (monotonicity)."""
        raise GraphError(
            "edge deletion requires a rebuild: reconstruct the graph and call "
            "DynamicRlcIndex.build"
        )

    def rebuild(self) -> None:
        """Fold buffered edges into a fresh graph and static index."""
        if not self._delta_edges:
            return
        merged = list(self._base_graph.edges()) + sorted(self._delta_edges)
        self._base_graph = EdgeLabeledDigraph(
            self._base_graph.num_vertices,
            merged,
            num_labels=self._base_graph.num_labels,
            label_dictionary=self._base_graph.label_dictionary,
        )
        self._index = build_rlc_index(self._base_graph, self._index.k)
        self._delta_edges.clear()
        self._delta_out.clear()
        self.rebuild_count += 1

    # ------------------------------------------------------------------

    def query(self, source: int, target: int, labels: Sequence[int]) -> bool:
        """Exact RLC query over the base graph plus buffered insertions."""
        constraint = validate_rlc_query(
            self._base_graph, source, target, labels, k=self._index.k
        )
        # Monotone fast path: true on the base graph stays true.
        if self._index.query_mr(source, target, constraint):
            return True
        if not self._delta_edges:
            return False
        return self._union_bfs(source, target, constraint)

    def query_star(self, source: int, target: int, labels: Sequence[int]) -> bool:
        """Kleene-star variant."""
        if source == target and self._base_graph.has_vertex(source):
            return True
        return self.query(source, target, labels)

    def _union_bfs(
        self, source: int, target: int, constraint: Tuple[int, ...]
    ) -> bool:
        """Product BFS over base + delta edges (correct, not indexed)."""
        nfa = constraint_automaton(constraint)
        base = self._base_graph
        delta = self._delta_out
        visited: List[Set[int]] = [set() for _ in range(nfa.num_states)]
        queue = []
        for state in nfa.start_states:
            visited[state].add(source)
            queue.append((source, state))
        accepts = nfa.accept_states
        head = 0
        while head < len(queue):
            vertex, state = queue[head]
            head += 1
            for label in nfa.outgoing_labels(state):
                successors = nfa.successors(state, label)
                neighbors = list(base.out_neighbors(vertex, label))
                neighbors.extend(delta.get((vertex, label), ()))
                for neighbor in neighbors:
                    for next_state in successors:
                        seen = visited[next_state]
                        if neighbor in seen:
                            continue
                        if neighbor == target and next_state in accepts:
                            return True
                        seen.add(neighbor)
                        queue.append((neighbor, next_state))
        return False
