"""ETC — the extended transitive closure baseline (Section VI-a).

The materialization extreme: for every reachable pair ``(u, v)`` record
the *complete* concise set ``S_k(u, v)`` of k-bounded minimum repeats
(Definition 2).  Queries are hash lookups; the price is quadratic
storage and an indexing pass that the paper could only complete on the
smallest dataset within 24 hours (Table IV reports ``-`` elsewhere).

Per the paper, ETC is built with **forward kernel-based searches from
every vertex, without pruning rules**, storing pairs in a hashmap.  The
search is the RLC builder's own
(:func:`repro.core.builder.kernel_based_search`), run forward only,
eager, no pruning, so Table IV's indexing times compare one search with
and without PR1-PR3.  The optional time/entry budgets let the benchmark
harness reproduce the paper's cut-off behaviour at reproduction scale.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from repro.core.builder import SearchDirection, kernel_based_search
from repro.core.index import BuildStats
from repro.errors import BudgetExceededError
from repro.graph.digraph import EdgeLabeledDigraph
from repro.queries import validate_build_options, validate_rlc_query

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
        """Run the RLC build's forward KBS from every vertex, without pruning.

        The search is :func:`repro.core.builder.kernel_based_search`,
        eager, with PR3 off; its insert rule records ``MR`` in the
        pair's concise set and counts the new entries.

        ``time_budget`` (seconds) and ``max_entries`` emulate the
        paper's 24-hour / out-of-memory cut-offs; exceeding either
        raises :class:`~repro.errors.BudgetExceededError`.
        """
        validate_build_options(k, time_budget=time_budget, max_entries=max_entries)
        started = time.perf_counter()
        closure: Dict[Pair, Set[Mr]] = {}
        entry_count = 0

        def record(vertices: Set[int], mr: Mr) -> None:
            # The insert rule of the search from ``source``: no pruning.
            nonlocal entry_count
            for vertex in vertices:
                mrs = closure.setdefault((source, vertex), set())
                if mr not in mrs:
                    mrs.add(mr)
                    entry_count += 1

        forward = SearchDirection(graph, backward=False)
        # The search's counters are the RLC build's; ETC keeps none.
        stats = BuildStats()
        mr_of: Dict[Tuple[int, ...], Mr] = {}
        for source in range(graph.num_vertices):
            kernel_based_search(
                source, forward, record, stats, mr_of, k=k, lazy=False, use_pr3=False
            )
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

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def graph(self) -> EdgeLabeledDigraph:
        """The graph the closure was computed over."""
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

        The evaluation behind :class:`repro.engine.EtcEngine`: callers pay
        constraint validation once (through
        :func:`repro.queries.validate_rlc_query` or a
        :class:`~repro.engine.PreparedQuery`) and this probe is then a
        single dict lookup plus a set membership test per endpoint
        pair.
        """
        entry = self._closure.get((source, target))
        return entry is not None and mr in entry

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
