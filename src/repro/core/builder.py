"""The RLC indexing algorithm (Algorithm 2 of the paper).

For each vertex ``v`` in access-id order, a backward and a forward
*kernel-based search* (KBS) is performed.  Each KBS has two phases:

**Phase 1 — kernel search.**  A breadth-first enumeration of every
distinct label sequence of length up to ``k`` (``2k`` for the lazy
strategy) ending (backward) or starting (forward) at ``v``.  Every
visited endpoint ``y`` triggers an insert attempt of the entry
``(v, MR(seq))`` and, under the default *eager* strategy, registers
``MR(seq)`` as a kernel candidate with ``y`` as a copy-boundary
frontier vertex (Section IV: "treat any k-MR computed using any path
p, |p| <= k as a kernel candidate").  The *lazy* strategy instead
derives kernels from the unique kernel/tail decomposition of the
length-``2k`` sequences (Theorem 1, Case 3).

**Phase 2 — kernel BFS.**  For each kernel candidate ``L`` the search
continues guided by ``(L)+``: a traversal state is ``(vertex, i)``
where ``i`` counts the labels consumed in the current copy of ``L``;
whenever a copy completes, an index entry is attempted at the boundary
vertex.  Each ``(vertex, i)`` pair is expanded at most once, so the
search terminates on arbitrary cyclic graphs in ``O(|E| * |L|)``.

**Pruning rules.**

- PR1: skip an entry whose reachability the current index snapshot
  already answers (``Query(s, t, L+)`` is true);
- PR2: skip entries at vertices with a smaller access id than the
  search origin (their own searches already ran);
- PR3: when a kernel-BFS insert at a copy boundary is pruned by PR1 or
  PR2, do not expand past that vertex.

Note: the paper's printed pseudocode stops
the kernel-BFS when the insert *succeeds*; its prose (PR3, Example 6)
and the Appendix-B correctness proofs stop when the insert is *pruned*.
The printed variant is incomplete on simple chain graphs, so this
implementation follows the prose — the standard pruned-landmark rule —
which our tests validate against brute force exhaustively.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.index import BuildStats, RlcIndex
from repro.core.ordering import compute_order
from repro.errors import BudgetExceededError, QueryError
from repro.graph.digraph import EdgeLabeledDigraph
from repro.labels.minimum_repeat import (
    kernel_decomposition,
    minimum_repeat,
    suffix_kernel_decomposition,
)

__all__ = ["RlcIndexBuilder", "build_rlc_index"]

Mr = Tuple[int, ...]
Entry = Tuple[int, Mr]

STRATEGIES = ("eager", "lazy")


class RlcIndexBuilder:
    """Configurable builder for :class:`~repro.core.RlcIndex`.

    Parameters mirror the paper's design space:

    - ``k`` — the recursive bound (Definition 1);
    - ``ordering`` — access-id strategy (``"in-out"`` default);
    - ``strategy`` — ``"eager"`` (default) or ``"lazy"`` KBS;
    - ``use_pr1`` / ``use_pr2`` / ``use_pr3`` — pruning-rule toggles
      (all on by default; turning any off keeps the index sound and
      complete but larger/slower — the ablation benchmarks measure by
      how much);
    - ``time_budget`` — optional build cut-off in seconds, raising
      :class:`~repro.errors.BudgetExceededError` (used by the harness
      to emulate the paper's 24-hour timeout).

    >>> from repro.graph.generators import paper_figure2
    >>> index = RlcIndexBuilder(paper_figure2(), k=2).build()
    >>> index.query(2, 5, (1, 0))   # Q1(v3, v6, (l2 l1)+) of Example 4
    True
    """

    def __init__(
        self,
        graph: EdgeLabeledDigraph,
        k: int,
        *,
        ordering: str = "in-out",
        strategy: str = "eager",
        use_pr1: bool = True,
        use_pr2: bool = True,
        use_pr3: bool = True,
        seed: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> None:
        if k < 1:
            raise QueryError(f"recursive k must be >= 1, got {k}")
        if strategy not in STRATEGIES:
            raise QueryError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
        self._graph = graph
        self._k = k
        self._ordering = ordering
        self._strategy = strategy
        self._use_pr1 = use_pr1
        self._use_pr2 = use_pr2
        self._use_pr3 = use_pr3
        self._seed = seed
        self._time_budget = time_budget

        n = graph.num_vertices
        self._aid: List[int] = [0] * n
        self._out_lists: List[List[Entry]] = [[] for _ in range(n)]
        self._in_lists: List[List[Entry]] = [[] for _ in range(n)]
        self._out_by_mr: List[Dict[Mr, List[int]]] = [{} for _ in range(n)]
        self._in_by_mr: List[Dict[Mr, List[int]]] = [{} for _ in range(n)]
        self.stats = BuildStats()

    # ------------------------------------------------------------------

    def build(self) -> RlcIndex:
        """Run Algorithm 2 and return the finished index."""
        started = time.perf_counter()
        order = compute_order(self._graph, self._ordering, seed=self._seed)
        for position, vertex in enumerate(order):
            self._aid[vertex] = position + 1
        for position, vertex in enumerate(order):
            self._kernel_based_search(vertex, backward=True)
            self._kernel_based_search(vertex, backward=False)
            if (
                self._time_budget is not None
                and time.perf_counter() - started > self._time_budget
            ):
                raise BudgetExceededError(
                    f"index build exceeded {self._time_budget:.1f}s "
                    f"(at vertex {position + 1}/{len(order)})"
                )
        self.stats.seconds = time.perf_counter() - started
        return RlcIndex(
            k=self._k,
            num_vertices=self._graph.num_vertices,
            num_labels=self._graph.num_labels,
            order=order,
            out_lists=self._out_lists,
            in_lists=self._in_lists,
            out_by_mr=self._out_by_mr,
            in_by_mr=self._in_by_mr,
            build_stats=self.stats,
            label_dictionary=self._graph.label_dictionary,
        )

    # ------------------------------------------------------------------
    # Kernel-based search
    # ------------------------------------------------------------------

    def _kernel_based_search(self, origin: int, *, backward: bool) -> None:
        self.stats.kernel_searches += 1
        if self._strategy == "eager":
            kernels = self._eager_kernel_search(origin, backward=backward)
        else:
            kernels = self._lazy_kernel_search(origin, backward=backward)
        for kernel, seeds in kernels.items():
            self.stats.kernel_bfs_runs += 1
            self._kernel_bfs(origin, kernel, seeds, backward=backward)

    def _eager_kernel_search(
        self, origin: int, *, backward: bool
    ) -> Dict[Mr, Set[Tuple[int, int]]]:
        """Phase 1, eager: depth <= k, kernels from every visited path.

        Returns ``{kernel: {(frontier_vertex, consumed_state)}}``; eager
        frontiers always sit at a copy boundary (state 0) because a path
        whose minimum repeat is ``L`` *is* a power of ``L``.
        """
        graph = self._graph
        k = self._k
        kernels: Dict[Mr, Set[Tuple[int, int]]] = {}
        seen: Set[Tuple[int, Tuple[int, ...]]] = set()
        queue: Deque[Tuple[int, Tuple[int, ...]]] = deque(((origin, ()),))
        adjacency = graph.in_edges if backward else graph.out_edges
        while queue:
            vertex, sequence = queue.popleft()
            for label, neighbor in adjacency(vertex):
                extended = (
                    (label,) + sequence if backward else sequence + (label,)
                )
                key = (neighbor, extended)
                if key in seen:
                    continue
                seen.add(key)
                self.stats.phase1_expansions += 1
                mr = minimum_repeat(extended)
                self._insert(neighbor, origin, mr, backward=backward)
                kernels.setdefault(mr, set()).add((neighbor, 0))
                if len(extended) < k:
                    queue.append((neighbor, extended))
        return kernels

    def _lazy_kernel_search(
        self, origin: int, *, backward: bool
    ) -> Dict[Mr, Set[Tuple[int, int]]]:
        """Phase 1, lazy: depth <= 2k, kernels from Theorem 1 Case 3.

        Entries are inserted for every visited path whose minimum repeat
        fits the bound (Cases 1 and 2 of Theorem 1); kernels are only
        determined at depth exactly ``2k`` from the unique kernel/tail
        decomposition, with the frontier vertex mid-copy (the tail gives
        the number of labels already consumed).
        """
        graph = self._graph
        k = self._k
        depth_limit = 2 * k
        kernels: Dict[Mr, Set[Tuple[int, int]]] = {}
        seen: Set[Tuple[int, Tuple[int, ...]]] = set()
        queue: Deque[Tuple[int, Tuple[int, ...]]] = deque(((origin, ()),))
        adjacency = graph.in_edges if backward else graph.out_edges
        decompose = suffix_kernel_decomposition if backward else kernel_decomposition
        while queue:
            vertex, sequence = queue.popleft()
            for label, neighbor in adjacency(vertex):
                extended = (
                    (label,) + sequence if backward else sequence + (label,)
                )
                key = (neighbor, extended)
                if key in seen:
                    continue
                seen.add(key)
                self.stats.phase1_expansions += 1
                mr = minimum_repeat(extended)
                if len(mr) <= k:
                    self._insert(neighbor, origin, mr, backward=backward)
                if len(extended) < depth_limit:
                    queue.append((neighbor, extended))
                    continue
                decomposition = decompose(extended)
                if decomposition is None:
                    continue
                kernel, tail = decomposition
                if len(kernel) <= k:
                    kernels.setdefault(kernel, set()).add((neighbor, len(tail)))
        return kernels

    def _kernel_bfs(
        self,
        origin: int,
        kernel: Mr,
        seeds: Iterable[Tuple[int, int]],
        *,
        backward: bool,
    ) -> None:
        """Phase 2: continue the search guided by ``(kernel)+``.

        ``seeds`` are ``(vertex, consumed)`` pairs — ``consumed`` labels
        of the current copy are already matched.  Backward searches
        consume the kernel right-to-left (label sequences grow by
        prepending), forward searches left-to-right.
        """
        graph = self._graph
        m = len(kernel)
        neighbors = graph.in_neighbors if backward else graph.out_neighbors
        visited: List[Set[int]] = [set() for _ in range(m)]
        queue: Deque[Tuple[int, int]] = deque()
        for vertex, consumed in seeds:
            if vertex not in visited[consumed]:
                visited[consumed].add(vertex)
                queue.append((vertex, consumed))
        boundary = visited[0]
        use_pr3 = self._use_pr3
        insert = self._insert
        pop = queue.popleft
        push = queue.append
        expansions = 0
        pr3_stops = 0
        # The consumed -> next-label mapping is fixed per kernel; hoist
        # it out of the loop (backward searches read the kernel
        # right-to-left).
        next_label = tuple(reversed(kernel)) if backward else kernel
        while queue:
            vertex, consumed = pop()
            label = next_label[consumed]
            next_consumed = consumed + 1
            if next_consumed == m:
                for neighbor in neighbors(vertex, label):
                    if neighbor in boundary:
                        continue
                    expansions += 1
                    inserted = insert(neighbor, origin, kernel, backward=backward)
                    boundary.add(neighbor)
                    if inserted or not use_pr3:
                        push((neighbor, 0))
                    else:
                        pr3_stops += 1
            else:
                seen = visited[next_consumed]
                for neighbor in neighbors(vertex, label):
                    if neighbor in seen:
                        continue
                    expansions += 1
                    seen.add(neighbor)
                    push((neighbor, next_consumed))
        self.stats.phase2_expansions += expansions
        self.stats.pr3_stops += pr3_stops

    # ------------------------------------------------------------------
    # Entry insertion with pruning
    # ------------------------------------------------------------------

    def _insert(self, vertex: int, origin: int, mr: Mr, *, backward: bool) -> bool:
        """Attempt to record that ``vertex`` reaches ``origin`` via ``mr+``
        (backward) or is reached from it (forward).

        Returns True when the entry was stored, False when it was pruned
        (duplicate, PR1, or PR2) — the signal PR3 keys off.  Checks run
        cheapest-first: PR2 is two array reads, the duplicate test one
        dict probe, PR1 a snapshot query.
        """
        self.stats.insert_attempts += 1
        aid = self._aid
        origin_aid = aid[origin]
        if self._use_pr2 and aid[vertex] < origin_aid:
            self.stats.pruned_pr2 += 1
            return False
        by_mr = self._out_by_mr[vertex] if backward else self._in_by_mr[vertex]
        hubs = by_mr.get(mr)
        # Exact-duplicate check: the origin has the largest access id
        # inserted so far, so a duplicate can only sit at the tail.
        if hubs and hubs[-1] == origin_aid:
            self.stats.duplicates += 1
            return False
        if self._use_pr1:
            source, target = (vertex, origin) if backward else (origin, vertex)
            if self._snapshot_query(source, target, mr):
                self.stats.pruned_pr1 += 1
                return False
        if backward:
            self._out_lists[vertex].append((origin_aid, mr))
        else:
            self._in_lists[vertex].append((origin_aid, mr))
        if hubs is None:
            by_mr[mr] = [origin_aid]
        else:
            hubs.append(origin_aid)
        self.stats.inserted += 1
        return True

    def _snapshot_query(self, source: int, target: int, mr: Mr) -> bool:
        """Algorithm 1 against the current partial index (PR1's oracle)."""
        aid = self._aid
        hubs_out = self._out_by_mr[source].get(mr)
        hubs_in = self._in_by_mr[target].get(mr)
        if hubs_out and _sorted_contains(hubs_out, aid[target]):
            return True
        if hubs_in and _sorted_contains(hubs_in, aid[source]):
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


def _sorted_contains(values: List[int], needle: int) -> bool:
    position = bisect_left(values, needle)
    return position < len(values) and values[position] == needle


def build_rlc_index(
    graph: EdgeLabeledDigraph,
    k: int,
    *,
    ordering: str = "in-out",
    strategy: str = "eager",
    use_pr1: bool = True,
    use_pr2: bool = True,
    use_pr3: bool = True,
    seed: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> RlcIndex:
    """Build an RLC index — the one-call public entry point.

    See :class:`RlcIndexBuilder` for the parameter semantics.

    >>> from repro.graph.generators import paper_figure1
    >>> g = paper_figure1()
    >>> index = build_rlc_index(g, k=2)
    >>> a14, a19 = 5, 9  # vertex ids of accounts A14 and A19
    >>> index.query(a14, a19, g.encode_sequence(("debits", "credits")))
    True
    """
    builder = RlcIndexBuilder(
        graph,
        k,
        ordering=ordering,
        strategy=strategy,
        use_pr1=use_pr1,
        use_pr2=use_pr2,
        use_pr3=use_pr3,
        seed=seed,
        time_budget=time_budget,
    )
    return builder.build()
