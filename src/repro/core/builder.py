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

Both phases move sets of vertices: phase 1 keeps the set of endpoints
of each sequence, phase 2 one frontier per step, and a step is one
union of neighbour tuples.  Phase 1 reads them from the graph's own
per-vertex ``{label: neighbours}`` dicts
(:meth:`~repro.graph.EdgeLabeledDigraph.adjacency`), phase 2 from its
label-major view (:meth:`~repro.graph.EdgeLabeledDigraph.label_adjacency`).

**Pruning rules.**

- PR1: skip an entry whose reachability the current index snapshot
  already answers (``Query(s, t, L+)`` is true);
- PR2: skip entries at vertices with a smaller access id than the
  search origin (their own searches already ran);
- PR3: when a kernel-BFS insert at a copy boundary is not stored (a
  duplicate, or pruned by PR1 or PR2), do not expand past that vertex.

One routine, :func:`kernel_based_search`, runs both phases of one
search; the insert rule is passed in.  The build passes
:class:`_Inserter`, which applies PR1 and PR2; the ETC baseline
(:mod:`repro.baselines.etc`) runs the same search, forward only, eager,
no pruning, with an insert rule that records every entry.

**Order inside a search.**  Within one search the order of visits
cannot change the index or any counter.  An attempt at vertex ``y`` for
minimum repeat ``L`` reads only ``y``'s hub list for ``L`` on the side
the search writes and the origin's list on the other side; no insert of
the search writes the origin's side, and only an insert at ``(y, L)``
writes ``y``'s list.  So each ``(y, L)`` pair's first attempt has the
same outcome in any order, and every later attempt at it is a
duplicate (after a store) or pruned again the same way.  The states a
kernel BFS reaches follow from those outcomes alone.  Across origins
the order matters -- PR1 reads what earlier origins stored -- and the
build keeps it.

Note: the paper's printed pseudocode stops
the kernel-BFS when the insert *succeeds*; its prose (PR3, Example 6)
and the Appendix-B correctness proofs stop when the insert is *pruned*.
The printed variant is incomplete on simple chain graphs, so this
implementation follows the prose — the standard pruned-landmark rule —
which our tests validate against brute force exhaustively.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.index import BuildStats, HubLists, RlcIndex
from repro.core.ordering import compute_order
from repro.errors import BudgetExceededError, QueryError
from repro.graph.digraph import EdgeLabeledDigraph
from repro.labels.minimum_repeat import (
    kernel_decomposition,
    minimum_repeat,
    suffix_kernel_decomposition,
)
from repro.queries import validate_build_options

__all__ = ["SearchDirection", "build_rlc_index", "kernel_based_search"]

Mr = Tuple[int, ...]
#: An insert rule: ``insert(vertices, mr)`` attempts ``(origin, mr)`` at
#: each vertex and returns those where it was stored (read under PR3).
Insert = Callable[[Set[int], Mr], Optional[List[int]]]

STRATEGIES = ("eager", "lazy")


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
    """Run Algorithm 2 and return the finished index.

    Parameters mirror the paper's design space:

    - ``k`` — the recursive bound (Definition 1);
    - ``ordering`` — access-id strategy (``"in-out"`` default), with
      ``seed`` for the ``"random"`` one;
    - ``strategy`` — ``"eager"`` (default) or ``"lazy"`` KBS;
    - ``use_pr1`` / ``use_pr2`` / ``use_pr3`` — pruning-rule toggles
      (all on by default; turning any off keeps the index sound and
      complete but larger/slower — the ablation benchmarks measure by
      how much);
    - ``time_budget`` — optional build cut-off in seconds, raising
      :class:`~repro.errors.BudgetExceededError` (used by the harness
      to emulate the paper's 24-hour timeout).

    The build's counters are the index's ``build_stats``.  Every call
    starts from fresh state, so two calls return equal indexes over
    their own entry stores.

    >>> from repro.graph.generators import paper_figure1, paper_figure2
    >>> index = build_rlc_index(paper_figure2(), k=2)
    >>> index.query(2, 5, (1, 0))   # Q1(v3, v6, (l2 l1)+) of Example 4
    True
    >>> g = paper_figure1()
    >>> index = build_rlc_index(g, k=2)
    >>> a14, a19 = 5, 9  # vertex ids of accounts A14 and A19
    >>> index.query(a14, a19, g.encode_sequence(("debits", "credits")))
    True
    """
    toggles = dict(use_pr1=use_pr1, use_pr2=use_pr2, use_pr3=use_pr3)
    validate_build_options(k, time_budget=time_budget, seed=seed, **toggles)
    if strategy not in STRATEGIES:
        raise QueryError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    n = graph.num_vertices
    out_by_mr: List[HubLists] = [{} for _ in range(n)]
    in_by_mr: List[HubLists] = [{} for _ in range(n)]
    # PR2 prunes the vertices whose searches already ran.
    done: Set[int] = set()
    stats = BuildStats()
    started = time.perf_counter()
    order = compute_order(graph, ordering, seed=seed)
    backward = SearchDirection(graph, backward=True)
    forward = SearchDirection(graph, backward=False)
    lazy = strategy == "lazy"
    mr_of: Dict[Tuple[int, ...], Mr] = {}
    for position, vertex in enumerate(order):
        aid = position + 1
        # Every entry a search stores lands on the side it writes (Lout
        # for backward), so the origin's other side is fixed until the
        # search ends.
        for direction, written, origin_side in (
            (backward, out_by_mr, in_by_mr[vertex]),
            (forward, in_by_mr, out_by_mr[vertex]),
        ):
            insert = _Inserter(
                stats,
                done if use_pr2 else None,
                aid,
                written,
                origin_side if use_pr1 else None,
                order,
            )
            kernel_based_search(
                vertex, direction, insert, stats, mr_of, k=k, lazy=lazy, use_pr3=use_pr3
            )
            insert.flush()
        done.add(vertex)
        if time_budget is not None and time.perf_counter() - started > time_budget:
            raise BudgetExceededError(
                f"index build exceeded {time_budget:.1f}s "
                f"(at vertex {aid}/{len(order)})"
            )
    stats.seconds = time.perf_counter() - started
    return RlcIndex(
        k=k,
        num_vertices=n,
        num_labels=graph.num_labels,
        order=order,
        out_by_mr=out_by_mr,
        in_by_mr=in_by_mr,
        build_stats=stats,
        label_dictionary=graph.label_dictionary,
    )


def kernel_based_search(
    origin: int,
    direction: SearchDirection,
    insert: Insert,
    stats: BuildStats,
    mr_of: Dict[Tuple[int, ...], Mr],
    *,
    k: int,
    lazy: bool,
    use_pr3: bool,
) -> None:
    """One kernel-based search from ``origin``: phase 1, then one kernel BFS per kernel.

    The one search of Algorithm 2, shared by :func:`build_rlc_index`
    (backward and forward from every vertex, with :class:`_Inserter`'s
    pruned insert rule) and the ETC baseline (forward only, eager, with
    PR3 off and an insert rule that records every entry).  ``insert``
    is that rule (see ``Insert``); only PR3 (``use_pr3``) reads the
    vertices it returns as stored.  ``lazy`` selects the lazy
    strategy, ``mr_of`` is a minimum-repeat memo that may be shared by
    every search of a build, and the search adds its counters and phase
    times to ``stats``.
    """
    stats.kernel_searches += 1
    started = time.perf_counter()
    kernels = _kernel_search(origin, direction, insert, stats, mr_of, k, lazy)
    searched = time.perf_counter()
    stats.phase1_seconds += searched - started
    stats.kernel_bfs_runs += len(kernels)
    rows = direction.rows
    for kernel, seeds in kernels.items():
        # Eager seeds sit at a copy boundary; every lazy seed ends a
        # sequence of length 2k, so it has 2k mod |kernel| labels of
        # its copy matched.
        start = 2 * k % len(kernel) if lazy else 0
        _kernel_bfs(kernel, seeds, start, rows(kernel), insert, stats, use_pr3)
    stats.phase2_seconds += time.perf_counter() - searched


def _kernel_search(
    origin: int,
    direction: SearchDirection,
    insert: Insert,
    stats: BuildStats,
    mr_of: Dict[Tuple[int, ...], Mr],
    k: int,
    lazy: bool,
) -> Dict[Mr, List[Set[int]]]:
    """Phase 1: enumerate label sequences from ``origin``, insert, seed.

    The search runs level by level over sequences, not over
    ``(vertex, sequence)`` pairs: each level maps a sequence to the
    set of its endpoints, and one extension by a label is the union
    of those endpoints' neighbour tuples for it.  Each endpoint of a
    sequence of length up to ``k`` (eager) or ``2k`` (lazy) is one
    expansion; when the sequence's minimum repeat fits the bound,
    the entry ``(origin, MR)`` is attempted at every endpoint.

    Returns ``{kernel: seeds}``, where ``seeds[consumed]`` holds the
    frontier vertices with ``consumed`` labels of the current copy
    already matched.  Eager seeds are every endpoint, at state 0 of
    its MR (a path whose minimum repeat is ``L`` *is* a power of
    ``L``).  Lazy kernels come only from the unique kernel/tail
    decomposition of the length-``2k`` sequences (Theorem 1, Case
    3), mid-copy at state ``len(tail)``.
    """
    backward = direction.backward
    groups = direction.groups
    decompose = suffix_kernel_decomposition if backward else kernel_decomposition
    depth_limit = 2 * k if lazy else k
    kernels: Dict[Mr, List[Set[int]]] = {}
    expansions = 0
    level: List[Tuple[Tuple[int, ...], Iterable[int]]] = [((), (origin,))]
    for depth in range(1, depth_limit + 1):
        deepest = depth == depth_limit
        next_level: List[Tuple[Tuple[int, ...], Iterable[int]]] = []
        for sequence, endpoints in level:
            buckets: Dict[int, List[Tuple[int, ...]]] = {}
            for vertex in endpoints:
                for label, neighbors in groups[vertex].items():
                    bucket = buckets.get(label)
                    if bucket is None:
                        buckets[label] = [neighbors]
                    else:
                        bucket.append(neighbors)
            for label, parts in buckets.items():
                reached = set().union(*parts)
                expansions += len(reached)
                extended = (label,) + sequence if backward else sequence + (label,)
                mr = mr_of.get(extended)
                if mr is None:
                    mr = mr_of[extended] = minimum_repeat(extended)
                if len(mr) <= k:
                    insert(reached, mr)
                    if not lazy:
                        seeds = kernels.get(mr)
                        if seeds is None:
                            seeds = kernels[mr] = [set() for _ in mr]
                        seeds[0] |= reached
                if not deepest:
                    next_level.append((extended, reached))
                elif lazy:
                    decomposition = decompose(extended)
                    if decomposition is not None and len(decomposition[0]) <= k:
                        kernel, tail = decomposition
                        seeds = kernels.get(kernel)
                        if seeds is None:
                            seeds = kernels[kernel] = [set() for _ in kernel]
                        seeds[len(tail)] |= reached
        level = next_level
    stats.phase1_expansions += expansions
    return kernels


def _kernel_bfs(
    kernel: Mr,
    seeds: List[Set[int]],
    consumed: int,
    adjacency: List[List[Tuple[int, ...]]],
    insert: Insert,
    stats: BuildStats,
    use_pr3: bool,
) -> None:
    """Phase 2: continue the search guided by ``(kernel)+``.

    ``seeds[i]`` is the visited set of state ``i`` (``i`` labels of
    the current copy matched); phase 1 put every seed at state
    ``consumed``.  ``adjacency[i]`` is the label-major row of the
    label read at state ``i`` (backward searches consume the kernel
    right-to-left).  The run is level-synchronous: one frontier
    moves round the ``m`` states, so each step is one union of
    neighbour tuples and one set difference, and every new vertex at
    state 0 -- a copy boundary -- gets one insert attempt of
    ``(origin, kernel)``.  That visit order stores and counts exactly
    what any other would (module docstring, "Order inside a
    search"): a boundary vertex's outcome reads only its own hub
    list for ``kernel`` and the origin's fixed side, and
    ``boundary`` lets it be attempted once.
    """
    m = len(kernel)
    boundary = seeds[0]
    frontier: Iterable[int] = seeds[consumed]
    expansions = pr3_stops = 0
    while frontier:
        step = adjacency[consumed]
        reached = set(chain.from_iterable(map(step.__getitem__, frontier)))
        consumed += 1
        if consumed < m:
            reached -= seeds[consumed]
            seeds[consumed] |= reached
            expansions += len(reached)
            frontier = reached
            continue
        consumed = 0
        reached -= boundary
        boundary |= reached
        expansions += len(reached)
        if reached:
            stored = insert(reached, kernel)
            if use_pr3:
                pr3_stops += len(reached) - len(stored)
                frontier = stored
                continue
        frontier = reached
    stats.phase2_expansions += expansions
    stats.pr3_stops += pr3_stops


class SearchDirection:
    """The graph as one kernel-based search direction reads it.

    Built once per build and direction; :func:`kernel_based_search`
    reads its ``groups`` in phase 1 and its :meth:`rows` in phase 2.
    """

    __slots__ = ("view", "groups", "backward", "_rows")

    def __init__(self, graph: EdgeLabeledDigraph, *, backward: bool) -> None:
        #: ``view[label][vertex]``: the neighbour tuple in this direction
        self.view = graph.label_adjacency(incoming=backward)
        #: ``groups[vertex]``: the graph's ``{label: neighbours}`` dict, by label
        self.groups = graph.adjacency(incoming=backward)
        self.backward = backward
        self._rows: Dict[Mr, List[List[Tuple[int, ...]]]] = {}

    def rows(self, kernel: Mr) -> List[List[Tuple[int, ...]]]:
        """``rows(kernel)[i]``: the view row of the label read at state ``i``."""
        rows = self._rows.get(kernel)
        if rows is None:
            labels = reversed(kernel) if self.backward else kernel
            rows = self._rows[kernel] = [self.view[label] for label in labels]
        return rows


class _Inserter:
    """The insert rule of one kernel-based search, a set of vertices at a time.

    Calling it with ``(vertices, mr)`` attempts the entry ``(origin,
    mr)`` at each vertex and returns the list of vertices where it was
    stored.  The checks run in this order and each attempt lands in the
    first that applies: PR2 (the vertex's search already ran; one set
    difference for all of them), then the exact duplicate (the origin
    has the largest access id inserted so far, so a duplicate can only
    sit at the tail of the hub list), then PR1, then the store.

    PR1 is Algorithm 1 on the partial index (see
    :func:`~repro.core.index.hubs_answer`).  Its case "the origin is one
    of the vertex's hubs" is the duplicate test.  The other two read the
    origin's side, which no insert of this search writes, so the search
    takes it once, as ``origin_hubs[mr] = (hub access ids, hub
    vertices)``: "the vertex is one of the origin's hubs" is then one
    set intersection for all the vertices, and "the two lists share a
    hub" one ``isdisjoint`` per vertex.  The intersection runs before
    the duplicate test, which changes no count: a vertex among the
    origin's hubs is pruned by PR1 at its first attempt, so this search
    never stores it and it is never a duplicate.
    """

    __slots__ = (
        "_stats", "_done", "_origin_aid", "_written", "_origin_hubs",
        "_attempts", "_inserted", "_duplicates", "_pruned_pr1", "_pruned_pr2",
    )  # fmt: skip

    def __init__(
        self,
        stats: BuildStats,
        done: Optional[Set[int]],
        origin_aid: int,
        written: List[HubLists],
        origin_side: Optional[HubLists],
        order: List[int],
    ) -> None:
        self._stats = stats
        self._done = done
        self._origin_aid = origin_aid
        self._written = written
        # Without PR1 (``origin_side`` None) there is nothing to probe.
        self._origin_hubs: Dict[Mr, Tuple[FrozenSet[int], FrozenSet[int]]] = (
            {
                mr: (frozenset(hubs), frozenset([order[hub - 1] for hub in hubs]))
                for mr, hubs in origin_side.items()
            }
            if origin_side is not None
            else {}
        )
        self._attempts = self._inserted = self._duplicates = 0
        self._pruned_pr1 = self._pruned_pr2 = 0

    def __call__(self, vertices: Set[int], mr: Mr) -> List[int]:
        self._attempts += len(vertices)
        if self._done:
            fresh = vertices - self._done
            self._pruned_pr2 += len(vertices) - len(fresh)
            vertices = fresh
        duplicates = pruned_pr1 = 0
        probe = self._origin_hubs.get(mr)
        if probe is None:
            hub_aids = None
        else:
            hub_aids, hub_vertices = probe
            answered = vertices & hub_vertices
            if answered:
                pruned_pr1 = len(answered)
                vertices = vertices - answered
        origin_aid = self._origin_aid
        written = self._written
        stored: List[int] = []
        for vertex in vertices:
            by_mr = written[vertex]
            hubs = by_mr.get(mr)
            if hubs and hubs[-1] == origin_aid:
                duplicates += 1
            elif hub_aids is not None and hubs and not hub_aids.isdisjoint(hubs):
                pruned_pr1 += 1
            else:
                by_mr[mr] = (origin_aid,) if hubs is None else hubs + (origin_aid,)
                stored.append(vertex)
        self._duplicates += duplicates
        self._pruned_pr1 += pruned_pr1
        self._inserted += len(stored)
        return stored

    def flush(self) -> None:
        """Add this search's tallies to the build's counters."""
        stats = self._stats
        stats.insert_attempts += self._attempts
        stats.inserted += self._inserted
        stats.duplicates += self._duplicates
        stats.pruned_pr1 += self._pruned_pr1
        stats.pruned_pr2 += self._pruned_pr2
