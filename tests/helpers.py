"""Shared test utilities: graph factories and independent oracles."""

from __future__ import annotations

import gc
import itertools
import os
import random
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from hypothesis import strategies as st

from repro.graph.digraph import EdgeLabeledDigraph
from repro.labels.minimum_repeat import is_primitive

__all__ = [
    "ADVERSARIAL_TOPOLOGIES",
    "CreatesMarker",
    "all_primitive_constraints",
    "assert_witness_valid",
    "brute_force_rlc",
    "count_k_bounded_minimum_repeats",
    "count_primitive_sequences",
    "enumerate_label_sequences",
    "enumerate_primitive_sequences",
    "graphs",
    "random_graph",
    "stack_graphs",
    "tracked_objects_added",
]

class CreatesMarker:
    """Unpickling this object creates the directory ``path``."""

    def __init__(self, path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def tracked_objects_added(make: Callable[[], Any]) -> Tuple[Any, int]:
    """``make()``, and how many more objects the cyclic GC tracks once it returned.

    A full collection runs before and after, so what CPython untracks in
    a full pass -- tuples and dicts that hold only untracked objects,
    such as ints and tuples of ints -- does not count.
    """
    gc.collect()
    before = len(gc.get_objects())
    made = make()
    gc.collect()
    return made, len(gc.get_objects()) - before


def random_graph(
    seed: int,
    *,
    max_vertices: int = 9,
    max_labels: int = 3,
    min_labels: int = 1,
    density: Tuple[float, float] = (0.5, 3.0),
    allow_self_loops: bool = True,
) -> EdgeLabeledDigraph:
    """A small random multigraph for cross-validation tests."""
    rng = random.Random(seed)
    n = rng.randint(2, max_vertices)
    num_labels = rng.randint(min_labels, max_labels)
    edges: Set[Tuple[int, int, int]] = set()
    target_edges = int(n * rng.uniform(*density))
    for _ in range(target_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if not allow_self_loops and u == v:
            continue
        edges.add((u, rng.randrange(num_labels), v))
    return EdgeLabeledDigraph(n, sorted(edges), num_labels=num_labels)


def stack_graphs(
    blocks: Sequence[EdgeLabeledDigraph],
) -> Tuple[EdgeLabeledDigraph, List[Tuple[int, int]]]:
    """The disjoint union of ``blocks``, and ``block_of``: for each of its
    vertices, ``(block index, vertex id in the block)``."""
    edges: List[Tuple[int, int, int]] = []
    block_of: List[Tuple[int, int]] = []
    for index, block in enumerate(blocks):
        offset = len(block_of)
        edges += [(u + offset, label, v + offset) for u, label, v in block.edges()]
        block_of += [(index, v) for v in range(block.num_vertices)]
    num_labels = max(block.num_labels for block in blocks)
    return EdgeLabeledDigraph(len(block_of), edges, num_labels=num_labels), block_of


def _complete(n: int, num_labels: int) -> EdgeLabeledDigraph:
    """Every ordered pair ``u != v``, labelled ``(u + v) % num_labels``."""
    edges = [(u, (u + v) % num_labels, v) for u in range(n) for v in range(n) if u != v]
    return EdgeLabeledDigraph(n, edges, num_labels=num_labels)


def _cycle(labels: Sequence[int]) -> EdgeLabeledDigraph:
    """``i -> i + 1 (mod n)`` labelled ``labels[i]``."""
    edges = [(i, label, (i + 1) % len(labels)) for i, label in enumerate(labels)]
    return EdgeLabeledDigraph(len(labels), edges, num_labels=max(labels) + 1)


#: Structural extremes random graphs rarely hit, by name.
#: ``test_adversarial_topologies`` describes each and pins facts about it;
#: the differential harness (``test_engine_parity``) runs every engine on it.
ADVERSARIAL_TOPOLOGIES: Dict[str, EdgeLabeledDigraph] = {
    "complete-1": _complete(6, 1),
    "complete-2": _complete(5, 2),
    **{f"cycle-{n}": _cycle([0] * n) for n in (5, 7, 9)},
    "alternating-cycle": _cycle([0, 1] * 3),
    "coprime-cycle": _cycle([0, 1, 0, 1, 0]),
    "scc-bridge": EdgeLabeledDigraph(
        5, [(0, 0, 1), (1, 0, 0), (3, 0, 4), (4, 0, 3), (1, 1, 3)], num_labels=2
    ),
    "isolated-vertices": EdgeLabeledDigraph(7, [(1, 0, 3), (3, 0, 5)], num_labels=1),
    "star": EdgeLabeledDigraph(
        8, [(0, 0, i) for i in range(1, 8)] + [(i, 1, 0) for i in range(1, 8)], num_labels=2
    ),
    "unused-labels": EdgeLabeledDigraph(4, [(0, 3, 1), (1, 3, 2)], num_labels=4),
    "unique-labels": EdgeLabeledDigraph(4, [(0, 0, 1), (1, 1, 2), (2, 2, 3)], num_labels=3),
    "parallel-multigraph": EdgeLabeledDigraph(
        4, [(u, l, v) for u in range(4) for v in range(4) for l in range(3) if u != v], num_labels=3
    ),
    "self-loop-alphabet": EdgeLabeledDigraph(1, [(0, l, 0) for l in range(3)], num_labels=3),
}


@st.composite
def graphs(draw, max_vertices=8, max_labels=3):
    """Hypothesis strategy: a small random multigraph, self-loops allowed."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    num_labels = draw(st.integers(min_value=1, max_value=max_labels))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, num_labels - 1), st.integers(0, n - 1))
    edges = draw(st.sets(edge, max_size=3 * n))
    return EdgeLabeledDigraph(n, sorted(edges), num_labels=num_labels)


def assert_witness_valid(graph, source, target, labels, witness):
    """A witness must be a real path spelling a power of the constraint."""
    vertices, path_labels = witness
    m = len(labels)
    assert vertices[0] == source
    assert vertices[-1] == target
    assert len(path_labels) == len(vertices) - 1
    assert len(path_labels) >= m and len(path_labels) % m == 0
    assert tuple(path_labels) == tuple(labels) * (len(path_labels) // m)
    for u, label, v in zip(vertices, path_labels, vertices[1:]):
        assert graph.has_edge(u, label, v), (u, label, v)


def brute_force_rlc(
    graph: EdgeLabeledDigraph,
    source: int,
    target: int,
    labels: Sequence[int],
) -> bool:
    """Path-enumeration oracle, independent of the automaton machinery.

    Explores all walks from ``source`` whose label sequence follows
    ``labels`` cyclically, memoizing ``(vertex, position)`` states.  A
    walk of ``z * |labels|`` edges ending at ``target`` witnesses the
    query; the product space has at most ``|V| * |labels|`` states, so
    the memoized search is exact.
    """
    m = len(labels)
    seen: Set[Tuple[int, int]] = set()
    stack: List[Tuple[int, int]] = [(source, 0)]
    seen.add((source, 0))
    while stack:
        vertex, position = stack.pop()
        expected = labels[position]
        for label, neighbor in graph.out_edges(vertex):
            if label != expected:
                continue
            next_position = (position + 1) % m
            if neighbor == target and next_position == 0:
                return True
            state = (neighbor, next_position)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return False


def enumerate_label_sequences(
    graph: EdgeLabeledDigraph, source: int, max_length: int
) -> Set[Tuple[int, Tuple[int, ...]]]:
    """All (endpoint, label sequence) pairs for walks up to ``max_length``."""
    results: Set[Tuple[int, Tuple[int, ...]]] = set()
    frontier: List[Tuple[int, Tuple[int, ...]]] = [(source, ())]
    for _ in range(max_length):
        next_frontier: List[Tuple[int, Tuple[int, ...]]] = []
        for vertex, sequence in frontier:
            for label, neighbor in graph.out_edges(vertex):
                extended = sequence + (label,)
                pair = (neighbor, extended)
                if pair not in results:
                    results.add(pair)
                    next_frontier.append(pair)
        frontier = next_frontier
    return results


def count_primitive_sequences(alphabet_size: int, length: int) -> int:
    """``F(length)`` of Section V-C: distinct minimum repeats of this length.

    The paper's recursion ``F(i) = |L|^i - sum(F(j) for j | i, j < i)``;
    every sequence of length ``i`` is ``P^z`` for one primitive ``P``
    whose length divides ``i``.
    """
    if alphabet_size < 0 or length < 1:
        raise ValueError("alphabet_size must be >= 0 and length >= 1")
    counts: Dict[int, int] = {}
    for i in range(1, length + 1):
        counts[i] = alphabet_size**i - sum(
            counts[j] for j in range(1, i) if i % j == 0
        )
    return counts[length]


def count_k_bounded_minimum_repeats(alphabet_size: int, k: int) -> int:
    """The paper's constant ``C = sum_{i=1..k} F(i)``: the constraints a
    ``k``-bounded index answers, and the size of
    :func:`all_primitive_constraints`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum(count_primitive_sequences(alphabet_size, i) for i in range(1, k + 1))


def enumerate_primitive_sequences(
    alphabet: Sequence[int], max_length: int
) -> Iterator[Tuple[int, ...]]:
    """Yield every primitive sequence of length 1..max_length over ``alphabet``.

    By length, then lexicographic in the order the alphabet is given;
    the count grows as ``O(|alphabet|^max_length)``.
    """
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    for length in range(1, max_length + 1):
        for candidate in itertools.product(tuple(alphabet), repeat=length):
            if is_primitive(candidate):
                yield candidate


def all_primitive_constraints(num_labels: int, k: int) -> List[Tuple[int, ...]]:
    """Every primitive label sequence of length <= k (test convenience)."""
    return list(enumerate_primitive_sequences(range(num_labels), k))
