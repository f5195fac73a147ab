"""NFA-guided breadth-first search over the graph x automaton product.

The first naive approach of Section III-B: evaluate an RLC query by an
online BFS "guided by a minimized NFA constructed according to the
regular expression".  A traversal state is ``(vertex, nfa_state)``; the
query is true iff an accepting pair ``(target, q in accepts)`` is
reachable.  Time is ``O(|E| * states)`` per query, the extreme the RLC
index improves on by up to six orders of magnitude (Fig. 3).
"""

from __future__ import annotations

from collections import deque
from typing import List, Sequence, Set, Union

from repro.automata.compile import compile_regex, constraint_automaton
from repro.automata.nfa import Nfa
from repro.automata.regex import Regex, parse_regex
from repro.graph.digraph import EdgeLabeledDigraph
from repro.queries import validate_rlc_query

__all__ = ["NfaBfs", "evaluate_nfa_bfs"]


def evaluate_nfa_bfs(
    graph: EdgeLabeledDigraph, source: int, target: int, nfa: Nfa
) -> bool:
    """Forward product BFS: is an accepting ``(target, q)`` reachable?"""
    if source == target and nfa.accepts_empty:
        return True
    # One visited set per NFA state keeps membership tests on plain ints.
    visited: List[Set[int]] = [set() for _ in range(nfa.num_states)]
    queue = deque()
    for state in nfa.start_states:
        visited[state].add(source)
        queue.append((source, state))
    accepts = nfa.accept_states
    while queue:
        vertex, state = queue.popleft()
        # Iterating the automaton's labels first touches only matching
        # edges (the constraint automaton has one label per state).
        for label in nfa.outgoing_labels(state):
            successors = nfa.successors(state, label)
            for neighbor in graph.out_neighbors(vertex, label):
                for next_state in successors:
                    seen = visited[next_state]
                    if neighbor in seen:
                        continue
                    if neighbor == target and next_state in accepts:
                        return True
                    seen.add(neighbor)
                    queue.append((neighbor, next_state))
    return False


class _NfaTraversal:
    """An online evaluator bound to a graph: one product search per query.

    Every online answerer — the BFS, BiBFS and DFS baselines and the
    simulated Table V systems — searches the graph x automaton product;
    only the search loop differs.  Subclasses define that loop as
    :meth:`evaluate`; constraint validation, compilation and regular
    expressions are shared here.
    """

    def __init__(self, graph: EdgeLabeledDigraph) -> None:
        self._graph = graph

    @property
    def graph(self) -> EdgeLabeledDigraph:
        return self._graph

    def evaluate(self, source: int, target: int, nfa: Nfa) -> bool:
        """True iff the graph x ``nfa`` product reaches an accepting ``target``."""
        raise NotImplementedError

    def query(self, source: int, target: int, labels: Sequence[int]) -> bool:
        """Evaluate the RLC query ``(source, target, labels+)``."""
        label_tuple = validate_rlc_query(self._graph, source, target, labels)
        return self.evaluate(source, target, constraint_automaton(label_tuple))

    def query_regex(
        self, source: int, target: int, expression: Union[Regex, str]
    ) -> bool:
        """Evaluate an arbitrary regular path reachability query.

        ``expression`` is a parsed :class:`~repro.automata.regex.Regex`
        or its text, e.g. ``"(0 1)+ 2*"``.
        """
        if isinstance(expression, str):
            expression = parse_regex(expression)
        nfa = compile_regex(expression, label_encoder=self._encode_atom)
        return self.evaluate(source, target, nfa)

    def _encode_atom(self, atom) -> int:
        return self._graph.encode_sequence((atom,))[0]


class NfaBfs(_NfaTraversal):
    """Online BFS evaluator bound to a graph.

    >>> from repro.graph.generators import paper_figure2
    >>> g = paper_figure2()
    >>> engine = NfaBfs(g)
    >>> engine.query(2, 5, (1, 0))  # v3, v6, (l2 l1)+
    True
    """

    name = "BFS"

    def evaluate(self, source: int, target: int, nfa: Nfa) -> bool:
        return evaluate_nfa_bfs(self._graph, source, target, nfa)
