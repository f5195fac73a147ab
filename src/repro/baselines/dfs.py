"""NFA-guided depth-first search.

Mentioned in Section VI-a: "DFS is an alternative to BFS with the same
time complexity but is not as efficient as BiBFS".  Included for
completeness of the baseline family; shares the product-space semantics
of :mod:`repro.baselines.bfs` with a LIFO expansion order.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from repro.automata.compile import compile_regex, constraint_automaton
from repro.automata.nfa import Nfa
from repro.automata.regex import Regex
from repro.graph.digraph import EdgeLabeledDigraph
from repro.queries import validate_rlc_query

__all__ = ["NfaDfs", "evaluate_nfa_dfs"]


def evaluate_nfa_dfs(
    graph: EdgeLabeledDigraph, source: int, target: int, nfa: Nfa
) -> bool:
    """Iterative product DFS; equivalent to :func:`evaluate_nfa_bfs`."""
    if source == target and nfa.accepts_empty:
        return True
    visited: List[Set[int]] = [set() for _ in range(nfa.num_states)]
    stack = []
    for state in nfa.start_states:
        visited[state].add(source)
        stack.append((source, state))
    accepts = nfa.accept_states
    while stack:
        vertex, state = stack.pop()
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
                    stack.append((neighbor, next_state))
    return False


class NfaDfs:
    """Online DFS evaluator bound to a graph."""

    name = "DFS"

    def __init__(self, graph: EdgeLabeledDigraph) -> None:
        self._graph = graph

    @property
    def graph(self) -> EdgeLabeledDigraph:
        return self._graph

    def query(self, source: int, target: int, labels: Sequence[int]) -> bool:
        """Evaluate the RLC query ``(source, target, labels+)``."""
        label_tuple = validate_rlc_query(self._graph, source, target, labels)
        return evaluate_nfa_dfs(
            self._graph, source, target, constraint_automaton(label_tuple)
        )

    def query_star(self, source: int, target: int, labels: Sequence[int]) -> bool:
        """Evaluate ``(source, target, labels*)`` (reduces to Kleene plus)."""
        if source == target:
            return True
        return self.query(source, target, labels)

    def query_regex(self, source: int, target: int, expression: Regex) -> bool:
        """Evaluate an arbitrary regular path reachability query."""
        nfa = compile_regex(expression, label_encoder=self._encode_atom)
        return evaluate_nfa_dfs(self._graph, source, target, nfa)

    def _encode_atom(self, atom) -> int:
        return self._graph.encode_sequence((atom,))[0]
