"""NFA-guided depth-first search.

Mentioned in Section VI-a: "DFS is an alternative to BFS with the same
time complexity but is not as efficient as BiBFS".  Included for
completeness of the baseline family; shares the product-space semantics
of :mod:`repro.baselines.bfs` with a LIFO expansion order.
"""

from __future__ import annotations

from typing import List, Set

from repro.automata.nfa import Nfa
from repro.baselines.bfs import _NfaTraversal
from repro.graph.digraph import EdgeLabeledDigraph

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


class NfaDfs(_NfaTraversal):
    """Online DFS evaluator bound to a graph."""

    name = "DFS"

    def evaluate(self, source: int, target: int, nfa: Nfa) -> bool:
        return evaluate_nfa_dfs(self._graph, source, target, nfa)
