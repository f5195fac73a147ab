"""Bidirectional NFA-guided BFS.

The stronger online baseline of Section VI-a, and the ground-truth
oracle used to generate query workloads (Section VI-c).  Two product
searches run in lockstep — forward from ``(source, start_states)`` and
backward from ``(target, accept_states)`` over the reversed graph and
reversed automaton — always expanding the smaller frontier; the query
is true iff the searches meet on a common ``(vertex, nfa_state)`` pair.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.automata.nfa import Nfa
from repro.baselines.bfs import _NfaTraversal
from repro.graph.digraph import EdgeLabeledDigraph

__all__ = ["NfaBiBfs", "evaluate_nfa_bibfs"]


def evaluate_nfa_bibfs(
    graph: EdgeLabeledDigraph, source: int, target: int, nfa: Nfa
) -> bool:
    """Bidirectional product BFS; equivalent to :func:`evaluate_nfa_bfs`."""
    if source == target and nfa.accepts_empty:
        return True
    reverse_nfa = nfa.reversed()

    forward_visited: List[Set[int]] = [set() for _ in range(nfa.num_states)]
    backward_visited: List[Set[int]] = [set() for _ in range(nfa.num_states)]
    forward_frontier: List[Tuple[int, int]] = []
    backward_frontier: List[Tuple[int, int]] = []

    for state in nfa.start_states:
        forward_visited[state].add(source)
        forward_frontier.append((source, state))
    for state in nfa.accept_states:
        backward_visited[state].add(target)
        backward_frontier.append((target, state))

    while forward_frontier and backward_frontier:
        if len(forward_frontier) <= len(backward_frontier):
            forward_frontier = _expand_forward(
                graph, nfa, forward_frontier, forward_visited, backward_visited
            )
            if forward_frontier is None:
                return True
        else:
            backward_frontier = _expand_backward(
                graph, reverse_nfa, backward_frontier, backward_visited, forward_visited
            )
            if backward_frontier is None:
                return True
    return False


def _expand_forward(graph, nfa, frontier, visited, other_visited):
    next_frontier: List[Tuple[int, int]] = []
    for vertex, state in frontier:
        for label in nfa.outgoing_labels(state):
            successors = nfa.successors(state, label)
            for neighbor in graph.out_neighbors(vertex, label):
                for next_state in successors:
                    seen = visited[next_state]
                    if neighbor in seen:
                        continue
                    if neighbor in other_visited[next_state]:
                        return None  # searches met: path exists
                    seen.add(neighbor)
                    next_frontier.append((neighbor, next_state))
    return next_frontier


def _expand_backward(graph, reverse_nfa, frontier, visited, other_visited):
    next_frontier: List[Tuple[int, int]] = []
    for vertex, state in frontier:
        for label in reverse_nfa.outgoing_labels(state):
            predecessors = reverse_nfa.successors(state, label)
            for neighbor in graph.in_neighbors(vertex, label):
                for previous_state in predecessors:
                    seen = visited[previous_state]
                    if neighbor in seen:
                        continue
                    if neighbor in other_visited[previous_state]:
                        return None
                    seen.add(neighbor)
                    next_frontier.append((neighbor, previous_state))
    return next_frontier


class NfaBiBfs(_NfaTraversal):
    """Bidirectional online evaluator bound to a graph."""

    name = "BiBFS"

    def evaluate(self, source: int, target: int, nfa: Nfa) -> bool:
        return evaluate_nfa_bibfs(self._graph, source, target, nfa)
