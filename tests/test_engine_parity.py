"""Cross-engine parity: every registered engine answers identically.

For each adversarial topology (cyclic, self-loop, disconnected) a full
workload is enumerated — every vertex pair under every primitive
constraint with ``|L| <= 2`` — with expected answers from the
path-enumeration oracle in :mod:`tests.helpers`, which is independent
of the automaton machinery the engines share.  Every engine in the
registry must agree query-by-query, and its ``query_batch`` must agree
with its own ``query``.
"""

from __future__ import annotations

import pytest

from repro.engine import create_engine, engine_names
from repro.graph.digraph import EdgeLabeledDigraph
from repro.queries import RlcQuery

from tests.helpers import all_primitive_constraints, brute_force_rlc

K = 2
ENGINE_KWARGS = {"rlc-index": {"k": K}, "etc": {"k": K}}


def _cyclic():
    """Two interleaved labeled cycles sharing vertices, plus chords."""
    return EdgeLabeledDigraph(
        6,
        [
            (0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 0),  # 4-cycle alternating
            (2, 0, 4), (4, 1, 2),                        # attached 2-cycle
            (0, 1, 5), (5, 0, 0),                        # another 2-cycle
            (1, 0, 4),                                   # chord
        ],
        num_labels=2,
    )


def _self_loops():
    """Self-loops on both labels; the paper notes loops may be re-traversed."""
    return EdgeLabeledDigraph(
        4,
        [
            (0, 0, 0),            # self-loop, label 0
            (1, 1, 1),            # self-loop, label 1
            (0, 1, 1), (1, 0, 2), (2, 1, 0),
            (2, 0, 3), (3, 1, 3),  # sink with a self-loop
        ],
        num_labels=2,
    )


def _disconnected():
    """Two components, one of them label-disjoint from the other."""
    return EdgeLabeledDigraph(
        7,
        [
            (0, 0, 1), (1, 1, 0),           # component A: 2-cycle
            (3, 0, 4), (4, 0, 5), (5, 1, 3),  # component B: 3-cycle
            (5, 0, 6),                      # pendant
        ],
        num_labels=2,
    )


GRAPHS = {"cyclic": _cyclic, "self-loops": _self_loops, "disconnected": _disconnected}


def _full_workload(graph: EdgeLabeledDigraph):
    """Every (s, t, L) with |L| <= K, labeled by the brute-force oracle."""
    queries = []
    for labels in all_primitive_constraints(graph.num_labels, K):
        for source in range(graph.num_vertices):
            for target in range(graph.num_vertices):
                expected = brute_force_rlc(graph, source, target, labels)
                queries.append(RlcQuery(source, target, labels, expected=expected))
    return queries


@pytest.fixture(scope="module")
def workloads():
    return {name: (factory(), _full_workload(factory())) for name, factory in GRAPHS.items()}


@pytest.mark.parametrize("topology", sorted(GRAPHS))
@pytest.mark.parametrize("name", engine_names())
class TestParity:
    def test_engine_matches_oracle_and_itself(self, name, topology, workloads):
        graph, queries = workloads[topology]
        engine = create_engine(name, graph, **ENGINE_KWARGS.get(name, {}))
        expected = [q.expected for q in queries]
        single = [
            engine.query_prepared(q.labels, q.source, q.target)
            for q in queries
        ]
        assert single == expected, f"{name} disagrees with the oracle on {topology}"
        batched = engine.query_batch(queries)
        assert batched == single, f"{name} query_batch disagrees with query_prepared"


def test_some_queries_true_and_some_false(workloads):
    """Guard the harness itself: every topology exercises both answers."""
    for topology, (_, queries) in workloads.items():
        answers = {q.expected for q in queries}
        assert answers == {True, False}, topology
