"""Block locality of flat engines on randomized multi-component graphs.

An RLC witness never leaves the weakly connected component it starts
in, so an index built over a graph made of disjoint blocks must answer
every same-block query exactly as an index built over that block alone,
and every cross-block query ``False``.  For every flat engine this
checks the merged graph's answers against the per-block engines and
against the path-enumeration oracle in :mod:`tests.helpers` on an
exhaustive workload — cross-block pairs, self-loops and a single-vertex
block included.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.engine import create_engine
from repro.graph.digraph import EdgeLabeledDigraph
from repro.queries import RlcQuery

from tests.helpers import all_primitive_constraints, brute_force_rlc, random_graph

K = 2
INNER_ENGINES = ("rlc", "bfs", "bibfs", "dfs", "etc")
INNER_KWARGS = {"rlc": {"k": K}, "etc": {"k": K}}


def _blocks(seed: int) -> List[EdgeLabeledDigraph]:
    """Random blocks + a single-vertex block + a self-loop block."""
    blocks = [
        random_graph(seed * 3 + offset, max_vertices=5, max_labels=2, min_labels=2)
        for offset in range(3)
    ]
    blocks.append(EdgeLabeledDigraph(1, [], num_labels=2))          # isolated vertex
    blocks.append(EdgeLabeledDigraph(1, [(0, 0, 0)], num_labels=2))  # self-loop
    return blocks


def _merge(
    blocks: List[EdgeLabeledDigraph],
) -> Tuple[EdgeLabeledDigraph, List[Tuple[int, int]]]:
    """Stack the blocks with vertex ids offset; return ``(graph, block_of)``.

    ``block_of[v]`` is ``(block index, local vertex id)`` for merged
    vertex ``v``.
    """
    edges = []
    block_of: List[Tuple[int, int]] = []
    for index, block in enumerate(blocks):
        offset = len(block_of)
        edges.extend((u + offset, label, v + offset) for u, label, v in block.edges())
        block_of.extend((index, local) for local in range(block.num_vertices))
    num_labels = max(block.num_labels for block in blocks)
    return EdgeLabeledDigraph(len(block_of), edges, num_labels=num_labels), block_of


def _exhaustive_workload(graph: EdgeLabeledDigraph):
    queries = []
    for labels in all_primitive_constraints(graph.num_labels, K):
        for source in range(graph.num_vertices):
            for target in range(graph.num_vertices):
                expected = brute_force_rlc(graph, source, target, labels)
                queries.append(RlcQuery(source, target, labels, expected=expected))
    return queries


@pytest.fixture(scope="module", params=range(4))
def case(request):
    blocks = _blocks(request.param)
    graph, block_of = _merge(blocks)
    return blocks, graph, block_of, _exhaustive_workload(graph)


@pytest.mark.parametrize("inner", INNER_ENGINES)
class TestShardedParity:
    def test_merged_shards_agree_too(self, inner, case):
        blocks, graph, block_of, queries = case
        kwargs = INNER_KWARGS.get(inner, {})
        merged = create_engine(inner, graph, **kwargs)
        per_block = [create_engine(inner, block, **kwargs) for block in blocks]
        expected = [q.expected for q in queries]
        assert [merged.query(q) for q in queries] == expected
        assert merged.query_batch(queries) == expected
        for query in queries:
            (source_block, source), (target_block, target) = (
                block_of[query.source],
                block_of[query.target],
            )
            if source_block != target_block:
                assert query.expected is False
                continue
            local = RlcQuery(source, target, query.labels)
            assert per_block[source_block].query(local) == query.expected, query


def test_workloads_cover_cross_shard_and_both_answers(case):
    """Guard the harness: cross-block pairs and both answers occur."""
    blocks, graph, block_of, queries = case
    assert len(blocks) >= 3
    crossing = [
        q for q in queries if block_of[q.source][0] != block_of[q.target][0]
    ]
    assert crossing and all(q.expected is False for q in crossing)
    assert {q.expected for q in queries} == {True, False}
    assert any(block.num_vertices == 1 for block in blocks)
    assert graph.num_edges == sum(block.num_edges for block in blocks)
