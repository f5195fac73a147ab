"""Social-network reachability with recursive label concatenations.

The paper's second motivating domain: queries such as
``(knows, worksFor)+`` — "is there a chain of acquaintance-colleague
hops between these two people?" — on a skewed (Barabasi-Albert style)
social graph.

This example:

1. generates a 2000-person social network with ``knows``/``worksFor``/
   ``follows``/``mentors`` edges (Zipf-skewed, like real platforms);
2. builds the RLC index and answers a mixed workload with it, with
   bidirectional BFS, and with the extended transitive closure;
3. uses the index + online traversal for the extended pattern
   ``knows+ worksFor+`` (the paper's Q4 family).

Run: ``python examples/social_network_analysis.py``
"""

from __future__ import annotations

import time

from repro import (
    ExtendedQueryEvaluator,
    ExtendedTransitiveClosure,
    NfaBiBfs,
    build_rlc_index,
)
from repro.errors import BudgetExceededError
from repro.graph import generators
from repro.graph.digraph import EdgeLabeledDigraph
from repro.labels.sequences import LabelDictionary
from repro.workloads import generate_workload

LABELS = LabelDictionary(["knows", "worksFor", "follows", "mentors"])


def build_social_graph(num_people: int = 2000, seed: int = 11) -> EdgeLabeledDigraph:
    pairs = generators.barabasi_albert(num_people, 3, seed=seed)
    labels = generators.zipfian_labels(len(pairs), len(LABELS), seed=seed)
    triples = generators.assign_labels(pairs, labels)
    return EdgeLabeledDigraph(num_people, triples, label_dictionary=LABELS)


def main() -> None:
    graph = build_social_graph()
    print(f"social network: {graph}")

    started = time.perf_counter()
    index = build_rlc_index(graph, k=2)
    print(
        f"RLC index built in {time.perf_counter() - started:.2f}s "
        f"({index.num_entries} entries)"
    )

    # A verified workload: half satisfiable, half not.
    workload = generate_workload(
        graph, 2, num_true=250, num_false=250, seed=3, graph_name="social"
    )

    def run(label, query_fn):
        started = time.perf_counter()
        for query in workload:
            answer = query_fn(query.source, query.target, query.labels)
            assert answer == query.expected
        seconds = time.perf_counter() - started
        print(f"  {label:<22} {seconds * 1e3:8.1f} ms for {len(workload)} queries")
        return seconds

    print("\nmixed (knows|worksFor|...)-constraint workload:")
    index_seconds = run("RLC index", index.query)
    # Generated constraints are already minimum repeats within k, so the
    # hub scan can skip validation.
    run("RLC index (hub scan)", index.query_mr)
    bibfs_seconds = run("bidirectional BFS", NfaBiBfs(graph).query)
    try:
        etc = ExtendedTransitiveClosure.build(graph, 2, time_budget=120.0)
        run(f"ETC ({etc.num_entries} entries)", etc.query)
    except BudgetExceededError as exc:
        print(f"  ETC                      did not finish ({exc})")
    print(f"  -> index speed-up over BiBFS: {bibfs_seconds / index_seconds:.0f}x")

    # Extended pattern: knows+ worksFor+ (acquaintance chain into an
    # employment chain) — index-assisted online evaluation.
    evaluator = ExtendedQueryEvaluator(index, graph)
    knows_chain = ("knows",)
    works_chain = ("worksFor",)
    hits = 0
    probes = 0
    started = time.perf_counter()
    for source in range(0, graph.num_vertices, 97):
        for target in range(0, graph.num_vertices, 101):
            probes += 1
            if evaluator.query_concatenation(source, target, [knows_chain, works_chain]):
                hits += 1
    seconds = time.perf_counter() - started
    print(
        f"\nextended pattern knows+ worksFor+: {hits}/{probes} pairs connected "
        f"({seconds * 1e3:.0f} ms, plan = {evaluator.plan('knows+ worksFor+')})"
    )


if __name__ == "__main__":
    main()
