"""Experiment drivers: one function per paper table/figure.

Each driver assembles graphs and workloads, runs the engines, and
returns a :class:`~repro.bench.harness.ResultTable` whose raw rows
``benchmarks/run_all_experiments.py --only NAME`` writes out and the
test-suite asserts on.  Default parameters are sized for minutes-scale
reproduction runs; that script's ``--scale`` and ``--queries`` grow any
experiment toward the paper's settings.

Every query-time cell of Figs. 3-7 comes from one loop,
:func:`~repro.bench.harness.run_query_set`, over an engine built by
:func:`~repro.engine.create_engine`; it times only the evaluation of
each query.  Table V times whole per-call requests.

Paper-to-driver map:

========  =====================================================
Table III :func:`experiment_table3`
Table IV  :func:`experiment_table4`
Fig. 3    :func:`experiment_fig3`
Fig. 4    :func:`experiment_fig4`
Fig. 5    :func:`experiment_fig5`
Fig. 6    :func:`experiment_fig6`
Table V   :func:`experiment_table5`
Fig. 7    :func:`experiment_fig7`
Remarks   :func:`experiment_ablation_pruning`,
          :func:`experiment_ablation_strategies`
========  =====================================================
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines import ExtendedTransitiveClosure
from repro.bench.harness import (
    TIMED_OUT,
    ResultTable,
    format_bytes,
    format_micros,
    format_seconds,
    run_query_set,
    time_call,
)
from repro.core import ExtendedQueryEvaluator, build_rlc_index
from repro.engine import create_engine, get_engine_class
from repro.errors import BudgetExceededError
from repro.graph import compute_stats, datasets, generators
from repro.graph.stats import label_histogram
from repro.workloads import generate_workload

__all__ = [
    "experiment_ablation_pruning",
    "experiment_ablation_strategies",
    "experiment_fig3",
    "experiment_fig4",
    "experiment_fig5",
    "experiment_fig6",
    "experiment_fig7",
    "experiment_table3",
    "experiment_table4",
    "experiment_table5",
]

DEFAULT_DATASETS = datasets.dataset_names()


# ----------------------------------------------------------------------
# Table III — dataset overview
# ----------------------------------------------------------------------


def experiment_table3(
    names: Sequence[str] = DEFAULT_DATASETS, *, scale: float = 1.0
) -> ResultTable:
    """Dataset statistics table (paper values next to stand-in values)."""
    table = ResultTable(
        title="Table III — overview of graphs (paper originals vs stand-ins)",
        columns=[
            "dataset", "paper_V", "paper_E", "V", "E", "L",
            "loops", "triangles", "avg_degree",
        ],
        notes=[
            "stand-ins are deterministic synthetic graphs preserving label "
            "skew, density ranking and cyclicity (see repro.graph.datasets)",
        ],
    )
    for name in names:
        spec = datasets.get_spec(name)
        graph = datasets.load_dataset(name, scale=scale)
        stats = compute_stats(graph)
        table.add_row(
            dataset=name,
            paper_V=spec.paper_vertices,
            paper_E=spec.paper_edges,
            V=stats.num_vertices,
            E=stats.num_edges,
            L=stats.num_labels,
            loops=stats.loop_count,
            triangles=stats.triangle_count,
            avg_degree=stats.average_degree,
        )
    return table


# ----------------------------------------------------------------------
# Table IV — indexing time and index size, RLC vs ETC
# ----------------------------------------------------------------------


def experiment_table4(
    names: Sequence[str] = DEFAULT_DATASETS,
    *,
    k: int = 2,
    scale: float = 1.0,
    etc_time_budget: Optional[float] = 30.0,
    etc_max_entries: Optional[int] = 3_000_000,
) -> ResultTable:
    """Indexing time (IT) and index size (IS) for the RLC index and ETC.

    Both builds run the same kernel-based search
    (:func:`repro.core.builder.kernel_based_search`): the RLC index
    with PR1-PR3, ETC forward only without them, so the IT columns
    compare one search with and without pruning.  ETC runs under a budget emulating the paper's 24-hour/OOM cut-off;
    exceeding it reports ``-`` exactly as Table IV does (in the paper
    ETC completes only on AD).
    """
    table = ResultTable(
        title=f"Table IV — indexing time and index size (k={k})",
        columns=["dataset", "rlc_it_s", "rlc_is_bytes", "etc_it_s", "etc_is_bytes"],
        formatters={
            "rlc_it_s": format_seconds,
            "etc_it_s": format_seconds,
            "rlc_is_bytes": format_bytes,
            "etc_is_bytes": format_bytes,
        },
        notes=[
            f"ETC budget: {etc_time_budget}s / {etc_max_entries} entries "
            "('-' = exceeded, mirroring the paper's 24h/OOM cut-offs)",
        ],
    )
    for name in names:
        graph = datasets.load_dataset(name, scale=scale)
        index, seconds = time_call(lambda g=graph: build_rlc_index(g, k))
        row: Dict[str, object] = {
            "dataset": name,
            "rlc_it_s": seconds,
            "rlc_is_bytes": index.estimated_size_bytes(),
        }
        try:
            etc = ExtendedTransitiveClosure.build(
                graph, k, time_budget=etc_time_budget, max_entries=etc_max_entries
            )
            row["etc_it_s"] = etc.build_seconds
            row["etc_is_bytes"] = etc.estimated_size_bytes()
        except BudgetExceededError:
            row["etc_it_s"] = None
            row["etc_is_bytes"] = None
        table.add_row(**row)
    return table


# ----------------------------------------------------------------------
# Fig. 3 — query time of 1000 true / 1000 false queries
# ----------------------------------------------------------------------


def experiment_fig3(
    names: Sequence[str] = DEFAULT_DATASETS,
    *,
    k: int = 2,
    scale: float = 1.0,
    num_queries: int = 200,
    time_cap: Optional[float] = 10.0,
    etc_time_budget: Optional[float] = 30.0,
    seed: int = 7,
) -> ResultTable:
    """Execution time of the true/false query sets per engine.

    Engines: BFS, BiBFS, ETC (where its build budget allows — AD-like
    behaviour), RLC index.  Each cell times only the engine's
    evaluation of the set's queries, best of
    :data:`~repro.bench.harness.QUERY_SET_PASSES` verified passes (see
    :func:`~repro.bench.harness.run_query_set`).  ``X`` marks a set
    whose pass exceeds ``time_cap``, as in the paper's Fig. 3.
    """
    table = ResultTable(
        title=(
            f"Fig. 3 — query-set execution time "
            f"({num_queries} true + {num_queries} false, k={k})"
        ),
        columns=["dataset", "engine", "true_us", "false_us"],
        formatters={"true_us": format_micros, "false_us": format_micros},
    )
    for name in names:
        graph = datasets.load_dataset(name, scale=scale)
        workload = generate_workload(
            graph,
            k,
            num_true=num_queries,
            num_false=num_queries,
            seed=seed,
            graph_name=name,
        )
        # Registry-driven engine roster: (key, constructor options).  A
        # build budget overrun renders as the paper's '-' cells.
        specs: List[Tuple[str, Dict[str, object]]] = [
            ("bfs", {}),
            ("bibfs", {}),
            ("etc", {"k": k, "time_budget": etc_time_budget}),
            ("rlc-index", {"k": k}),
        ]
        for key, options in specs:
            label = get_engine_class(key).display_name
            try:
                engine = create_engine(key, graph, **options)
            except BudgetExceededError:
                table.add_row(
                    dataset=name, engine=label, true_us=None, false_us=None
                )
                continue
            table.add_row(
                dataset=name,
                engine=label,
                true_us=run_query_set(engine, workload.true_queries, time_cap=time_cap),
                false_us=run_query_set(engine, workload.false_queries, time_cap=time_cap),
            )
    return table


# ----------------------------------------------------------------------
# Figs. 4-7 — one RLC index build and two timed query sets per row
# ----------------------------------------------------------------------


#: The columns :func:`_index_sweep_row` fills, with their renderers.
_SWEEP_FORMATTERS = {
    "indexing_s": format_seconds,
    "size_bytes": format_bytes,
    "true_us": format_micros,
    "false_us": format_micros,
}


def _index_sweep_row(
    graph, k: int, num_queries: int, seed: int, graph_name: str
) -> Dict[str, object]:
    """Build an RLC index over ``graph``, size it, time both query sets."""
    engine, seconds = time_call(lambda: create_engine("rlc-index", graph, k=k))
    workload = generate_workload(
        graph, k, num_true=num_queries, num_false=num_queries, seed=seed,
        graph_name=graph_name,
    )
    return {
        "indexing_s": seconds,
        "size_bytes": engine.backend.estimated_size_bytes(),
        "true_us": run_query_set(engine, workload.true_queries),
        "false_us": run_query_set(engine, workload.false_queries),
    }


# ----------------------------------------------------------------------
# Fig. 4 — impact of the recursive k on real-world graphs
# ----------------------------------------------------------------------


def experiment_fig4(
    names: Sequence[str] = ("TW", "WG"),
    *,
    ks: Sequence[int] = (2, 3, 4),
    scale: float = 1.0,
    num_queries: int = 200,
    seed: int = 7,
) -> ResultTable:
    """Indexing time, index size and query time for k in {2, 3, 4}."""
    table = ResultTable(
        title=f"Fig. 4 — RLC index vs recursive k on {', '.join(names)}",
        columns=["dataset", "k", *_SWEEP_FORMATTERS],
        formatters=_SWEEP_FORMATTERS,
    )
    for name in names:
        graph = datasets.load_dataset(name, scale=scale)
        for k in ks:
            table.add_row(
                dataset=name,
                k=k,
                **_index_sweep_row(graph, k, num_queries, seed, name),
            )
    return table


# ----------------------------------------------------------------------
# Fig. 5 — impact of label set size and average degree (ER / BA)
# ----------------------------------------------------------------------


def _synthetic_graph(family: str, num_vertices: int, degree: int, num_labels: int, seed: int):
    if family == "er":
        return generators.labeled_erdos_renyi(num_vertices, degree, num_labels, seed)
    if family == "ba":
        return generators.labeled_barabasi_albert(num_vertices, degree, num_labels, seed)
    raise ValueError(f"unknown synthetic family {family!r}")


def experiment_fig5(
    *,
    families: Sequence[str] = ("er", "ba"),
    num_vertices: int = 2000,
    degrees: Sequence[int] = (2, 3, 4, 5),
    label_sizes: Sequence[int] = (8, 12, 16, 20, 24, 28, 32, 36),
    k: int = 2,
    num_queries: int = 100,
    seed: int = 7,
) -> ResultTable:
    """The d x |L| sweep on ER and BA graphs (paper: |V| = 1M, here scaled)."""
    table = ResultTable(
        title=(
            f"Fig. 5 — indexing time, size and query time vs |L| and d "
            f"(|V|={num_vertices}, k={k})"
        ),
        columns=["family", "degree", "labels", *_SWEEP_FORMATTERS],
        formatters=_SWEEP_FORMATTERS,
    )
    for family in families:
        for degree in degrees:
            for num_labels in label_sizes:
                graph = _synthetic_graph(family, num_vertices, degree, num_labels, seed)
                table.add_row(
                    family=family.upper(),
                    degree=degree,
                    labels=num_labels,
                    **_index_sweep_row(
                        graph, k, num_queries, seed,
                        f"{family}-d{degree}-L{num_labels}",
                    ),
                )
    return table


# ----------------------------------------------------------------------
# Fig. 6 — scalability in |V|
# ----------------------------------------------------------------------


def experiment_fig6(
    *,
    families: Sequence[str] = ("er", "ba"),
    sizes: Sequence[int] = (500, 1000, 2000, 4000, 8000),
    degree: int = 5,
    num_labels: int = 16,
    k: int = 2,
    num_queries: int = 100,
    seed: int = 7,
) -> ResultTable:
    """Indexing time, size and query time as |V| grows (d=5, |L|=16)."""
    table = ResultTable(
        title=f"Fig. 6 — scalability in |V| (d={degree}, |L|={num_labels}, k={k})",
        columns=["family", "vertices", *_SWEEP_FORMATTERS],
        formatters=_SWEEP_FORMATTERS,
    )
    for family in families:
        for num_vertices in sizes:
            graph = _synthetic_graph(family, num_vertices, degree, num_labels, seed)
            table.add_row(
                family=family.upper(),
                vertices=num_vertices,
                **_index_sweep_row(
                    graph, k, num_queries, seed, f"{family}-{num_vertices}"
                ),
            )
    return table


# ----------------------------------------------------------------------
# Table V — speed-ups and break-even points vs graph engines
# ----------------------------------------------------------------------


def _pick_table5_endpoints(graph) -> Tuple[int, int]:
    """Deterministic non-trivial endpoints: max-out-degree -> max-in-degree."""
    out_degrees = graph.out_degrees()
    in_degrees = graph.in_degrees()
    return int(out_degrees.argmax()), int(in_degrees.argmax())


def _median_seconds(fn, repeats: int, time_cap: Optional[float]):
    """``(answer, median seconds)`` of ``repeats`` calls; TIMED_OUT past the cap."""
    samples: List[float] = []
    for _ in range(max(repeats, 1)):
        answer, elapsed = time_call(fn)
        samples.append(elapsed)
        if time_cap is not None and elapsed > time_cap:
            return answer, TIMED_OUT
    return answer, statistics.median(samples)


def experiment_table5(
    *,
    dataset: str = "WN",
    k: int = 3,
    scale: float = 1.0,
    repeats: int = 5,
    time_cap: Optional[float] = 30.0,
    seed: int = 7,
) -> ResultTable:
    """Speed-ups (SU) and break-even points (BEP) over simulated engines.

    Queries follow Section VI-C: Q1 ``a+``, Q2 ``(a b)+``, Q3
    ``(a b c)+`` with one RLC index built at ``k=3`` serving all three,
    and the extended query Q4 ``a+ b+`` evaluated with the index plus an
    online traversal.  ``a``, ``b``, ``c`` are the three most frequent
    labels; endpoints are the max-out-degree and max-in-degree vertices.
    Every engine answer is checked against the index's (the extended
    evaluator's for Q4); a disagreement raises ``AssertionError``.
    """
    graph = datasets.load_dataset(dataset, scale=scale)
    histogram = label_histogram(graph)
    frequent = sorted(histogram, key=lambda label: -histogram[label])
    a, b, c = (frequent + [0, 0, 0])[:3]
    source, target = _pick_table5_endpoints(graph)

    index, build_seconds = time_call(lambda: build_rlc_index(graph, k))
    evaluator = ExtendedQueryEvaluator(index, graph)
    # Q1-Q3 grow the concatenation length as in Section VI-C.  Q3 uses
    # the *frequent* labels (a, b, a) rather than the third-most-frequent
    # label: with Zipf(2) skew a rare label empties the product space
    # immediately, which would make the online engines trivially fast
    # instead of slower on longer concatenations as in the paper.
    queries = [
        ("Q1", "rlc", (a,)),
        ("Q2", "rlc", (a, b) if a != b else (a, c)),
        ("Q3", "rlc", (a, b, a) if a != b else (a, b, c)),
        ("Q4", "extended", ((a,), (b,))),
    ]

    table = ResultTable(
        title=(
            f"Table V — speed-ups and break-even points on {dataset} "
            f"(k={k}, index build {build_seconds:.1f}s)"
        ),
        columns=["engine", "query", "engine_s", "rlc_s", "speedup", "bep"],
        formatters={"engine_s": format_seconds, "rlc_s": format_seconds},
        notes=[
            "Sys1/Sys2/VirtuosoSim are architecturally simulated engines "
            "(see repro.baselines.simulated); X = exceeded time cap",
            "BEP = queries needed for index build time to pay off",
        ],
    )

    def _rlc_call(kind, payload):
        if kind == "rlc":
            return lambda: index.query(source, target, payload)
        return lambda: evaluator.query_concatenation(source, target, payload)

    def _engine_call(engine, kind, payload):
        if kind == "rlc":
            return lambda: engine.query_prepared(payload, source, target)
        # Extended (concatenated-constraint) queries go straight to the
        # backend: they are regex evaluations outside the RLC contract.
        expression = " ".join(
            "(" + " ".join(str(x) for x in segment) + ")+" for segment in payload
        )
        return lambda: engine.backend.query_regex(source, target, expression)

    rlc_results: Dict[str, Tuple[bool, object]] = {}
    for query_name, kind, payload in queries:
        if kind == "rlc" and len(payload) > k:
            continue
        rlc_results[query_name] = _median_seconds(
            _rlc_call(kind, payload), repeats, time_cap
        )

    for engine_key in ("sys1", "sys2", "virtuoso-sim"):
        engine = create_engine(engine_key, graph)
        for query_name, kind, payload in queries:
            if query_name not in rlc_results:
                continue
            answer, engine_seconds = _median_seconds(
                _engine_call(engine, kind, payload), repeats, time_cap
            )
            rlc_answer, rlc_seconds = rlc_results[query_name]
            if answer != rlc_answer:
                raise AssertionError(
                    f"{engine.display_name} answered {answer} for {query_name} "
                    f"({source} -> {target}), the index answered {rlc_answer}"
                )
            if engine_seconds is TIMED_OUT or rlc_seconds is TIMED_OUT:
                speedup = None
                bep = None
            else:
                speedup = engine_seconds / rlc_seconds if rlc_seconds > 0 else None
                gain = engine_seconds - rlc_seconds
                bep = int(build_seconds / gain) + 1 if gain > 0 else None
            table.add_row(
                engine=engine.display_name,
                query=query_name,
                engine_s=engine_seconds,
                rlc_s=rlc_seconds,
                speedup=None if speedup is None else round(speedup, 1),
                bep=bep,
            )
    return table


# ----------------------------------------------------------------------
# Fig. 7 (appendix C) — impact of k on synthetic graphs
# ----------------------------------------------------------------------


def experiment_fig7(
    *,
    families: Sequence[str] = ("er", "ba"),
    num_vertices: int = 1000,
    degree: int = 5,
    num_labels: int = 16,
    ks: Sequence[int] = (2, 3, 4),
    num_queries: int = 100,
    seed: int = 7,
) -> ResultTable:
    """Indexing time, size and query time for k in {2,3,4} on ER/BA."""
    table = ResultTable(
        title=(
            f"Fig. 7 — impact of k on synthetic graphs "
            f"(|V|={num_vertices}, d={degree}, |L|={num_labels})"
        ),
        columns=["family", "k", *_SWEEP_FORMATTERS],
        formatters=_SWEEP_FORMATTERS,
    )
    for family in families:
        graph = _synthetic_graph(family, num_vertices, degree, num_labels, seed)
        for k in ks:
            table.add_row(
                family=family.upper(),
                k=k,
                **_index_sweep_row(graph, k, num_queries, seed, f"{family}-k{k}"),
            )
    return table


# ----------------------------------------------------------------------
# Design-choice ablations (appendix D remarks)
# ----------------------------------------------------------------------


def experiment_ablation_pruning(
    *,
    dataset: str = "AD",
    k: int = 2,
    scale: float = 1.0,
) -> ResultTable:
    """Pruning rules on/off: build time, entries, prune counters.

    The paper's appendix D reports that disabling the PR3-enabling
    design costs ~32x on AD; this driver quantifies each rule's
    contribution at reproduction scale.
    """
    graph = datasets.load_dataset(dataset, scale=scale)
    variants = [
        ("all rules", {}),
        ("no PR1", {"use_pr1": False}),
        ("no PR2", {"use_pr2": False}),
        ("no PR3", {"use_pr3": False}),
        ("no rules", {"use_pr1": False, "use_pr2": False, "use_pr3": False}),
    ]
    table = ResultTable(
        title=f"Ablation — pruning rules on {dataset} (k={k})",
        columns=[
            "variant", "indexing_s", "entries", "size_bytes",
            "pruned_pr1", "pruned_pr2", "pr3_stops",
        ],
        formatters={"indexing_s": format_seconds, "size_bytes": format_bytes},
    )
    for label, kwargs in variants:
        index, seconds = time_call(lambda: build_rlc_index(graph, k, **kwargs))
        table.add_row(
            variant=label,
            indexing_s=seconds,
            entries=index.num_entries,
            size_bytes=index.estimated_size_bytes(),
            pruned_pr1=index.build_stats.pruned_pr1,
            pruned_pr2=index.build_stats.pruned_pr2,
            pr3_stops=index.build_stats.pr3_stops,
        )
    return table


def experiment_ablation_strategies(
    *,
    dataset: str = "AD",
    k: int = 2,
    scale: float = 1.0,
    seed: int = 7,
) -> ResultTable:
    """Eager vs lazy KBS and vertex-ordering strategies."""
    graph = datasets.load_dataset(dataset, scale=scale)
    variants = [
        ("eager + in-out", {"strategy": "eager", "ordering": "in-out"}),
        ("lazy + in-out", {"strategy": "lazy", "ordering": "in-out"}),
        ("eager + degree", {"strategy": "eager", "ordering": "degree"}),
        ("eager + random", {"strategy": "eager", "ordering": "random", "seed": seed}),
    ]
    table = ResultTable(
        title=f"Ablation — KBS strategy and vertex ordering on {dataset} (k={k})",
        columns=["variant", "indexing_s", "entries", "size_bytes", "phase1_expansions"],
        formatters={"indexing_s": format_seconds, "size_bytes": format_bytes},
    )
    for label, kwargs in variants:
        index, seconds = time_call(lambda: build_rlc_index(graph, k, **kwargs))
        table.add_row(
            variant=label,
            indexing_s=seconds,
            entries=index.num_entries,
            size_bytes=index.estimated_size_bytes(),
            phase1_expansions=index.build_stats.phase1_expansions,
        )
    return table
