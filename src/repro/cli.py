"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``stats GRAPH`` — print Table III-style statistics of a graph file;
- ``build GRAPH -k K -o INDEX`` — build and persist an RLC index;
- ``query INDEX SOURCE TARGET CONSTRAINT`` — answer one RLC query
  (constraint in the paper's notation, e.g. ``"(debits, credits)+"``);
- ``workload GRAPH -k K -o FILE`` — generate a verified query workload;
- ``run INDEX WORKLOAD`` — replay a workload through a saved index
  (batched + cached via the query service; ``--json`` emits the
  structured report and ``--witness --graph GRAPH`` attaches witness
  paths to true answers);
- ``engines`` — list the engines in the registry, their capability
  flags, and the spec grammar;
- ``bench GRAPH WORKLOAD --engine SPEC`` — run a workload through any
  registered engine spec built over a graph file (bare names like
  ``bibfs`` or parameterized specs like ``rlc?k=3``);
- ``serve GRAPH --engine SPEC`` — start the JSON replay server
  (``/query``, ``/batch``, ``/stats``, ``/healthz``) over a graph file
  or dataset name, optionally with a persistent result cache;
- ``dataset NAME -o GRAPH`` — materialize a Table III stand-in.

All query execution goes through the :mod:`repro.api` session facade
(which itself drives :mod:`repro.engine` by registry name/spec) — the
commands here are thin argument parsers, never per-engine branching.
Graph files may be text edge lists (``source label target`` per line)
or ``.npz`` archives written by this tool.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.api import ReplayServer, Session
from repro.core import build_rlc_index
from repro.core.index import RlcIndex
from repro.engine import (
    RlcIndexEngine,
    available_engines,
    engine_capabilities,
    filter_engine_options,
)
from repro.errors import ReproError
from repro.graph import compute_stats, datasets
from repro.graph.io import load_graph, save_graph_npz, write_edge_list
from repro.labels.sequences import parse_constraint
from repro.workloads import generate_workload, load_workload, save_workload

__all__ = ["main"]


def _cmd_stats(args) -> int:
    graph = load_graph(args.graph)
    stats = compute_stats(graph)
    print(stats.format_row(args.graph))
    print(
        f"max out-degree {stats.max_out_degree}, max in-degree {stats.max_in_degree}, "
        f"directed 3-cycles {stats.directed_triangle_count}"
    )
    histogram = ", ".join(
        f"{label}:{count}" for label, count in enumerate(stats.label_histogram)
    )
    print(f"label histogram: {histogram}")
    return 0


def _cmd_build(args) -> int:
    graph = load_graph(args.graph)
    started = time.perf_counter()
    index = build_rlc_index(
        graph,
        args.k,
        strategy=args.strategy,
        ordering=args.ordering,
        time_budget=args.time_budget,
    )
    elapsed = time.perf_counter() - started
    index.save(args.output)
    stats = index.build_stats
    print(
        f"built k={args.k} index for {graph!r} in {elapsed:.2f}s: "
        f"{index.num_entries} entries, {index.estimated_size_bytes()} bytes "
        f"-> {args.output}"
    )
    print(
        f"pruning: PR1 {stats.pruned_pr1}, PR2 {stats.pruned_pr2}, "
        f"PR3 stops {stats.pr3_stops}, duplicates {stats.duplicates}"
    )
    return 0


def _resolve_constraint(index: RlcIndex, text: str):
    labels, operator = parse_constraint(text)
    if index.label_dictionary is not None:
        encoded = tuple(
            index.label_dictionary.id_of(name) if not name.isdigit() else int(name)
            for name in labels
        )
    else:
        encoded = tuple(int(name) for name in labels)
    return encoded, operator


def _cmd_query(args) -> int:
    index = RlcIndex.load(args.index)
    encoded, operator = _resolve_constraint(index, args.constraint)
    if operator == "*":
        answer = index.query_star(args.source, args.target, encoded)
    else:
        answer = index.query(args.source, args.target, encoded)
    print("true" if answer else "false")
    return 0 if answer else 1


def _cmd_workload(args) -> int:
    graph = load_graph(args.graph)
    workload = generate_workload(
        graph,
        args.k,
        num_true=args.true_queries,
        num_false=args.false_queries,
        seed=args.seed,
        graph_name=str(args.graph),
    )
    save_workload(workload, args.output)
    print(
        f"wrote {len(workload.true_queries)} true + "
        f"{len(workload.false_queries)} false queries -> {args.output}"
    )
    return 0


def _cmd_run(args) -> int:
    if args.witness and not args.graph:
        print(
            "error: --witness needs --graph GRAPH (a saved index carries no "
            "edges to extract witness paths from)",
            file=sys.stderr,
        )
        return 2
    index = RlcIndex.load(args.index)
    session = Session.from_prepared(
        RlcIndexEngine.from_index(index),
        spec=f"rlc-index?k={index.k}",
        graph_name=str(args.index),
        batch_size=args.batch_size,
        cache_size=args.cache_size,
    )
    queries = list(load_workload(args.workload))
    report = session.run(queries)
    wrong = len(report.mismatches)
    witnesses: Optional[List[Optional[dict]]] = None
    if args.witness:
        graph = load_graph(args.graph)
        # The index carries no edges, so witnesses come from --graph —
        # which must actually be the graph the index was built from, or
        # the extracted "witnesses" would be paths of an unrelated graph.
        if (
            graph.num_vertices != index.num_vertices
            or graph.num_labels != index.num_labels
        ):
            print(
                f"error: --graph {args.graph!r} has {graph.num_vertices} "
                f"vertices / {graph.num_labels} labels but the index was "
                f"built over {index.num_vertices} vertices / "
                f"{index.num_labels} labels — witness paths would be "
                "extracted from the wrong graph",
                file=sys.stderr,
            )
            return 2
        from repro.core import find_witness_path

        witnesses = []
        for query, answer in zip(queries, report.answers):
            found = (
                find_witness_path(graph, query.source, query.target, query.labels)
                if answer
                else None
            )
            witnesses.append(
                {"vertices": list(found[0]), "labels": list(found[1])}
                if found is not None
                else None
            )
    if args.json:
        import json

        payload = {
            "engine": report.engine_name,
            "total": report.total,
            "seconds": report.seconds,
            "queries_per_second": report.queries_per_second,
            "batches": report.batches,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "hit_rate": report.hit_rate,
            "ok": report.ok,
            "mismatches": wrong,
            "answers": [bool(answer) for answer in report.answers],
        }
        if witnesses is not None:
            payload["witnesses"] = witnesses
        print(json.dumps(payload))
        return 0 if wrong == 0 else 1
    print(
        f"{report.total} queries in {report.seconds * 1e3:.2f} ms "
        f"({report.seconds / max(report.total, 1) * 1e6:.1f} us/query), "
        f"{wrong} wrong answers"
    )
    print(
        f"service: {report.batches} batches of <= {args.batch_size}, "
        f"cache hit rate {report.hit_rate:.0%}"
    )
    if witnesses is not None:
        found = sum(1 for witness in witnesses if witness is not None)
        print(f"witnesses: {found} paths extracted for true answers")
    return 0 if wrong == 0 else 1


def _cmd_engines(args) -> int:
    rows = available_engines()
    width = max(len(key) for key, _, _ in rows)
    label_width = max(len(label) for _, label, _ in rows)
    capability_rows = {
        key: ",".join(sorted(engine_capabilities(key))) or "-"
        for key, _, _ in rows
    }
    capability_width = max(len(text) for text in capability_rows.values())
    for key, label, description in rows:
        capabilities = capability_rows[key].ljust(capability_width)
        print(
            f"{key.ljust(width)}  {label.ljust(label_width)}  "
            f"{capabilities}  {description}"
        )
    print()
    print("spec grammar: name[?key=value&...], alias rlc -> rlc-index")
    print("e.g. rlc?k=3 (an RLC index with recursive bound 3)")
    print(
        "capabilities column: select engines by feature with "
        "repro.engine.engines_with_capabilities(...)"
    )
    return 0


def _open_session(args) -> Session:
    """Session over the command's graph argument (path or dataset name)."""
    return Session(
        args.graph,
        engine=args.engine,
        cache_dir=getattr(args, "cache_dir", None),
        cache_size=args.cache_size,
        batch_size=args.batch_size,
    )


def _cmd_bench(args) -> int:
    session = _open_session(args)
    workload = load_workload(args.workload)
    # -k defaults to the workload's recorded bound so a k=3 workload
    # benches against a k=3 index without re-specifying it.  Flags are
    # offered to every engine spec and filtered against its constructor
    # signature, so adding an engine never adds a branch here.
    k = args.k if args.k is not None else workload.k
    options = filter_engine_options(
        args.engine, {"k": k, "time_budget": args.time_budget}
    )
    engine = session.engine(args.engine, **options)
    report = session.run(workload, engine=args.engine, **options)
    stats = engine.stats()
    print(
        f"prepared {args.engine} over {session.graph!r} "
        f"in {stats.prepare_seconds:.2f}s"
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    session = _open_session(args)
    server = ReplayServer(
        session, host=args.host, port=args.port, quiet=args.quiet
    )
    cache = session.cache_dir or "off"
    print(
        f"serving {session.name!r} with engine {args.engine!r} "
        f"on {server.url} (persistent cache: {cache})"
    )
    print("endpoints: GET /healthz /stats, POST /query /batch; Ctrl-C stops")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("stopped")
    return 0


def _cmd_dataset(args) -> int:
    graph = datasets.load_dataset(args.name, scale=args.scale)
    if str(args.output).endswith(".npz"):
        save_graph_npz(graph, args.output)
    else:
        write_edge_list(graph, args.output)
    print(f"wrote {args.name} stand-in {graph!r} -> {args.output}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RLC index (ICDE 2023) command line"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser("stats", help="print graph statistics")
    stats.add_argument("graph")
    stats.set_defaults(handler=_cmd_stats)

    build = commands.add_parser("build", help="build and save an RLC index")
    build.add_argument("graph")
    build.add_argument("-k", type=int, default=2, help="recursive bound (default 2)")
    build.add_argument("-o", "--output", required=True)
    build.add_argument("--strategy", choices=("eager", "lazy"), default="eager")
    build.add_argument(
        "--ordering", choices=("in-out", "degree", "random"), default="in-out"
    )
    build.add_argument("--time-budget", type=float, default=None)
    build.set_defaults(handler=_cmd_build)

    query = commands.add_parser("query", help="answer one RLC query")
    query.add_argument("index")
    query.add_argument("source", type=int)
    query.add_argument("target", type=int)
    query.add_argument("constraint", help='e.g. "(debits, credits)+"')
    query.set_defaults(handler=_cmd_query)

    workload = commands.add_parser("workload", help="generate a query workload")
    workload.add_argument("graph")
    workload.add_argument("-k", type=int, default=2)
    workload.add_argument("--true-queries", type=int, default=100)
    workload.add_argument("--false-queries", type=int, default=100)
    workload.add_argument("--seed", type=int, default=7)
    workload.add_argument("-o", "--output", required=True)
    workload.set_defaults(handler=_cmd_workload)

    run = commands.add_parser("run", help="replay a workload through an index")
    run.add_argument("index")
    run.add_argument("workload")
    run.add_argument("--batch-size", type=int, default=256)
    run.add_argument("--cache-size", type=int, default=4096)
    run.add_argument(
        "--graph", default=None,
        help="graph file backing the index (required by --witness)",
    )
    run.add_argument(
        "--witness", action="store_true",
        help="extract a witness path for every true answer (needs --graph)",
    )
    run.add_argument(
        "--json", action="store_true",
        help="emit the structured report (answers, counters, witnesses) as JSON",
    )
    run.set_defaults(handler=_cmd_run)

    engines = commands.add_parser("engines", help="list registered engines")
    engines.set_defaults(handler=_cmd_engines)

    bench = commands.add_parser(
        "bench", help="run a workload through any registered engine"
    )
    bench.add_argument("graph")
    bench.add_argument("workload")
    bench.add_argument(
        "--engine", default="rlc-index",
        help="engine spec, e.g. bibfs or rlc?k=3",
    )
    bench.add_argument(
        "-k", type=int, default=None,
        help="recursive bound (default: the workload's recorded k)",
    )
    bench.add_argument("--time-budget", type=float, default=None)
    bench.add_argument("--batch-size", type=int, default=256)
    bench.add_argument("--cache-size", type=int, default=4096)
    bench.add_argument(
        "--cache-dir", default=None,
        help="directory for the persistent result cache (warm across runs)",
    )
    bench.set_defaults(handler=_cmd_bench)

    serve = commands.add_parser(
        "serve", help="start the JSON replay server over a graph"
    )
    serve.add_argument("graph", help="graph file or dataset name")
    serve.add_argument(
        "--engine", default="rlc-index",
        help="default engine spec; requests may override per call",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="listening port (0 binds an ephemeral one)",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="directory for the persistent result cache (warm across runs)",
    )
    serve.add_argument("--batch-size", type=int, default=256)
    serve.add_argument("--cache-size", type=int, default=4096)
    serve.add_argument(
        "--quiet", action="store_true",
        help="suppress per-request access logging",
    )
    serve.set_defaults(handler=_cmd_serve)

    dataset = commands.add_parser("dataset", help="materialize a stand-in dataset")
    dataset.add_argument("name", choices=datasets.dataset_names())
    dataset.add_argument("--scale", type=float, default=1.0)
    dataset.add_argument("-o", "--output", required=True)
    dataset.set_defaults(handler=_cmd_dataset)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
