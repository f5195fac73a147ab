"""perfbench: the benchmark of the RLC-index reproduction.

Runs one workload against the ``repro`` package under ``src/`` and
prints every metric by name with its unit and sample count, then, as the
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  An untraced run (``--trace 0``) reports the end-to-end
metrics, a traced run (``--trace 1``) the per-layer metrics::

    python3 perfbench/run.py --workload point-cold --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --self-check

A wrong answer exits with code 1, missing program sources with code 2.
``--self-check`` runs every workload on tiny stand-ins, checks the
output format and that a flipped oracle answer and an HTTP error are
caught.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics and their units (every workload reports all).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "build_s": "s",
    "index_bytes": "bytes",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "queries_per_s": "1/s",
    "batch_p50_ms": "ms",
}

#: Per-layer metrics of the traced run and their units.
PER_LAYER = {
    "graph.generate_s": "s",
    "core.builder.build_s.ep_k2": "s",
    "core.builder.build_s.wn_k3": "s",
    "core.builder.insert_attempts": "count",
    "core.builder.inserted": "count",
    "core.builder.duplicates": "count",
    "core.builder.pruned_pr1": "count",
    "core.builder.pruned_pr2": "count",
    "core.builder.pr3_stops": "count",
    "core.builder.phase1_expansions": "count",
    "core.builder.phase2_expansions": "count",
    "core.builder.kernel_bfs_runs": "count",
    "core.builder.insert_yield": "ratio",
    "core.index.entries": "count",
    "core.index.probe_us": "us",
    "core.index.probe_calls": "count",
    "core.index.batch_us_per_query": "us",
    "engine.query_prepared_self_us": "us",
    "engine.prepare_query_calls": "count",
    "engine.query_batch_self_us_per_query": "us",
    "engine.service.run_self_us_per_query": "us",
    "engine.service.query_outcome_self_us": "us",
    "engine.service.hit_ratio": "ratio",
    "engine.service.evictions": "count",
    "api.session.query_outcome_self_us": "us",
    "api.server.query_overhead_us": "us",
    "api.server.query_solo_p50_us": "us",
    "api.server.engine_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def machine_info() -> dict:
    """The machine and program revision a result belongs to."""
    revision = None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if completed.returncode == 0:
            revision = completed.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for directory, subdirectories, files in os.walk(SRC):
        subdirectories.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
    }


def report(run, names: dict, correct: bool = True) -> None:
    """Print each metric line, then the one-line JSON result."""
    for name in names if correct else ():
        value, unit, samples = run.metrics[name]
        note = run.notes.get(name, "")
        print(f"{name:40} {value!r:>24} {unit:6} n={samples} {note}".rstrip())
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"{'error_ratio':40} {ratio!r:>24} {'ratio':6} n={run.attempted}")
    metrics = {
        name: {"value": run.metrics[name][0], "unit": names[name]}
        for name in (names if correct else ())
    }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(run.attempted, 1),
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )


def _problems(output: str, names: dict, positive: bool) -> list:
    """Format defects of one run's output (empty when it is well formed)."""
    problems = []
    result = json.loads(output.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(names):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(names))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if entry.get("unit") != names.get(name):
            problems.append(f"{name}: unit {entry.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif positive and value <= 0:
            problems.append(f"{name}: end-to-end value {value!r} is not positive")
    return problems


def self_check() -> int:
    """Run every workload on tiny stand-ins and check what it reports."""
    import workloads

    problems = []
    declared = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(declared):
        with open(declared, encoding="utf-8") as handle:
            spec = json.load(handle)
        if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
        for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            if listed != names:
                problems.append(f"BENCHMARK.json {key} differ from run.py")
    config = workloads.TINY
    for name, function in workloads.WORKLOADS.items():
        for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
            run = workloads.Run()
            output = io.StringIO()
            with contextlib.redirect_stdout(output):
                function(run, 1, 0.4, trace, config)
                report(run, names)
            found = _problems(output.getvalue(), names, positive=not trace)
            problems += [f"{name} trace={int(trace)}: {p}" for p in found]
            print(f"self-check {name} trace={int(trace)}: {'ok' if not found else found}")
        try:
            function(workloads.Run(), 1, 0.2, False, replace(config, flip_expected=True))
        except workloads.WrongAnswer:
            print(f"self-check {name}: flipped expected answer caught")
        else:
            problems.append(f"{name}: a flipped expected answer went unnoticed")
    run = workloads.Run()
    workloads.serve_mixed(run, 1, 0.2, False, replace(config, bad_request=True))
    if run.failed < 1:
        problems.append("serve-mixed: an HTTP 400 reply was not counted as failed")
    else:
        print(f"self-check serve-mixed: HTTP error counted ({run.failed} failed)")
    for problem in problems:
        print(f"self-check problem: {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("build", "point-cold", "point-hot", "serve-mixed"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    import workloads

    names = PER_LAYER if args.trace else END_TO_END
    header = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace
    )
    header.update(machine_info())
    print("# perfbench " + json.dumps(header), flush=True)
    run = workloads.Run()
    try:
        workloads.WORKLOADS[args.workload](
            run, args.seed, args.seconds, bool(args.trace), workloads.Config()
        )
    except workloads.WrongAnswer as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        report(run, names, correct=False)
        return 1
    report(run, names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
