"""Regenerate every paper artifact in one run.

Writes one aligned-text file per table/figure into ``--out`` (default
``experiments_output/``) and echoes everything to stdout.

The heavy five datasets (WH, PR, SO, LJ, WF) appear at full stand-in
scale in Table IV and at 0.3x in Fig. 3 (their query-time rows are
shape-identical; the reduced scale keeps the full run under an hour).
"""

from __future__ import annotations

import argparse
import pathlib
import time

from repro.bench import experiments

FAST = ("AD", "EP", "TW", "WN", "WS", "WG", "WT", "WB")
HEAVY = ("WH", "PR", "SO", "LJ", "WF")


def build_artifacts(args):
    nq = args.queries
    return [
        ("table3", lambda: experiments.experiment_table3(scale=args.scale)),
        (
            "table4",
            lambda: experiments.experiment_table4(
                scale=args.scale, etc_time_budget=args.etc_budget
            ),
        ),
        (
            "fig3_fast",
            lambda: experiments.experiment_fig3(
                names=FAST, scale=args.scale, num_queries=nq, time_cap=args.time_cap
            ),
        ),
        (
            "fig3_heavy",
            lambda: experiments.experiment_fig3(
                names=HEAVY,
                scale=0.3 * args.scale,
                num_queries=nq,
                time_cap=args.time_cap,
            ),
        ),
        (
            "fig4",
            lambda: experiments.experiment_fig4(
                names=("TW", "WG"), ks=(2, 3, 4), scale=args.scale, num_queries=nq
            ),
        ),
        (
            "fig5",
            lambda: experiments.experiment_fig5(
                num_vertices=args.fig5_vertices, num_queries=min(nq, 100)
            ),
        ),
        (
            "fig6",
            lambda: experiments.experiment_fig6(
                sizes=(500, 1000, 2000, 4000, 8000), num_queries=min(nq, 100)
            ),
        ),
        (
            "table5",
            lambda: experiments.experiment_table5(
                scale=args.scale, repeats=args.repeats, time_cap=args.time_cap
            ),
        ),
        (
            "fig7",
            lambda: experiments.experiment_fig7(
                num_vertices=1000, ks=(2, 3, 4), num_queries=min(nq, 100)
            ),
        ),
        (
            "ablation_pruning",
            lambda: experiments.experiment_ablation_pruning(scale=args.scale),
        ),
        (
            "ablation_strategies",
            lambda: experiments.experiment_ablation_strategies(scale=args.scale),
        ),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="experiments_output")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--queries", type=int, default=300)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--etc-budget", type=float, default=60.0)
    parser.add_argument("--time-cap", type=float, default=30.0)
    parser.add_argument("--fig5-vertices", type=int, default=1000)
    parser.add_argument(
        "--only", nargs="*", default=None, help="subset of artifact names"
    )
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    for name, runner in build_artifacts(args):
        if args.only and name not in args.only:
            continue
        started = time.perf_counter()
        print(f"[{time.strftime('%H:%M:%S')}] running {name} ...", flush=True)
        table = runner()
        elapsed = time.perf_counter() - started
        text = table.render() + f"\n(generated in {elapsed:.1f}s)\n"
        (out_dir / f"{name}.txt").write_text(text)
        print(text, flush=True)


if __name__ == "__main__":
    main()
