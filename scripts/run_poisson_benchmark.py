#!/usr/bin/env python3
"""One-level SGD vs two-level V-cycle training on Poisson regression data.

Generates (or reuses) a dataset, trains both methods over several seeds at
an equal work-unit budget, writes per-run metrics CSVs and a summary table,
and prints the per-method medians of the best validation losses.
"""

import argparse
import os
import statistics
import sys

from mlfas.harness import ExperimentConfig, run_experiment
from mlfas.poisson import generate_dataset, write_dataset


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="", help="existing dataset (generated if absent)")
    ap.add_argument("--count", type=int, default=2000)
    ap.add_argument("--grid", type=int, default=16)
    ap.add_argument("--data-seed", type=int, default=20260810)
    ap.add_argument("--arch", default="dense:128,dense:128")
    ap.add_argument("--seeds", default="0,1,2,3,4")
    ap.add_argument("--budget", type=float, default=5000.0)
    ap.add_argument("--learning-rate", type=float, default=0.001)
    ap.add_argument("--depth", type=int, default=2, help="hierarchy depth of the multilevel run")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out-dir", default="benchmark_out")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    dataset = args.dataset
    if not dataset:
        dataset = os.path.join(args.out_dir, f"poisson_{args.count}_n{args.grid}.mlfasdat")
        if not os.path.exists(dataset):
            print(f"generating {args.count} samples at n={args.grid} ...")
            write_dataset(
                generate_dataset(args.count, args.grid, seed=args.data_seed), dataset
            )

    seeds = tuple(int(s) for s in args.seeds.split(","))
    base = dict(
        dataset=dataset,
        arch=args.arch,
        learning_rate=args.learning_rate,
        max_work_units=args.budget,
        seeds=seeds,
        workers=args.workers,
    )
    all_runs = {}
    for depth in (1, args.depth):
        cfg = ExperimentConfig(**base, depth=depth,
                               out_dir=os.path.join(args.out_dir, f"depth{depth}"))
        print(f"training depth {depth} over seeds {seeds} ...")
        all_runs[depth] = run_experiment(cfg)

    print(f"\n{'method':>10} {'median val L2':>14} {'median val Linf':>16}  (best per run)")
    medians = {}
    for depth, runs in all_runs.items():
        ok = [r for r in runs if not r.failed]
        for level in sorted({lv for r in ok for lv in r.best}):
            l2 = statistics.median(r.best[level]["val_l2"] for r in ok if level in r.best)
            linf = statistics.median(r.best[level]["val_linf"] for r in ok if level in r.best)
            label = ok[0].label(level)
            medians[label] = (l2, linf)
            print(f"{label:>10} {l2:>14.6e} {linf:>16.6e}")
        if len(ok) < len(runs):
            print(f"  ({len(runs) - len(ok)} of {len(runs)} depth-{depth} runs diverged)")
    if "1" in medians and str(args.depth) in medians:
        l2r = medians[str(args.depth)][0] / medians["1"][0]
        linfr = medians[str(args.depth)][1] / medians["1"][1]
        print(f"\nmultilevel/SGD ratios: val L2 {l2r:.3f}, val Linf {linfr:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
