#!/usr/bin/env python3
"""Sweep the per-level learning-rate division factor eta on a 4-level run.

Trains one deep hierarchy per eta value and reports the best validation
losses of the fine and first auxiliary networks, flagging any runs stopped
by the divergence guard.
"""

import argparse
import math
import os
import sys

from mlfas.harness import ExperimentConfig, run_experiment
from mlfas.poisson import generate_dataset, write_dataset

ETAS = {"1": 1.0, "sqrt2": math.sqrt(2.0), "2": 2.0, "2sqrt2": 2.0 * math.sqrt(2.0), "4": 4.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="", help="existing dataset (generated if absent)")
    ap.add_argument("--count", type=int, default=600)
    ap.add_argument("--grid", type=int, default=12)
    ap.add_argument("--data-seed", type=int, default=7)
    ap.add_argument("--arch", default="dense:64,dense:64")
    ap.add_argument("--depth", type=int, default=4)
    ap.add_argument("--seeds", default="0")
    ap.add_argument("--budget", type=float, default=800.0)
    ap.add_argument("--learning-rate", type=float, default=0.001)
    ap.add_argument("--out-dir", default="eta_sweep_out")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    dataset = args.dataset
    if not dataset:
        dataset = os.path.join(
            args.out_dir, f"poisson_{args.count}_n{args.grid}_s{args.data_seed}.mlfasdat"
        )
        if not os.path.exists(dataset):
            print(f"generating {args.count} samples at n={args.grid} ...")
            write_dataset(
                generate_dataset(args.count, args.grid, seed=args.data_seed), dataset
            )

    seeds = tuple(int(s) for s in args.seeds.split(","))
    print(f"{'eta':>8} {'seed':>5} {'fine val L2':>13} {'fine val Linf':>14} "
          f"{'aux val L2':>13} {'aux val Linf':>14}  status")
    for name, eta in ETAS.items():
        cfg = ExperimentConfig(
            dataset=dataset,
            arch=args.arch,
            depth=args.depth,
            learning_rate=args.learning_rate,
            eta=eta,
            max_work_units=args.budget,
            seeds=seeds,
            out_dir=os.path.join(args.out_dir, f"eta_{name}"),
        )
        for run in run_experiment(cfg):
            if run.failed:
                print(f"{name:>8} {run.seed:>5} {'-':>13} {'-':>14} {'-':>13} {'-':>14}  "
                      f"diverged: {run.reason}")
                continue
            fine, aux = run.best[0], run.best[1]
            print(f"{name:>8} {run.seed:>5} {fine['val_l2']:>13.4e} "
                  f"{fine['val_linf']:>14.4e} {aux['val_l2']:>13.4e} "
                  f"{aux['val_linf']:>14.4e}  ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
