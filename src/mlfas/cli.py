"""Command-line front end.

Subcommands: ``generate`` builds a Poisson regression dataset, ``train``
runs an experiment config, ``eval`` scores a checkpoint on a dataset, and
``inspect-hierarchy`` reports widths/matchings of per-level checkpoints.
Exits 0 on success; known failures print a diagnostic to stderr and exit 1.
"""

import argparse
import sys

from .checkpoints import CheckpointFormatError, load_network
from .harness import (
    ConfigError,
    dataset_splits,
    inspect_hierarchy,
    parse_config,
    run_experiment,
)
from .nets import Minibatch, NetworkShapeError, loss
from .poisson import (
    DatasetFormatError,
    SolverError,
    generate_dataset,
    read_dataset,
    write_dataset,
)
from .training import DivergenceError

_KNOWN_ERRORS = (
    ConfigError,
    DatasetFormatError,
    CheckpointFormatError,
    SolverError,
    DivergenceError,
    NetworkShapeError,
    ValueError,
    OSError,
)


def _cmd_generate(args) -> int:
    ds = generate_dataset(
        count=args.count,
        n=args.grid,
        seed=args.seed,
        val_fraction=args.val_fraction,
    )
    write_dataset(ds, args.out)
    print(
        f"wrote {ds.count} samples (grid {ds.n}x{ds.n}, {ds.channels} channels, "
        f"{ds.count - ds.n_val} train / {ds.n_val} val) to {args.out}"
    )
    return 0


def _cmd_train(args) -> int:
    overrides = {}
    if args.dataset:
        overrides["dataset"] = args.dataset
    if args.out_dir:
        overrides["out_dir"] = args.out_dir
    if args.depth is not None:
        overrides["depth"] = args.depth
    if args.seeds:
        overrides["seeds"] = args.seeds
    if args.max_work_units is not None:
        overrides["max_work_units"] = args.max_work_units
    cfg = parse_config(args.config, overrides=overrides)
    if not cfg.dataset:
        raise ConfigError("no dataset given (config key 'dataset' or --dataset)")
    results = run_experiment(cfg)
    for run in results:
        status = f"FAILED ({run.reason})" if run.failed else "ok"
        print(f"seed {run.seed}: {status}")
        for level, best in sorted(run.best.items()):
            print(
                f"  level {run.label(level)}: best val l2 {best['val_l2']:.6e}, "
                f"best val linf {best['val_linf']:.6e}"
            )
    if cfg.out_dir:
        print(f"metrics written under {cfg.out_dir}")
    return 1 if all(r.failed for r in results) else 0


def _cmd_eval(args) -> int:
    net = load_network(args.checkpoint)
    ds = read_dataset(args.dataset)
    xtr, ytr, xva, yva = dataset_splits(ds)
    splits = {"train": (xtr, ytr), "val": (xva, yva),
              "all": (ds.flat_inputs(), ds.flat_outputs())}
    batch = Minibatch(*splits[args.split])
    lv = loss(net, batch)
    print(f"{args.split} l2 {lv.l2:.6e}")
    print(f"{args.split} linf {lv.linf:.6e}")
    return 0


def _cmd_inspect(args) -> int:
    print(inspect_hierarchy(args.checkpoints, theta=args.theta))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlfas",
        description="Multilevel-in-width network training: data generation, "
                    "training runs, and checkpoint inspection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a Poisson regression dataset")
    gen.add_argument("--count", type=int, required=True, help="number of samples")
    gen.add_argument("--grid", type=int, required=True, help="grid size n (n x n cells)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--val-fraction", type=float, default=0.2)
    gen.add_argument("--out", required=True, help="output dataset path")
    gen.set_defaults(func=_cmd_generate)

    train = sub.add_parser("train", help="run an experiment config")
    train.add_argument("--config", required=True, help="key=value config file")
    train.add_argument("--dataset", help="override the config's dataset path")
    train.add_argument("--out-dir", help="override the config's output directory")
    train.add_argument("--depth", type=int, help="override hierarchy depth")
    train.add_argument("--seeds", help="override seeds (comma separated)")
    train.add_argument("--max-work-units", type=float, help="override the work budget")
    train.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--split", choices=("train", "val", "all"), default="val")
    ev.set_defaults(func=_cmd_eval)

    insp = sub.add_parser("inspect-hierarchy",
                          help="report widths and matchings of level checkpoints")
    insp.add_argument("checkpoints", nargs="+", help="per-level checkpoints, fine first")
    insp.add_argument("--theta", type=float, default=0.1,
                      help="matching threshold for the aggregate report")
    insp.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _KNOWN_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
