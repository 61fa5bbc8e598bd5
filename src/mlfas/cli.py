"""Command-line front end.

Subcommands: ``generate`` builds a Poisson regression dataset, ``train``
runs an experiment config or, with repeated ``--set key=value``, a grid of
settings through ``harness.run_grid``, ``eval`` scores a checkpoint on a
dataset, and ``inspect-hierarchy`` reports widths/matchings of per-level
checkpoints.  Exits 0 on success; known failures print a diagnostic to
stderr and exit 1.
"""

import argparse
import sys

from .checkpoints import load_network
from .harness import (
    ConfigError,
    dataset_splits,
    inspect_hierarchy,
    median_best_val_l2,
    parse_grid,
    run_grid,
    varied_keys,
)
from .nets import loss, lower_input
from .poisson import (
    SolverError,
    generate_dataset,
    read_dataset,
    write_dataset,
)
from .training import DivergenceError, Hierarchy

# the format, config and shape errors are ValueErrors
_KNOWN_ERRORS = (ValueError, OSError, SolverError, DivergenceError)


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
    settings = parse_grid(args.config, args.set)
    if not all(cfg.dataset for cfg in settings):
        raise ConfigError("no dataset given (config key 'dataset' or --set dataset=<path>)")
    results = run_grid(settings)
    keys = varied_keys(settings)
    names = [", ".join(f"{k} = {getattr(cfg, k)}" for k in keys) for cfg in settings]
    for name, runs in zip(names, results):
        if keys:
            print(f"setting {name}:")
        for run in runs:
            status = f"FAILED ({run.reason})" if run.failed else "ok"
            print(f"seed {run.seed}: {status}")
            for level, best in sorted(run.best.items()):
                print(
                    f"  level {run.label(level)}: best val l2 {best['val_l2']:.6e}, "
                    f"best val linf {best['val_linf']:.6e}"
                )
    print("median best val l2 of the fine network (a failed run counts as inf):")
    for i, (name, runs) in enumerate(zip(names, results)):
        print(f"  setting {i}{f' ({name})' if name else ''}: {median_best_val_l2(runs):.6e}")
    if settings[0].out_dir:
        print(f"metrics written under {settings[0].out_dir}")
    return 1 if all(r.failed for runs in results for r in runs) else 0


def _cmd_eval(args) -> int:
    net = load_network(args.checkpoint)
    ds = read_dataset(args.dataset)
    xtr, ytr, xva, yva = dataset_splits(ds)
    splits = {"train": (xtr, ytr), "val": (xva, yva),
              "all": (ds.flat_inputs(), ds.flat_outputs())}
    x, y = splits[args.split]
    # the split is lowered once, as ``run_seed`` lowers the splits it logs
    lv = loss(net, lower_input(net, x, y))
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

    train = sub.add_parser("train", help="run an experiment config or a grid of settings")
    train.add_argument("--config", required=True, help="key=value config file")
    train.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key; a key set k times is a grid axis "
                            "of k values (seeds, workers and out_dir only once)")
    train.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--split", choices=("train", "val", "all"), default="val")
    ev.set_defaults(func=_cmd_eval)

    insp = sub.add_parser("inspect-hierarchy",
                          help="report widths and matchings of level checkpoints")
    insp.add_argument("checkpoints", nargs="+", help="per-level checkpoints, fine first")
    insp.add_argument("--theta", type=float, default=Hierarchy.theta,
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
