#!/usr/bin/env python3
"""mlfas benchmark: one workload through the public user path.

    python3 perfbench/run.py --workload sgd-dense --seed 0 --seconds 12 --trace 0

Each process runs one workload from perfbench/workloads.json.  Set-up is
``poisson.generate_dataset`` -> ``write_dataset``/``read_dataset`` -> network
init and first matching, done ``SETUP_REPS`` times between the training
runs.  Training runs are whole ``harness.run_experiment`` calls (one seed,
``workers = 1``, fixed work-unit budget), repeated as a closed loop of one
caller until ``--seconds`` of training are used up, to within half a run,
and at least ``MIN_RUNS`` runs are done.
Every run's outputs are checked.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` does one untimed warm-up run, then alternates
untraced and traced runs and prints the per-layer metrics.  The last stdout
line is the JSON result; details go to ``.perfbench_out/`` in the checkout.
See perfbench/README.md.
"""

import os

# BLAS reads these once, when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import glob
import hashlib
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import astuple, replace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# untraced training runs per process, so throughput is a median
MIN_RUNS = 2
# traced mode: untraced/traced pairs after one untimed warm-up run, so the
# overhead is a median of per-pair ratios and each side runs first at least once
MIN_PAIRS = 3
# set-ups per untraced process; setup_s is their median
SETUP_REPS = 3
# shared absolute val-L2 target for time_to_target_s, about 0.75 of the
# constant predictor's val L2 on the n = 16 data; the conv data has no target
TARGET_VAL_L2 = {"sgd-dense": 2.5, "fas-dense-d3": 2.5}


def import_package():
    """Import mlfas from this checkout's src/, or exit non-zero without a result."""
    sys.path.insert(0, SRC)
    try:
        import mlfas
    except ImportError as e:
        sys.exit(f"perfbench: cannot import mlfas from {SRC}: {e}")
    if not os.path.abspath(mlfas.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: mlfas was imported from {mlfas.__file__}, not {SRC}")


def parse_args(names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=0,
                    help="offset added to the workload's data and training seeds")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--data-seed", type=int, help="override the dataset seed")
    ap.add_argument("--train-seed", type=int, help="override the training seed")
    ap.add_argument("--heldout", action="store_true",
                    help="use the held-out seed pair instead of the workload's defaults")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny data and budget, one set-up, one pair: for the self-test only")
    return ap.parse_args()


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "mlfas", "*.py"))):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def stream_digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()[:16]


def set_up(wl, data_seed, train_seed, workdir, tracer):
    """Generate, round-trip and load the data, build the net and first matching.

    Mirrors what ``run_experiment`` does before its first V-cycle.  Returns
    (seconds, dataset, problems).
    """
    from mlfas.harness import build_network
    from mlfas.poisson import generate_dataset, read_dataset, write_dataset
    from mlfas.training import Hierarchy

    path = os.path.join(workdir, "data.mlfasdat")
    t0 = time.perf_counter()
    if tracer:
        generate_dataset = tracer.wrap("poisson.generate_dataset", generate_dataset)
    generated = generate_dataset(wl["count"], wl["grid"], seed=data_seed,
                                 val_fraction=wl["val_fraction"])
    write_dataset(generated, path)
    ds = read_dataset(path)
    conv_first = wl["arch"].startswith("conv")
    shape = (ds.channels, ds.n, ds.n) if conv_first else ds.channels * ds.n * ds.n
    net = build_network(wl["arch"], shape, ds.n * ds.n,
                        rng=np.random.default_rng([train_seed, 202]))
    Hierarchy.build(net, wl["depth"], rematch_period=wl["rematch_period"],
                    tau_batches=wl["tau_batches"])
    seconds = time.perf_counter() - t0
    problems = []
    if not (np.array_equal(ds.inputs, generated.inputs)
            and np.array_equal(ds.outputs, generated.outputs)
            and np.array_equal(ds.val_idx, generated.val_idx)):
        problems.append("dataset changed in the write/read round trip")
    return seconds, ds, problems


def constant_predictor_l2(ds) -> float:
    """Validation L2 of predicting the training-target mean everywhere."""
    from mlfas.harness import dataset_splits

    _, ytr, _, yva = dataset_splits(ds)
    err = yva - ytr.mean(axis=0)
    return float(np.mean(np.sum(err * err, axis=1)))


def train(cfg, ds, run_experiment, target_l2):
    """One training run plus its output checks and derived numbers."""
    from mlfas.harness import load_metrics_csv

    t0 = time.perf_counter()
    [res] = run_experiment(cfg, ds)
    wall = time.perf_counter() - t0
    fine = [r for r in res.records if r.level == 0]
    problems = []
    if res.failed:
        problems.append(f"DivergenceError: {res.reason}")
    if not all(math.isfinite(v) for r in res.records for v in astuple(r)):
        problems.append("non-finite value in the metric stream")
    expected = int(cfg.max_work_units // cfg.eval_every) + 1
    if len(fine) < expected or not fine or fine[-1].work_units < cfg.max_work_units:
        problems.append(f"metric stream has {len(fine)} fine records, the budget implies "
                        f">= {expected} ending at >= {cfg.max_work_units} wu")
    csv_path = os.path.join(cfg.out_dir, f"metrics_s{res.seed}.csv")
    if not os.path.exists(csv_path) or load_metrics_csv(csv_path) != res.records:
        problems.append("metrics CSV does not match the returned records")
    # the final evaluation repeats the last in-loop one when the budget lands on it
    points = [r for i, r in enumerate(fine) if i == 0 or r.cycle != fine[i - 1].cycle]
    hit = next((r for r in fine if target_l2 is not None and r.val_l2 <= target_l2), None)
    val = [r.val_l2 for r in fine]
    return {
        "wall_s": wall,
        "wu": fine[-1].work_units if fine else 0.0,
        "intervals": [b.wall_s - a.wall_s for a, b in zip(points, points[1:])],
        "digest": stream_digest(val),
        "best_val_l2": min(val) if val else math.nan,
        "final_val_l2": val[-1] if val else math.nan,
        "time_to_target_s": hit.wall_s if hit else None,
        "problems": problems,
    }


def check_digest(key: str, digest: str) -> str | None:
    """Compare with earlier processes of the same code, workload and seeds."""
    path = os.path.join(OUT, "digests.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as fh:
            seen = json.load(fh)
    if key in seen and seen[key] != digest:
        return f"val-L2 stream digest {digest} differs from {seen[key]} of an earlier run"
    seen[key] = digest
    with open(path, "w") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    return None


def main() -> int:
    import_package()
    from mlfas.harness import ExperimentConfig, run_experiment

    sys.path.insert(0, HERE)
    from tracer import tail_percentile

    with open(os.path.join(HERE, "workloads.json")) as fh:
        spec = json.load(fh)
    args = parse_args(sorted(spec["workloads"]))
    wl = {**spec["common"], **spec["workloads"][args.workload]}
    if args.smoke:
        wl.update(spec["smoke"])
    base = spec["heldout"] if args.heldout else wl
    data_seed = args.data_seed if args.data_seed is not None else base["data_seed"] + args.seed
    train_seed = args.train_seed if args.train_seed is not None else base["train_seed"] + args.seed
    env = environment()
    setup_reps = 1 if args.smoke else SETUP_REPS
    min_pairs = 1 if args.smoke else MIN_PAIRS
    target_l2 = TARGET_VAL_L2.get(args.workload)

    tracer = None
    if args.trace:
        from tracer import Tracer, per_layer_metrics

        tracer = Tracer()

    os.makedirs(OUT, exist_ok=True)
    problems = []
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        setup_times = []

        def do_setup():
            seconds, fresh, bad = set_up(wl, data_seed, train_seed, work, tracer)
            setup_times.append(seconds)
            problems.extend(bad)
            if setup_times[1:] and not np.array_equal(fresh.outputs, ds.outputs):
                problems.append("a repeated set-up generated different data")
            return fresh

        if tracer:
            tracer.install()
        try:
            ds = do_setup()
        finally:
            if tracer:
                tracer.uninstall()

        const_l2 = constant_predictor_l2(ds)
        cfg = ExperimentConfig(
            dataset=os.path.join(work, "data.mlfasdat"),
            arch=wl["arch"], depth=wl["depth"], learning_rate=wl["learning_rate"],
            batch_size=wl["batch_size"], steps_per_smooth=wl["steps_per_smooth"],
            tau_batches=wl["tau_batches"], rematch_period=wl["rematch_period"],
            eval_every=wl["eval_every"], max_work_units=wl["budget_wu"],
            seeds=(train_seed,), workers=1,
        )

        def run_plain(i):
            plain.append(train(replace(cfg, out_dir=os.path.join(work, f"run{i}")),
                               ds, run_experiment, target_l2))

        def run_traced(i):
            labels.append(f"run{i}")
            tracer.run = labels[-1]
            tracer.install()
            try:
                traced.append(train(
                    replace(cfg, out_dir=os.path.join(work, f"traced{i}")), ds,
                    tracer.wrap("harness.run_experiment", run_experiment), target_l2))
            finally:
                tracer.uninstall()

        plain, traced, labels = [], [], []
        warmup = []
        if tracer:
            # keeps any first-run cost of the process (lazy set-up, heap growth) out of the pairs
            warmup.append(train(replace(cfg, out_dir=os.path.join(work, "warmup")),
                                ds, run_experiment, target_l2))
        while True:
            i = len(plain)
            # traced mode alternates which side of the pair runs first
            order = (run_plain, run_traced) if i % 2 == 0 else (run_traced, run_plain)
            for step in order if tracer else (run_plain,):
                step(i)
            if any(r["problems"] for r in warmup + plain + traced):
                break
            # host speed drifts in phases of seconds, so the set-ups are spread
            # between the training runs instead of timed back to back
            if not tracer and len(setup_times) < setup_reps:
                do_setup()
            # stop when another round would end more than half a round past the window
            spent = sum(r["wall_s"] for r in plain + traced)
            enough = len(plain) >= (min_pairs if tracer else MIN_RUNS)
            if enough and spent * (1 + 0.5 / len(plain)) >= args.seconds:
                break
        while not tracer and len(setup_times) < setup_reps:
            do_setup()

    runs = warmup + plain + traced
    for r in runs:
        problems += r["problems"]
    failed = sum(1 for r in runs if r["problems"])
    digests = sorted({r["digest"] for r in runs})
    if len(digests) > 1:
        problems.append(f"runs of the same code and seed disagree: digests {digests}")
    spec_hash = hashlib.sha256(json.dumps(wl, sort_keys=True).encode()).hexdigest()[:16]
    key = f"{args.workload}|{data_seed}|{train_seed}|{spec_hash}|{code_hash()}"
    clash = check_digest(key, plain[0]["digest"])
    if clash:
        problems.append(clash)

    first = plain[0]
    reached = first["time_to_target_s"] is not None
    if target_l2 is None:
        to_target = 0.0  # no target on this workload: reads 0, like a bypassed layer
    elif reached:
        to_target = first["time_to_target_s"]
    else:
        to_target = first["wall_s"]  # censored at the run's training time
    quality = {
        "best_val_l2": first["best_val_l2"],
        "final_val_l2_rel": first["final_val_l2"] / const_l2,
        "constant_predictor_val_l2": const_l2,
        "target_val_l2": target_l2,
        "time_to_target_s": to_target,
        "target_reached": reached,
        "failed_share": failed / len(runs),
        "digest": first["digest"],
    }
    intervals = [d for r in plain for d in r["intervals"]]
    tail_pct = tail_percentile(len(intervals))
    interval_note = f"p{tail_pct:g} of {len(intervals)} intervals"
    if args.trace:
        metrics, notes = per_layer_metrics(tracer, labels, [r["wu"] for r in traced])
        metrics["trace.overhead"] = statistics.median(
            t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced))
        notes["trace.overhead"] = f"median of {len(traced)} per-pair ratios"
        # the pair ratio carries the run-to-run noise of whole runs; the
        # tracer's own bookkeeping time is its cost without that noise
        metrics["trace.bookkeeping_share"] = statistics.median(
            tracer.cost[label] / r["wall_s"] for r, label in zip(traced, labels))
        metrics["harness.best_val_l2"] = quality["best_val_l2"]
        metrics["harness.final_val_l2_rel"] = quality["final_val_l2_rel"]
        metrics["harness.time_to_target_s"] = quality["time_to_target_s"]
        metrics["harness.target_reached"] = float(reached)
        metrics["harness.interval_s.p50"] = statistics.median(intervals)
        metrics["harness.interval_s.tail"] = float(np.percentile(intervals, tail_pct))
        notes["harness.interval_s.tail"] = interval_note
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "train_wu_per_s": statistics.median(r["wu"] / r["wall_s"] for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {"setup_s": f"median of {len(setup_times)} set-ups",
                 "intervals": interval_note}
    env["loadavg_end"] = os.getloadavg()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload, "data_seed": data_seed, "train_seed": train_seed,
        "heldout": args.heldout, "smoke": args.smoke, "trace": args.trace,
        "seconds": args.seconds, "budget_wu": wl["budget_wu"], "code": code_hash(),
        "environment": env, "setup_times": setup_times,
        "warmup_walls": [r["wall_s"] for r in warmup],
        "train_walls": [r["wall_s"] for r in plain],
        "traced_walls": [r["wall_s"] for r in traced],
        "intervals": [r["intervals"] for r in plain],
        "quality": quality, "notes": notes, "problems": problems, "result": result,
    }
    stamp = f"{args.workload}-d{data_seed}-t{train_seed}-trace{args.trace}-{time.time_ns()}"
    if tracer:
        record["spans"] = os.path.join(OUT, f"spans-{stamp}.csv")
        tracer.write(record["spans"])
    record_path = os.path.join(OUT, f"result-{stamp}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    for p in problems:
        print(f"problem: {p}")
    print(f"workload {args.workload}: data seed {data_seed}, train seed {train_seed}, "
          f"{len(runs)} runs of {wl['budget_wu']:g} wu, {failed} failed")
    for k, v in quality.items():
        print(f"  {k} = {v}")
    for k, v in notes.items():
        print(f"  note {k}: {v}")
    print(f"record {record_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
