#!/usr/bin/env python3
"""Run the benchmark several times per workload and summarise the spread.

    python3 perfbench/repeat.py --runs 10 --trace 0 --out perfbench/BASELINE.json

Each run is ``perfbench/run.py`` in its own process, one at a time, with
``--seed`` 0, 1, ... and ``run_seconds`` from BENCHMARK.json.  For every
metric the summary gives the median, the quartiles (``statistics.quantiles``
with n=4), the sample count and the quartile distance as a share of the
median; quality numbers and stream digests are listed per seed.  With
``--out`` the summary is also merged into that JSON file under the trace
mode's key.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record_line = next(line for line in lines if line.startswith("record "))
    with open(record_line.split(" ", 1)[1]) as fh:
        return json.loads(lines[-1]), json.load(fh)


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else None}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--out", help="JSON file to merge the summary into")
    ap.add_argument("extra", nargs="*", help="further arguments for run.py, after --")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    summary = {}
    for workload in args.workloads.split(","):
        values, quality, problems = {}, [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, record = run_once(workload, seed, bench["run_seconds"], args.trace,
                                      args.extra)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            quality.append({"seed": seed, **record["quality"]})
            problems += record["problems"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary[workload] = {
            "metrics": {k: summarise(v) for k, v in values.items()},
            "quality_by_seed": quality,
            "problems": problems,
            "environment": record["environment"],
            "code": record["code"],
        }
        for name, s in summary[workload]["metrics"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {name:36s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {spread}", flush=True)

    if args.out:
        merged = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                merged = json.load(fh)
        merged.setdefault(f"trace{args.trace}", {}).update(summary)
        with open(args.out, "w") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
