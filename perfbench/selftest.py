#!/usr/bin/env python3
"""Fast self-test of the benchmark itself (under a minute).

    python3 perfbench/selftest.py

Runs ``run.py --smoke`` (400 samples, 100 work units, one set-up, one
traced pair) on every workload in both trace modes and checks that:

- the last stdout line holds exactly the result keys, with ``correct`` true
  and no failed run;
- every metric BENCHMARK.json declares for the mode is emitted, with its
  declared unit and nothing else, and README.md documents it with the same
  unit and direction;
- per-layer counts are zero where the workload bypasses a layer and nonzero
  where it uses it (transfers, coarsening and tau on the multilevel
  workloads only, conv only on fas-conv-d2, a third level only at depth 3,
  and no time-to-target on fas-conv-d2, which has no target);
- counted quantities repeat exactly between two traced runs;
- the command fails, without a result, in a directory holding only
  BENCHMARK.json and perfbench/.

Exits 1 and lists every failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT = ("poisson.cg_matvecs", "training.wu.L0", "training.wu.L1", "training.wu.L2",
         "nets.flatten.calls", "nets.param_layout.calls", "coarsening.greedy_hem.calls",
         "harness.best_val_l2", "harness.final_val_l2_rel")
MULTILEVEL_ONLY = ("transfer.", "coarsening.", "training.compute_tau.s",
                   "training.wu.L1", "nets.backward.ms.L1", "training.cost_per_wu.L1")
NO_TARGET = ("harness.time_to_target_s", "harness.target_reached")
THIRD_LEVEL = ("training.wu.L2", "nets.backward.ms.L2", "training.sgd_smooth.s.L2",
               "training.cost_per_wu.L2")


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def documented(readme):
    """Metric name -> (unit, direction) from the README's metric tables."""
    rows = {}
    for line in readme.splitlines():
        m = re.match(r"\|\s*`([^`]+)`\s*\|\s*([^|]+?)\s*\|\s*(lower|higher)\s*\|", line)
        if m:
            rows[m.group(1)] = (m.group(2), m.group(3))
    return rows


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "README.md")) as fh:
        docs = documented(fh.read())
    errors = []
    declared = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for trace, metrics in declared.items():
        for m in metrics:
            if docs.get(m["name"]) != (m["unit"], m["better"]):
                errors.append(f"README.md does not document {m['name']} as "
                              f"({m['unit']}, {m['better']}): {docs.get(m['name'])}")

    traced = {}
    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(w, trace)
            where = f"{w} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} failed={result['failed']}"
                              f" attempted={result['attempted']}\n{proc.stdout}")
            want = {m["name"]: m["unit"] for m in declared[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                              f"missing {sorted(set(want) - set(got))}, "
                              f"extra {sorted(set(got) - set(want))}, "
                              f"units {[k for k in want if k in got and got[k] != want[k]]}")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    errors.append(f"{where}: {k} is not a number")
            if trace:
                traced[w] = {k: v["value"] for k, v in result["metrics"].items()}

    def expect(workload, prefixes, used):
        vals = traced.get(workload, {})
        for name, value in vals.items():
            if name.startswith(prefixes) and (value > 0) != used:
                errors.append(f"{workload}: {name} = {value}, expected "
                              f"{'nonzero' if used else 'zero'}")

    if traced:
        expect("sgd-dense", MULTILEVEL_ONLY + THIRD_LEVEL + ("conv.",), False)
        expect("fas-dense-d3", MULTILEVEL_ONLY + THIRD_LEVEL, True)
        expect("fas-dense-d3", ("conv.",), False)
        expect("fas-conv-d2", MULTILEVEL_ONLY + ("conv.",), True)
        expect("fas-conv-d2", THIRD_LEVEL + NO_TARGET, False)

    again = run("fas-dense-d3", 1)
    if again.returncode == 0 and "fas-dense-d3" in traced:
        second = {k: v["value"] for k, v in
                  json.loads(again.stdout.strip().splitlines()[-1])["metrics"].items()}
        for k in EXACT:
            if second[k] != traced["fas-dense-d3"][k]:
                errors.append(f"fas-dense-d3: {k} did not repeat: "
                              f"{traced['fas-dense-d3'][k]} then {second[k]}")
    else:
        errors.append(f"second traced fas-dense-d3 run failed: {again.stderr[-500:]}")

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench_out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("sgd-dense", 0, cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append("run.py succeeded without the program's sources")

    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "failed" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
