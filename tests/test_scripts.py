"""Smoke runs of the command-line scripts under ``scripts/`` at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

from mlfas.poisson import read_dataset

ROOT = Path(__file__).resolve().parents[1]
SMALL = ["--count", "260", "--grid", "6", "--budget", "30"]


def run_script(name, tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *SMALL, *args,
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_poisson_benchmark_prints_the_ratios(tmp_path):
    out = run_script("run_poisson_benchmark.py", tmp_path)
    assert "multilevel/SGD ratios: val L2 " in out


def test_eta_sweep_prints_one_row_per_eta(tmp_path):
    out = run_script("run_eta_sweep.py", tmp_path, "--arch", "dense:16,dense:16")
    # rows read "<eta> <seed> ...", and the sweep runs seed 0 only
    etas = [line.split()[0] for line in out.splitlines() if line.split()[1:2] == ["0"]]
    assert etas == ["1", "sqrt2", "2", "2sqrt2", "4"]


def test_dataset_cache_is_kept_per_data_seed(tmp_path):
    # a rerun with another seed once trained on the first seed's cached data
    for seed in (3, 4):
        run_script("run_poisson_benchmark.py", tmp_path, "--seeds", "0", "--data-seed", str(seed))
    for seed in (3, 4):
        assert read_dataset(tmp_path / "out" / f"poisson_260_n6_s{seed}.mlfasdat").seed == seed
