"""Command-line interface: subcommands, exit codes, and diagnostics."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from _builders import write_empty_kernel_checkpoint
from mlfas.checkpoints import save_network
from mlfas.cli import main
from mlfas.harness import build_network
from mlfas.nets import Minibatch, loss
from mlfas.poisson import read_dataset


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ds_path = root / "data.mlfasdat"
    code = main(
        ["generate", "--count", "20", "--grid", "6", "--seed", "4",
         "--val-fraction", "0.25", "--out", str(ds_path)]
    )
    assert code == 0
    return root, ds_path


def test_generate_writes_dataset(workspace):
    _, ds_path = workspace
    ds = read_dataset(ds_path)
    assert ds.count == 20
    assert ds.n == 6
    assert ds.val_idx.size == 5


@pytest.mark.parametrize("split", ["train", "val", "all"])
def test_eval_scores_the_named_split(workspace, tmp_path, capsys, split):
    _, ds_path = workspace
    ds = read_dataset(ds_path)
    net = build_network("dense:10", ds.channels * ds.n * ds.n, ds.n * ds.n,
                        rng=np.random.default_rng(5))
    ckpt = tmp_path / "net.mlfasnet"
    save_network(net, ckpt)
    idx = {"train": ds.train_idx, "val": ds.val_idx, "all": np.arange(ds.count)}[split]
    lv = loss(net, Minibatch(ds.flat_inputs()[idx], ds.flat_outputs()[idx]))
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(ds_path),
                 "--split", split]) == 0
    assert capsys.readouterr().out == f"{split} l2 {lv.l2:.6e}\n{split} linf {lv.linf:.6e}\n"


def test_train_eval_inspect_pipeline(workspace, capsys):
    root, ds_path = workspace
    cfg = root / "exp.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"dataset = {ds_path}",
                "arch = dense:10",
                "depth = 2",
                "batch_size = 5",
                "steps_per_smooth = 2",
                "max_work_units = 30",
                "eval_every = 10",
                "seeds = 0",
                f"out_dir = {root / 'run'}",
            ]
        )
        + "\n"
    )
    assert main(["train", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "level 2:" in out and "level 2aux:" in out
    assert (root / "run" / "metrics_s0.csv").exists()
    assert (root / "run" / "summary.csv").exists()
    assert (root / "run" / "run_metadata.txt").exists()

    ckpt0 = root / "run" / "ckpt_s0_L0.mlfasnet"
    ckpt1 = root / "run" / "ckpt_s0_L1.mlfasnet"
    assert main(["eval", "--checkpoint", str(ckpt0), "--dataset", str(ds_path)]) == 0
    out = capsys.readouterr().out
    assert "val l2" in out and "val linf" in out

    assert main(["inspect-hierarchy", str(ckpt0), str(ckpt1)]) == 0
    out = capsys.readouterr().out
    assert "level 0" in out and "level 1" in out and "interface units" in out


def test_missing_dataset_is_structured_failure(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset = /nonexistent/ds.bin\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_checkpoint_is_structured_failure(tmp_path, workspace, capsys):
    _, ds_path = workspace
    bad = tmp_path / "bad.mlfasnet"
    bad.write_bytes(b"garbage!" * 8)
    assert main(["eval", "--checkpoint", str(bad), "--dataset", str(ds_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_empty_conv_kernel_checkpoint_is_structured_failure(tmp_path, workspace, capsys):
    _, ds_path = workspace
    bad = tmp_path / "bad.mlfasnet"
    write_empty_kernel_checkpoint(bad)
    assert main(["eval", "--checkpoint", str(bad), "--dataset", str(ds_path)]) == 1
    assert "kernel height axis" in capsys.readouterr().err


def test_train_seed_override(workspace, capsys):
    root, ds_path = workspace
    cfg = root / "exp2.cfg"
    cfg.write_text(
        f"dataset = {ds_path}\narch = dense:6\nbatch_size = 5\n"
        "max_work_units = 10\neval_every = 5\n"
    )
    assert main(["train", "--config", str(cfg), "--seeds", "7", "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert "seed 7: ok" in out
    assert "level 1:" in out


def test_generate_and_train_run_without_scipy(tmp_path):
    # scipy is only a test extra; the command-line path must not import it
    ds, cfg = tmp_path / "data.mlfasdat", tmp_path / "exp.cfg"
    cfg.write_text(f"dataset = {ds}\narch = dense:6\ndepth = 2\nbatch_size = 3\n"
                   "max_work_units = 6\neval_every = 3\n")
    script = textwrap.dedent(
        f"""
        import sys
        sys.modules["scipy"] = None  # any import of scipy now raises ImportError
        from mlfas.cli import main
        assert main(["generate", "--count", "12", "--grid", "4", "--seed", "1",
                     "--val-fraction", "0.25", "--out", {str(ds)!r}]) == 0
        sys.exit(main(["train", "--config", {str(cfg)!r}]))
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "seed 0: ok" in proc.stdout
