"""Command-line interface: subcommands, exit codes, and diagnostics."""

import numpy as np
import pytest

from _builders import write_empty_kernel_checkpoint
from mlfas.cli import main
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
