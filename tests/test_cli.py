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
from mlfas.harness import build_network, load_metrics_csv
from mlfas.nets import loss, lower_input
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
    lv = loss(net, lower_input(net, ds.flat_inputs()[idx], ds.flat_outputs()[idx]))
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


@pytest.mark.parametrize("arch", ["dense:10", "conv:4k3s2p1,dense:9"])
def test_eval_of_the_final_checkpoint_prints_the_last_logged_losses(workspace, tmp_path,
                                                                     capsys, arch):
    # ties the eval command's splits, and its lowering of them, to the ones
    # training logged on; the conv net folds the (3, 6, 6) inputs channel-wise
    _, ds_path = workspace
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"dataset = {ds_path}\narch = {arch}\ndepth = 2\nbatch_size = 5\n"
                   f"max_work_units = 20\neval_every = 10\nout_dir = {tmp_path / 'run'}\n")
    assert main(["train", "--config", str(cfg)]) == 0
    last = [r for r in load_metrics_csv(tmp_path / "run" / "metrics_s0.csv") if r.level == 0][-1]
    capsys.readouterr()
    for split in ("train", "val"):
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "ckpt_s0_L0.mlfasnet"),
                     "--dataset", str(ds_path), "--split", split]) == 0
        l2, linf = getattr(last, f"{split}_l2"), getattr(last, f"{split}_linf")
        assert capsys.readouterr().out == f"{split} l2 {l2:.6e}\n{split} linf {linf:.6e}\n"


def test_missing_dataset_is_structured_failure(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset = /nonexistent/ds.bin\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_key_set_twice_is_structured_failure(tmp_path, workspace, capsys):
    _, ds_path = workspace
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"dataset = {ds_path}\ndepth = 1\ndepth = 2\nout_dir = {tmp_path / 'run'}\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:3: depth is already set on line 2\n"
    assert not (tmp_path / "run").exists()


# 2^63 once generated all the data and died in write_dataset on the header
@pytest.mark.parametrize("seed", ["-1", str(2**63)])
def test_generate_seed_out_of_range_is_structured_failure(tmp_path, capsys, seed):
    out = tmp_path / "data.mlfasdat"
    assert main(["generate", "--count", "4", "--grid", "4", "--seed", seed,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: seed {seed} is outside [0, 2**63)\n"
    assert not out.exists()


# 0 once ended in a ZeroDivisionError traceback, -2 in numpy's own message
@pytest.mark.parametrize("grid", ["0", "-2"])
def test_generate_grid_below_one_is_structured_failure(tmp_path, capsys, grid):
    out = tmp_path / "data.mlfasdat"
    assert main(["generate", "--count", "4", "--grid", grid, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: grid size n must be >= 1, got {grid}\n"
    assert not out.exists()


# a deeper net's hidden interface was once compared with the other's output
def test_inspect_of_two_hierarchies_is_structured_failure(tmp_path, capsys):
    paths = []
    for arch in ("dense:16,dense:8", "dense:16"):
        paths.append(str(tmp_path / f"{len(paths)}.mlfasnet"))
        save_network(build_network(arch, 12, 3, rng=np.random.default_rng(1)), paths[-1])
    assert main(["inspect-hierarchy", *paths]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {paths[0]} and {paths[1]} are not levels of one "
                            "hierarchy: layer count 3 against 2\n")


def test_bad_checkpoint_is_structured_failure(tmp_path, workspace, capsys):
    _, ds_path = workspace
    bad = tmp_path / "bad.mlfasnet"
    bad.write_bytes(b"garbage!" * 8)
    assert main(["eval", "--checkpoint", str(bad), "--dataset", str(ds_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_eval_on_another_grid_is_structured_failure(tmp_path, workspace, capsys):
    # a checkpoint of grid-6 inputs (3 * 36 features) against grid-8 data (3 * 64)
    _, ds_path = workspace
    ckpt = tmp_path / "net.mlfasnet"
    save_network(build_network("dense:10", 108, 36, rng=np.random.default_rng(5)), ckpt)
    other = tmp_path / "grid8.mlfasdat"
    assert main(["generate", "--count", "6", "--grid", "8", "--out", str(other)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(other)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: input size 192 does not match network input 108\n"
    assert captured.out == ""


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
    assert main(["train", "--config", str(cfg), "--set", "seeds=7", "--set", "depth=1"]) == 0
    out = capsys.readouterr().out
    assert "seed 7: ok" in out
    assert "level 1:" in out
    assert "  setting 0: " in out  # the median table of one setting


def test_train_grid_prints_each_settings_median(workspace, tmp_path, capsys):
    _, ds_path = workspace
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"dataset = {ds_path}\narch = dense:6\nbatch_size = 5\n"
                   f"max_work_units = 10\neval_every = 5\nout_dir = {tmp_path / 'grid'}\n")
    assert main(["train", "--config", str(cfg), "--set", "depth=1", "--set", "depth=2",
                 "--set", "seeds=0,1"]) == 0
    out = capsys.readouterr().out
    assert "setting depth = 1:" in out and "setting depth = 2:" in out
    medians = [line for line in out.splitlines() if line.startswith("  setting ")]
    assert [line.split(":")[0] for line in medians] == ["  setting 0 (depth = 1)",
                                                         "  setting 1 (depth = 2)"]
    assert sorted(os.listdir(tmp_path / "grid")) == ["grid.csv", "setting0", "setting1"]


@pytest.mark.parametrize("args, message", [
    (["--set", "seeds=0", "--set", "seeds=1"], "error: seeds may be set only once\n"),
    (["--set", "no_such_knob=1"], "error: unknown config key 'no_such_knob'\n"),
    (["--set", "depth"], "error: expected key=value, got 'depth'\n"),
])
def test_bad_set_is_structured_failure(workspace, capsys, args, message):
    root, ds_path = workspace
    cfg = root / "exp3.cfg"
    cfg.write_text(f"dataset = {ds_path}\n")
    assert main(["train", "--config", str(cfg), *args]) == 1
    assert capsys.readouterr().err == message


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
