"""Config parsing, the experiment runner, metric emission, and inspection."""

import csv
import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest

from mlfas.checkpoints import save_network
from mlfas.conv import ConvShapeError
from mlfas.harness import (
    ConfigError,
    ExperimentConfig,
    MetricRecord,
    build_network,
    config_text,
    dataset_splits,
    emit_csv,
    emit_summary_table,
    inspect_hierarchy,
    load_metrics_csv,
    parse_config,
    run_experiment,
    run_seed,
)
from mlfas.nets import DenseLayer, Minibatch, Network, dense_network, flatten, loss, lower_input
from mlfas.poisson import generate_dataset, write_dataset
from mlfas.training import MinibatchScheduler, SmootherConfig, sgd_smooth


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    ds = generate_dataset(30, 6, seed=11, val_fraction=0.2)
    path = tmp_path_factory.mktemp("data") / "tiny.mlfasdat"
    write_dataset(ds, path)
    return ds, path


def tiny_config(path, **overrides):
    base = dict(
        dataset=str(path),
        arch="dense:12",
        depth=2,
        learning_rate=0.01,
        batch_size=6,
        steps_per_smooth=2,
        tau_batches=2,
        rematch_period=5,
        max_work_units=60.0,
        eval_every=10.0,
        seeds=(0,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_text_roundtrip(self, tmp_path):
        cfg = tiny_config("ds.bin", seeds=(3, 5, 8), weighted=False, gamma=0.25)
        path = tmp_path / "exp.cfg"
        path.write_text(config_text(cfg))
        assert parse_config(path) == cfg

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# header\n\ndataset = d.bin  # trailing\nseeds = 1, 2\n")
        cfg = parse_config(path)
        assert cfg.dataset == "d.bin"
        assert cfg.seeds == (1, 2)

    def test_readme_table_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Experiment config", 1)[1].split("\n#", 1)[0]
        keys = {line.split("`")[1] for line in section.splitlines() if line.startswith("| `")}
        assert keys == {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("no_such_knob = 1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(path)

    def test_bad_bool(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("weighted = maybe\n")
        with pytest.raises(ConfigError, match="boolean"):
            parse_config(path)

    @pytest.mark.parametrize(
        "key, text", [("depth", "two"), ("learning_rate", "fast"), ("seeds", "0,x")]
    )
    def test_bad_number_names_the_key(self, tmp_path, key, text):
        path = tmp_path / "exp.cfg"
        path.write_text(f"{key} = {text}\n")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value).startswith(f"{key}: ")
        assert repr(text) in str(info.value)


class TestBuildNetwork:
    def test_dense_arch(self):
        net = build_network("dense:8,dense:5", 12, 3, rng=np.random.default_rng(0))
        assert net.unit_counts() == [12, 8, 5, 3]

    def test_conv_arch(self):
        net = build_network(
            "conv:4k3s1p1,dense:10", (2, 6, 6), 5, rng=np.random.default_rng(0)
        )
        assert net.unit_counts() == [2, 4, 10, 5]
        assert net.interfaces[1] == ("chan", 4, 6, 6)

    def test_conv_after_dense_rejected(self):
        with pytest.raises(ConfigError, match="precede"):
            build_network("dense:4,conv:2k3s1p0", (2, 6, 6), 5)

    def test_empty_conv_kernel_rejected(self):
        # a 0x0 kernel would give a 9x9 "output" of the bias alone from 8x8
        with pytest.raises(ConvShapeError, match="kernel height axis"):
            build_network("conv:4k0s1p0,dense:8", (3, 8, 8), 4)

    def test_bad_token(self):
        with pytest.raises(ConfigError, match="unrecognized"):
            build_network("dense:4,sigmoid:2", 8, 5)


class TestMetricsIO:
    def _records(self):
        return [
            MetricRecord(0.0, 0, 0, 1.0, 2.0, 3.0, 4.0, 0.1),
            MetricRecord(10.0, 3, 1, 0.5, 1.5, 2.5, 3.5, 0.7),
        ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        recs = self._records()
        emit_csv(recs, path)
        back = load_metrics_csv(path)
        assert back == recs

    def test_header(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_csv(self._records(), path)
        with open(path) as fh:
            header = next(csv.reader(fh))
        assert header == ["work_units", "cycle", "level", "train_l2", "train_linf",
                          "val_l2", "val_linf", "wall_s"]

    def test_empty_records_rejected_without_file(self, tmp_path):
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError, match="no records"):
            emit_csv([], path)
        assert not path.exists()


class TestRunExperiment:
    def test_deterministic_metric_streams(self, tiny_dataset):
        ds, path = tiny_dataset
        cfg = tiny_config(path)
        a = run_experiment(cfg, ds)[0]
        b = run_experiment(cfg, ds)[0]
        assert not a.failed and not b.failed
        # everything except wall time is pinned by (seed, config)
        strip = lambda r: (r.work_units, r.cycle, r.level, r.train_l2, r.train_linf,
                           r.val_l2, r.val_linf)
        assert [strip(r) for r in a.records] == [strip(r) for r in b.records]

    def test_depth_one_matches_bare_sgd_loop(self, tiny_dataset):
        ds, path = tiny_dataset
        cfg = tiny_config(path, depth=1, max_work_units=30.0)
        run = run_seed(cfg, 0, ds)

        # independent plain-SGD trainer with the same seeding and cadence
        xtr, ytr, xva, yva = dataset_splits(ds)
        net = build_network(cfg.arch, xtr.shape[1], ytr.shape[1],
                            rng=np.random.default_rng([0, 202]))
        sched = MinibatchScheduler(xtr, ytr, cfg.batch_size, np.random.default_rng([0, 101]))
        smoother = SmootherConfig(cfg.learning_rate, cfg.momentum, cfg.weight_decay,
                                  cfg.steps_per_smooth)
        momentum = flatten(net).zeros_like()
        train_mb, val_mb = Minibatch(xtr, ytr), Minibatch(xva, yva)
        points = [(0.0, loss(net, train_mb), loss(net, val_mb))]
        work = 0.0
        next_eval = cfg.eval_every
        while work < cfg.max_work_units:
            sgd_smooth(net, momentum, smoother, iter(sched))
            work += cfg.steps_per_smooth
            if work >= next_eval:
                points.append((work, loss(net, train_mb), loss(net, val_mb)))
                next_eval = (work // cfg.eval_every + 1) * cfg.eval_every
        points.append((work, loss(net, train_mb), loss(net, val_mb)))

        assert len(run.records) == len(points)
        for rec, (w, lt, lv) in zip(run.records, points):
            assert rec.level == 0
            assert rec.work_units == w
            assert rec.train_l2 == lt.l2 and rec.val_l2 == lv.l2
            assert rec.train_linf == lt.linf and rec.val_linf == lv.linf

    def test_best_is_min_over_records(self, tiny_dataset):
        ds, path = tiny_dataset
        run = run_seed(tiny_config(path), 0, ds)
        for level in (0, 1):
            pts = [r for r in run.records if r.level == level]
            assert run.best[level]["val_l2"] == min(r.val_l2 for r in pts)
            assert run.best[level]["train_linf"] == min(r.train_linf for r in pts)

    def test_aux_level_logged_for_depth_two(self, tiny_dataset):
        ds, path = tiny_dataset
        run = run_seed(tiny_config(path), 0, ds)
        assert {r.level for r in run.records} == {0, 1}

    def test_summary_rows_and_labels(self, tiny_dataset, tmp_path):
        ds, path = tiny_dataset
        cfg = tiny_config(path, seeds=(0, 1))
        runs = run_experiment(cfg, ds)
        rows = emit_summary_table(runs, tmp_path / "summary.csv")
        labels = {(r["level"], r["seed"]) for r in rows}
        assert labels == {("2", 0), ("2aux", 0), ("2", 1), ("2aux", 1)}
        with open(tmp_path / "summary.csv") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 4

    def test_parallel_seeds_record_single_threaded_blas(self, tiny_dataset, tmp_path):
        ds, path = tiny_dataset
        cfg = tiny_config(path, seeds=(0, 1), workers=2, out_dir=str(tmp_path))
        env = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        parallel = run_experiment(cfg, ds)
        assert {v: os.environ.get(v) for v in env} == env
        serial = run_experiment(tiny_config(path, seeds=(0, 1)), ds)
        strip = lambda r: (r.work_units, r.cycle, r.level, r.train_l2, r.val_l2)
        for a, b in zip(parallel, serial):
            assert [strip(r) for r in a.records] == [strip(r) for r in b.records]
        meta = (tmp_path / "run_metadata.txt").read_text().splitlines()
        assert ("# workers: 2 spawned processes; BLAS threads: 1 per worker "
                "(OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1, MKL_NUM_THREADS=1)") in meta

    def test_batch_size_guard(self, tiny_dataset):
        ds, path = tiny_dataset
        with pytest.raises(ConfigError, match="batch_size"):
            run_seed(tiny_config(path, batch_size=1000), 0, ds)

    def test_divergent_seed_marked_failed_and_others_continue(self, tiny_dataset):
        ds, path = tiny_dataset
        cfg = tiny_config(path, learning_rate=1e25, seeds=(0, 1))
        with np.errstate(all="ignore"):
            runs = run_experiment(cfg, ds)
        assert all(r.failed for r in runs)
        assert [r.seed for r in runs] == [0, 1]
        assert all("non-finite" in r.reason for r in runs)

    @pytest.mark.parametrize("arch", ["dense:12", "conv:3k3s1p1,dense:8"])
    @pytest.mark.parametrize("sample", [0, 4])
    def test_nan_in_a_shared_channel_fails_the_run(self, tiny_dataset, arch, sample):
        # x is the same in every sample, so the split-level fold would drop a
        # NaN there unless the NaN counts as varying
        ds, path = tiny_dataset
        ds = dataclasses.replace(ds, inputs=ds.inputs.copy())
        ds.inputs[ds.train_idx[sample], 1, 2, 3] = np.nan
        cfg = tiny_config(path, arch=arch)
        xtr = dataset_splits(ds)[0]
        net = build_network(arch, (3, 6, 6) if arch.startswith("conv") else xtr.shape[1], 36)
        lowered = lower_input(net, xtr)
        assert np.isnan(lowered.rows).any()
        assert lowered.sample is None or not np.isnan(lowered.sample).any()
        with np.errstate(all="ignore"):
            run = run_seed(cfg, 0, ds)
        assert run.failed
        assert "non-finite" in run.reason

    def test_work_accounting_matches_training_counter(self, tiny_dataset):
        # the emitted work_units come straight from the hierarchy counter
        ds, path = tiny_dataset
        run = run_seed(tiny_config(path), 0, ds)
        works = [r.work_units for r in run.records]
        assert works == sorted(works)
        fine = [r for r in run.records if r.level == 0]
        aux = [r for r in run.records if r.level == 1]
        assert [r.work_units for r in fine] == [r.work_units for r in aux]


class TestInspect:
    def test_single_level_reports_no_aggregates(self, tmp_path):
        net = dense_network([4, 6, 2], rng=np.random.default_rng(1))
        p = tmp_path / "l0.mlfasnet"
        save_network(net, p)
        report = inspect_hierarchy([str(p)])
        assert "level 0" in report
        assert "parameters: " in report
        assert "aggregates" not in report

    def test_duplicated_toy_net_fully_paired(self, tmp_path):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(2, 3))
        w = np.vstack([w, w])
        b = np.zeros(4)
        net = Network([DenseLayer(w, b), DenseLayer(rng.normal(size=(2, 4)), np.zeros(2))])
        from mlfas.transfer import coarsen_network, restrict_network

        coarse = restrict_network(net, coarsen_network(net, theta=0.9))
        p0, p1 = tmp_path / "l0.mlfasnet", tmp_path / "l1.mlfasnet"
        save_network(net, p0)
        save_network(coarse, p1)
        report = inspect_hierarchy([str(p0), str(p1)], theta=0.9)
        assert "size histogram {2: 2}" in report
        assert "units 4 -> 2 (ratio 0.500)" in report

    def test_ratio_bounds(self, tmp_path):
        rng = np.random.default_rng(9)
        net = dense_network([5, 12, 9, 3], rng=rng)
        from mlfas.transfer import coarsen_network, restrict_network

        coarse = restrict_network(net, coarsen_network(net, theta=-1.0))
        paths = []
        for i, n in enumerate((net, coarse)):
            p = tmp_path / f"l{i}.mlfasnet"
            save_network(n, p)
            paths.append(str(p))
        fine_units = net.unit_counts()
        coarse_units = coarse.unit_counts()
        for k in range(1, len(fine_units) - 1):
            assert 0.5 <= coarse_units[k] / fine_units[k] <= 1.0
        report = inspect_hierarchy(paths)
        assert "parameter ratio vs level 0" in report
