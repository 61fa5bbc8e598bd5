"""Config parsing, the experiment runner, metric emission, and inspection."""

import csv
import dataclasses
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from mlfas import harness
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
    take_rows,
)
from mlfas.nets import (
    DenseLayer,
    LossValue,
    Minibatch,
    Network,
    dense_network,
    flatten,
    loss,
    lower_input,
)
from mlfas.poisson import generate_dataset, write_dataset
from mlfas.training import (
    DivergenceError,
    Hierarchy,
    MinibatchScheduler,
    SmootherConfig,
    StabilityConfig,
    sgd_smooth,
    v_cycle,
)


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

    # all but the first were keys once; a config that still sets them is refused
    @pytest.mark.parametrize(
        "key", ["no_such_knob", "match_order", "checkpoint_every", "eta_depth",
                "activation", "output_activation"]
    )
    def test_unknown_key_rejected(self, tmp_path, key):
        path = tmp_path / "exp.cfg"
        path.write_text(f"{key} = 1\n")
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

    # a non-positive worker count once ran serially under its own name, and
    # batch_size 0 failed only after the dataset had been read
    @pytest.mark.parametrize("key, value", [("workers", 0), ("workers", -2),
                                            ("batch_size", 0), ("batch_size", -1)])
    def test_count_below_one_names_the_key(self, tmp_path, key, value):
        path = tmp_path / "exp.cfg"
        path.write_text(f"dataset = missing.bin\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"^{key} must be >= 1"):
            parse_config(path)


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
        assert path.read_bytes() == (
            b"work_units,cycle,level,train_l2,train_linf,val_l2,val_linf,wall_s\r\n"
            b"0.0,0,0,1.0,2.0,3.0,4.0,0.1\r\n"
            b"10.0,3,1,0.5,1.5,2.5,3.5,0.7\r\n"
        )

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
        assert "# evaluation: one worker thread per seed, overlapped with training" in meta

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
    def test_nan_in_a_shared_channel_fails_the_run(self, tiny_dataset, tmp_path, arch, sample):
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
        # the first evaluation raised, so the summary has one all-NaN row
        assert run.records == [] and run.best == {}
        rows = emit_summary_table([run], tmp_path / "summary.csv")
        assert len(rows) == 1
        row = rows[0]
        assert (row["level"], row["seed"], row["status"]) == ("2", 0, "failed")
        losses = [row[f"best_{name}"] for name in ("train_l2", "train_linf",
                                                    "val_l2", "val_linf")]
        assert len(row) == 7 and all(math.isnan(v) for v in losses)

    def test_work_accounting_matches_training_counter(self, tiny_dataset):
        # the emitted work_units come straight from the hierarchy counter
        ds, path = tiny_dataset
        run = run_seed(tiny_config(path), 0, ds)
        works = [r.work_units for r in run.records]
        assert works == sorted(works)
        fine = [r for r in run.records if r.level == 0]
        aux = [r for r in run.records if r.level == 1]
        assert [r.work_units for r in fine] == [r.work_units for r in aux]


def strip_wall(records):
    """The records' fields without ``wall_s``, which only a serial run pins."""
    return [dataclasses.astuple(r)[:-1] for r in records]


def serial_records(cfg, ds, seed=0):
    """The records ``run_seed`` logs at depth >= 2, evaluated in line by a
    reference loop.

    Returns the rows without ``wall_s`` and, per evaluation, the level-1
    network the hierarchy held.
    """
    xtr, ytr, xva, yva = dataset_splits(ds)
    net = build_network(cfg.arch, xtr.shape[1], ytr.shape[1],
                        rng=np.random.default_rng([seed, 202]))
    train_mb = Minibatch(lower_input(net, xtr), ytr)
    val_mb = Minibatch(lower_input(net, xva), yva)
    sched = MinibatchScheduler(train_mb.inputs, ytr, cfg.batch_size,
                               np.random.default_rng([seed, 101]))
    smoother = SmootherConfig(learning_rate=cfg.learning_rate, momentum_coeff=cfg.momentum,
                              weight_decay=cfg.weight_decay,
                              steps_per_smooth=cfg.steps_per_smooth)
    stab = StabilityConfig(eta=cfg.eta, alpha_p=cfg.alpha_p, alpha_m=cfg.alpha_m,
                           gamma=cfg.gamma)
    h = Hierarchy.build(net, cfg.depth, rematch_period=cfg.rematch_period,
                        tau_batches=cfg.tau_batches, theta=cfg.theta, weighted=cfg.weighted)
    rows, coarse_nets = [], []

    def evaluate():
        coarse_nets.append(h.levels[1].net)
        for level in (0, 1):
            lnet = h.levels[level].net
            lt, lv = loss(lnet, train_mb), loss(lnet, val_mb)
            rows.append((h.work.total, h.cycles_run, level, lt.l2, lt.linf, lv.l2, lv.linf))

    evaluate()
    next_eval = cfg.eval_every
    while h.work.total < cfg.max_work_units:
        v_cycle(h, 0, smoother, stab, sched)
        if h.work.total >= next_eval:
            evaluate()
            next_eval = (h.work.total // cfg.eval_every + 1) * cfg.eval_every
    evaluate()
    return rows, coarse_nets


class TestOverlappedEvaluation:
    """Evaluation runs on a worker thread and logs what an in-line one would."""

    @pytest.fixture(autouse=True)
    def no_thread_left_behind(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    def spy_loss(self, monkeypatch, answer=None):
        """Record every net ``harness.loss`` sees; ``answer(call count, value)``
        may replace the value."""
        nets, real = [], harness.loss

        def spy(net, batch):
            nets.append(net)
            value = real(net, batch)
            return answer(len(nets), value) if answer else value

        monkeypatch.setattr(harness, "loss", spy)
        return nets

    def test_depth_three_matches_an_in_line_loop(self, tiny_dataset, monkeypatch):
        ds, path = tiny_dataset
        cfg = tiny_config(path, arch="dense:12,dense:10", depth=3, rematch_period=2,
                          max_work_units=80.0)
        rows, coarse_nets = serial_records(cfg, ds)
        nets = self.spy_loss(monkeypatch)
        run = run_seed(cfg, 0, ds)
        assert not run.failed
        assert strip_wall(run.records) == rows
        # one kept copy of the fine net, and a new copy of level 1 exactly
        # when a rematch had replaced the level's network
        assert len({id(n) for n in nets[0::4]}) == 1
        rebuilt = len({id(n) for n in coarse_nets})
        assert rebuilt > 1
        assert len({id(n) for n in nets[2::4]}) == rebuilt

    @pytest.mark.parametrize("eval_every, repeated", [(10.0, True), (7.0, False)])
    def test_final_evaluation_computed_once(self, tiny_dataset, monkeypatch, eval_every,
                                            repeated):
        # depth 1 with 2 wu per cycle: the budget of 30 ends on an evaluation
        # at 10-wu spacing, and between two at 7-wu spacing
        ds, path = tiny_dataset
        cfg = tiny_config(path, depth=1, max_work_units=30.0, eval_every=eval_every)
        nets = self.spy_loss(monkeypatch)
        run = run_seed(cfg, 0, ds)
        cycles = [r.cycle for r in run.records]
        assert len(nets) == 2 * len(set(cycles))
        last, final = run.records[-2:]
        assert (last.cycle == final.cycle) == repeated
        if repeated:
            assert strip_wall([last]) == strip_wall([final])
            assert final.wall_s >= last.wall_s

    @pytest.mark.parametrize("k", [1, 3])
    def test_nonfinite_level_one_loss_of_kth_evaluation(self, tiny_dataset, monkeypatch, k):
        ds, path = tiny_dataset
        cfg = tiny_config(path)
        clean = run_seed(cfg, 0, ds)
        # calls run level 0 train, val, then level 1 train, val per evaluation
        bad = 4 * (k - 1) + 3
        self.spy_loss(monkeypatch,
                      lambda n, v: LossValue(math.inf, v.linf) if n == bad else v)
        run = run_seed(cfg, 0, ds)
        kept = clean.records[: 2 * (k - 1) + 1]
        assert strip_wall(run.records) == strip_wall(kept)
        assert run.failed
        assert run.reason == f"non-finite loss at level 1 (cycle {kept[-1].cycle})"

    @pytest.mark.parametrize("error", [DivergenceError, ValueError])
    @pytest.mark.parametrize("eval_fails", [False, True])
    def test_training_error_while_an_evaluation_is_pending(self, tiny_dataset, monkeypatch,
                                                          error, eval_fails):
        ds, path = tiny_dataset
        cfg = tiny_config(path)
        clean = run_seed(cfg, 0, ds)
        events = []
        raised = threading.Event()

        def held(n, value):
            # the first evaluation finishes only after training has raised
            if not raised.wait(timeout=60):
                raise TimeoutError("training never raised")
            events.append("loss")
            return LossValue(math.nan, value.linf) if eval_fails and n == 3 else value

        def failing_cycle(*args):
            events.append("raise")
            raised.set()
            raise error("training failed in cycle 0")

        self.spy_loss(monkeypatch, held)
        monkeypatch.setattr(harness, "v_cycle", failing_cycle)
        if eval_fails:
            # the evaluation came first in the run, so its error is reported
            run = run_seed(cfg, 0, ds)
            assert run.reason == "non-finite loss at level 1 (cycle 0)"
            assert strip_wall(run.records) == strip_wall(clean.records[:1])
        elif error is DivergenceError:
            run = run_seed(cfg, 0, ds)
            assert run.reason == "training failed in cycle 0"
            assert strip_wall(run.records) == strip_wall(clean.records[:2])
        else:
            with pytest.raises(ValueError, match="training failed"):
                run_seed(cfg, 0, ds)
        assert events == ["raise"] + ["loss"] * 4
        if error is DivergenceError or eval_fails:
            assert run.failed and run.best.keys() == ({0} if eval_fails else {0, 1})

    def test_overflow_in_an_evaluation_fails_the_run_under_errstate(self, tiny_dataset,
                                                                   monkeypatch):
        # the suite turns warnings into errors; np.errstate must reach the worker
        ds, path = tiny_dataset
        self.spy_loss(monkeypatch,
                      lambda n, v: LossValue(float(np.exp(1e3 + v.l2)), v.linf))
        with np.errstate(all="ignore"):
            run = run_seed(tiny_config(path), 0, ds)
        assert run.failed
        assert run.reason == "non-finite loss at level 0 (cycle 0)"
        assert run.records == []

    def test_worker_leaves_the_starting_cpu(self):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no thread affinity calls on this platform")
        allowed = os.sched_getaffinity(0)
        seen = []
        worker = threading.Thread(
            target=lambda: (harness._leave_start_cpu(), seen.append(os.sched_getaffinity(0))))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert os.sched_getaffinity(0) == allowed
        assert seen[0] <= allowed
        assert len(seen[0]) == max(1, len(allowed) - 1)


class TestSplits:
    """Splits are views of the dataset for contiguous index ranges."""

    def test_contiguous_splits_are_views(self, tiny_dataset):
        ds, _ = tiny_dataset
        xi, yo = ds.flat_inputs(), ds.flat_outputs()
        xtr, ytr, xva, yva = dataset_splits(ds)
        for part, whole, idx in ((xtr, xi, ds.train_idx), (ytr, yo, ds.train_idx),
                                 (xva, xi, ds.val_idx), (yva, yo, ds.val_idx)):
            assert np.shares_memory(part, whole)
            assert np.array_equal(part, whole[idx])

    def test_permuted_splits_are_copies(self, tiny_dataset):
        ds, _ = tiny_dataset
        perm = np.random.default_rng(3).permutation(ds.count)
        shuffled = dataclasses.replace(ds, train_idx=perm[:24], val_idx=perm[24:])
        xi, yo = ds.flat_inputs(), ds.flat_outputs()
        xtr, ytr, xva, yva = dataset_splits(shuffled)
        for part, whole, idx in ((xtr, xi, perm[:24]), (ytr, yo, perm[:24]),
                                 (xva, xi, perm[24:]), (yva, yo, perm[24:])):
            assert not np.shares_memory(part, whole)
            assert np.array_equal(part, whole[idx])

    @pytest.mark.parametrize("idx, view", [
        (np.arange(3, 7), True),
        (np.arange(10), True),
        (np.array([4]), True),
        (np.array([3, 4, 6]), False),  # a gap
        (np.array([5, 4, 3]), False),  # descending
        (np.array([-2, -1]), False),  # contiguous, but counted from the end
        (np.array([], dtype=int), False),
    ])
    def test_take_rows(self, idx, view):
        a = np.arange(30.0).reshape(10, 3)
        rows = take_rows(a, idx)
        assert np.array_equal(rows, a[idx])
        assert np.shares_memory(rows, a) == view

    def test_take_rows_past_the_end_raises(self):
        with pytest.raises(IndexError):
            take_rows(np.zeros((4, 2)), np.arange(2, 5))

    @pytest.mark.parametrize("arch", ["dense:12", "conv:3k3s1p1,dense:8"])
    def test_run_leaves_the_dataset_unchanged(self, tiny_dataset, arch):
        ds, path = tiny_dataset
        inputs, outputs = ds.inputs.copy(), ds.outputs.copy()
        run = run_seed(tiny_config(path, arch=arch), 0, ds)
        assert not run.failed
        assert np.array_equal(ds.inputs, inputs) and np.array_equal(ds.outputs, outputs)


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
