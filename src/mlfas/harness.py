"""Experiment harness.

Parses flat key=value experiment configs, and grids of them, runs seeded
one-level SGD or multilevel V-cycle training to a work-unit budget, logs
train/validation losses for the fine network and the first auxiliary
(first-coarsened) network, and emits metrics CSVs plus a best-loss summary
table.  ``run_grid`` is the one runner: it runs every (setting, seed) pair
of a list of configs, in this process or as tasks on a pool of spawned
processes, and ``run_experiment`` is its one-setting case.  The validation
split is the dataset's last ``n_val`` samples.  One work unit is the cost
of one fine-level minibatch gradient evaluation; coarser evaluations are
scaled by their parameter-count ratio.
"""

import csv
import functools
import itertools
import math
import multiprocessing
import operator
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import _threads, nets
from .checkpoints import load_network, save_network
from .conv import ConvLayer
from .nets import DenseLayer, Network, loss, lower_input, uniform_init
from .poisson import RegressionDataset, read_dataset
from .training import (
    DivergenceError,
    Hierarchy,
    MinibatchScheduler,
    SmootherConfig,
    check_settings,
    v_cycle,
)
from .transfer import coarsen_network


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs for one experiment; see README for the key reference.

    ``depth`` and the keys from ``tau_batches`` to ``gamma`` are the method
    settings: ``Hierarchy`` owns their defaults, ``check_settings`` their checks.
    """

    dataset: str = ""
    arch: str = "dense:128,dense:128"
    depth: int = 1
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    steps_per_smooth: int = 4
    batch_size: int = 200
    tau_batches: int = Hierarchy.tau_batches
    rematch_period: int = Hierarchy.rematch_period
    theta: float = Hierarchy.theta
    weighted: bool = Hierarchy.weighted
    eta: float = Hierarchy.eta
    alpha_m: float = Hierarchy.alpha_m
    gamma: float = Hierarchy.gamma
    max_work_units: float = 5000.0
    eval_every: float = 25.0
    seeds: tuple = (0,)
    out_dir: str = ""
    workers: int = 1

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        # a depth-1 run with no smoothing steps would never charge work
        for key in ("steps_per_smooth", "batch_size", "workers"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        for key in ("eval_every", "max_work_units"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        # a tuple of ints, which a grid's shared keys hash and config_text writes
        object.__setattr__(self, "seeds", tuple(map(operator.index, self.seeds)))
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {min(self.seeds)}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {_text(self.seeds)}")
        try:
            self.smoother()
            check_settings(self)
        except ValueError as e:  # their messages name the key
            raise ConfigError(str(e)) from None

    def smoother(self) -> SmootherConfig:
        """The smoother settings of every level, before the eta scaling."""
        return SmootherConfig(
            learning_rate=self.learning_rate,
            momentum_coeff=self.momentum,
            weight_decay=self.weight_decay,
            steps_per_smooth=self.steps_per_smooth,
        )


@dataclass
class MetricRecord:
    """One evaluation point; level 0 is the fine network, k the k-th auxiliary."""

    work_units: float
    cycle: int
    level: int
    train_l2: float
    train_linf: float
    val_l2: float
    val_linf: float
    wall_s: float


CSV_FIELDS = [f.name for f in fields(MetricRecord)]
# the loss columns, whose per-level minima a run reports as its best
LOSS_FIELDS = [name for name in CSV_FIELDS if name.startswith(("train_", "val_"))]


@dataclass
class RunResult:
    """Metrics and best losses for one (config, seed) training run."""

    seed: int
    depth: int
    records: list
    best: dict  # level -> {loss field: its minimum over the level's records}
    failed: bool = False
    reason: str = ""

    def label(self, level: int) -> str:
        return str(self.depth) if level == 0 else f"{self.depth}aux"


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_EXPECTED = {int: "an integer", float: "a number", tuple: "integers separated by commas"}


def _coerce(name: str, kind, text: str):
    if kind is bool:
        v = _BOOL_VALUES.get(text.strip().lower())
        if v is None:
            raise ConfigError(f"{name}: expected a boolean, got {text!r}")
        return v
    try:
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        if kind is tuple:
            return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"{name}: expected {_EXPECTED[kind]}, got {text!r}") from None
    return text.strip()


# keys a grid shares: a grid is keyed by (setting, seed), runs on one pool
# and writes under one directory
GRID_SHARED_KEYS = ("seeds", "workers", "out_dir")
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _key(key: str) -> str:
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    return key


def parse_grid(path, assignments=()) -> list[ExperimentConfig]:
    """The settings of a flat key=value config file ('#' starts a comment).

    The file sets each key at most once.  Each ``key=value`` assignment
    overrides the file.  A key assigned k times is a grid axis of k values;
    the settings are the product of the axes, in the order the keys first
    appear, the last axis fastest.  The keys of ``GRID_SHARED_KEYS`` may be
    assigned only once.  Every setting is validated as a config file is.
    """
    values, lines = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if _key(key) in lines:
                raise ConfigError(f"{path}:{lineno}: {key} is already set on line {lines[key]}")
            values[key], lines[key] = text, lineno
    axes = {}
    for text in assignments:
        if "=" not in text:
            raise ConfigError(f"expected key=value, got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        axes.setdefault(_key(key), []).append(value)
    for key in GRID_SHARED_KEYS:
        if len(axes.get(key, ())) > 1:
            raise ConfigError(f"{key} may be set only once")
    return [
        ExperimentConfig(**{key: _coerce(key, _FIELD_TYPES[key], text)
                            for key, text in {**values, **dict(zip(axes, combo))}.items()})
        for combo in itertools.product(*axes.values())
    ]


def _text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def config_text(cfg: ExperimentConfig) -> str:
    return "".join(f"{f.name} = {_text(getattr(cfg, f.name))}\n" for f in fields(cfg))


def varied_keys(settings: list[ExperimentConfig]) -> list[str]:
    """The config keys whose values differ between the settings."""
    return [f.name for f in fields(ExperimentConfig)
            if len({getattr(cfg, f.name) for cfg in settings}) > 1]


_CONV_TOKEN = re.compile(r"^conv:(\d+)k(\d+)s(\d+)p(\d+)$")
_DENSE_TOKEN = re.compile(r"^dense:(\d+)$")


def build_network(
    arch: str,
    input_shape,
    output_size: int,
    rng: np.random.Generator | None = None,
) -> Network:
    """Build a network from an architecture string.

    Tokens are comma separated: ``dense:<width>`` for a hidden dense layer,
    ``conv:<channels>k<kernel>s<stride>p<pad>`` for a (square) conv layer.
    Conv tokens must come first.  Every hidden layer is followed by ReLU; a
    linear dense output layer onto ``output_size`` is appended
    automatically.  ``input_shape`` is (channels, height, width) or a
    plain width; a dense first layer reads the input flattened, so its
    network's ``input_shape`` is then (n,), with n the input's size.
    """
    layers = []
    # the running interface: (channels, height, width) or (width,)
    shape = input_shape if isinstance(input_shape, tuple) else (int(input_shape),)
    for token in (t.strip() for t in arch.split(",") if t.strip()):
        m = _CONV_TOKEN.match(token)
        if m:
            if len(shape) != 3:
                raise ConfigError(f"conv token {token!r} must precede dense layers "
                                  "and needs a channel input")
            out_c, k, s, p = (int(g) for g in m.groups())
            layer = ConvLayer(np.zeros((out_c, shape[0], k, k)), np.zeros(out_c),
                              stride=(s, s), padding=(p, p))
            layers.append(layer)
            shape = (out_c, *layer.out_spatial(*shape[1:]))
            continue
        m = _DENSE_TOKEN.match(token)
        if m:
            width = int(m.group(1))
            layers.append(DenseLayer(np.zeros((width, int(np.prod(shape)))), np.zeros(width)))
            shape = (width,)
            continue
        raise ConfigError(f"unrecognized architecture token {token!r}")
    layers.append(DenseLayer(np.zeros((output_size, int(np.prod(shape)))), np.zeros(output_size)))
    net = Network(layers, None if isinstance(layers[0], DenseLayer) else input_shape)
    if rng is not None:
        uniform_init(net, rng)
    return net


def dataset_splits(ds: RegressionDataset):
    """(train inputs, train targets, val inputs, val targets) as flat arrays.

    Validation is the last ``ds.n_val`` samples.  Each part is a view into
    the dataset; nothing downstream writes to them.
    """
    xi, yo = ds.flat_inputs(), ds.flat_outputs()
    cut = ds.count - ds.n_val
    return xi[:cut], yo[:cut], xi[cut:], yo[cut:]


def _start_evaluation_worker() -> None:
    """Move the evaluation worker off training's CPU and, unless this is a
    spawned process, below training's priority."""
    _threads.leave_start_cpu()
    if multiprocessing.parent_process() is None:
        _threads.lower_priority()


def run_seed(cfg: ExperimentConfig, seed: int, ds: RegressionDataset) -> RunResult:
    """Train one seed to the work budget, logging metrics per eval interval.

    The logged losses are computed on one worker thread, overlapped with
    training.  Each evaluation copies the evaluated levels' parameters into
    networks kept for it, hands the ``loss`` calls to the worker and
    returns; the next evaluation, and the end of the run, first wait for
    the one in flight.  The records equal those of evaluating in line,
    except ``wall_s``, the time the evaluated state was reached, which no
    longer includes the earlier evaluations.  When the budget ends on an
    evaluation, the final rows are its rows again with a fresh ``wall_s``.
    A ``DivergenceError`` from an evaluation is reported in preference to
    any error training raised after it, and the rows evaluated before an
    error are kept.

    In a process that no other started, the worker runs at the lowest
    priority, so training threads preempt it where they share a CPU; the
    final evaluation, which the run waits for, still gets an idle one.  In
    a spawned grid worker it keeps its process's priority: there the other
    workers' training keeps every CPU busy, and a starved evaluation would
    stall its own run at the next.
    """
    xtr, ytr, xva, yva = dataset_splits(ds)
    if cfg.batch_size > xtr.shape[0]:
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds training split size {xtr.shape[0]}"
        )
    net = build_network(
        cfg.arch,
        (ds.channels, ds.n, ds.n),
        ytr.shape[1],
        rng=np.random.default_rng([seed, 202]),
    )
    # the input interface is never coarsened, so one lowering per split
    # serves every level's first layer, in training and in evaluation
    train_mb = lower_input(net, xtr, ytr)
    val_mb = lower_input(net, xva, yva)
    scheduler = MinibatchScheduler(train_mb, cfg.batch_size, np.random.default_rng([seed, 101]))
    smoother = cfg.smoother()
    hierarchy = Hierarchy.build(
        net, cfg.depth, rematch_period=cfg.rematch_period, tau_batches=cfg.tau_batches,
        theta=cfg.theta, weighted=cfg.weighted, eta=cfg.eta, alpha_m=cfg.alpha_m,
        gamma=cfg.gamma,
    )

    records = []
    t0 = time.perf_counter()
    eval_levels = (0, 1) if cfg.depth > 1 else (0,)
    twins = {}  # level -> (the level's network, the copy its evaluations read)
    pending = None

    def losses(snapshot, work: float, cycle: int, wall: float) -> None:
        # runs on the worker, reading ``loss`` from this module at call time,
        # where the benchmark's tracer and the tests replace it
        for level, lnet in snapshot:
            lt = loss(lnet, train_mb)
            lv = loss(lnet, val_mb)
            if not all(map(math.isfinite, (lt.l2, lt.linf, lv.l2, lv.linf))):
                raise DivergenceError(
                    f"non-finite loss at level {level} (cycle {cycle})",
                    level=level,
                    cycle=cycle,
                )
            records.append(
                MetricRecord(work, cycle, level, lt.l2, lt.linf, lv.l2, lv.linf, wall)
            )

    def join() -> None:
        nonlocal pending
        if pending is not None:
            done, pending = pending, None
            done.result()

    def evaluate(cycle: int) -> None:
        nonlocal pending
        # the time the evaluated state was reached, before any wait below
        wall = time.perf_counter() - t0
        join()
        snapshot = []
        for level in eval_levels:
            lnet = hierarchy.levels[level].net
            source, twin = twins.get(level, (None, None))
            if source is lnet:
                np.copyto(twin.params.data, lnet.params.data)
            else:  # first evaluation, or a rematch rebuilt the level
                twin = lnet.copy()
                twins[level] = (lnet, twin)
            snapshot.append((level, twin))
        pending = _threads.submit(pool, losses, snapshot, hierarchy.work, cycle, wall)

    failed = False
    reason = ""
    pool = ThreadPoolExecutor(max_workers=1, initializer=_start_evaluation_worker)
    try:
        try:
            evaluate(0)
            next_eval = cfg.eval_every
            while hierarchy.work < cfg.max_work_units:
                v_cycle(hierarchy, 0, smoother, scheduler)
                if hierarchy.work >= next_eval:
                    evaluate(hierarchy.cycles_run)
                    next_eval = (hierarchy.work // cfg.eval_every + 1) * cfg.eval_every
            join()
            if records[-1].cycle < hierarchy.cycles_run:
                evaluate(hierarchy.cycles_run)
            else:
                # the budget ended on an evaluation: its rows are the final ones
                wall = time.perf_counter() - t0
                records.extend(replace(r, wall_s=wall) for r in records[-len(eval_levels):])
        finally:
            # an evaluation submitted before a training error came first in
            # the run, so its own error is the one reported
            join()
        if cfg.out_dir:
            os.makedirs(cfg.out_dir, exist_ok=True)
            for level, state in enumerate(hierarchy.levels):
                save_network(
                    state.net, os.path.join(cfg.out_dir, f"ckpt_s{seed}_L{level}.mlfasnet")
                )
    except DivergenceError as e:
        failed = True
        reason = str(e)
    finally:
        pool.shutdown()

    best = {}
    for level in eval_levels:
        pts = [r for r in records if r.level == level]
        if pts:
            best[level] = {name: min(getattr(r, name) for r in pts) for name in LOSS_FIELDS}
    return RunResult(seed=seed, depth=cfg.depth, records=records, best=best,
                     failed=failed, reason=reason)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the datasets a spawned worker has read, each path once; only
# ``_run_seed_from_path``, which runs in the workers, fills it
_worker_datasets = {}


def _run_seed_from_path(cfg: ExperimentConfig, seed: int) -> RunResult:
    if cfg.dataset not in _worker_datasets:
        _worker_datasets[cfg.dataset] = read_dataset(cfg.dataset)
    return run_seed(cfg, seed, _worker_datasets[cfg.dataset])


def _run_in_workers(pairs: list, workers: int) -> list[RunResult]:
    """Run each (config, seed) pair as a task on fresh processes whose BLAS uses one thread.

    The BLAS libraries read their thread count when numpy loads, so the
    variables are set in this process's environment while the spawned
    workers start, then restored.
    """
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(pairs)),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = [pool.submit(_run_seed_from_path, cfg, seed) for cfg, seed in pairs]
            return [f.result() for f in futures]
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _parallelism_text(cfg: ExperimentConfig, parallel: bool) -> str:
    if parallel:
        blas = "1 per worker (" + ", ".join(f"{v}=1" for v in _BLAS_THREAD_VARS) + ")"
        workers = f"# workers: {cfg.workers} spawned processes; BLAS threads: {blas}\n"
    else:
        blas = ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in _BLAS_THREAD_VARS)
        workers = f"# workers: 1 (seeds run in this process); BLAS threads: {blas}\n"
    priority = "its process's priority" if parallel else "the lowest priority (nice 19)"
    return (workers
            + f"# evaluation: one worker thread per seed at {priority}, overlapped with training\n"
            + f"# gradient products: {_handoff_text()}\n"
            + f"# numerics: {_numerics_text()}\n")


def _handoff_text() -> str:
    """What ``backward`` hands to a helper thread in this process; a
    spawned worker inherits its CPUs, so it hands off the same."""
    split = (f"a batch with a dense weight product past the first layer of at least "
             f"2^{math.log2(nets.HANDOFF_MIN_MACS):g} multiply-adds passes as two row "
             f"halves, summed")
    helper = "the second on a helper thread unless the training thread is free first"
    cpus = _threads.allowed_cpus()
    if cpus >= 2:
        return f"{split}, {helper} ({cpus} CPUs allowed)"
    return f"{split}, both in line ({cpus} CPU allowed; from 2 CPUs, {helper})"


def _numerics_text() -> str:
    """numpy's version and the BLAS that numpy reports it was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    text = f"numpy {np.__version__}; BLAS {blas.get('name')} {blas.get('version')}"
    # OpenBLAS names its core type in its configuration string
    config = " ".join(blas.get("openblas configuration", "").split())
    return f"{text} ({config})" if config else text


def run_grid(settings: list[ExperimentConfig],
             ds: RegressionDataset | None = None) -> list[list[RunResult]]:
    """Run every (setting, seed) pair; one list of runs per setting, in seed order.

    Failed runs are kept and marked.  The settings must share the keys of
    ``GRID_SHARED_KEYS``.  With one worker, or one pair, the pairs run in this
    process on ``ds``, or on the file at each setting's ``dataset`` (each
    path read once) when no ``ds`` is given.  Otherwise each pair is one
    task on a pool of ``workers`` spawned processes, each of which reads a
    dataset path once: the datasets must then be paths, a ``ds`` passed
    here is ignored, and this process reads no data.

    With an ``out_dir``, one setting writes its metrics CSVs, checkpoints,
    ``summary.csv`` and ``run_metadata.txt`` there.  Several settings write
    those files under ``out_dir/setting<i>/``, and ``out_dir/grid.csv``
    holds one row per (setting, seed, level): the varied keys, then the
    summary table's columns.
    """
    if not settings:
        raise ValueError("no settings to run")
    for key in GRID_SHARED_KEYS:
        if len({getattr(cfg, key) for cfg in settings}) > 1:
            raise ConfigError(f"{key} must be the same in every setting")
    grid_dir, workers = settings[0].out_dir, settings[0].workers
    keys = varied_keys(settings)
    if grid_dir and len(settings) > 1:
        settings = [replace(cfg, out_dir=os.path.join(grid_dir, f"setting{i}"))
                    for i, cfg in enumerate(settings)]
    pairs = [(cfg, seed) for cfg in settings for seed in cfg.seeds]
    parallel = workers > 1 and len(pairs) > 1
    if parallel:
        if not all(cfg.dataset for cfg in settings):
            raise ConfigError("parallel runs need a dataset path")
        flat = _run_in_workers(pairs, workers)
    else:
        read = functools.cache(read_dataset)  # each path once, for this call only
        flat = [run_seed(cfg, seed, read(cfg.dataset) if ds is None else ds)
                for cfg, seed in pairs]
    runs = iter(flat)
    results = [[next(runs) for _ in cfg.seeds] for cfg in settings]
    if grid_dir:
        grid_rows = []
        for cfg, setting_runs in zip(settings, results):
            rows = _write_setting(cfg, setting_runs, parallel)
            grid_rows += [{**{k: _text(getattr(cfg, k)) for k in keys}, **row} for row in rows]
        if len(settings) > 1:
            _write_rows(grid_rows, os.path.join(grid_dir, "grid.csv"))
    return results


def _write_setting(cfg: ExperimentConfig, runs: list, parallel: bool) -> list[dict]:
    os.makedirs(cfg.out_dir, exist_ok=True)
    for run in runs:
        if run.records:
            emit_csv(run.records, os.path.join(cfg.out_dir, f"metrics_s{run.seed}.csv"))
    rows = emit_summary_table(runs, os.path.join(cfg.out_dir, "summary.csv"))
    with open(os.path.join(cfg.out_dir, "run_metadata.txt"), "w") as fh:
        fh.write(config_text(cfg))
        fh.write(
            "# work unit: one fine-level minibatch gradient evaluation;"
            " coarser levels scaled by parameter-count ratio\n"
        )
        fh.write(_parallelism_text(cfg, parallel))
    return rows


def run_experiment(cfg: ExperimentConfig, ds: RegressionDataset | None = None) -> list[RunResult]:
    """Run every seed of a config: ``run_grid`` of the one setting."""
    return run_grid([cfg], ds)[0]


def median_best_val_l2(runs: list) -> float:
    """Median over runs of the fine network's best val L2; a failed run counts as +inf."""
    return float(np.median(
        [math.inf if run.failed or 0 not in run.best else run.best[0]["val_l2"] for run in runs]
    ))


def emit_csv(records: list, path) -> None:
    """Write metric records as CSV; refuses an empty record list."""
    if not records:
        raise ValueError("no records to emit")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        writer.writerows(astuple(r) for r in records)


def load_metrics_csv(path) -> list[MetricRecord]:
    with open(path, newline="") as fh:
        return [
            MetricRecord(*(f.type(row[f.name]) for f in fields(MetricRecord)))
            for row in csv.DictReader(fh)
        ]


def emit_summary_table(runs: list, path) -> list[dict]:
    """Best-loss summary keyed by (level tag, seed); also written as CSV."""
    if not runs:
        raise ValueError("no runs to summarize")
    rows = []
    for run in runs:
        status = "failed" if run.failed or not run.best else "ok"
        # a run without records gets one all-NaN row
        best = run.best or {0: dict.fromkeys(LOSS_FIELDS, math.nan)}
        for level, losses in sorted(best.items()):
            rows.append({"level": run.label(level), "seed": run.seed, "status": status,
                         **{f"best_{name}": losses[name] for name in LOSS_FIELDS}})
    _write_rows(rows, path)
    return rows


def _write_rows(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _layer_desc(layer) -> str:
    if isinstance(layer, ConvLayer):
        kh, kw = layer.kernel_size
        return (
            f"conv {layer.in_channels}->{layer.out_channels} "
            f"k{kh}x{kw} s{layer.stride} p{layer.padding}"
        )
    return f"dense {layer.n_in}->{layer.n_out}"


def _hierarchy_signature(net: Network) -> dict:
    """What the levels of one hierarchy share: layer count, layer kinds with a
    conv layer's kernel size, stride and padding, input shape, output size."""
    sig = {"layer count": net.n_layers}
    for k, layer in enumerate(net.layers):
        conv = isinstance(layer, ConvLayer)
        geometry = f" k{layer.kernel_size} s{layer.stride} p{layer.padding}" if conv else ""
        sig[f"layer {k}"] = ("conv" if conv else "dense") + geometry
    return sig | {"input shape": net.interfaces[0], "output size": net.output_size}


def inspect_hierarchy(paths, theta: float = Hierarchy.theta) -> str:
    """Text report over a stack of per-level checkpoints (fine first).

    Reports widths, parameter counts, per-layer coarsening ratios against
    the next checkpoint, and the aggregate-size histogram a matching of the
    level's current parameters produces.  Raises ``ValueError`` when two
    consecutive checkpoints cannot be levels of one hierarchy.
    """
    nets = [load_network(p) for p in paths]
    for k in range(1, len(nets)):
        fine, coarse = map(_hierarchy_signature, nets[k - 1 : k + 1])
        # a differing layer count comes first, so the keys compared are in both
        key = next((key for key in fine if fine[key] != coarse[key]), None)
        if key is not None:
            raise ValueError(f"{paths[k - 1]} and {paths[k]} are not levels of one "
                             f"hierarchy: {key} {fine[key]} against {coarse[key]}")
    lines = []
    for lvl, (path, net) in enumerate(zip(paths, nets)):
        lines.append(f"level {lvl}: {path}")
        for k, layer in enumerate(net.layers):
            lines.append(f"  layer {k}: {_layer_desc(layer)}")
        lines.append(f"  interface units: {net.unit_counts()}")
        lines.append(f"  parameters: {net.param_count()}")
        if lvl > 0:
            ratio = net.param_count() / nets[0].param_count()
            lines.append(f"  parameter ratio vs level 0: {ratio:.4f}")
        if lvl + 1 < len(nets):
            coarse = nets[lvl + 1]
            t = coarsen_network(net, theta=theta)
            fine_units = net.unit_counts()
            next_units = coarse.unit_counts()
            for k in range(1, len(fine_units) - 1):
                op = t.interfaces[k]
                sizes = np.bincount(op.aggregate)
                hist = {int(s): int(c) for s, c in
                        zip(*np.unique(sizes, return_counts=True))}
                lines.append(
                    f"  interface {k}: units {fine_units[k]} -> {next_units[k]} "
                    f"(ratio {next_units[k] / fine_units[k]:.3f}), "
                    f"matching now gives {op.n_coarse} aggregates, "
                    f"size histogram {hist}"
                )
    return "\n".join(lines)
