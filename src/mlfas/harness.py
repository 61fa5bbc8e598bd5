"""Experiment harness.

Parses flat key=value experiment configs, runs seeded one-level SGD or
multilevel V-cycle training to a work-unit budget, logs train/validation
losses for the fine network and the first auxiliary (first-coarsened)
network, and emits metrics CSVs plus a best-loss summary table.  One work
unit is the cost of one fine-level minibatch gradient evaluation; coarser
evaluations are scaled by their parameter-count ratio.
"""

import contextvars
import csv
import math
import multiprocessing
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .checkpoints import load_network, save_network
from .conv import ConvLayer
from .nets import DenseLayer, Minibatch, Network, loss, lower_input, uniform_init
from .poisson import RegressionDataset, read_dataset
from .training import (
    DivergenceError,
    Hierarchy,
    MinibatchScheduler,
    SmootherConfig,
    StabilityConfig,
    v_cycle,
)
from .transfer import coarsen_network


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs for one experiment; see README for the key reference."""

    dataset: str = ""
    arch: str = "dense:128,dense:128"
    depth: int = 1
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    steps_per_smooth: int = 4
    batch_size: int = 200
    tau_batches: int = 2
    rematch_period: int = 50
    theta: float = 0.1
    weighted: bool = True
    eta: float = math.sqrt(2.0)
    alpha_p: float = 1.0
    alpha_m: float = 0.2
    gamma: float = 0.125
    max_work_units: float = 5000.0
    eval_every: float = 25.0
    seeds: tuple = (0,)
    out_dir: str = ""
    workers: int = 1

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if self.eval_every <= 0:
            raise ConfigError("eval_every must be positive")
        if self.max_work_units <= 0:
            raise ConfigError("max_work_units must be positive")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


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


def parse_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a flat key=value config file ('#' starts a comment)."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            values[key] = text
    if overrides:
        values.update({k: str(v) for k, v in overrides.items()})
    field_types = {f.name: f.type for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, text in values.items():
        if key not in field_types:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[key] = _coerce(key, field_types[key], text)
    return ExperimentConfig(**kwargs)


def config_text(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


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
    automatically.
    """
    layers = []
    if not isinstance(input_shape, tuple):
        input_shape = int(input_shape)
    shape = input_shape  # the running interface: (channels, height, width) or a width
    for token in (t.strip() for t in arch.split(",") if t.strip()):
        m = _CONV_TOKEN.match(token)
        if m:
            if not isinstance(shape, tuple):
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
            shape = width
            continue
        raise ConfigError(f"unrecognized architecture token {token!r}")
    layers.append(DenseLayer(np.zeros((output_size, int(np.prod(shape)))), np.zeros(output_size)))
    net = Network(layers, input_shape=input_shape)
    if rng is not None:
        uniform_init(net, rng)
    return net


def take_rows(a: np.ndarray, idx) -> np.ndarray:
    """Rows ``idx`` of ``a``: a view when ``idx`` is a contiguous ascending
    range inside ``a``, otherwise a copy gathered by fancy indexing."""
    idx = np.asarray(idx)
    if idx.ndim == 1 and idx.size and idx.dtype.kind in "iu":
        lo, hi = int(idx[0]), int(idx[-1]) + 1
        if 0 <= lo and hi <= len(a) and (np.diff(idx) == 1).all():
            return a[lo:hi]
    return a[idx]


def dataset_splits(ds: RegressionDataset):
    """(train inputs, train targets, val inputs, val targets) as flat arrays.

    Each is a view into the dataset when its index array is a contiguous
    range, as ``generate_dataset`` and ``read_dataset`` make them, and a
    copy otherwise.  Nothing downstream writes to them.
    """
    xi, yo = ds.flat_inputs(), ds.flat_outputs()
    train, val = ds.train_idx, ds.val_idx
    return take_rows(xi, train), take_rows(yo, train), take_rows(xi, val), take_rows(yo, val)


def _network_input_shape(cfg: ExperimentConfig, ds: RegressionDataset):
    if cfg.arch.lstrip().startswith("conv"):
        return (ds.channels, ds.n, ds.n)
    return ds.channels * ds.n * ds.n


def _leave_start_cpu() -> None:
    """Move the calling thread onto the process's other CPUs, if it has any.

    A new thread starts on its creator's CPU.  Where the kernel does not
    balance load between CPUs (a cpuset with ``sched_load_balance`` 0) it
    never leaves it, so the evaluation worker would share training's CPU
    and time-slice with it instead of overlapping it.  Placement is only a
    hint: without the Linux calls, or if they fail, the thread stays put.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        # field 39 of a task's stat line is the CPU it last ran on
        with open("/proc/thread-self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except OSError:
        pass


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
    """
    xtr, ytr, xva, yva = dataset_splits(ds)
    if cfg.batch_size > xtr.shape[0]:
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds training split size {xtr.shape[0]}"
        )
    net = build_network(
        cfg.arch,
        _network_input_shape(cfg, ds),
        ytr.shape[1],
        rng=np.random.default_rng([seed, 202]),
    )
    # the input interface is never coarsened, so one lowering per split
    # serves every level's first layer, in training and in evaluation
    train_mb = Minibatch(lower_input(net, xtr), ytr)
    val_mb = Minibatch(lower_input(net, xva), yva)
    scheduler = MinibatchScheduler(
        train_mb.inputs, ytr, cfg.batch_size, np.random.default_rng([seed, 101])
    )
    smoother = SmootherConfig(
        learning_rate=cfg.learning_rate,
        momentum_coeff=cfg.momentum,
        weight_decay=cfg.weight_decay,
        steps_per_smooth=cfg.steps_per_smooth,
    )
    stab = StabilityConfig(
        eta=cfg.eta,
        alpha_p=cfg.alpha_p,
        alpha_m=cfg.alpha_m,
        gamma=cfg.gamma,
    )
    hierarchy = Hierarchy.build(
        net,
        cfg.depth,
        rematch_period=cfg.rematch_period,
        tau_batches=cfg.tau_batches,
        theta=cfg.theta,
        weighted=cfg.weighted,
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
        # numpy keeps np.errstate in a context variable, which a thread
        # does not inherit; the caller's settings must hold in the worker
        pending = pool.submit(contextvars.copy_context().run, losses, snapshot,
                              hierarchy.work.total, cycle, wall)

    failed = False
    reason = ""
    pool = ThreadPoolExecutor(max_workers=1, initializer=_leave_start_cpu)
    try:
        try:
            evaluate(0)
            next_eval = cfg.eval_every
            while hierarchy.work.total < cfg.max_work_units:
                v_cycle(hierarchy, 0, smoother, stab, scheduler)
                if hierarchy.work.total >= next_eval:
                    evaluate(hierarchy.cycles_run)
                    next_eval = (hierarchy.work.total // cfg.eval_every + 1) * cfg.eval_every
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


def _run_seed_from_path(cfg: ExperimentConfig, seed: int) -> RunResult:
    return run_seed(cfg, seed, read_dataset(cfg.dataset))


def _run_seeds_in_workers(cfg: ExperimentConfig) -> list[RunResult]:
    """Run each seed in a fresh process whose BLAS uses one thread.

    The BLAS libraries read their thread count when numpy loads, so the
    variables are set in this process's environment while the spawned
    workers start, then restored.
    """
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(max_workers=cfg.workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = [pool.submit(_run_seed_from_path, cfg, seed) for seed in cfg.seeds]
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
    return workers + "# evaluation: one worker thread per seed, overlapped with training\n"


def run_experiment(cfg: ExperimentConfig, ds: RegressionDataset | None = None) -> list[RunResult]:
    """Run every seed of a config; failed runs are kept and marked.

    Seeds run as independent processes when ``workers`` > 1 (the dataset is
    then re-read per worker, so ``cfg.dataset`` must be a path).
    """
    if ds is None:
        ds = read_dataset(cfg.dataset)
    parallel = cfg.workers > 1 and len(cfg.seeds) > 1
    if parallel:
        if not cfg.dataset:
            raise ConfigError("parallel runs need a dataset path")
        results = _run_seeds_in_workers(cfg)
    else:
        results = [run_seed(cfg, seed, ds) for seed in cfg.seeds]
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        for run in results:
            if run.records:
                emit_csv(run.records, os.path.join(cfg.out_dir, f"metrics_s{run.seed}.csv"))
        emit_summary_table(results, os.path.join(cfg.out_dir, "summary.csv"))
        with open(os.path.join(cfg.out_dir, "run_metadata.txt"), "w") as fh:
            fh.write(config_text(cfg))
            fh.write(
                "# work unit: one fine-level minibatch gradient evaluation;"
                " coarser levels scaled by parameter-count ratio\n"
            )
            fh.write(_parallelism_text(cfg, parallel))
    return results


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
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return rows


def _layer_desc(layer) -> str:
    if isinstance(layer, ConvLayer):
        kh, kw = layer.kernel_size
        return (
            f"conv {layer.in_channels}->{layer.out_channels} "
            f"k{kh}x{kw} s{layer.stride} p{layer.padding}"
        )
    return f"dense {layer.n_in}->{layer.n_out}"


def inspect_hierarchy(paths, theta: float = 0.1) -> str:
    """Text report over a stack of per-level checkpoints (fine first).

    Reports widths, parameter counts, per-layer coarsening ratios against
    the next checkpoint, and the aggregate-size histogram a matching of the
    level's current parameters produces.
    """
    nets = [load_network(p) for p in paths]
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
