"""Call-site span tracer for the mlfas benchmark.

The tracer rebinds public mlfas functions at the modules that look them up
(``mlfas.training.backward`` is where ``sgd_smooth`` and ``compute_tau``
find ``backward``, so wrapping ``mlfas.nets.backward`` alone would miss
them).  Each call becomes one span ``(name, start, end, parent, run, level,
work_units)`` kept in memory; ``per_layer_metrics`` turns the spans into the
benchmark's per-layer numbers.  The package sources are never edited, and
``uninstall`` restores every original binding.  The tracer also times its
own bookkeeping per run, so its cost is measured inside the traced run
rather than against a separate untraced run.
"""

import csv
import math
import statistics
import time

import numpy as np

import mlfas.conv as conv
import mlfas.harness as harness
import mlfas.nets as nets
import mlfas.poisson as poisson
import mlfas.training as training
import mlfas.transfer as transfer

NAME, START, END, PARENT, RUN, LEVEL, WU = range(7)
LEVELS = (0, 1, 2)


class _CountingOperator:
    """Sparse operator proxy that counts matrix-vector products."""

    def __init__(self, matrix, tracer):
        self._matrix = matrix
        self._tracer = tracer

    def __matmul__(self, v):
        self._tracer.matvecs += 1
        return self._matrix @ v


class Tracer:
    """Records spans around rebound call sites; one instance per process."""

    def __init__(self):
        self.spans = []
        self.run = "setup"  # label stamped on every span recorded from now on
        self.hierarchy = None  # latest Hierarchy seen entering v_cycle
        self.matvecs = 0
        self.pairs = {}  # run label -> [units that found a partner, units offered]
        self.cost = {}  # run label -> seconds spent in the tracer's own bookkeeping
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` wrapped to record a span; ``before(args)`` gives (level, wu)."""
        spans, stack, cost = self.spans, self._stack, self.cost

        def traced(*args, **kwargs):
            enter = time.perf_counter()
            level, wu = before(args) if before else (-1, 0.0)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run, level, wu)
            if after:
                out = after(out)
            cost[self.run] = cost.get(self.run, 0.0) + time.perf_counter() - enter - (t1 - t0)
            return out

        return traced

    # hooks --------------------------------------------------------------

    def _level(self, net) -> int:
        for k, state in enumerate(self.hierarchy.levels):
            if state.net is net:
                return k
        raise LookupError("network is not a level of the current hierarchy")

    def _net_level(self, args):
        return self._level(args[0]), 0.0

    def _gradient_level(self, args):
        # one backward call is one charged gradient evaluation at its level
        net = args[0]
        fine = self.hierarchy.levels[0].net
        return self._level(net), net.param_count() / fine.param_count()

    def _enter_cycle(self, args):
        self.hierarchy = args[0]
        return args[1], 0.0

    def _count_operator(self, matrix):
        return _CountingOperator(matrix, self)

    def _count_pairs(self, matching):
        tally = self.pairs.setdefault(self.run, [0, 0])
        tally[0] += int(np.count_nonzero(matching.partner != np.arange(matching.n)))
        tally[1] += matching.n
        return matching

    # installation -------------------------------------------------------

    def _sites(self):
        """(span name, original, call sites, before, after) per traced function."""
        return [
            ("poisson.solve_poisson", poisson.solve_poisson, [poisson], None, None),
            ("poisson.assemble_operator", poisson.assemble_operator, [poisson],
             None, self._count_operator),
            ("nets.backward", nets.backward, [training], self._gradient_level, None),
            ("nets.flatten", nets.flatten, [training, transfer], None, None),
            ("nets.unflatten", nets.unflatten, [training], None, None),
            ("nets.param_layout", nets.param_layout, [nets], None, None),
            ("conv.forward", conv.conv_forward_batch, [nets], None, None),
            ("conv.backward", conv.conv_backward_batch, [nets], None, None),
            ("coarsening.greedy_hem", transfer.greedy_hem, [transfer], None, self._count_pairs),
            ("coarsening.build_transfer", transfer.build_transfer, [transfer], None, None),
            ("transfer.restrict_params", transfer.restrict_params, [training, transfer],
             None, None),
            ("transfer.prolong_params", transfer.prolong_params, [transfer], None, None),
            ("transfer.restrict_gradient", transfer.restrict_gradient, [training], None, None),
            ("transfer.coarse_grid_correction", transfer.coarse_grid_correction, [training],
             None, None),
            ("transfer.refresh_weights", transfer.refresh_weights, [training], None, None),
            ("transfer.coarsen_network", transfer.coarsen_network, [training], None, None),
            ("training.sgd_smooth", training.sgd_smooth, [training], self._net_level, None),
            ("training.compute_tau", training.compute_tau, [training], None, None),
            ("training.v_cycle", training.v_cycle, [training, harness], self._enter_cycle, None),
            ("harness.eval", harness.loss, [harness], None, None),
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, fn, owners, before, after in self._sites():
            wrapped = self.wrap(name, fn, before, after)
            attr = fn.__name__
            for owner in owners:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapped)
        for cls, attr, name in (
            (training.Hierarchy, "rematch", "training.rematch"),
            (training.MinibatchScheduler, "next_batch", "training.scheduler"),
        ):
            self._saved.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as one CSV row; ``parent`` is a row index or -1."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start", "end", "parent", "run", "level", "work_units"])
            out.writerows(self.spans)


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def tail_percentile(n: int) -> float:
    """Highest of a fixed percentile ladder with at least ten samples beyond it."""
    best = 50.0
    for p in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def per_layer_metrics(tracer: Tracer, runs: list[str], fine_wu: list[float]):
    """Per-layer metrics over the traced training runs ``runs``.

    Sums are per training run (mean over runs); ``.ms`` figures are medians
    (or the stated tail) of single calls pooled over runs; ``.calls`` are per
    run.  ``fine_wu`` holds each run's final work-unit total, which the
    per-level work-unit attribution must reproduce.  Returns (metrics, notes).
    """
    spans = tracer.spans
    selfs = self_times(spans)
    in_runs = set(runs)
    n_runs = len(runs)
    total = {}
    calls = {}
    per_call = {}
    self_total = {}
    level_s = {}
    level_wu = {(r, k): 0.0 for r in runs for k in LEVELS}
    root = {}
    top = {r: 0.0 for r in runs}
    for i, s in enumerate(spans):
        if s[RUN] not in in_runs:
            continue
        name, dur = s[NAME], s[END] - s[START]
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + selfs[i]
        per_call.setdefault((name, s[LEVEL]), []).append(dur)
        if name == "harness.run_experiment":
            root[s[RUN]] = (i, dur)
        if name == "nets.backward":
            level_wu[(s[RUN], s[LEVEL])] += s[WU]
        if name == "training.sgd_smooth" or (
            name == "nets.backward" and spans[s[PARENT]][NAME] == "training.compute_tau"
        ):
            level_s[s[LEVEL]] = level_s.get(s[LEVEL], 0.0) + dur
    for s in spans:
        if s[RUN] in in_runs and s[PARENT] == root[s[RUN]][0]:
            top[s[RUN]] += s[END] - s[START]

    for r, expected in zip(runs, fine_wu):
        got = sum(level_wu[(r, k)] for k in LEVELS)
        if not math.isclose(got, expected, rel_tol=1e-9):
            raise AssertionError(f"work units by level sum to {got}, the run charged {expected}")

    def per_run(name):
        return total.get(name, 0.0) / n_runs

    def ms(name, level=-1):
        vals = per_call.get((name, level))
        return 1e3 * statistics.median(vals) if vals else 0.0

    train_s = sum(d for _, d in root.values())
    wu = {k: sum(level_wu[(r, k)] for r in runs) for k in LEVELS}
    cost = {k: level_s.get(k, 0.0) / wu[k] if wu[k] else 0.0 for k in LEVELS}

    solves = sorted(s[END] - s[START] for s in spans
                    if s[RUN] == "setup" and s[NAME] == "poisson.solve_poisson")
    solve_pct = tail_percentile(len(solves))
    offered = sum(tracer.pairs.get(r, [0, 0])[1] for r in runs)
    paired = sum(tracer.pairs.get(r, [0, 0])[0] for r in runs)

    def setup_s(name):
        return sum(s[END] - s[START] for s in spans if s[RUN] == "setup" and s[NAME] == name)

    m = {
        "poisson.generate_dataset.s": setup_s("poisson.generate_dataset"),
        "poisson.solve_poisson.ms.p50": 1e3 * statistics.median(solves),
        "poisson.solve_poisson.ms.tail": 1e3 * float(np.percentile(solves, solve_pct)),
        "poisson.assemble_operator.s": setup_s("poisson.assemble_operator"),
        "poisson.cg_matvecs": tracer.matvecs / len(solves),
        "nets.backward.s": per_run("nets.backward"),
        "nets.backward.ms.L0": ms("nets.backward", 0),
        "nets.backward.ms.L1": ms("nets.backward", 1),
        "nets.backward.ms.L2": ms("nets.backward", 2),
        "nets.flatten.calls": calls.get("nets.flatten", 0) / n_runs,
        "nets.flatten.s": per_run("nets.flatten"),
        "nets.unflatten.s": per_run("nets.unflatten"),
        "nets.param_layout.calls": calls.get("nets.param_layout", 0) / n_runs,
        "conv.forward.s": per_run("conv.forward"),
        "conv.backward.s": per_run("conv.backward"),
        "conv.backward.ms.p50": ms("conv.backward"),
        "coarsening.greedy_hem.s": per_run("coarsening.greedy_hem"),
        "coarsening.greedy_hem.calls": calls.get("coarsening.greedy_hem", 0) / n_runs,
        "coarsening.build_transfer.s": per_run("coarsening.build_transfer"),
        "coarsening.pair_ratio": paired / offered if offered else 0.0,
        "transfer.restrict_params.s": per_run("transfer.restrict_params"),
        "transfer.prolong_params.s": per_run("transfer.prolong_params"),
        "transfer.restrict_gradient.s": per_run("transfer.restrict_gradient"),
        "transfer.coarse_grid_correction.s": per_run("transfer.coarse_grid_correction"),
        "transfer.refresh_weights.s": per_run("transfer.refresh_weights"),
        "transfer.coarsen_network.s": per_run("transfer.coarsen_network"),
        "training.compute_tau.s": per_run("training.compute_tau"),
        "training.rematch.s": per_run("training.rematch"),
        "training.scheduler.s": per_run("training.scheduler"),
        "training.v_cycle.self_s": self_total.get("training.v_cycle", 0.0) / n_runs,
        "harness.eval.s": per_run("harness.eval"),
        "harness.eval.share": total.get("harness.eval", 0.0) / train_s,
        "trace.unattributed_share": 1.0 - sum(top.values()) / train_s,
    }
    for k in LEVELS:
        m[f"training.sgd_smooth.s.L{k}"] = sum(per_call.get(("training.sgd_smooth", k), [])) / n_runs
        m[f"training.wu.L{k}"] = wu[k] / n_runs
        if k:
            m[f"training.cost_per_wu.L{k}"] = cost[k] / cost[0] if cost[k] else 0.0
    notes = {"poisson.solve_poisson.ms.tail": f"p{solve_pct:g} of {len(solves)} solves",
             "traced_runs": n_runs}
    return m, notes
