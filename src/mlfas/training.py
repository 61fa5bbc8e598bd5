"""Multilevel training engine.

The smoother is plain SGD with momentum and optional weight decay.  A
V-cycle pre-smooths a level, restricts the iterate and momentum to the
next-coarser network, computes a stochastic tau correction that tilts the
coarse objective toward first-order consistency with the fine one, solves
(or recurses on) the tilted coarse problem, applies damped coarse-grid
corrections to parameters and momentum, and post-smooths.  Minibatches come
from one shared shuffled cyclic stream; each restriction draws the next
``m`` batches for the tau correction and the coarse smoothing reuses those
same batches cyclically.
"""

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

# flatten and unflatten are not called here; perfbench/tracer.py rebinds them at this module
from .nets import LoweredInput, Minibatch, Network, ParamVector, backward, flatten, unflatten
from .transfer import (
    TransferLevel,
    coarse_grid_correction,
    coarsen_network,
    refresh_weights,
    restrict_gradient,
    restrict_network,
    restrict_params,
)


class DivergenceError(RuntimeError):
    """Non-finite state detected during training."""

    def __init__(self, message: str, level: int | None = None, cycle: int | None = None):
        super().__init__(message)
        self.level = level
        self.cycle = cycle


@dataclass(frozen=True)
class SmootherConfig:
    """SGD-with-momentum settings for one smoothing block.

    ``steps_per_smooth`` may be 0 to disable movement at a level (useful
    for degenerate-cycle checks).
    """

    learning_rate: float
    momentum_coeff: float = 0.9
    weight_decay: float = 0.0
    steps_per_smooth: int = 1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum_coeff < 1.0:
            raise ValueError("momentum_coeff must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if self.steps_per_smooth < 0:
            raise ValueError("steps_per_smooth must be nonnegative")


# levels over which the learning-rate division by ``eta`` compounds
ETA_DEPTH = 3


@dataclass(frozen=True)
class StabilityConfig:
    """Damping knobs for deeper hierarchies.

    The learning rate is divided by ``eta`` per level for the first
    ``ETA_DEPTH`` levels and then held; ``alpha_p`` and ``alpha_m`` damp the
    parameter and momentum coarse-grid corrections; ``gamma`` scales the tau
    tilt of the coarse objective.
    """

    eta: float = math.sqrt(2.0)
    alpha_p: float = 1.0
    alpha_m: float = 0.2
    gamma: float = 0.125

    def __post_init__(self):
        if self.eta < 1.0:
            raise ValueError("eta must be >= 1")
        for name in ("alpha_p", "alpha_m"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")


@dataclass
class TauCorrection:
    """Coarse-shaped tilt vector for the auxiliary objective."""

    vec: ParamVector


class MinibatchScheduler:
    """Shuffled cyclic minibatch stream over a fixed sample set.

    One shared cursor serves both smoothing steps and tau-group draws; the
    permutation is redrawn whenever an epoch is exhausted.  Iterating the
    scheduler yields minibatches forever.  ``inputs`` are raw rows or, as
    ``run_seed`` passes them, the split's ``LoweredInput``, whose rows a
    batch then gathers in place of the raw ones.
    """

    def __init__(self, inputs, targets, batch_size: int, rng: np.random.Generator):
        if not isinstance(inputs, LoweredInput):
            inputs = np.asarray(inputs, dtype=np.float64)
        self.inputs = inputs
        self.targets = np.asarray(targets, dtype=np.float64)
        n = len(self.inputs)
        if self.targets.shape[0] != n:
            raise ValueError("inputs and targets disagree on sample count")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if batch_size > n:
            raise ValueError(f"batch_size {batch_size} exceeds dataset size {n}")
        self.batch_size = batch_size
        self.n_samples = n
        self.batches_per_epoch = -(-n // batch_size)
        self.rng = rng
        self._order = None
        self._pos = 0

    def __iter__(self):
        return self

    def __next__(self) -> Minibatch:
        return self.next_batch()

    def next_batch(self) -> Minibatch:
        if self._order is None or self._pos >= self.batches_per_epoch:
            self._order = self.rng.permutation(self.n_samples)
            self._pos = 0
        lo = self._pos * self.batch_size
        hi = min(lo + self.batch_size, self.n_samples)
        idx = self._order[lo:hi]
        self._pos += 1
        return Minibatch(self.inputs[idx], self.targets[idx])

    def next_tau_group(self, m: int) -> list[Minibatch]:
        """Draw the next m minibatches in shuffled cyclic order."""
        if m < 1:
            raise ValueError("tau group size must be positive")
        return [self.next_batch() for _ in range(m)]


def sgd_smooth(
    net: Network,
    momentum: ParamVector,
    cfg: SmootherConfig,
    batches,
    tau: TauCorrection | None = None,
    gamma: float = 0.0,
):
    """Run ``steps_per_smooth`` SGD-with-momentum steps on the network.

    Per step: grad = batch gradient + weight_decay * x - gamma * tau (the
    tau tilt is linear, so its gradient contribution is constant), then
    momentum = momentum_coeff * momentum + grad and x = x - lr * momentum.
    The network's parameter buffer and the momentum are updated in place;
    the network's gradient buffer is scratch.
    """
    batch_iter = iter(batches)
    x, grad, m = net.params.data, net.grad.data, momentum.data
    tilt = gamma * tau.vec.data if tau is not None and gamma != 0.0 else None
    for _ in range(cfg.steps_per_smooth):
        backward(net, next(batch_iter), out=net.grad)
        if cfg.weight_decay:
            grad += cfg.weight_decay * x
        if tilt is not None:
            grad -= tilt
        m *= cfg.momentum_coeff
        m += grad
        # the gradient is spent; its buffer takes lr * momentum
        np.multiply(m, cfg.learning_rate, out=grad)
        x -= grad
    return net, momentum


def compute_tau(
    fine: Network,
    coarse: Network,
    t: TransferLevel,
    tau_batches: list[Minibatch],
    n_total_minibatches: int,
) -> TauCorrection:
    """Stochastic tau correction between a network and its coarse version.

    Gradients are accumulated over the given batches on both levels; the
    coarse accumulation minus the restricted fine accumulation is scaled by
    N/m, with N the number of minibatches per epoch and m the group size.
    The caller must have installed the restricted iterate in ``coarse``.
    """
    if not tau_batches:
        raise ValueError("tau correction needs at least one minibatch")
    # the accumulators are new vectors; later batches go through the
    # networks' own gradient buffers
    fine_acc = backward(fine, tau_batches[0])
    vec = backward(coarse, tau_batches[0])
    for batch in tau_batches[1:]:
        fine_acc.data += backward(fine, batch, out=fine.grad).data
        vec.data += backward(coarse, batch, out=coarse.grad).data
    # the coarse gradient buffer is free again once the batch loop is done
    vec.data -= restrict_gradient(t, fine_acc, out=coarse.grad).data
    vec.data *= n_total_minibatches / len(tau_batches)
    if not np.isfinite(vec.data).all():
        raise DivergenceError("non-finite tau correction")
    return TauCorrection(vec=vec)


def work_units(level_param_count: int, fine_param_count: int) -> float:
    """Cost of one minibatch gradient evaluation at a level, in fine units."""
    return level_param_count / fine_param_count


class WorkCounter:
    """Monotone accumulator of gradient-evaluation work."""

    def __init__(self):
        self.total = 0.0

    def add(self, units: float) -> float:
        if units < 0:
            raise ValueError("work units are nonnegative")
        self.total += units
        return self.total


@dataclass
class LevelState:
    """Mutable per-level training state.

    On a coarse level, ``start`` keeps the restricted iterate and momentum
    that began the current visit, for the coarse-grid corrections.
    """

    net: Network
    momentum: ParamVector
    transfer: TransferLevel | None = None  # to the next-coarser level
    tau: TauCorrection | None = None
    start: tuple[ParamVector, ParamVector] | None = None


@dataclass(eq=False)
class Hierarchy:
    """Stack of progressively narrower networks plus cycle bookkeeping."""

    levels: list[LevelState]
    depth: int
    rematch_period: int = 10
    tau_batches: int = 2
    theta: float = 0.1
    weighted: bool = True
    cycles_run: int = field(default=0, init=False)
    work: WorkCounter = field(default_factory=WorkCounter, init=False)

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.rematch_period < 1:
            raise ValueError("rematch_period must be positive")
        if self.tau_batches < 1:
            raise ValueError("tau_batches must be positive")

    @classmethod
    def build(cls, net: Network, depth: int, **settings) -> "Hierarchy":
        """Hierarchy over ``net`` with its coarse levels matched.

        ``settings`` are the fields from ``rematch_period`` to ``weighted``.
        """
        h = cls([LevelState(net=net, momentum=net.params.zeros_like())], depth, **settings)
        h.rematch()
        return h

    def rematch(self) -> None:
        """Recompute matchings and rebuild the coarse nets, fine to coarse."""
        for lvl in range(self.depth - 1):
            state = self.levels[lvl]
            t = coarsen_network(state.net, theta=self.theta, weighted=self.weighted)
            state.transfer = t
            coarse = restrict_network(state.net, t)
            coarse_state = LevelState(net=coarse, momentum=coarse.params.zeros_like())
            if lvl + 1 < len(self.levels):
                self.levels[lvl + 1] = coarse_state
            else:
                self.levels.append(coarse_state)

    def param_ratio(self, level: int) -> float:
        return work_units(self.levels[level].net.param_count(), self.levels[0].net.param_count())


def _cfg_for(cfgs, level: int) -> SmootherConfig:
    if isinstance(cfgs, SmootherConfig):
        return cfgs
    return cfgs[min(level, len(cfgs) - 1)]


def _effective_cfg(cfgs, level: int, stab: StabilityConfig) -> SmootherConfig:
    cfg = _cfg_for(cfgs, level)
    scale = stab.eta ** min(level, ETA_DEPTH)
    if scale == 1.0:
        return cfg
    return replace(cfg, learning_rate=cfg.learning_rate / scale)


def _check_finite(h: Hierarchy, level: int, stage: str) -> None:
    state = h.levels[level]
    for arr, name in ((state.net.params.data, "parameters"), (state.momentum.data, "momentum")):
        if not np.isfinite(arr).all():
            raise DivergenceError(
                f"non-finite {name} at level {level} after {stage} "
                f"(cycle {h.cycles_run})",
                level=level,
                cycle=h.cycles_run,
            )


def _smooth_level(h: Hierarchy, level: int, cfg: SmootherConfig, batches, gamma: float) -> None:
    if cfg.steps_per_smooth == 0:
        return
    state = h.levels[level]
    sgd_smooth(state.net, state.momentum, cfg, batches, tau=state.tau, gamma=gamma)
    h.work.add(cfg.steps_per_smooth * h.param_ratio(level))
    _check_finite(h, level, "smoothing")


def v_cycle(
    h: Hierarchy,
    level: int,
    cfgs,
    stab: StabilityConfig,
    scheduler: MinibatchScheduler,
    _batches=None,
) -> Hierarchy:
    """One V-cycle starting at ``level`` (call with level=0).

    At the entry level the matchings are rebuilt every ``rematch_period``
    cycles and smoothing consumes the shared batch stream; deeper levels
    smooth on the tau-group batches handed down by their parent.  The
    coarsest level degenerates to a single smoothing block, so depth 1 is
    plain SGD.
    """
    state = h.levels[level]
    if level == 0:
        if h.cycles_run > 0 and h.cycles_run % h.rematch_period == 0:
            h.rematch()
        _batches = iter(scheduler)
    cfg = _effective_cfg(cfgs, level, stab)

    _smooth_level(h, level, cfg, _batches, stab.gamma)

    if level < h.depth - 1:
        t = refresh_weights(state.transfer, state.net)
        coarse = h.levels[level + 1]
        restrict_params(t, state.net.params, out=coarse.net.params)
        restrict_params(t, state.momentum, out=coarse.momentum)
        if coarse.start is None:  # one block for both, until a rematch rebuilds the level
            block = np.zeros((2, coarse.net.params.total_len))
            coarse.start = tuple(ParamVector(row, coarse.net.params.segments) for row in block)
        np.copyto(coarse.start[0].data, coarse.net.params.data)
        np.copyto(coarse.start[1].data, coarse.momentum.data)

        group = scheduler.next_tau_group(h.tau_batches)
        try:
            coarse.tau = compute_tau(
                state.net, coarse.net, t, group, scheduler.batches_per_epoch
            )
        except DivergenceError as e:
            raise DivergenceError(
                f"{e} during restriction to level {level + 1} (cycle {h.cycles_run})",
                level=level + 1,
                cycle=h.cycles_run,
            ) from e
        h.work.add(h.tau_batches * (h.param_ratio(level) + h.param_ratio(level + 1)))

        v_cycle(h, level + 1, cfgs, stab, scheduler, _batches=itertools.cycle(group))

        # both gradient buffers are free until the post-smoothing, and this
        # level has not moved since its state was restricted into ``start``
        scratch = (coarse.net.grad, state.net.grad)
        coarse_grid_correction(
            state.net.params, coarse.net.params, t, alpha=stab.alpha_p,
            out=state.net.params, scratch=scratch, restricted=coarse.start[0],
        )
        coarse_grid_correction(
            state.momentum, coarse.momentum, t, alpha=stab.alpha_m,
            out=state.momentum, scratch=scratch, restricted=coarse.start[1],
        )
        _check_finite(h, level, "coarse-grid correction")

        _smooth_level(h, level, cfg, _batches, stab.gamma)

    if level == 0:
        h.cycles_run += 1
    return h
