"""Multilevel training engine.

The smoother is plain SGD with momentum and optional weight decay.  A
V-cycle pre-smooths a level, restricts the iterate and momentum to the
next-coarser network, computes a stochastic tau correction that tilts the
coarse objective toward first-order consistency with the fine one, solves
(or recurses on) the tilted coarse problem, applies the coarse-grid
correction to the parameters and a damped one to the momentum, and
post-smooths.  Minibatches come from one shared shuffled cyclic stream,
gathered from the training split lowered once for every level's first
layer; each restriction draws the next ``m`` batches for the tau
correction and the coarse smoothing reuses those same batches cyclically.
"""

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

# flatten and unflatten are not called here; perfbench/tracer.py rebinds them at this module
from .nets import (
    Minibatch,
    Network,
    ParamVector,
    backward,
    flatten,
    unflatten,
)
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
            raise ValueError("momentum must lie in [0, 1)")
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
    ``ETA_DEPTH`` levels and then held; ``alpha_m`` damps the momentum's
    coarse-grid correction, while the parameters take theirs undamped;
    ``gamma`` scales the tau tilt of the coarse objective: 1 makes it
    first-order consistent with the fine one at any number of minibatches
    per epoch, a smaller value blends toward the coarse network's own loss,
    and 0 leaves it untilted, so no tau is computed.
    """

    eta: float = math.sqrt(2.0)
    alpha_m: float = 0.2
    gamma: float = 1.0

    def __post_init__(self):
        if self.eta < 1.0:
            raise ValueError("eta must be >= 1")
        if not 0.0 < self.alpha_m <= 1.0:
            raise ValueError("alpha_m must lie in (0, 1]")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")


class MinibatchScheduler:
    """Shuffled cyclic minibatch stream over one lowered split.

    ``split`` is the whole split as one ``Minibatch``, its inputs lowered
    once (``run_seed`` builds it); each batch gathers its rows.  One shared
    cursor serves both smoothing steps and tau-group draws; the permutation
    is redrawn whenever an epoch is exhausted.  Iterating the scheduler
    yields minibatches forever.
    """

    def __init__(self, split: Minibatch, batch_size: int, rng: np.random.Generator):
        if not isinstance(split, Minibatch):
            raise TypeError(f"the scheduler draws from a lowered split Minibatch, "
                            f"got {type(split).__name__}")
        self.split = split
        n = len(split)
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
        return Minibatch(self.split.inputs[idx], self.split.targets[idx])

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
    tilt: ParamVector | None = None,
):
    """Run ``steps_per_smooth`` SGD-with-momentum steps on the network.

    Per step: grad = batch gradient + weight_decay * x - tilt, then
    momentum = momentum_coeff * momentum + grad and x = x - lr * momentum.
    ``tilt`` is the coarse objective's linear term, ``gamma`` times the tau
    correction, whose gradient contribution is constant; None leaves the
    objective untilted.  The network's parameter buffer and the momentum
    are updated in place; the network's gradient buffer is scratch.

    The update is ``backward``'s ``step``: it runs on one layer's slice of
    the vectors at a time, as soon as ``backward`` has finished with the
    layer, so the layer's gradient is still in cache; on a batch that
    ``backward`` passes as two row halves, after the halves are summed.
    Each entry goes through the same operations as a whole-vector update
    would take it, so the result is the same bit for bit.
    """
    batch_iter = iter(batches)

    def update(k):
        xs, gs, ms = net.params.layer(k), net.grad.layer(k), momentum.layer(k)
        if cfg.weight_decay:
            gs += cfg.weight_decay * xs
        if tilt is not None:
            gs -= tilt.layer(k)
        ms *= cfg.momentum_coeff
        ms += gs
        # the gradient is spent; its buffer takes lr * momentum
        np.multiply(ms, cfg.learning_rate, out=gs)
        xs -= gs

    for _ in range(cfg.steps_per_smooth):
        backward(net, next(batch_iter), out=net.grad, step=update)
    return net, momentum


def gradient_sum(net: Network, batches: list[Minibatch]) -> ParamVector:
    """The sum of the network's batch gradients, in a new vector.

    Batches after the first go through the network's gradient buffer.
    """
    acc = backward(net, batches[0])
    for batch in batches[1:]:
        acc.data += backward(net, batch, out=net.grad).data
    return acc


def compute_tau(
    fine: Network,
    coarse: Network,
    t: TransferLevel,
    tau_batches: list[Minibatch],
) -> ParamVector:
    """Stochastic tau correction between a network and its coarse version.

    Gradients are accumulated over the given m batches on both levels; the
    coarse accumulation minus the restricted fine accumulation is divided
    by m.  Tilted by the whole of it (``gamma = 1``), the coarse gradients
    of the m batches at the restricted iterate then average to the
    restricted mean fine gradient: first-order consistency, whatever the
    number of minibatches per epoch.  The caller must have installed the
    restricted iterate in ``coarse``.  The result is a new coarse-shaped
    vector; ``v_cycle`` scales it by ``gamma`` into the coarse level's tilt.
    The coarse gradients are summed first, then the fine ones.
    """
    if not tau_batches:
        raise ValueError("tau correction needs at least one minibatch")
    vec = gradient_sum(coarse, tau_batches)
    fine_acc = gradient_sum(fine, tau_batches)
    # the coarse gradient buffer is free again once both sums are done
    vec.data -= restrict_gradient(t, fine_acc, out=coarse.grad).data
    vec.data /= len(tau_batches)
    if not np.isfinite(vec.data).all():
        raise DivergenceError("non-finite tau correction")
    return vec


@dataclass
class LevelState:
    """Mutable per-level training state.

    On a coarse level, ``tilt`` is the current visit's ``gamma`` times its
    tau correction, or None at ``gamma = 0``, and ``start`` keeps the
    restricted iterate and momentum that began the visit, for the
    coarse-grid corrections.
    """

    net: Network
    momentum: ParamVector
    transfer: TransferLevel | None = None  # to the next-coarser level
    tilt: ParamVector | None = None
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
    work: float = field(default=0.0, init=False)  # work units charged so far

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
        """Cost of one minibatch gradient evaluation at ``level``, in fine units."""
        return self.levels[level].net.param_count() / self.levels[0].net.param_count()


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


def _smooth_level(h: Hierarchy, level: int, cfg: SmootherConfig, batches) -> None:
    if cfg.steps_per_smooth == 0:
        return
    state = h.levels[level]
    sgd_smooth(state.net, state.momentum, cfg, batches, tilt=state.tilt)
    h.work += cfg.steps_per_smooth * h.param_ratio(level)
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
    plain SGD.  Each coarse visit draws its tau group; only at ``gamma > 0``
    does it compute and charge the tau.  After the visit the parameters take
    the undamped correction from the visit's ``start`` and the momentum one
    damped by ``alpha_m``, both in place.
    """
    state = h.levels[level]
    if level == 0:
        if h.cycles_run > 0 and h.cycles_run % h.rematch_period == 0:
            h.rematch()
        _batches = iter(scheduler)
    cfg = _effective_cfg(cfgs, level, stab)

    _smooth_level(h, level, cfg, _batches)

    if level < h.depth - 1:
        coarse = h.levels[level + 1]
        group = scheduler.next_tau_group(h.tau_batches)
        try:
            t = refresh_weights(state.transfer, state.net)
            restrict_params(t, state.net.params, out=coarse.net.params)
            restrict_params(t, state.momentum, out=coarse.momentum)
            if coarse.start is None:  # one block for both, until a rematch rebuilds the level
                block = np.zeros((2, coarse.net.params.total_len))
                coarse.start = tuple(ParamVector(row, coarse.net.params.layout) for row in block)
            np.copyto(coarse.start[0].data, coarse.net.params.data)
            np.copyto(coarse.start[1].data, coarse.momentum.data)
            coarse.tilt = None
            if stab.gamma != 0.0:
                coarse.tilt = compute_tau(state.net, coarse.net, t, group)
                coarse.tilt.data *= stab.gamma
                h.work += h.tau_batches * (h.param_ratio(level) + h.param_ratio(level + 1))
        except DivergenceError as e:
            raise DivergenceError(
                f"{e} during restriction to level {level + 1} (cycle {h.cycles_run})",
                level=level + 1,
                cycle=h.cycles_run,
            ) from e

        v_cycle(h, level + 1, cfgs, stab, scheduler, _batches=itertools.cycle(group))

        # both gradient buffers are free until the post-smoothing, and this
        # level has not moved since its state was restricted into ``start``
        scratch = (coarse.net.grad, state.net.grad)
        start_x, start_m = coarse.start
        coarse_grid_correction(state.net.params, coarse.net.params, t, start_x, 1.0, scratch)
        coarse_grid_correction(state.momentum, coarse.momentum, t, start_m, stab.alpha_m, scratch)
        _check_finite(h, level, "coarse-grid correction")

        _smooth_level(h, level, cfg, _batches)

    if level == 0:
        h.cycles_run += 1
    return h
