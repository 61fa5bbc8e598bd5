"""Smoother, tau correction, scheduler, and V-cycle behavior."""

import itertools
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import (
    dense_network,
    explicit_transfer_matrices,
    random_conv_net,
    random_dense_net,
    reference_sgd_smooth,
)
from mlfas import _threads, nets, training
from mlfas.harness import ExperimentConfig, build_network, run_seed
from mlfas.nets import (
    DenseLayer,
    Network,
    NetworkShapeError,
    ParamVector,
    backward,
    flatten,
    forward_batch,
    loss,
    lower_input,
    unflatten,
)
from mlfas.training import (
    DivergenceError,
    Hierarchy,
    LevelState,
    MinibatchScheduler,
    SmootherConfig,
    compute_tau,
    sgd_smooth,
    v_cycle,
)
from mlfas.poisson import generate_dataset
from mlfas.transfer import (
    coarse_grid_correction,
    coarsen_network,
    prolong_params,
    refresh_weights,
    restrict_gradient,
    restrict_network,
    restrict_params,
)
from test_nets import CONV_NET, on_helper, record_halves, use_cpus
from test_transfer import identity_level


def constant_batches(batch):
    return itertools.repeat(batch)


class TestSgdSmooth:
    def test_zero_gradient_leaves_parameters(self):
        rng = np.random.default_rng(3)
        net = random_dense_net(rng)
        x0 = flatten(net)
        batch = lower_input(net, rng.normal(size=(4, net.input_size)),
                            np.zeros((4, net.output_size)))
        batch.targets[...] = forward_batch(net, batch)
        momentum = x0.zeros_like()
        sgd_smooth(net, momentum, SmootherConfig(0.1, 0.9, 0.0, 3), constant_batches(batch))
        np.testing.assert_array_equal(flatten(net).data, x0.data)
        assert np.all(momentum.data == 0.0)

    def test_hand_computed_single_step(self):
        # scalar quadratic: loss = (w*y + b - t)^2 with y=2, t=5, w=1, b=0
        net = Network([DenseLayer([[1.0]], [0.0])])
        momentum = flatten(net).zeros_like()
        momentum.data[:] = [0.5, -0.25]
        batch = lower_input(net, [[2.0]], [[5.0]])
        cfg = SmootherConfig(learning_rate=0.1, momentum_coeff=0.9,
                             weight_decay=0.01, steps_per_smooth=1)
        # residual = 2*1 + 0 - 5 = -3; dl/dw = 2*(-3)*2 = -12; dl/db = -6
        gw = -12.0 + 0.01 * 1.0
        gb = -6.0 + 0.01 * 0.0
        mw = 0.9 * 0.5 + gw
        mb = 0.9 * -0.25 + gb
        sgd_smooth(net, momentum, cfg, constant_batches(batch))
        assert momentum.data[0] == pytest.approx(mw, abs=0)
        assert momentum.data[1] == pytest.approx(mb, abs=0)
        assert net.layers[0].weights[0, 0] == pytest.approx(1.0 - 0.1 * mw, abs=0)
        assert net.layers[0].bias[0] == pytest.approx(0.0 - 0.1 * mb, abs=0)

    def test_zero_tilt_matches_no_tilt(self):
        rng = np.random.default_rng(5)
        net_a = random_dense_net(rng)
        net_b = net_a.copy()
        batch = lower_input(net_a, rng.normal(size=(3, net_a.input_size)),
                            rng.normal(size=(3, net_a.output_size)))
        cfg = SmootherConfig(0.05, 0.9, 0.0, 4)
        mom_a = flatten(net_a).zeros_like()
        mom_b = flatten(net_b).zeros_like()
        sgd_smooth(net_a, mom_a, cfg, constant_batches(batch), tilt=None)
        sgd_smooth(net_b, mom_b, cfg, constant_batches(batch), tilt=mom_b.zeros_like())
        np.testing.assert_array_equal(flatten(net_a).data, flatten(net_b).data)

    def test_tau_tilts_the_gradient(self):
        net = Network([DenseLayer([[1.0]], [0.0])])
        momentum = flatten(net).zeros_like()
        batch = lower_input(net, [[2.0]], [[5.0]])
        tilt = ParamVector(np.array([2.0, 1.0]), momentum.layout)
        cfg = SmootherConfig(learning_rate=0.1, momentum_coeff=0.0, steps_per_smooth=1)
        sgd_smooth(net, momentum, cfg, constant_batches(batch), tilt=tilt)
        # grad = (-12, -6) - (2, 1) = (-14, -7)
        assert net.layers[0].weights[0, 0] == pytest.approx(1.0 + 0.1 * 14.0, abs=0)
        assert net.layers[0].bias[0] == pytest.approx(0.1 * 7.0, abs=0)


class LoggedWeights(np.ndarray):
    """A dense layer's weights whose input-gradient product ``dz @ W`` logs itself.

    Only the layer's own array has a ``log``; the views that the forward
    pass multiplies by pass straight through.
    """

    log = None

    def __rmatmul__(self, other):
        w = self.view(np.ndarray)
        if self.log is not None:
            self.log.append(("input gradient", w.shape))
        return other @ w


def log_input_gradients(net, log):
    for layer in net.layers[1:]:
        if isinstance(layer, DenseLayer):
            layer.weights = layer.weights.view(LoggedWeights)
            layer.weights.log = log


# (arch, input shape, output size): the README dense net, a deeper dense
# net and the benchmark conv net
LAYER_STEP_NETS = [
    ("dense:128,dense:128", 768, 256),
    ("dense:64,dense:48,dense:32", 40, 16),
    ("conv:8k3s2p1,dense:64", (3, 32, 32), 1024),
]


class TestLayerStep:
    """``sgd_smooth`` updates each layer inside ``backward``, as soon as it is done."""

    @staticmethod
    def setup(arch, shape, n_out, seed=91):
        rng = np.random.default_rng(seed)
        net = build_network(arch, shape, n_out, rng=rng)
        rows = [(rng.normal(size=(200, net.input_size)), rng.normal(size=(200, n_out)))
                for _ in range(3)]
        momentum = net.params.zeros_like()
        momentum.data[...] = rng.normal(scale=0.1, size=momentum.total_len)
        tau = net.params.zeros_like()
        tau.data[...] = rng.normal(size=tau.total_len)
        return net, rows, [lower_input(net, *r) for r in rows], momentum, tau

    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    @pytest.mark.parametrize("arch, shape, n_out", LAYER_STEP_NETS)
    def test_equals_the_whole_vector_update(self, arch, shape, n_out, gamma):
        net, rows, batches, momentum, tau = self.setup(arch, shape, n_out)
        tilt = ParamVector(gamma * tau.data, tau.layout)
        cfg = SmootherConfig(learning_rate=1e-3, momentum_coeff=0.9, weight_decay=0.01,
                             steps_per_smooth=3)
        ref_net, ref_momentum = net.copy(), momentum.copy()
        reference_sgd_smooth(ref_net, ref_momentum, cfg, rows, tilt=tilt)
        sgd_smooth(net, momentum, cfg, batches, tilt=tilt)
        assert net.params.data.tobytes() == ref_net.params.data.tobytes()
        assert momentum.data.tobytes() == ref_momentum.data.tobytes()

    @pytest.mark.parametrize("arch, shape, n_out", LAYER_STEP_NETS)
    def test_each_step_follows_its_input_gradient(self, monkeypatch, arch, shape, n_out):
        if arch.startswith("conv"):
            self.check_split_steps(monkeypatch, arch, shape, n_out)
            return
        net, _, batches, momentum, tau = self.setup(arch, shape, n_out)
        log = []

        def recording(net, batch, out=None, step=None):
            def logged(k):
                log.append(("step", k))
                step(k)

            return backward(net, batch, out=out, step=logged)

        monkeypatch.setattr(training, "backward", recording)
        log_input_gradients(net, log)
        sgd_smooth(net, momentum, SmootherConfig(learning_rate=1e-3), batches[:1], tilt=tau)
        # from the last layer to the first: its input gradient here, then its
        # step; the first layer takes no input gradient and steps last
        expected = []
        for k in range(net.n_layers - 1, 0, -1):
            expected += [("input gradient", net.layers[k].weights.shape), ("step", k)]
        assert log == expected + [("step", 0)]

    def check_split_steps(self, monkeypatch, arch, shape, n_out):
        """The conv net passes its batch of 200 as two row halves, the second
        on the helper: each layer steps once, on this thread, after both
        halves, with every input gradient ``dz @ W`` of each, have ended."""
        net, _, batches, momentum, tau = self.setup(arch, shape, n_out)
        use_cpus(monkeypatch, 2)
        log = []
        gradient_pass = nets._gradient_pass

        def logged_pass(net, lowered, *args):
            gradient_pass(net, lowered, *args)
            log.append(("half", len(lowered), threading.current_thread()))

        def recording(net, batch, out=None, step=None):
            return backward(net, batch, out=out, step=lambda k: (
                log.append(("step", k, threading.current_thread())), step(k)))

        monkeypatch.setattr(nets, "_gradient_pass", logged_pass)
        monkeypatch.setattr(training, "backward", recording)
        log_input_gradients(net, log)
        sgd_smooth(net, momentum, SmootherConfig(learning_rate=1e-3), batches[:1], tilt=tau)
        caller = threading.current_thread()
        chain, steps = log[:-net.n_layers], log[-net.n_layers:]
        halves = [entry[1:] for entry in chain if entry[0] == "half"]
        assert [rows for rows, _ in halves] == [100, 100]
        assert caller in {thread for _, thread in halves}
        dense = [layer.weights.shape for layer in net.layers[1:]]
        assert sorted(e[1] for e in chain if e[0] == "input gradient") == sorted(dense * 2)
        assert steps == [("step", k, caller) for k in range(net.n_layers - 1, -1, -1)]


class TestComputeTau:
    def test_identity_transfer_gives_zero(self):
        rng = np.random.default_rng(7)
        net = random_dense_net(rng)
        coarse = net.copy()
        t = identity_level(net)
        batches = [lower_input(net, rng.normal(size=(3, net.input_size)),
                               rng.normal(size=(3, net.output_size))) for _ in range(2)]
        tau = compute_tau(net, coarse, t, batches)
        assert np.abs(tau.data).max() <= 1e-12

    def test_one_over_m_scaling(self):
        rng = np.random.default_rng(9)
        fine = random_dense_net(rng, n_hidden=1, widths=(5, 5), io=(4, 4))
        other = dense_network([s for s in (fine.input_size, 5, fine.output_size)],
                              rng=np.random.default_rng(123))
        t = identity_level(fine)
        batches = [lower_input(fine, rng.normal(size=(2, fine.input_size)),
                               rng.normal(size=(2, fine.output_size))) for _ in range(2)]
        acc = None
        for b in batches:
            d = backward(other, b).data - backward(fine, b).data
            acc = d if acc is None else acc + d
        tau = compute_tau(fine, other, t, batches)
        np.testing.assert_allclose(tau.data, acc / 2, rtol=1e-13, atol=1e-13)

    def test_against_explicit_restriction_matrix(self):
        rng = np.random.default_rng(11)
        net = random_dense_net(rng, widths=(4, 12))
        t = coarsen_network(net, theta=-1.0, weighted=True)
        coarse = restrict_network(net, t)
        batches = [lower_input(net, rng.normal(size=(3, net.input_size)),
                               rng.normal(size=(3, net.output_size))) for _ in range(3)]
        _, _, big_r = explicit_transfer_matrices(t, flatten(net).layout)
        fine_acc = sum(backward(net, b).data for b in batches)
        coarse_acc = sum(backward(coarse, b).data for b in batches)
        ref = (coarse_acc - big_r @ fine_acc) / 3
        tau = compute_tau(net, coarse, t, batches)
        assert np.abs(tau.data - ref).max() < 1e-11 * max(1.0, np.abs(ref).max())

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_batches=st.integers(1, 8),
           group=st.integers(1, 4), batch_size=st.integers(1, 6),
           conv=st.booleans(), weighted=st.booleans())
    def test_first_order_consistency(self, seed, n_batches, group, batch_size, conv, weighted):
        # gamma = 1: the tilted coarse gradient at Pi x, averaged over the
        # group, is the restricted average fine gradient
        defect = tau_consistency_defect(seed, n_batches, group, batch_size, conv, weighted,
                                        gamma=1.0)
        assert defect <= 1e-12

    # the tau tilt was once scaled by N, so the default gamma was
    # consistent only at N = 8 batches per epoch
    @pytest.mark.parametrize("n_batches", range(1, 33))
    def test_default_gamma_is_consistent_at_any_n(self, n_batches):
        defect = tau_consistency_defect(n_batches, n_batches, 2, 2, False, True,
                                        gamma=Hierarchy.gamma)
        assert defect <= 1e-12

    @pytest.mark.parametrize("conv", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_consistency_needs_gamma_n_one(self, conv, weighted):
        # the same check at gamma = 1/2 misses by half the tau term, at any N
        defect = tau_consistency_defect(5, 4, 2, 3, conv, weighted, gamma=0.5)
        assert defect > 0.05

    def test_empty_group_rejected(self):
        rng = np.random.default_rng(13)
        net = random_dense_net(rng)
        with pytest.raises(ValueError, match="at least one"):
            compute_tau(net, net.copy(), identity_level(net), [])

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    def test_level_tilt_is_gamma_times_tau(self, monkeypatch, gamma):
        # every coarse level of a depth-3 cycle keeps its visit's tau, scaled
        # once by gamma, as the tilt its smoothing subtracts; at gamma 0 no
        # tau is computed and the levels are untilted
        taus = {}
        computed = training.compute_tau

        def recording(fine, coarse, *args):
            tau = computed(fine, coarse, *args)
            taus[coarse] = tau.copy()
            return tau

        monkeypatch.setattr(training, "compute_tau", recording)
        net, split = make_training_setup(61, widths=(10, 64, 48, 8))
        h = Hierarchy.build(net, depth=3, theta=-1.0, gamma=gamma)
        sched = fresh_scheduler(split, 4, seed=61)
        v_cycle(h, 0, SmootherConfig(learning_rate=0.05), sched)
        assert h.levels[0].tilt is None
        assert len(taus) == (0 if gamma == 0.0 else 2)
        for lvl in h.levels[1:]:
            if gamma == 0.0:
                assert lvl.tilt is None
            else:
                tau = taus[lvl.net]
                assert np.abs(tau.data).max() > 0.0
                assert lvl.tilt.data.tobytes() == (gamma * tau.data).tobytes()


class TestDescentIdentity:
    """A whole coarse visit is first-order coherent with the fine problem.

    Through ``v_cycle`` at depth 2: one batch is both the tau group and the
    coarse smoothing batch, ``gamma`` is 1, the fine level does not smooth,
    and the coarse level takes one SGD step of size eps, with no momentum
    and ``eta`` 1.  The tilted coarse gradient at Pi x is then R g, so the
    correction moves x by -eps P R g, and the fine loss on the batch
    changes by -eps ||R g||^2 + O(eps^2), as ``R = P^T``: the relative
    error of that prediction falls in proportion to eps.  The check guards
    the restriction, tau's sign, the tilt, the visit's ``start`` and the
    correction together.
    """

    EPSILONS = (1e-3, 1e-4, 1e-5)

    def relative_errors(self, net, split, weighted, theta):
        errors = []
        for eps in self.EPSILONS:
            fine = net.copy()
            h = Hierarchy.build(fine, depth=2, tau_batches=1, theta=theta, weighted=weighted,
                                eta=1.0, gamma=1.0)
            sched = MinibatchScheduler(split, len(split), np.random.default_rng(0))
            groups = []
            draw = sched.next_tau_group
            sched.next_tau_group = lambda m: groups.append(draw(m)) or groups[-1]
            cfgs = [SmootherConfig(learning_rate=eps, momentum_coeff=0.0, steps_per_smooth=0),
                    SmootherConfig(learning_rate=eps, momentum_coeff=0.0)]
            v_cycle(h, 0, cfgs, sched)
            (batch,) = groups[0]
            # the visit refreshed the transfer at the start, where the fine
            # net is still ``net``
            r_g = restrict_gradient(h.levels[0].transfer, backward(net, batch)).data
            predicted = -eps * (r_g @ r_g)
            change = loss(fine, batch).l2 - loss(net, batch).l2
            errors.append(abs(change - predicted) / abs(predicted))
        return errors

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("kind", ["dense", "conv", "split conv"])
    def test_fine_loss_falls_by_eps_times_the_restricted_gradient_squared(self, kind,
                                                                         weighted):
        rng = np.random.default_rng(97)
        rows, theta = 12, -1.0
        if kind == "dense":
            net = dense_network([10, 64, 48, 8], rng=rng)
        elif kind == "conv":
            net = random_conv_net(rng)
        else:
            # the benchmark conv net at batch 200, where both levels pass
            # their batches as two summed row halves
            net = build_network(*CONV_NET, rng=rng)
            rows, theta = 200, 0.1
        split = lower_input(net, rng.normal(size=(rows, net.input_size)),
                            rng.normal(size=(rows, net.output_size)))
        errors = self.relative_errors(net, split, weighted, theta)
        if kind == "split conv":
            coarse = restrict_network(net, coarsen_network(net, theta=theta))
            assert nets.hands_off(net, rows) and nets.hands_off(coarse, rows)
        assert errors[0] < 0.5
        for larger, smaller in zip(errors, errors[1:]):
            assert 5.0 < larger / smaller < 20.0


def tau_consistency_defect(seed, n_batches, group, batch_size, conv, weighted, gamma):
    """Relative gap between the smoother's mean tilted coarse gradient and R g_fine.

    A random net is coarsened (every unit paired where possible), the coarse
    net holds Pi x, and a scheduler with N = ``n_batches`` batches per epoch
    draws the m = ``group`` tau batches.  With momentum 0, one smoothing
    step from Pi x on batch B_j leaves grad f_c(Pi x; B_j) - gamma * tau in
    the momentum; the mean of those over the group is compared with R
    applied to the mean fine gradient.
    """
    rng = np.random.default_rng(seed)
    net = random_conv_net(rng) if conv else random_dense_net(rng, widths=(4, 12))
    t = coarsen_network(net, theta=-1.0, weighted=weighted)
    coarse = restrict_network(net, t)
    # ceil(n / batch_size) = N, and a batch needs batch_size samples
    lo = max((n_batches - 1) * batch_size + 1, batch_size)
    n_samples = int(rng.integers(lo, n_batches * batch_size + 1))
    split = lower_input(net, rng.normal(size=(n_samples, net.input_size)),
                        rng.normal(size=(n_samples, net.output_size)))
    sched = MinibatchScheduler(split, batch_size, rng)
    assert sched.batches_per_epoch == n_batches
    batches = sched.next_tau_group(group)
    tilt = compute_tau(net, coarse, t, batches)
    tilt.data *= gamma
    cfg = SmootherConfig(learning_rate=0.1, momentum_coeff=0.0)
    tilted = []
    for batch in batches:
        start = coarse.copy()
        momentum = start.params.zeros_like()
        sgd_smooth(start, momentum, cfg, [batch], tilt=tilt)
        tilted.append(momentum.data)
    _, _, big_r = explicit_transfer_matrices(t, flatten(net).layout)
    ref = big_r @ np.mean([backward(net, b).data for b in batches], axis=0)
    return np.abs(np.mean(tilted, axis=0) - ref).max() / np.abs(ref).max()


class TestScheduler:
    # one input feature, lowered as it is: a batch's rows are its sample numbers
    NET = Network([DenseLayer([[1.0]], [0.0])])

    def _make(self, n=12, batch=3, seed=0):
        samples = np.arange(n, dtype=float)[:, None]
        return MinibatchScheduler(lower_input(self.NET, samples, samples), batch,
                                  np.random.default_rng(seed))

    def test_whole_epoch_group_covers_every_sample(self):
        sched = self._make(n=12, batch=3)
        group = sched.next_tau_group(sched.batches_per_epoch)
        seen = np.sort(np.concatenate([b.rows.ravel() for b in group]))
        np.testing.assert_array_equal(seen, np.arange(12.0))
        for b in group:
            np.testing.assert_array_equal(b.rows, b.targets)

    def test_consecutive_groups_disjoint_within_epoch(self):
        sched = self._make(n=12, batch=2)  # 6 batches/epoch
        g1 = sched.next_tau_group(2)
        g2 = sched.next_tau_group(2)
        s1 = set(np.concatenate([b.rows.ravel() for b in g1]).tolist())
        s2 = set(np.concatenate([b.rows.ravel() for b in g2]).tolist())
        assert not (s1 & s2)

    def test_fixed_seed_reproduces_sequence(self):
        a, b = self._make(seed=5), self._make(seed=5)
        for _ in range(10):
            np.testing.assert_array_equal(a.next_batch().rows, b.next_batch().rows)

    def test_raw_rows_are_refused(self):
        samples = np.arange(12, dtype=float)[:, None]
        # a raw (inputs, targets) pair reaches no network
        with pytest.raises(TypeError, match="Minibatch made by lower_input, got tuple"):
            backward(self.NET, (samples, samples))
        for split in (samples, (samples, samples), self._make().split.rows):
            with pytest.raises(TypeError, match="lowered split Minibatch"):
                MinibatchScheduler(split, 3, np.random.default_rng(0))

    def test_batch_size_exceeds_dataset(self):
        with pytest.raises(ValueError, match="exceeds"):
            self._make(n=4, batch=5)

    def test_ceil_partition(self):
        sched = self._make(n=10, batch=3)
        assert sched.batches_per_epoch == 4
        sizes = [len(sched.next_batch()) for _ in range(4)]
        assert sorted(sizes) == [1, 3, 3, 3]


def make_training_setup(seed, n_samples=24, batch=4, widths=(10, 64, 8)):
    """A dense net and a lowered split of normal samples for it."""
    rng = np.random.default_rng(seed)
    net = dense_network(list(widths), rng=np.random.default_rng([seed, 1]))
    inputs = rng.normal(size=(n_samples, widths[0]))
    targets = rng.normal(size=(n_samples, widths[-1]))
    return net, lower_input(net, inputs, targets)


def fresh_scheduler(split, batch, seed):
    return MinibatchScheduler(split, batch, np.random.default_rng([seed, 2]))


def identity_hierarchy(net, **kwargs):
    """Two-level hierarchy whose transfer is the identity (same problem twice)."""
    h = Hierarchy.build(net, depth=2, weighted=False, **kwargs)
    t = identity_level(net)
    h.levels[0].transfer = t
    h.levels[1] = LevelState(net=restrict_network(net, t),
                             momentum=flatten(net).zeros_like())
    return h


class TestVCycleDegeneracies:
    def test_identity_transfer_cycle_equals_consecutive_sgd(self):
        k = 3
        net, split = make_training_setup(21)
        sgd_net = net.copy()
        cfg = SmootherConfig(learning_rate=0.02, momentum_coeff=0.9,
                             weight_decay=1e-4, steps_per_smooth=k)
        h = identity_hierarchy(net, tau_batches=k, eta=1.0, alpha_m=1.0, gamma=0.0)
        sched = fresh_scheduler(split, 4, seed=21)
        v_cycle(h, 0, cfg, sched)

        ref_sched = fresh_scheduler(split, 4, seed=21)
        momentum = flatten(sgd_net).zeros_like()
        for _ in range(3):
            sgd_smooth(sgd_net, momentum, cfg, iter(ref_sched))
        assert np.abs(flatten(net).data - flatten(sgd_net).data).max() < 1e-12
        assert np.abs(h.levels[0].momentum.data - momentum.data).max() < 1e-12

    def test_zero_coarse_steps_leave_correction_at_zero(self):
        k = 2
        net, split = make_training_setup(23)
        ref_net = net.copy()
        cfgs = [
            SmootherConfig(learning_rate=0.03, momentum_coeff=0.9, steps_per_smooth=k),
            SmootherConfig(learning_rate=0.03, momentum_coeff=0.9, steps_per_smooth=0),
        ]
        h = Hierarchy.build(net, depth=2, tau_batches=2, theta=-1.0,
                            eta=2.0, alpha_m=0.3, gamma=0.5)
        sched = fresh_scheduler(split, 4, seed=23)
        v_cycle(h, 0, cfgs, sched)

        ref_sched = fresh_scheduler(split, 4, seed=23)
        momentum = flatten(ref_net).zeros_like()
        sgd_smooth(ref_net, momentum, cfgs[0], iter(ref_sched))
        ref_sched.next_tau_group(2)  # the tau draw advances the shared stream
        sgd_smooth(ref_net, momentum, cfgs[0], iter(ref_sched))
        np.testing.assert_array_equal(flatten(net).data, flatten(ref_net).data)
        np.testing.assert_array_equal(h.levels[0].momentum.data, momentum.data)

    def test_gamma_zero_computes_and_charges_no_tau(self, monkeypatch):
        # the visit still draws its group and smooths on it, untilted; the
        # tau was once computed, scaled by 0, discarded and charged
        net, split = make_training_setup(27)
        ref_net = net.copy()
        cfg = SmootherConfig(learning_rate=0.05, momentum_coeff=0.9, steps_per_smooth=2)
        h = Hierarchy.build(net, depth=2, tau_batches=3, theta=-1.0, alpha_m=0.3, gamma=0.0)
        sched = fresh_scheduler(split, 4, seed=27)

        def refused(*args):
            raise AssertionError("compute_tau called at gamma 0")

        monkeypatch.setattr(training, "compute_tau", refused)
        v_cycle(h, 0, cfg, sched)
        assert h.work == pytest.approx(2 * 1.0 + 2 * h.param_ratio(1) + 2 * 1.0, rel=1e-12)

        t = coarsen_network(ref_net, theta=-1.0)
        ref_sched = fresh_scheduler(split, 4, seed=27)
        momentum = flatten(ref_net).zeros_like()
        sgd_smooth(ref_net, momentum, cfg, ref_sched)
        group = ref_sched.next_tau_group(3)
        refresh_weights(t, ref_net)
        coarse = restrict_network(ref_net, t)
        coarse_m = restrict_params(t, momentum)
        start_x, start_m = coarse.params.copy(), coarse_m.copy()
        coarse_cfg = replace(cfg, learning_rate=cfg.learning_rate / h.eta)
        sgd_smooth(coarse, coarse_m, coarse_cfg, itertools.cycle(group))
        ref_net.params.data += prolong_params(
            t, ParamVector(coarse.params.data - start_x.data, start_x.layout)).data
        step = prolong_params(t, ParamVector(coarse_m.data - start_m.data, start_m.layout))
        step.data *= h.alpha_m
        momentum.data += step.data
        sgd_smooth(ref_net, momentum, cfg, ref_sched)
        np.testing.assert_array_equal(net.params.data, ref_net.params.data)
        np.testing.assert_array_equal(h.levels[0].momentum.data, momentum.data)

    def test_depth_one_is_plain_sgd(self):
        net, split = make_training_setup(25)
        ref_net = net.copy()
        cfg = SmootherConfig(learning_rate=0.02, momentum_coeff=0.9, steps_per_smooth=5)
        h = Hierarchy.build(net, depth=1, eta=1.0)
        assert h.levels[0].transfer is None and len(h.levels) == 1
        sched = fresh_scheduler(split, 6, seed=25)
        v_cycle(h, 0, cfg, sched)
        ref_sched = fresh_scheduler(split, 6, seed=25)
        momentum = flatten(ref_net).zeros_like()
        sgd_smooth(ref_net, momentum, cfg, iter(ref_sched))
        np.testing.assert_array_equal(flatten(net).data, flatten(ref_net).data)


class TestVCycleHandTrace:
    def test_two_level_cycle_on_duplicated_toy_net(self):
        # every step of the cycle re-done with explicit matrices and loops
        rng = np.random.default_rng(31)
        w0 = rng.normal(size=(4, 3))
        w0[2:] = w0[:2]
        b0 = rng.normal(size=4)
        b0[2:] = b0[:2]
        w1 = rng.normal(size=(2, 4))
        b1 = rng.normal(size=2)
        net = Network([DenseLayer(w0.copy(), b0.copy()), DenseLayer(w1.copy(), b1.copy())])
        inputs = rng.normal(size=(6, 3))
        targets = rng.normal(size=(6, 2))

        cfg = SmootherConfig(learning_rate=0.05, momentum_coeff=0.9,
                             weight_decay=0.0, steps_per_smooth=1)
        h = Hierarchy.build(net, depth=2, tau_batches=1, theta=0.9, weighted=True,
                            eta=np.sqrt(2.0), alpha_m=0.2, gamma=0.25)
        split = lower_input(net, inputs, targets)
        sched = MinibatchScheduler(split, 6, np.random.default_rng(0))
        n_batches = sched.batches_per_epoch
        assert n_batches == 1  # full-set batches make the trace order-independent
        v_cycle(h, 0, cfg, sched)

        # ---- hand trace ----
        trace = Network([DenseLayer(w0.copy(), b0.copy()), DenseLayer(w1.copy(), b1.copy())])
        batch = split
        mom = flatten(trace).zeros_like()

        def sgd_step(network, momentum, lr, tau_vec=None, gamma=0.0):
            g = backward(network, batch).data.copy()
            if tau_vec is not None:
                g -= gamma * tau_vec
            momentum.data *= 0.9
            momentum.data += g
            x = flatten(network)
            x.data -= lr * momentum.data
            unflatten(network, x)

        sgd_step(trace, mom, 0.05)  # pre-smooth

        t = coarsen_network(trace, theta=0.9, weighted=True)
        big_pi, big_p, big_r = explicit_transfer_matrices(t, flatten(trace).layout)
        x = flatten(trace)
        xc0 = big_pi @ x.data
        mc0 = big_pi @ mom.data
        coarse = restrict_network(trace, t)
        np.testing.assert_allclose(flatten(coarse).data, xc0, atol=1e-12)

        gf = backward(trace, batch).data
        gc = backward(coarse, batch).data
        tau_vec = (n_batches / 1) * (gc - big_r @ gf)

        mom_c = flatten(coarse).zeros_like()
        mom_c.data[:] = mc0
        sgd_step(coarse, mom_c, 0.05 / np.sqrt(2.0), tau_vec=tau_vec, gamma=0.25)

        x.data += big_p @ (flatten(coarse).data - xc0)
        mom.data += 0.2 * (big_p @ (mom_c.data - mc0))
        unflatten(trace, x)

        sgd_step(trace, mom, 0.05)  # post-smooth

        assert np.abs(flatten(net).data - flatten(trace).data).max() < 1e-12
        assert np.abs(h.levels[0].momentum.data - mom.data).max() < 1e-12


class TestWorkUnits:
    def test_fine_step_costs_one(self):
        net, _ = make_training_setup(41)
        assert Hierarchy.build(net, depth=2, theta=-1.0).param_ratio(0) == 1.0

    def test_half_parameter_ratio(self):
        # theta -1 pairs every hidden unit, halving the hidden layer: 64 -> 32
        net, _ = make_training_setup(41)
        h = Hierarchy.build(net, depth=2, theta=-1.0)
        assert h.levels[1].net.unit_counts() == [10, 32, 8]
        assert h.param_ratio(1) == (10 * 32 + 32 + 32 * 8 + 8) / (10 * 64 + 64 + 64 * 8 + 8)

    def test_cycle_work_matches_formula(self):
        net, split = make_training_setup(41)
        cfg = SmootherConfig(learning_rate=0.01, momentum_coeff=0.9, steps_per_smooth=2)
        h = Hierarchy.build(net, depth=2, tau_batches=2, theta=-1.0, eta=1.0)
        sched = fresh_scheduler(split, 4, seed=41)
        r = h.param_ratio(1)
        v_cycle(h, 0, cfg, sched)
        expected = 2 * 1.0 + 2 * r + 2 * 1.0 + 2 * (1.0 + r)
        assert h.work == pytest.approx(expected, rel=1e-12)
        before = h.work
        v_cycle(h, 0, cfg, sched)
        assert h.work == pytest.approx(2 * before, rel=1e-12)


class TestCoarseVisitRestrictions:
    @staticmethod
    def run_cycles(monkeypatch, reuse, cycles=3):
        """Three depth-3 cycles; returns every level's params and momentum and
        the ``_map_params`` calls per cycle."""
        from mlfas import training, transfer

        calls = [0]
        mapped = transfer._map_params

        def counted(*args):
            calls[0] += 1
            return mapped(*args)

        monkeypatch.setattr(transfer, "_map_params", counted)
        if not reuse:
            # the reference restricts x again instead of taking the visit's start
            monkeypatch.setattr(
                training, "coarse_grid_correction",
                lambda x, x_c, t, start, *rest: coarse_grid_correction(
                    x, x_c, t, transfer.restrict_params(t, x), *rest),
            )
        net, split = make_training_setup(71, widths=(10, 64, 48, 8))
        cfg = SmootherConfig(learning_rate=0.05, momentum_coeff=0.9, steps_per_smooth=2)
        h = Hierarchy.build(net, depth=3, rematch_period=100, theta=-1.0)
        sched = fresh_scheduler(split, 4, seed=71)
        per_cycle = []
        for _ in range(cycles):
            calls[0] = 0
            v_cycle(h, 0, cfg, sched)
            per_cycle.append(calls[0])
        monkeypatch.undo()
        state = [(lvl.net.params.data.tobytes(), lvl.momentum.data.tobytes()) for lvl in h.levels]
        return state, per_cycle

    def test_corrections_reuse_the_visits_restrictions_bitwise(self, monkeypatch):
        # per coarse visit: restrict iterate and momentum, restrict the tau
        # gradient, prolong both corrections; restricting x and m again for
        # the corrections added two more
        state, per_cycle = self.run_cycles(monkeypatch, reuse=True)
        ref_state, ref_per_cycle = self.run_cycles(monkeypatch, reuse=False)
        assert per_cycle == [10, 10, 10]
        assert ref_per_cycle == [14, 14, 14]
        assert state == ref_state

    def test_vectors_of_the_wrong_layout_are_rejected(self):
        net = dense_network([6, 20, 12, 4], rng=np.random.default_rng(72))
        t = coarsen_network(net, theta=-1.0)
        rng = np.random.default_rng(73)
        x = ParamVector(rng.normal(size=net.params.total_len), net.params.layout)
        start = restrict_params(t, x)
        xc = start.copy()
        xc.data += rng.normal(size=xc.total_len)
        before = x.data.copy()
        given = dict(x_c_new=xc, start=start, scratch=(start.zeros_like(), x.zeros_like()))
        for key, wrong in (("start", x), ("x_c_new", x),
                           ("scratch", (x.zeros_like(), x.zeros_like())),
                           ("scratch", (start.zeros_like(), start.zeros_like()))):
            with pytest.raises(NetworkShapeError, match="layout"):
                coarse_grid_correction(x, t=t, alpha=0.3, **{**given, key: wrong})
            assert np.array_equal(x.data, before)


class TestGuardsAndRematch:
    def test_divergence_guard_raises_structured_error(self):
        net, split = make_training_setup(43)
        cfg = SmootherConfig(learning_rate=1e30, momentum_coeff=0.9, steps_per_smooth=2)
        h = Hierarchy.build(net, depth=2, tau_batches=2, eta=1.0)
        sched = fresh_scheduler(split, 4, seed=43)
        with pytest.raises(DivergenceError) as err, np.errstate(all="ignore"):
            for _ in range(5):
                v_cycle(h, 0, cfg, sched)
        assert err.value.level is not None
        assert err.value.cycle is not None

    # each method setting has its one range check, which making a hierarchy runs
    @pytest.mark.parametrize("key, value", [("depth", 0), ("rematch_period", 0),
                                            ("tau_batches", 0), ("theta", 1.5), ("eta", 0.5),
                                            ("alpha_m", 0.0), ("gamma", -0.1)])
    def test_setting_out_of_range_is_refused(self, key, value):
        net, _ = make_training_setup(47)
        with pytest.raises(ValueError, match=f"^{key} must "):
            Hierarchy.build(net, **{"depth": 2, key: value})

    def test_rematch_cadence(self):
        net, split = make_training_setup(47)
        cfg = SmootherConfig(learning_rate=0.05, momentum_coeff=0.9, steps_per_smooth=2)
        h = Hierarchy.build(net, depth=2, rematch_period=2, weighted=False, eta=1.0)
        sched = fresh_scheduler(split, 4, seed=47)
        t0 = h.levels[0].transfer
        v_cycle(h, 0, cfg, sched)  # cycle 0
        assert h.levels[0].transfer is t0
        v_cycle(h, 0, cfg, sched)  # cycle 1
        assert h.levels[0].transfer is t0
        v_cycle(h, 0, cfg, sched)  # cycle 2 starts -> rematch
        assert h.levels[0].transfer is not t0

    def test_momentum_uses_same_operators_as_parameters(self):
        # the correction applied to momentum is the same coarse_grid_correction call
        from mlfas import training

        import inspect

        src = inspect.getsource(training.v_cycle)
        assert src.count("coarse_grid_correction") == 2


class TestTauInLine:
    """``compute_tau`` sums the coarse gradients, then the fine ones, in line."""

    @staticmethod
    def record_sums(monkeypatch, cpus=2):
        """Allow ``cpus`` CPUs; returns the (network, thread) of every gradient sum."""
        sums = []
        summed = training.gradient_sum

        def recording(net, batches):
            sums.append((net, threading.current_thread()))
            return summed(net, batches)

        monkeypatch.setattr(training, "gradient_sum", recording)
        monkeypatch.setattr(_threads.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        return sums

    @staticmethod
    def run_cycles(cycles=4, h=None):
        """Depth-3 dense cycles with a rematch before the third; every cycle's
        parameters, momentum and tilt vectors of every level, as bytes."""
        net, split = make_training_setup(81, widths=(10, 64, 48, 8))
        cfg = SmootherConfig(learning_rate=0.05, momentum_coeff=0.9, steps_per_smooth=2)
        h = Hierarchy.build(net, depth=3, rematch_period=2) if h is None else h
        sched = fresh_scheduler(split, 4, seed=81)
        states = []
        for _ in range(cycles):
            v_cycle(h, 0, cfg, sched)
            states.append([(lvl.net.params.data.tobytes(), lvl.momentum.data.tobytes(),
                            None if lvl.tilt is None else lvl.tilt.data.tobytes())
                           for lvl in h.levels])
        return states

    def test_coarse_gradients_are_summed_before_the_fine_ones(self, monkeypatch):
        sums = self.record_sums(monkeypatch)
        net, _ = make_training_setup(81, widths=(10, 64, 48, 8))
        h = Hierarchy.build(net, depth=3, rematch_period=2)
        levels = []
        summed = training.gradient_sum  # the recording one

        def level_of(net, batches):
            levels.append(next(i for i, lvl in enumerate(h.levels) if lvl.net is net))
            return summed(net, batches)

        monkeypatch.setattr(training, "gradient_sum", level_of)
        self.run_cycles(cycles=2, h=h)
        # per cycle, each coarse visit's level before the level above it
        assert levels == [1, 0, 2, 1] * 2
        assert all(t is threading.current_thread() for _, t in sums)

    def test_depth_three_cycles_do_not_depend_on_the_cpu_count(self, monkeypatch):
        self.record_sums(monkeypatch, 1)
        ref = self.run_cycles()
        sums = self.record_sums(monkeypatch, 2)
        assert self.run_cycles() == ref
        assert len(sums) == 16
        assert all(t is threading.current_thread() for _, t in sums)

    def test_depth_three_metric_streams_do_not_depend_on_the_cpu_count(self, monkeypatch):
        ds = generate_dataset(30, 6, seed=11, val_fraction=0.2)
        cfg = ExperimentConfig(dataset="", arch="dense:12,dense:10", depth=3,
                               learning_rate=0.01, batch_size=6, steps_per_smooth=2,
                               rematch_period=2, max_work_units=60.0, eval_every=10.0)
        runs = []
        for cpus in (1, 2):
            sums = self.record_sums(monkeypatch, cpus)
            runs.append(run_seed(cfg, 0, ds))
            assert sums and all(t is threading.current_thread() for _, t in sums)
        one, two = ([astuple(r)[:-1] for r in run.records] for run in runs)
        assert not runs[0].failed and len(one) > 10
        assert one == two

    @pytest.mark.parametrize("fails", ["coarse sum", "fine sum", "refresh"])
    def test_an_error_stops_the_cycle_where_it_is_raised(self, monkeypatch, fails):
        summed = training.gradient_sum
        events = []

        def chain(net, batches):
            which = "fine sum" if net is fine else "coarse sum"
            if which == fails:
                events.append(f"{which} failed")
                raise ValueError(f"{which} failed")
            events.append(f"{which} ended")
            return summed(net, batches)

        def refresh_fails(*args):
            events.append("refresh failed")
            raise RuntimeError("refresh failed")

        net, split = make_training_setup(83)
        h = Hierarchy.build(net, depth=2)
        fine = h.levels[0].net
        monkeypatch.setattr(training, "gradient_sum", chain)
        if fails == "refresh":
            monkeypatch.setattr(training, "refresh_weights", refresh_fails)
        cfg = SmootherConfig(learning_rate=0.05, momentum_coeff=0.9)
        with pytest.raises(RuntimeError if fails == "refresh" else ValueError, match="failed"):
            v_cycle(h, 0, cfg, fresh_scheduler(split, 4, 83))
        # the refresh comes before both sums, the coarse sum before the fine one
        assert events == {"refresh": ["refresh failed"],
                          "coarse sum": ["coarse sum failed"],
                          "fine sum": ["coarse sum ended", "fine sum failed"]}[fails]

    def test_caller_errstate_reaches_the_gradient_sums(self, monkeypatch):
        summed = training.gradient_sum
        seen = []

        def chain(net, batches):
            seen.append(np.geterr()["over"])
            return summed(net, batches)

        monkeypatch.setattr(training, "gradient_sum", chain)
        net, split = make_training_setup(85)
        h = Hierarchy.build(net, depth=2)
        cfg = SmootherConfig(learning_rate=0.05, momentum_coeff=0.9)
        with np.errstate(all="raise"):
            v_cycle(h, 0, cfg, fresh_scheduler(split, 4, 85))
        assert seen == ["raise", "raise"]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    @pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
    def test_forked_child_cycles_equal_the_parents(self):
        ref = self.run_cycles(cycles=2)
        fork = multiprocessing.get_context("fork")
        results = fork.Queue()
        child = fork.Process(target=lambda: results.put(self.run_cycles(cycles=2)))
        child.start()
        try:
            states = results.get(timeout=60)
        finally:
            child.join(timeout=60)
            if child.exitcode is None:
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert states == ref


class TestOneTrainingThread:
    """Training runs on its caller's thread; only the conv net's batches of
    200, whose second row half goes to the one helper thread, draw it on,
    and only with a second CPU."""

    @pytest.mark.parametrize("arch, shape, n_out", [
        ("dense:128,dense:128", 768, 256),
        ("conv:8k3s2p1,dense:64", (3, 32, 32), 1024),
    ])
    def test_smoothing_and_v_cycles_start_no_thread(self, arch, shape, n_out):
        # in a fresh interpreter, where no earlier test has started a
        # long-lived thread that would hide one started here
        script = textwrap.dedent(
            f"""
            import threading
            import numpy as np
            from mlfas import _threads
            from mlfas.harness import build_network
            from mlfas.nets import lower_input
            from mlfas.training import (Hierarchy, MinibatchScheduler, SmootherConfig,
                                        sgd_smooth, v_cycle)

            before = threading.active_count()
            cfg = SmootherConfig(learning_rate=1e-3, momentum_coeff=0.9)
            rng = np.random.default_rng(93)
            net = build_network({arch!r}, {shape!r}, {n_out}, rng=rng)
            split = lower_input(net, rng.normal(size=(400, net.input_size)),
                                rng.normal(size=(400, {n_out})))
            sched = MinibatchScheduler(split, 200, rng)
            # one CPU first, since a helper thread, once started, stays;
            # a free second CPU must not draw the dense net onto another thread
            for cpus in (1, 2):
                _threads.os.sched_getaffinity = lambda pid: set(range(cpus))
                assert _threads.allowed_cpus() == cpus
                sgd_smooth(net, net.params.zeros_like(), cfg, iter(sched))
                print(cpus, threading.active_count() - before)
                v_cycle(Hierarchy.build(net, depth=3), 0, cfg, sched)
                print(cpus, threading.active_count() - before)
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        # the helper thread starts with the conv net's first smoothing step on 2 CPUs
        helper = int(arch.startswith("conv"))
        assert proc.stdout.splitlines() == ["1 0", "1 0", f"2 {helper}", f"2 {helper}"]


class TestConvHandOff:
    """At batch 200 the conv net passes two row halves, the second on the
    helper thread on 2 CPUs, and every result is the one of 1 CPU, where
    both halves run in line, bit for bit."""

    @staticmethod
    def compare(monkeypatch, run):
        passes = record_halves(monkeypatch)
        results = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            start = len(passes)
            results.append(run())
            assert on_helper(passes[start:]) == (cpus == 2)
        assert results[0] == results[1]

    @staticmethod
    def net_and_data(seed, rows):
        rng = np.random.default_rng(seed)
        net = build_network(*CONV_NET, rng=rng)
        return net, rng.normal(size=(rows, net.input_size)), rng.normal(size=(rows, 1024)), rng

    def test_sgd_smooth_with_weight_decay_and_a_tilt(self, monkeypatch):
        def run():
            net, inputs, targets, rng = self.net_and_data(95, 400)
            batches = [lower_input(net, inputs[:200], targets[:200]),
                       lower_input(net, inputs[200:], targets[200:])]
            momentum = net.params.zeros_like()
            tilt = ParamVector(rng.normal(scale=1e-3, size=net.param_count()), net.params.layout)
            cfg = SmootherConfig(learning_rate=1e-3, momentum_coeff=0.9, weight_decay=0.01,
                                 steps_per_smooth=2)
            sgd_smooth(net, momentum, cfg, batches, tilt=tilt)
            return net.params.data.tobytes(), momentum.data.tobytes()

        self.compare(monkeypatch, run)

    def test_depth_three_v_cycle(self, monkeypatch):
        def run():
            net, inputs, targets, rng = self.net_and_data(96, 400)
            h = Hierarchy.build(net, depth=3, gamma=0.5)
            cfg = SmootherConfig(learning_rate=1e-3, momentum_coeff=0.9, steps_per_smooth=1)
            v_cycle(h, 0, cfg, MinibatchScheduler(lower_input(net, inputs, targets), 200, rng))
            return [(lvl.net.params.data.tobytes(), lvl.momentum.data.tobytes(),
                     lvl.tilt.data.tobytes() if lvl.tilt is not None else None)
                    for lvl in h.levels]

        self.compare(monkeypatch, run)

    def test_run_seed_metric_stream(self, monkeypatch):
        self.check_run_seed(monkeypatch, 200)

    def test_run_seed_metric_stream_at_an_odd_batch_size(self, monkeypatch):
        self.check_run_seed(monkeypatch, 99)

    def check_run_seed(self, monkeypatch, batch_size):
        # 208 training rows: batches of 200 and 8, or of 99 (split 49 and 50) and 10
        ds = generate_dataset(260, 32, seed=12, val_fraction=0.2)
        cfg = ExperimentConfig(dataset="", arch=CONV_NET[0], depth=2, learning_rate=1e-3,
                               weight_decay=1e-3, batch_size=batch_size, max_work_units=8.0,
                               eval_every=2.0)

        def run():
            result = run_seed(cfg, 0, ds)
            assert not result.failed and len(result.records) > 3
            return [astuple(r)[:-1] for r in result.records]

        self.compare(monkeypatch, run)
