"""Smoother, tau correction, scheduler, and V-cycle behavior."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import explicit_transfer_matrices, random_conv_net, random_dense_net
from mlfas.nets import (
    DenseLayer,
    Minibatch,
    Network,
    NetworkShapeError,
    ParamVector,
    backward,
    dense_network,
    flatten,
    forward_batch,
    unflatten,
)
from mlfas.training import (
    DivergenceError,
    Hierarchy,
    LevelState,
    MinibatchScheduler,
    SmootherConfig,
    StabilityConfig,
    TauCorrection,
    WorkCounter,
    compute_tau,
    sgd_smooth,
    v_cycle,
    work_units,
)
from mlfas.transfer import coarsen_network, restrict_network
from test_transfer import identity_level


def constant_batches(batch):
    return itertools.repeat(batch)


class TestSgdSmooth:
    def test_zero_gradient_leaves_parameters(self):
        rng = np.random.default_rng(3)
        net = random_dense_net(rng)
        x0 = flatten(net)
        batch = Minibatch(rng.normal(size=(4, net.input_size)), np.zeros((4, net.output_size)))
        batch.targets[...] = forward_batch(net, batch.inputs)
        momentum = x0.zeros_like()
        sgd_smooth(net, momentum, SmootherConfig(0.1, 0.9, 0.0, 3), constant_batches(batch))
        np.testing.assert_array_equal(flatten(net).data, x0.data)
        assert np.all(momentum.data == 0.0)

    def test_hand_computed_single_step(self):
        # scalar quadratic: loss = (w*y + b - t)^2 with y=2, t=5, w=1, b=0
        net = Network([DenseLayer([[1.0]], [0.0])])
        momentum = flatten(net).zeros_like()
        momentum.data[:] = [0.5, -0.25]
        batch = Minibatch([[2.0]], [[5.0]])
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

    def test_tau_with_gamma_zero_matches_no_tau(self):
        rng = np.random.default_rng(5)
        net_a = random_dense_net(rng)
        net_b = net_a.copy()
        batch = Minibatch(rng.normal(size=(3, net_a.input_size)),
                          rng.normal(size=(3, net_a.output_size)))
        cfg = SmootherConfig(0.05, 0.9, 0.0, 4)
        mom_a = flatten(net_a).zeros_like()
        mom_b = flatten(net_b).zeros_like()
        tau = TauCorrection(ParamVector(rng.normal(size=mom_a.total_len), mom_a.segments))
        sgd_smooth(net_a, mom_a, cfg, constant_batches(batch), tau=None, gamma=0.0)
        sgd_smooth(net_b, mom_b, cfg, constant_batches(batch), tau=tau, gamma=0.0)
        np.testing.assert_array_equal(flatten(net_a).data, flatten(net_b).data)

    def test_tau_tilts_the_gradient(self):
        net = Network([DenseLayer([[1.0]], [0.0])])
        momentum = flatten(net).zeros_like()
        batch = Minibatch([[2.0]], [[5.0]])
        tau = TauCorrection(ParamVector(np.array([4.0, 2.0]), momentum.segments))
        cfg = SmootherConfig(learning_rate=0.1, momentum_coeff=0.0, steps_per_smooth=1)
        sgd_smooth(net, momentum, cfg, constant_batches(batch), tau=tau, gamma=0.5)
        # grad = (-12, -6) - 0.5 * (4, 2) = (-14, -7)
        assert net.layers[0].weights[0, 0] == pytest.approx(1.0 + 0.1 * 14.0, abs=0)
        assert net.layers[0].bias[0] == pytest.approx(0.1 * 7.0, abs=0)


class TestComputeTau:
    def test_identity_transfer_gives_zero(self):
        rng = np.random.default_rng(7)
        net = random_dense_net(rng)
        coarse = net.copy()
        t = identity_level(net)
        batches = [Minibatch(rng.normal(size=(3, net.input_size)),
                             rng.normal(size=(3, net.output_size))) for _ in range(2)]
        tau = compute_tau(net, coarse, t, batches, n_total_minibatches=10)
        assert np.abs(tau.vec.data).max() <= 1e-12

    def test_n_over_m_scaling(self):
        rng = np.random.default_rng(9)
        fine = random_dense_net(rng, n_hidden=1, widths=(5, 5), io=(4, 4))
        other = dense_network([s for s in (fine.input_size, 5, fine.output_size)],
                              rng=np.random.default_rng(123))
        t = identity_level(fine)
        batches = [Minibatch(rng.normal(size=(2, fine.input_size)),
                             rng.normal(size=(2, fine.output_size))) for _ in range(2)]
        acc = None
        for b in batches:
            d = backward(other, b).data - backward(fine, b).data
            acc = d if acc is None else acc + d
        tau = compute_tau(fine, other, t, batches, n_total_minibatches=10)
        np.testing.assert_allclose(tau.vec.data, 5.0 * acc, rtol=1e-13, atol=1e-13)

    def test_against_explicit_restriction_matrix(self):
        rng = np.random.default_rng(11)
        net = random_dense_net(rng, widths=(4, 12))
        t = coarsen_network(net, theta=-1.0, weighted=True)
        coarse = restrict_network(net, t)
        batches = [Minibatch(rng.normal(size=(3, net.input_size)),
                             rng.normal(size=(3, net.output_size))) for _ in range(3)]
        _, _, big_r = explicit_transfer_matrices(t, flatten(net).segments)
        fine_acc = sum(backward(net, b).data for b in batches)
        coarse_acc = sum(backward(coarse, b).data for b in batches)
        n = 12
        ref = (n / 3) * (coarse_acc - big_r @ fine_acc)
        tau = compute_tau(net, coarse, t, batches, n_total_minibatches=n)
        assert np.abs(tau.vec.data - ref).max() < 1e-11 * max(1.0, np.abs(ref).max())

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_batches=st.integers(1, 8),
           group=st.integers(1, 4), batch_size=st.integers(1, 6),
           conv=st.booleans(), weighted=st.booleans())
    def test_first_order_consistency(self, seed, n_batches, group, batch_size, conv, weighted):
        # gamma = 1/N: the tilted coarse gradient at Pi x, averaged over the
        # group, is the restricted average fine gradient
        defect = tau_consistency_defect(seed, n_batches, group, batch_size, conv, weighted,
                                        gamma_n=1.0)
        assert defect <= 1e-12

    @pytest.mark.parametrize("conv", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_consistency_needs_gamma_n_one(self, conv, weighted):
        # the same check at gamma = 1/(2N) misses by half the tau term
        defect = tau_consistency_defect(5, 4, 2, 3, conv, weighted, gamma_n=0.5)
        assert defect > 0.05

    def test_empty_group_rejected(self):
        rng = np.random.default_rng(13)
        net = random_dense_net(rng)
        with pytest.raises(ValueError, match="at least one"):
            compute_tau(net, net.copy(), identity_level(net), [], 10)


def tau_consistency_defect(seed, n_batches, group, batch_size, conv, weighted, gamma_n):
    """Relative gap between the smoother's mean tilted coarse gradient and R g_fine.

    A random net is coarsened (every unit paired where possible), the coarse
    net holds Pi x, and a scheduler with N = ``n_batches`` batches per epoch
    draws the m = ``group`` tau batches.  With momentum 0, one smoothing
    step from Pi x on batch B_j leaves grad f_c(Pi x; B_j) - gamma * tau in
    the momentum; the mean of those over the group is compared with R
    applied to the mean fine gradient, at gamma = ``gamma_n`` / N.
    """
    rng = np.random.default_rng(seed)
    net = random_conv_net(rng) if conv else random_dense_net(rng, widths=(4, 12))
    t = coarsen_network(net, theta=-1.0, weighted=weighted)
    coarse = restrict_network(net, t)
    # ceil(n / batch_size) = N, and a batch needs batch_size samples
    lo = max((n_batches - 1) * batch_size + 1, batch_size)
    n_samples = int(rng.integers(lo, n_batches * batch_size + 1))
    sched = MinibatchScheduler(rng.normal(size=(n_samples, net.input_size)),
                               rng.normal(size=(n_samples, net.output_size)),
                               batch_size, rng)
    assert sched.batches_per_epoch == n_batches
    batches = sched.next_tau_group(group)
    tau = compute_tau(net, coarse, t, batches, n_batches)
    cfg = SmootherConfig(learning_rate=0.1, momentum_coeff=0.0)
    tilted = []
    for batch in batches:
        start = coarse.copy()
        momentum = start.params.zeros_like()
        sgd_smooth(start, momentum, cfg, [batch], tau=tau, gamma=gamma_n / n_batches)
        tilted.append(momentum.data)
    _, _, big_r = explicit_transfer_matrices(t, flatten(net).segments)
    ref = big_r @ np.mean([backward(net, b).data for b in batches], axis=0)
    return np.abs(np.mean(tilted, axis=0) - ref).max() / np.abs(ref).max()


class TestScheduler:
    def _make(self, n=12, batch=3, seed=0):
        rng = np.random.default_rng(seed)
        inputs = np.arange(n, dtype=float)[:, None]
        targets = np.arange(n, dtype=float)[:, None]
        return MinibatchScheduler(inputs, targets, batch, np.random.default_rng(seed))

    def test_whole_epoch_group_covers_every_sample(self):
        sched = self._make(n=12, batch=3)
        group = sched.next_tau_group(sched.batches_per_epoch)
        seen = np.sort(np.concatenate([b.inputs.ravel() for b in group]))
        np.testing.assert_array_equal(seen, np.arange(12.0))

    def test_consecutive_groups_disjoint_within_epoch(self):
        sched = self._make(n=12, batch=2)  # 6 batches/epoch
        g1 = sched.next_tau_group(2)
        g2 = sched.next_tau_group(2)
        s1 = set(np.concatenate([b.inputs.ravel() for b in g1]).tolist())
        s2 = set(np.concatenate([b.inputs.ravel() for b in g2]).tolist())
        assert not (s1 & s2)

    def test_fixed_seed_reproduces_sequence(self):
        a, b = self._make(seed=5), self._make(seed=5)
        for _ in range(10):
            np.testing.assert_array_equal(a.next_batch().inputs, b.next_batch().inputs)

    def test_batch_size_exceeds_dataset(self):
        with pytest.raises(ValueError, match="exceeds"):
            self._make(n=4, batch=5)

    def test_ceil_partition(self):
        sched = self._make(n=10, batch=3)
        assert sched.batches_per_epoch == 4
        sizes = [len(sched.next_batch()) for _ in range(4)]
        assert sorted(sizes) == [1, 3, 3, 3]


def make_training_setup(seed, n_samples=24, batch=4, widths=(10, 64, 8)):
    rng = np.random.default_rng(seed)
    net = dense_network(list(widths), rng=np.random.default_rng([seed, 1]))
    inputs = rng.normal(size=(n_samples, widths[0]))
    targets = rng.normal(size=(n_samples, widths[-1]))
    return net, inputs, targets


def fresh_scheduler(inputs, targets, batch, seed):
    return MinibatchScheduler(inputs, targets, batch, np.random.default_rng([seed, 2]))


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
        net, inputs, targets = make_training_setup(21)
        sgd_net = net.copy()
        cfg = SmootherConfig(learning_rate=0.02, momentum_coeff=0.9,
                             weight_decay=1e-4, steps_per_smooth=k)
        stab = StabilityConfig(eta=1.0, alpha_p=1.0, alpha_m=1.0, gamma=0.0)
        h = identity_hierarchy(net, tau_batches=k)
        sched = fresh_scheduler(inputs, targets, 4, seed=21)
        v_cycle(h, 0, cfg, stab, sched)

        ref_sched = fresh_scheduler(inputs, targets, 4, seed=21)
        momentum = flatten(sgd_net).zeros_like()
        for _ in range(3):
            sgd_smooth(sgd_net, momentum, cfg, iter(ref_sched))
        assert np.abs(flatten(net).data - flatten(sgd_net).data).max() < 1e-12
        assert np.abs(h.levels[0].momentum.data - momentum.data).max() < 1e-12

    def test_zero_coarse_steps_leave_correction_at_zero(self):
        k = 2
        net, inputs, targets = make_training_setup(23)
        ref_net = net.copy()
        cfgs = [
            SmootherConfig(learning_rate=0.03, momentum_coeff=0.9, steps_per_smooth=k),
            SmootherConfig(learning_rate=0.03, momentum_coeff=0.9, steps_per_smooth=0),
        ]
        stab = StabilityConfig(eta=2.0, alpha_p=0.8, alpha_m=0.3, gamma=0.5)
        h = Hierarchy.build(net, depth=2, tau_batches=2, theta=-1.0)
        sched = fresh_scheduler(inputs, targets, 4, seed=23)
        v_cycle(h, 0, cfgs, stab, sched)

        ref_sched = fresh_scheduler(inputs, targets, 4, seed=23)
        momentum = flatten(ref_net).zeros_like()
        sgd_smooth(ref_net, momentum, cfgs[0], iter(ref_sched))
        ref_sched.next_tau_group(2)  # the tau draw advances the shared stream
        sgd_smooth(ref_net, momentum, cfgs[0], iter(ref_sched))
        np.testing.assert_array_equal(flatten(net).data, flatten(ref_net).data)
        np.testing.assert_array_equal(h.levels[0].momentum.data, momentum.data)

    def test_depth_one_is_plain_sgd(self):
        net, inputs, targets = make_training_setup(25)
        ref_net = net.copy()
        cfg = SmootherConfig(learning_rate=0.02, momentum_coeff=0.9, steps_per_smooth=5)
        h = Hierarchy.build(net, depth=1)
        assert h.levels[0].transfer is None and len(h.levels) == 1
        sched = fresh_scheduler(inputs, targets, 6, seed=25)
        v_cycle(h, 0, cfg, StabilityConfig(eta=1.0), sched)
        ref_sched = fresh_scheduler(inputs, targets, 6, seed=25)
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
        stab = StabilityConfig(eta=np.sqrt(2.0), alpha_p=0.9, alpha_m=0.2, gamma=0.25)
        h = Hierarchy.build(net, depth=2, tau_batches=1, theta=0.9, weighted=True)
        sched = MinibatchScheduler(inputs, targets, 6, np.random.default_rng(0))
        n_batches = sched.batches_per_epoch
        assert n_batches == 1  # full-set batches make the trace order-independent
        v_cycle(h, 0, cfg, stab, sched)

        # ---- hand trace ----
        trace = Network([DenseLayer(w0.copy(), b0.copy()), DenseLayer(w1.copy(), b1.copy())])
        batch = Minibatch(inputs, targets)
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
        big_pi, big_p, big_r = explicit_transfer_matrices(t, flatten(trace).segments)
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

        x.data += 0.9 * (big_p @ (flatten(coarse).data - xc0))
        mom.data += 0.2 * (big_p @ (mom_c.data - mc0))
        unflatten(trace, x)

        sgd_step(trace, mom, 0.05)  # post-smooth

        assert np.abs(flatten(net).data - flatten(trace).data).max() < 1e-12
        assert np.abs(h.levels[0].momentum.data - mom.data).max() < 1e-12


class TestWorkUnits:
    def test_fine_step_costs_one(self):
        assert work_units(1000, 1000) == 1.0

    def test_half_parameter_ratio(self):
        assert work_units(500, 1000) == 0.5

    def test_two_level_cycle_arithmetic(self):
        # 2 pre + 2 coarse + 2 post smoothing steps, m = 2, ratio 0.5
        m = 2
        ratio = 0.5
        total = 2 * 1.0 + 2 * ratio + 2 * 1.0 + m * (1.0 + ratio)
        assert total == 8.0

    def test_cycle_work_matches_formula(self):
        net, inputs, targets = make_training_setup(41)
        cfg = SmootherConfig(learning_rate=0.01, momentum_coeff=0.9, steps_per_smooth=2)
        h = Hierarchy.build(net, depth=2, tau_batches=2, theta=-1.0)
        sched = fresh_scheduler(inputs, targets, 4, seed=41)
        r = h.param_ratio(1)
        v_cycle(h, 0, cfg, StabilityConfig(eta=1.0), sched)
        expected = 2 * 1.0 + 2 * r + 2 * 1.0 + 2 * (1.0 + r)
        assert h.work.total == pytest.approx(expected, rel=1e-12)
        before = h.work.total
        v_cycle(h, 0, cfg, StabilityConfig(eta=1.0), sched)
        assert h.work.total == pytest.approx(2 * before, rel=1e-12)

    def test_counter_monotone(self):
        c = WorkCounter()
        c.add(1.5)
        c.add(0.0)
        assert c.total == 1.5
        with pytest.raises(ValueError):
            c.add(-1.0)


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
            correct = transfer.coarse_grid_correction
            monkeypatch.setattr(training, "coarse_grid_correction",
                                lambda *a, restricted, **kw: correct(*a, **kw))
        net, inputs, targets = make_training_setup(71, widths=(10, 64, 48, 8))
        cfg = SmootherConfig(learning_rate=0.05, momentum_coeff=0.9, steps_per_smooth=2)
        h = Hierarchy.build(net, depth=3, rematch_period=100, theta=-1.0)
        sched = fresh_scheduler(inputs, targets, 4, seed=71)
        per_cycle = []
        for _ in range(cycles):
            calls[0] = 0
            v_cycle(h, 0, cfg, StabilityConfig(), sched)
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

    def test_given_restriction_equals_the_computed_one(self):
        from mlfas.transfer import coarse_grid_correction, restrict_params

        net = dense_network([6, 20, 12, 4], rng=np.random.default_rng(72))
        t = coarsen_network(net, theta=-1.0)
        rng = np.random.default_rng(73)
        x = ParamVector(rng.normal(size=net.params.total_len), net.params.segments)
        xc = restrict_params(t, x)
        xc.data += rng.normal(size=xc.total_len)
        ref = coarse_grid_correction(x, xc, t, alpha=0.3)
        got = coarse_grid_correction(x, xc, t, alpha=0.3, restricted=restrict_params(t, x))
        assert got.data.tobytes() == ref.data.tobytes()
        with pytest.raises(NetworkShapeError):
            coarse_grid_correction(x, xc, t, restricted=x)


class TestGuardsAndRematch:
    def test_divergence_guard_raises_structured_error(self):
        net, inputs, targets = make_training_setup(43)
        cfg = SmootherConfig(learning_rate=1e30, momentum_coeff=0.9, steps_per_smooth=2)
        h = Hierarchy.build(net, depth=2, tau_batches=2)
        sched = fresh_scheduler(inputs, targets, 4, seed=43)
        with pytest.raises(DivergenceError) as err, np.errstate(all="ignore"):
            for _ in range(5):
                v_cycle(h, 0, cfg, StabilityConfig(eta=1.0), sched)
        assert err.value.level is not None
        assert err.value.cycle is not None

    def test_rematch_cadence(self):
        net, inputs, targets = make_training_setup(47)
        cfg = SmootherConfig(learning_rate=0.05, momentum_coeff=0.9, steps_per_smooth=2)
        h = Hierarchy.build(net, depth=2, rematch_period=2, weighted=False)
        sched = fresh_scheduler(inputs, targets, 4, seed=47)
        t0 = h.levels[0].transfer
        v_cycle(h, 0, cfg, StabilityConfig(eta=1.0), sched)  # cycle 0
        assert h.levels[0].transfer is t0
        v_cycle(h, 0, cfg, StabilityConfig(eta=1.0), sched)  # cycle 1
        assert h.levels[0].transfer is t0
        v_cycle(h, 0, cfg, StabilityConfig(eta=1.0), sched)  # cycle 2 starts -> rematch
        assert h.levels[0].transfer is not t0

    def test_momentum_uses_same_operators_as_parameters(self):
        # the correction applied to momentum is the same coarse_grid_correction call
        from mlfas import training

        import inspect

        src = inspect.getsource(training.v_cycle)
        assert src.count("coarse_grid_correction") == 2
