"""Acceptance gate.

One test per criterion; each prints a PASS/FAIL line (visible under -s).
The training-benefit criterion is stochastic and runs five seeded
head-to-head comparisons at an equal work budget; it dominates the runtime
of this module.
"""

import math
import statistics
import time

import numpy as np
import pytest

from _builders import CURRENT_CONV, _reference_forward_cached, random_conv_net, random_dense_net
from mlfas.coarsening import greedy_hem
from mlfas.harness import ExperimentConfig, emit_summary_table, run_experiment, run_seed
from mlfas.nets import (
    Minibatch,
    ParamVector,
    backward,
    dense_network,
    flatten,
    loss,
    unflatten,
)
from mlfas.poisson import cell_centers, generate_dataset, sample_kappa, solve_poisson, write_dataset
from mlfas.poisson import FieldParams
from mlfas.conv import ChannelTensorView, ConvLayer, conv_forward, to_matrix
from mlfas.training import (
    Hierarchy,
    LevelState,
    MinibatchScheduler,
    SmootherConfig,
    StabilityConfig,
    compute_tau,
    sgd_smooth,
    v_cycle,
)
from mlfas.transfer import coarsen_network, prolong_params, restrict_gradient, restrict_network, restrict_params
from test_transfer import identity_level


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def random_net(rng):
    if rng.random() < 0.3:
        return random_conv_net(rng, max_channels=6, spatial=5)
    return random_dense_net(rng, widths=(4, 64), io=(3, 10))


def test_criterion_1_operator_identities():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_pip = 0.0
    worst_adj = 0.0
    for _ in range(100):
        net = random_net(rng)
        t = coarsen_network(net, theta=float(rng.uniform(-1.0, 0.5)),
                            weighted=bool(rng.integers(0, 2)))
        x = flatten(net)
        xc = restrict_params(t, x)
        xc = ParamVector(rng.normal(size=xc.total_len), xc.segments)
        y = ParamVector(rng.normal(size=x.total_len), x.segments)
        back = restrict_params(t, prolong_params(t, xc))
        worst_pip = max(worst_pip, float(np.abs(back.data - xc.data).max()))
        lhs = prolong_params(t, xc).data @ y.data
        rhs = xc.data @ restrict_gradient(t, y).data
        bound = 1e-12 * (1.0 + np.linalg.norm(xc.data) * np.linalg.norm(y.data))
        worst_adj = max(worst_adj, abs(lhs - rhs) / bound)
    elapsed = time.perf_counter() - t0
    ok = worst_pip < 1e-12 and worst_adj < 1.0 and elapsed < 10.0
    report(1, "restriction/interpolation identities on 100 random nets", ok,
           f"max |PiP x - x| = {worst_pip:.2e}, max adjoint defect = {worst_adj:.2e} "
           f"of bound, {elapsed:.1f}s")


def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(2002)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        conv = i % 3 == 2
        for _ in range(40):
            net = (random_conv_net(rng, max_channels=3, spatial=5)
                   if conv else random_dense_net(rng, widths=(4, 24), io=(3, 8)))
            batch = Minibatch(rng.normal(size=(3, net.input_size)),
                              rng.normal(size=(3, net.output_size)))
            # pre-activation kink check
            _, caches = _reference_forward_cached(net, batch.inputs, CURRENT_CONV)
            if min(np.abs(z).min() for _, z in caches) >= 1e-6:
                break
        g = backward(net, batch)
        candidates = np.flatnonzero(np.abs(g.data) > 1e-3)
        if candidates.size < 20:
            candidates = np.argsort(-np.abs(g.data))[:20]
        idx = rng.choice(candidates, size=min(20, candidates.size), replace=False)
        x = flatten(net)
        eps = 1e-5
        for j in idx:
            x.data[j] += eps
            unflatten(net, x)
            lp = loss(net, batch).l2
            x.data[j] -= 2 * eps
            unflatten(net, x)
            lm = loss(net, batch).l2
            x.data[j] += eps
            unflatten(net, x)
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(g.data[j] - fd) / max(abs(fd), 1e-3))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    report(2, "backprop vs central finite differences on 50 nets", ok,
           f"max relative error = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_conv_toeplitz_equivalence():
    rng = np.random.default_rng(3003)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        out_c = int(rng.integers(1, 4))
        in_c = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        layer = ConvLayer(rng.normal(size=(out_c, in_c, k, k)), rng.normal(size=out_c),
                          stride=(int(rng.integers(1, 3)), int(rng.integers(1, 3))),
                          padding=(int(rng.integers(0, 2)), int(rng.integers(0, 2))))
        h = int(rng.integers(k, 8))
        w = int(rng.integers(k, 8))
        x = rng.normal(size=(in_c, h, w))
        out = conv_forward(layer, ChannelTensorView.from_array(x))
        m = to_matrix(layer, x.shape)
        ref = m @ x.ravel() + np.repeat(layer.bias, out.height * out.width)
        worst = max(worst, float(np.abs(out.data - ref).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 10.0
    report(3, "convolution equals its assembled matrix on 50 layers", ok,
           f"max deviation = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_hem_hand_traces():
    s1 = np.zeros((3, 3))
    s1[0, 1] = s1[1, 0] = 0.9
    s1[0, 2] = s1[2, 0] = 0.3
    s1[1, 2] = s1[2, 1] = 0.2
    m1 = greedy_hem(s1, theta=0.1)
    t1 = (m1.partner.tolist() == [1, 0, 2] and m1.num_aggregates == 2
          and m1.aggregate[0] == m1.aggregate[1] != m1.aggregate[2])

    s2 = np.full((4, 4), 0.3)
    np.fill_diagonal(s2, 1.0)
    m2 = greedy_hem(s2, theta=0.3)
    t2 = m2.partner.tolist() == [0, 1, 2, 3] and m2.num_aggregates == 4

    s3 = np.zeros((4, 4))
    s3[0, 1] = s3[1, 0] = 0.8
    s3[2, 3] = s3[3, 2] = 0.8
    m3 = greedy_hem(s3, theta=0.5)
    t3 = m3.num_aggregates == 2 and m3.partner.tolist() == [1, 0, 3, 2]

    report(4, "greedy matching reproduces the three hand traces",
           t1 and t2 and t3, f"traces: {t1}, {t2}, {t3}")


def test_criterion_5_degenerate_cycle_equivalences():
    rng = np.random.default_rng(5005)
    net = dense_network([8, 24, 24, 6], rng=np.random.default_rng(55))
    inputs = rng.normal(size=(24, 8))
    targets = rng.normal(size=(24, 6))
    k = 2

    # (a) identity transfers, gamma 0, alpha 1: one cycle == 3k SGD steps
    fas_net = net.copy()
    h = Hierarchy.build(fas_net, depth=2, tau_batches=k, weighted=False)
    t_id = identity_level(fas_net)
    h.levels[0].transfer = t_id
    h.levels[1] = LevelState(net=restrict_network(fas_net, t_id),
                             momentum=flatten(fas_net).zeros_like())
    cfg = SmootherConfig(learning_rate=0.02, momentum_coeff=0.9, steps_per_smooth=k)
    sched = MinibatchScheduler(inputs, targets, 4, np.random.default_rng(99))
    v_cycle(h, 0, cfg, StabilityConfig(eta=1.0, alpha_p=1.0, alpha_m=1.0, gamma=0.0), sched)
    ref_net = net.copy()
    momentum = flatten(ref_net).zeros_like()
    ref_sched = MinibatchScheduler(inputs, targets, 4, np.random.default_rng(99))
    for _ in range(3):
        sgd_smooth(ref_net, momentum, cfg, iter(ref_sched))
    err_a = float(np.abs(flatten(fas_net).data - flatten(ref_net).data).max())
    ok_a = err_a < 1e-12

    # (b) zero coarse smoothing steps: the coarse correction is exactly zero
    fas_net = net.copy()
    h = Hierarchy.build(fas_net, depth=2, tau_batches=k, theta=-1.0)
    cfgs = [cfg, SmootherConfig(learning_rate=0.02, momentum_coeff=0.9, steps_per_smooth=0)]
    sched = MinibatchScheduler(inputs, targets, 4, np.random.default_rng(7))
    v_cycle(h, 0, cfgs, StabilityConfig(eta=2.0, alpha_p=0.9, alpha_m=0.4, gamma=0.5), sched)
    ref_net = net.copy()
    momentum = flatten(ref_net).zeros_like()
    ref_sched = MinibatchScheduler(inputs, targets, 4, np.random.default_rng(7))
    sgd_smooth(ref_net, momentum, cfg, iter(ref_sched))
    ref_sched.next_tau_group(k)
    sgd_smooth(ref_net, momentum, cfg, iter(ref_sched))
    ok_b = np.array_equal(flatten(fas_net).data, flatten(ref_net).data)

    # (c) identity transfers make the tau correction vanish
    t_id = identity_level(net)
    coarse = restrict_network(net, t_id)
    batches = [Minibatch(rng.normal(size=(4, 8)), rng.normal(size=(4, 6))) for _ in range(3)]
    tau = compute_tau(net, coarse, t_id, batches)
    err_c = float(np.abs(tau.data).max())
    ok_c = err_c <= 1e-12

    report(5, "degenerate-cycle equivalences", ok_a and ok_b and ok_c,
           f"(a) |cycle - 3k SGD| = {err_a:.2e}, (b) exact: {ok_b}, (c) |tau| = {err_c:.2e}")


def test_criterion_6_poisson_generator(tmp_path):
    # manufactured-solution convergence
    errs = {}
    for n in (16, 32):
        c = cell_centers(n)
        x, y = np.meshgrid(c, c, indexing="ij")
        ustar = np.sin(np.pi * x) * np.sin(np.pi * y)
        u = solve_poisson(np.ones((n, n)), 2 * np.pi**2 * ustar)
        errs[n] = np.abs(u - ustar).max()
    ratio = errs[16] / errs[32]
    ok_mms = 3.5 <= ratio <= 4.5

    # kappa range over 10,000 parameter draws
    rng = np.random.default_rng(6006)
    ok_range = True
    for _ in range(10_000):
        params = FieldParams(kx=rng.uniform(0.5, 4), ky=rng.uniform(0.5, 4),
                             ax=rng.uniform(0, 0.5), ay=rng.uniform(0, 0.5),
                             alpha_rot=rng.uniform(0, np.pi / 2))
        k = sample_kappa(params, 8)
        if k.min() < 0.1 - 1e-12 or k.max() > 2.1 + 1e-12:
            ok_range = False
            break

    # determinism, bitwise at the file level
    a, b = tmp_path / "a.mlfasdat", tmp_path / "b.mlfasdat"
    write_dataset(generate_dataset(40, 12, seed=17), a)
    write_dataset(generate_dataset(40, 12, seed=17), b)
    ok_det = a.read_bytes() == b.read_bytes()

    # full 2000-sample generation under the time limit
    t0 = time.perf_counter()
    ds = generate_dataset(2000, 16, seed=20260810, val_fraction=0.2)
    gen_s = time.perf_counter() - t0
    ok_time = gen_s < 120.0 and ds.count == 2000

    report(6, "Poisson generator quality gates",
           ok_mms and ok_range and ok_det and ok_time,
           f"MMS ratio = {ratio:.2f}, range ok: {ok_range}, deterministic: {ok_det}, "
           f"2000@n=16 in {gen_s:.1f}s")
