"""Flat parameter and gradient buffers: bitwise agreement and ownership."""

import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import (
    random_batch,
    random_conv_net,
    random_dense_net,
    reference_backward,
    reference_sgd_smooth,
)
from mlfas.checkpoints import load_network, save_network
from mlfas.conv import ConvLayer
from mlfas.harness import build_network
from mlfas.nets import DenseLayer, Network, ParamLayoutError, ParamVector, backward, forward
from mlfas.training import Hierarchy, SmootherConfig, compute_tau, sgd_smooth
from mlfas.transfer import (
    coarse_grid_correction,
    coarsen_network,
    restrict_gradient,
    restrict_network,
    restrict_params,
)


def weights_of(layer):
    return layer.kernels if isinstance(layer, ConvLayer) else layer.weights


def assert_independent(a, b):
    for x in (a.params.data, a.grad.data):
        for y in (b.params.data, b.grad.data):
            assert not np.shares_memory(x, y)


class TestMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        conv=st.booleans(),
        batch_size=st.sampled_from([1, 2, 7]),
        weight_decay=st.sampled_from([0.0, 1e-3]),
        tilted=st.booleans(),
    )
    def test_gradients_and_trajectory_bitwise(
        self, seed, conv, batch_size, weight_decay, tilted
    ):
        rng = np.random.default_rng(seed)
        if conv:
            net = random_conv_net(rng)
        else:
            net = random_dense_net(rng, widths=(2, 24))
        batches = [random_batch(rng, net, size=batch_size) for _ in range(3)]
        for batch in batches:
            ref = reference_backward(net, batch).data
            assert np.array_equal(backward(net, batch).data, ref)
            assert np.array_equal(backward(net, batch, out=net.grad).data, ref)

        ref_net = net.copy()
        layout = net.params.segments
        m0 = rng.normal(size=net.param_count())
        momentum = ParamVector(m0.copy(), layout)
        ref_momentum = ParamVector(m0.copy(), layout)
        tau = rng.normal(size=net.param_count())
        tilt = ParamVector(0.125 * tau, layout) if tilted else None
        start = net.params.data.copy()
        cfg = SmootherConfig(learning_rate=0.01, momentum_coeff=0.9,
                             weight_decay=weight_decay, steps_per_smooth=12)
        sgd_smooth(net, momentum, cfg, itertools.cycle(batches), tilt=tilt)
        reference_sgd_smooth(ref_net, ref_momentum, cfg, itertools.cycle(batches), tilt=tilt)
        assert np.isfinite(net.params.data).all()
        assert not np.array_equal(net.params.data, start)
        assert np.array_equal(net.params.data, ref_net.params.data)
        assert np.array_equal(momentum.data, ref_momentum.data)


    def test_large_conv_batch_bitwise(self):
        # numpy reuses float temporaries of at least 256 KiB as a product's
        # output, which once changed the layout the conv bias gradient was
        # summed in; the small nets above stay under that size
        rng = np.random.default_rng(2)
        net = build_network("conv:8k3s2p1,dense:16", (3, 32, 32), 8, rng=rng)
        batch = random_batch(rng, net, size=20)
        assert np.array_equal(backward(net, batch).data, reference_backward(net, batch).data)


class TestOwnership:
    def test_layers_are_views_of_the_parameter_buffer(self):
        rng = np.random.default_rng(3)
        for net in (random_dense_net(rng), random_conv_net(rng)):
            for k, layer in enumerate(net.layers):
                assert np.shares_memory(weights_of(layer), net.params.data)
                assert np.shares_memory(layer.bias, net.params.data)
                assert np.array_equal(weights_of(layer), net.params.view(k, "weight"))
            y = rng.normal(size=net.input_size)
            before = forward(net, y)
            net.params.view(net.n_layers - 1, "bias")[...] += 1.0
            np.testing.assert_allclose(forward(net, y), before + 1.0, rtol=0, atol=1e-12)

    def test_copies_get_buffers_of_their_own(self, tmp_path):
        rng = np.random.default_rng(5)
        net = random_conv_net(rng)
        t = coarsen_network(net, theta=-1.0)
        save_network(net, tmp_path / "net.mlfasnet")
        loaded = load_network(tmp_path / "net.mlfasnet")
        copies = [net.copy(), loaded, copy.deepcopy(net), pickle.loads(pickle.dumps(net))]
        for other in copies + [restrict_network(net, t)]:
            assert_independent(net, other)
            assert not np.shares_memory(other.params.data, other.grad.data)
            for layer in other.layers:
                assert np.shares_memory(weights_of(layer), other.params.data)
        for other in copies:
            assert np.array_equal(other.params.data, net.params.data)
        loaded.params.data[...] = 0.0
        assert np.abs(net.params.data).max() > 0.0

    def test_rematch_builds_independent_levels(self):
        rng = np.random.default_rng(7)
        net = random_dense_net(rng, n_hidden=2, widths=(8, 16))
        h = Hierarchy.build(net, depth=3)
        before = [s.net for s in h.levels]
        h.rematch()
        assert h.levels[0].net is net
        nets = before + [s.net for s in h.levels[1:]]
        for a, b in itertools.combinations(nets, 2):
            if a is not b:
                assert_independent(a, b)
        for s in h.levels:
            for other in h.levels:
                assert not np.shares_memory(s.momentum.data, other.net.params.data)

    def test_returned_gradient_is_caller_owned(self):
        rng = np.random.default_rng(11)
        net = random_dense_net(rng)
        b1, b2 = random_batch(rng, net), random_batch(rng, net)
        g1 = backward(net, b1)
        snapshot = g1.data.copy()
        backward(net, b2)
        backward(net, b2, out=net.grad)
        cfg = SmootherConfig(learning_rate=0.01, steps_per_smooth=2)
        sgd_smooth(net, net.params.zeros_like(), cfg, itertools.repeat(b2))
        assert not np.shares_memory(g1.data, net.grad.data)
        assert np.array_equal(g1.data, snapshot)

    def test_tau_over_three_batches_is_the_scaled_sum(self):
        rng = np.random.default_rng(13)
        fine = random_dense_net(rng, n_hidden=2, widths=(6, 12))
        t = coarsen_network(fine, theta=-1.0)
        coarse = restrict_network(fine, t)
        batches = [random_batch(rng, fine, size=4) for _ in range(3)]
        gf = [backward(fine, b).data for b in batches]
        gc = [backward(coarse, b).data for b in batches]
        fine_sum = ParamVector(gf[0] + gf[1] + gf[2], fine.params.segments)
        expected = (gc[0] + gc[1] + gc[2] - restrict_gradient(t, fine_sum).data) / 3
        tau = compute_tau(fine, coarse, t, batches)
        assert np.array_equal(tau.data, expected)
        assert not np.shares_memory(tau.data, coarse.grad.data)
        backward(coarse, batches[0], out=coarse.grad)
        backward(fine, batches[0], out=fine.grad)
        assert np.array_equal(tau.data, expected)

    def test_network_from_another_networks_layers_copies_them(self):
        rng = np.random.default_rng(17)
        first = random_dense_net(rng)
        second = Network(first.layers)
        assert_independent(first, second)
        for a, b in zip(first.layers, second.layers):
            assert a is not b
            assert np.shares_memory(a.weights, first.params.data)
            assert np.array_equal(a.weights, b.weights)
        snapshot = first.params.data.copy()
        second.params.data[...] = 0.0
        assert np.array_equal(first.params.data, snapshot)

    def test_constructor_leaves_given_layers_alone(self):
        w, b = np.ones((2, 3)), np.zeros(2)
        layer = DenseLayer(w, b)
        net = Network([layer])
        assert layer.weights is w
        assert not np.shares_memory(net.layers[0].weights, w)
        w[...] = 5.0
        assert np.all(net.layers[0].weights == 1.0)

    def test_out_vectors_of_another_layout_are_rejected(self):
        rng = np.random.default_rng(19)
        net = random_dense_net(rng, n_hidden=1, widths=(6, 12))
        t = coarsen_network(net, theta=-1.0)
        coarse = restrict_network(net, t)
        with pytest.raises(ParamLayoutError):
            backward(net, random_batch(rng, net), out=coarse.grad)
        with pytest.raises(ParamLayoutError):
            restrict_params(t, net.params, out=net.grad)
        with pytest.raises(ParamLayoutError):
            restrict_gradient(t, net.grad, out=net.grad)
        with pytest.raises(ParamLayoutError):
            coarse_grid_correction(net.params, coarse.params, t, out=coarse.params)
