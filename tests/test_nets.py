"""Dense networks: forward, loss, backprop, and flat parameter views."""

import multiprocessing
import sys
import threading
import time
from concurrent import futures
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _builders import (
    assert_rel,
    dense_network,
    forward_one,
    lowered_batch,
    random_batch,
    random_dense_net,
    random_rows,
    reference_backward,
    reference_forward,
    term_magnitudes,
)
from mlfas import _threads, nets
from mlfas.conv import ConvLayer
from mlfas.harness import build_network
from mlfas.nets import (
    DenseLayer,
    LossValue,
    Minibatch,
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
from mlfas.poisson import generate_dataset
from mlfas.transfer import coarsen_network, restrict_network


def naive_forward(layers, y):
    """Independent per-element loop evaluation (the oracle)."""
    v = [float(t) for t in y]
    for k, (w, b) in enumerate(layers):
        out = []
        for i in range(len(b)):
            s = float(b[i])
            for j in range(len(v)):
                s += float(w[i][j]) * v[j]
            out.append(s)
        if k < len(layers) - 1:
            out = [t if t > 0.0 else 0.0 for t in out]
        v = out
    return np.array(v)


class TestForward:
    # one ReLU unit, read through a linear identity output layer
    RELU_PROBE = [DenseLayer([[1.0, -1.0]], [0.5]), DenseLayer([[1.0]], [0.0])]

    def test_single_layer_active(self):
        assert forward_one(Network(self.RELU_PROBE), [2.0, 1.0]) == pytest.approx([1.5], abs=0)

    def test_single_layer_clamped(self):
        assert forward_one(Network(self.RELU_PROBE), [0.0, 3.0]) == pytest.approx([0.0], abs=0)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            net = random_dense_net(rng, widths=(3, 8), io=(2, 6))
            y = rng.normal(size=net.input_size)
            got = forward_one(net, y)
            ref = naive_forward([(l.weights, l.bias) for l in net.layers], y)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(got - ref).max() / scale < 1e-15

    def test_input_size_mismatch(self):
        net = dense_network([3, 4, 2], rng=np.random.default_rng(0))
        with pytest.raises(NetworkShapeError, match="input size"):
            forward_one(net, np.zeros(5))

    def test_layer_chain_mismatch_names_layer(self):
        with pytest.raises(NetworkShapeError, match="layer 1"):
            Network([DenseLayer(np.ones((4, 3)), np.zeros(4)),
                     DenseLayer(np.ones((2, 5)), np.zeros(2))])

    def test_conv_after_dense_rejected(self):
        # the dense layer leaves a flat interface, which no conv can read
        layers = [DenseLayer(np.ones((18, 18)), np.zeros(18)),
                  ConvLayer(np.ones((2, 2, 3, 3)), np.zeros(2))]
        with pytest.raises(NetworkShapeError,
                           match=r"layer 1 \(conv\): convolutional layers must precede"):
            Network(layers, input_shape=(2, 3, 3))

    def test_conv_on_flat_input_rejected(self):
        layers = [ConvLayer(np.ones((2, 1, 3, 3)), np.zeros(2)),
                  DenseLayer(np.ones((1, 2)), np.zeros(1))]
        with pytest.raises(NetworkShapeError,
                           match=r"layer 0 \(conv\): convolutional layers must precede"):
            Network(layers, input_shape=(9,))

    @pytest.mark.parametrize("input_shape", [9, (3, 3)])
    def test_input_shape_of_another_form_rejected(self, input_shape):
        layers = [DenseLayer(np.ones((1, 9)), np.zeros(1))]
        with pytest.raises(NetworkShapeError, match=r"\(n,\) or \(channels, height, width\)"):
            Network(layers, input_shape=input_shape)

    def test_positive_homogeneity_through_relu(self):
        rng = np.random.default_rng(7)
        net = random_dense_net(rng, widths=(3, 10), io=(2, 6))
        for layer in net.layers:
            layer.bias[...] = 0.0
        y = rng.normal(size=net.input_size)
        base = forward_one(net, y)
        c = 1.7
        scaled = net.copy()
        for layer in scaled.layers:
            layer.weights *= c
        got = forward_one(scaled, y)
        ref = c ** net.n_layers * base
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


class TestLoss:
    def test_zero_residual(self):
        rng = np.random.default_rng(3)
        net = random_dense_net(rng)
        x = lower_input(net, rng.normal(size=(4, net.input_size)))
        lv = loss(net, Minibatch(x, forward_batch(net, x)))
        assert lv.l2 == 0.0 and lv.linf == 0.0

    def test_scalar_example(self):
        net = Network([DenseLayer([[0.0]], [1.0])])
        lv = loss(net, lowered_batch(net, [[5.0]], [[3.0]]))
        assert lv.l2 == pytest.approx(4.0, abs=0)
        assert lv.linf == pytest.approx(2.0, abs=0)

    def test_against_summation_oracle(self):
        rng = np.random.default_rng(11)
        net = random_dense_net(rng)
        x, y = random_rows(rng, net, size=5)
        batch = lowered_batch(net, x, y)
        preds = np.vstack([forward_one(net, row) for row in x])
        l2 = 0.0
        linf = 0.0
        for s in range(5):
            err = batch.targets[s] - preds[s]
            l2 += float(err @ err)
            linf = max(linf, float(np.abs(err).max()))
        l2 /= 5
        lv = loss(net, batch)
        assert abs(lv.l2 - l2) <= 1e-14 * max(1.0, l2)
        assert lv.linf == pytest.approx(linf, rel=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        net = random_dense_net(rng)
        batch = random_batch(rng, net, size=8)
        perm = rng.permutation(8)
        shuffled = Minibatch(batch.inputs[perm], batch.targets[perm])
        a, b = loss(net, batch), loss(net, shuffled)
        assert abs(a.l2 - b.l2) <= 1e-12 * max(1.0, a.l2)
        assert a.linf == b.linf

    def test_empty_batch_rejected(self):
        net = Network([DenseLayer(np.ones((2, 3)), np.zeros(2))])
        with pytest.raises(ValueError, match="nonempty"):
            lowered_batch(net, np.zeros((0, 3)), np.zeros((0, 2)))


def whole_batch_loss(net, batch):
    """(l2, linf) from one forward pass over the whole batch: the reference
    that ``loss``'s row blocks must match bit for bit."""
    err = forward_batch(net, batch.inputs) - batch.targets
    return float(np.mean(np.sum(err * err, axis=1))), float(np.max(np.abs(err)))


def kappa_xy_batch(rng, size, folded, grid=6):
    """(size, 3 * grid**2) rows laid out as [kappa, x, y]; with ``folded``
    only kappa varies between rows, as in generated data, so a first layer
    folds the coordinate channels out."""
    x = rng.normal(size=(size, 3, grid, grid))
    if folded:
        x[:, 1:] = x[:1, 1:]
    return x.reshape(size, -1)


def set_block_rows(monkeypatch, net, rows):
    """Size ``loss``'s row blocks at ``rows`` rows for ``net``."""
    widest = max(int(np.prod(shape)) for shape in net.interfaces[1:])
    monkeypatch.setattr(nets, "LOSS_BLOCK_BYTES", rows * 8 * widest)


class TestBlockedLoss:
    """``loss`` evaluates in row blocks and must equal one whole-batch pass."""

    BLOCK = 32

    @pytest.mark.parametrize("arch", ["dense:9,dense:7", "conv:4k3s2p1,dense:9"])
    @pytest.mark.parametrize("folded", [False, True])
    def test_matches_whole_batch_bitwise(self, monkeypatch, arch, folded):
        rng = np.random.default_rng(53)
        shape = (3, 6, 6) if arch.startswith("conv") else 108
        net = build_network(arch, shape, 36, rng=rng)
        set_block_rows(monkeypatch, net, self.BLOCK)
        b = self.BLOCK
        for n in (1, 2, b - 1, b, b + 1, 2 * b + 1):
            batch = lowered_batch(net, kappa_xy_batch(rng, n, folded), rng.normal(size=(n, 36)))
            assert len(nets.loss_blocks(net, n)) == -(-n // b)
            assert (batch.inputs.sample is not None) == (folded and n > 1)
            lv = loss(net, batch)
            assert (lv.l2, lv.linf) == whole_batch_loss(net, batch)

    def test_benchmark_conv_net_at_the_real_block_size(self):
        rng = np.random.default_rng(59)
        net = build_network("conv:8k3s2p1,dense:64", (3, 32, 32), 1024, rng=rng)
        n = 2 * (nets.LOSS_BLOCK_BYTES // (8 * 8 * 16 * 16)) + 1  # 2 * 32 + 1 at 512 KB
        assert len(nets.loss_blocks(net, n)) == 3
        batch = lowered_batch(net, kappa_xy_batch(rng, n, True, grid=32),
                              rng.normal(size=(n, 1024)))
        lv = loss(net, batch)
        assert (lv.l2, lv.linf) == whole_batch_loss(net, batch)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("row", [8, 14])  # the second and the last of three blocks
    def test_nonfinite_error_in_a_later_block(self, monkeypatch, bad, row):
        rng = np.random.default_rng(61)
        net = build_network("dense:9", 108, 36, rng=rng)
        # 5-row blocks, below the bitwise minimum, which this test does not need
        monkeypatch.setattr(nets, "LOSS_BLOCK_MIN_ROWS", 1)
        set_block_rows(monkeypatch, net, 7)
        assert len(nets.loss_blocks(net, 15)) == 3
        targets = rng.normal(size=(15, 36))
        targets[row, 3] = bad
        lv = loss(net, lowered_batch(net, kappa_xy_batch(rng, 15, True), targets))
        expect = np.isnan if np.isnan(bad) else np.isposinf
        assert expect(lv.l2) and expect(lv.linf)

    def test_wide_net_below_32_rows_is_one_block(self):
        # OpenBLAS 0.3.31's Haswell and Zen kernels gave this batch, as 6-
        # and 7-row blocks, another l2 than the whole batch
        rng = np.random.default_rng(3)
        net = build_network("dense:8192,dense:128", 108, 36, rng=rng)
        batch = lowered_batch(net, kappa_xy_batch(rng, 20, False), rng.normal(size=(20, 36)))
        assert nets.loss_blocks(net, 20) == [slice(0, 20)]
        lv = loss(net, batch)
        assert (lv.l2, lv.linf) == whole_batch_loss(net, batch)

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 20])
    def test_block_sizes(self, monkeypatch, rows):
        net = build_network("dense:9", 108, 36)
        set_block_rows(monkeypatch, net, rows)
        least = nets.LOSS_BLOCK_MIN_ROWS
        for n in range(1, 100):
            blocks = nets.loss_blocks(net, n)
            sizes = [blk.stop - blk.start for blk in blocks]
            assert blocks[0].start == 0 and blocks[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert max(sizes) - min(sizes) <= 1
            assert min(sizes) >= min(n, least)
            assert max(sizes) <= max(rows, least) or len(blocks) == n // least

    def test_conv_split_peak_stays_below_one_activation(self):
        import tracemalloc

        rng = np.random.default_rng(67)
        net = build_network("conv:8k3s2p1,dense:64", (3, 32, 32), 1024, rng=rng)
        x = kappa_xy_batch(rng, 800, True, grid=32)
        batch = Minibatch(lower_input(net, x), rng.normal(size=(800, 1024)))
        del x
        activation = 800 * net.interfaces[1][0] * 16 * 16 * 8  # 13.1 MB
        tracemalloc.start()
        try:
            loss(net, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < activation


def fd_gradient(net, batch, idx, eps=1e-5):
    x = flatten(net)
    out = []
    for i in idx:
        x.data[i] += eps
        unflatten(net, x)
        lp = loss(net, batch).l2
        x.data[i] -= 2 * eps
        unflatten(net, x)
        lm = loss(net, batch).l2
        x.data[i] += eps
        unflatten(net, x)
        out.append((lp - lm) / (2 * eps))
    return np.array(out)


def sample_away_from_kinks(rng, make_net_and_rows):
    """Draw (net, (inputs, targets)) until no pre-activation sits within 1e-6
    of a kink; returns the net and the rows' lowered batch."""
    for _ in range(50):
        net, rows = make_net_and_rows(rng)
        a = rows[0]
        ok = True
        for k, layer in enumerate(net.layers):
            z = a @ layer.weights.T + layer.bias
            if k < net.n_layers - 1:
                if np.abs(z).min() < 1e-6:
                    ok = False
                    break
                a = np.maximum(z, 0.0)
            else:
                a = z
        if ok:
            return net, lowered_batch(net, *rows)
    raise AssertionError("could not sample a kink-free configuration")


class TestBackward:
    def test_single_layer_hand_case(self):
        # zero parameters, zero inputs: only the output bias gradient survives
        net = Network([DenseLayer(np.zeros((2, 3)), np.zeros(2))])
        targets = np.array([[1.0, -2.0], [3.0, 0.5], [0.0, 4.0]])
        g = backward(net, lowered_batch(net, np.zeros((3, 3)), targets))
        assert np.all(g.weights(0) == 0.0)
        expected_bias = -(2.0 / 3.0) * targets.sum(axis=0)
        np.testing.assert_allclose(g.bias(0), expected_bias, rtol=1e-15)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(17)

        def make(r):
            net = random_dense_net(r, widths=(4, 32), io=(3, 8), n_hidden=int(r.integers(1, 4)))
            return net, random_rows(r, net, size=4)

        net, batch = sample_away_from_kinks(rng, make)
        g = backward(net, batch)
        idx = rng.choice(g.total_len, size=20, replace=False)
        fd = fd_gradient(net, batch, idx)
        rel = np.abs(g.data[idx] - fd) / np.maximum(np.abs(fd), 1e-3)
        assert rel.max() < 1e-5

    def test_duplicated_samples_leave_gradient_unchanged(self):
        rng = np.random.default_rng(19)
        net = random_dense_net(rng)
        x, y = random_rows(rng, net, size=3)
        batch = lowered_batch(net, x, y)
        doubled = lowered_batch(net, np.vstack([x, x]), np.vstack([y, y]))
        g1 = backward(net, batch)
        g2 = backward(net, doubled)
        np.testing.assert_allclose(g2.data, g1.data, rtol=1e-12, atol=1e-14)


class TestParamVector:
    def test_total_len_counting(self):
        net = Network([DenseLayer(np.zeros((2, 3)), np.zeros(2))])
        assert flatten(net).total_len == 8

    def test_layers_tile_the_vector(self):
        net = build_network("conv:4k3s2p1,conv:2k3s1p1,dense:6", (3, 8, 8), 5,
                            rng=np.random.default_rng(23))
        x = flatten(net)
        assert x.layout == tuple((l.weights.shape, l.bias.shape) for l in net.layers)

        def offset(a):
            return (a.ctypes.data - x.data.ctypes.data) // a.itemsize

        # layer by layer, each weight block followed by its bias block, with
        # nothing between, so a layer's entries are one slice
        end = 0
        for k, (w_shape, b_shape) in enumerate(x.layout):
            w, b, entries = x.weights(k), x.bias(k), x.layer(k)
            assert (w.shape, b.shape) == (w_shape, b_shape)
            assert offset(entries) == offset(w) == end
            assert offset(b) == end + w.size
            assert entries.size == w.size + b.size
            end += entries.size
        assert end == x.total_len == net.param_count()
        for k, layer in enumerate(net.layers):
            entries = net.params.layer(k)
            assert np.shares_memory(entries, layer.weights)
            assert np.shares_memory(entries, layer.bias)
            assert np.array_equal(entries, np.concatenate([layer.weights.ravel(), layer.bias]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_roundtrip_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        net = random_dense_net(rng, widths=(2, 9), io=(1, 5))
        before = [(l.weights.copy(), l.bias.copy()) for l in net.layers]
        x = flatten(net)
        x2 = ParamVector(x.data.copy(), x.layout)
        unflatten(net, x2)
        for layer, (w, b) in zip(net.layers, before):
            assert np.array_equal(layer.weights, w)
            assert np.array_equal(layer.bias, b)
        assert np.array_equal(flatten(net).data, x.data)

    def test_unflatten_length_mismatch(self):
        net = dense_network([3, 4, 2], rng=np.random.default_rng(1))
        other = dense_network([3, 5, 2], rng=np.random.default_rng(1))
        with pytest.raises(NetworkShapeError):
            unflatten(net, flatten(other))

    def test_view_matches_layer(self):
        rng = np.random.default_rng(29)
        net = random_dense_net(rng)
        x = flatten(net)
        for k, layer in enumerate(net.layers):
            assert np.array_equal(x.weights(k), layer.weights)
            assert np.array_equal(x.bias(k), layer.bias)


def folded_case(seed, conv, batch_size, kernel=3, stride=1, padding=0):
    """A net and a batch whose first-layer input varies in one block only.

    ``conv`` counts the conv layers ahead of a dense head (0 or False for a
    dense net); a second one is ``conv:2k3s2p1``, so the first conv layer's
    upstream is a conv layer's input gradient.  Returns (net, inputs,
    targets, block), the inputs raw rows: along axis 1 of the first layer's
    input (features, or channels for a conv first layer) the entries outside
    ``block`` are copied from the first sample into every sample.
    """
    rng = np.random.default_rng(seed)
    if conv:
        c = int(rng.integers(2, 5))
        size = int(rng.integers(max(3, kernel), 8))
        convs = [f"conv:{int(rng.integers(2, 5))}k{kernel}s{stride}p{padding}"]
        arch = ",".join(convs + ["conv:2k3s2p1"] * (conv - 1) + ["dense:6"])
        net = build_network(arch, (c, size, size), 3, rng=rng)
    else:
        net = random_dense_net(rng, io=(2, 12))
    x, y = random_rows(rng, net, size=batch_size)
    n = net.interfaces[0][0]
    lo = int(rng.integers(0, n))
    hi = int(rng.integers(lo + 1, n + 1))
    if hi - lo == n:
        hi -= 1
    rows = x.reshape(batch_size, n, -1)
    rows[:, :lo] = rows[:1, :lo]
    rows[:, hi:] = rows[:1, hi:]
    return net, x, y, slice(lo, hi)


def assert_gradients_match(got, ref, block, scale=None):
    """``assert_rel`` per block, with layer 0's weight gradient split at ``block``.

    The varying block and the shared rest are computed apart, so each part
    is held to the tolerance relative to its own scale: the reference's, or
    that of the same part of the vector ``scale`` when given.
    """
    scale = ref if scale is None else scale
    for k in range(len(got.layout)):
        g, r, s = got.weights(k), ref.weights(k), scale.weights(k)
        if k == 0:
            varying = np.zeros(g.shape[1], dtype=bool)
            varying[block] = True
            assert_rel(g[:, varying], r[:, varying], scale=s[:, varying])
            assert_rel(g[:, ~varying], r[:, ~varying], scale=s[:, ~varying])
        else:
            assert_rel(g, r, scale=s)
        assert_rel(got.bias(k), ref.bias(k), scale=scale.bias(k))


class TestSharedInputFold:
    """First-layer inputs shared by every sample, folded out of the products."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        conv=st.sampled_from([0, 1, 2]),
        batch_size=st.sampled_from([2, 7]),
        geometry=st.sampled_from([(3, 1, 0), (3, 1, 1), (3, 2, 1), (2, 2, 0), (1, 1, 0)]),
    )
    def test_matches_full_products(self, seed, conv, batch_size, geometry):
        kernel, stride, padding = geometry
        net, x, y, block = folded_case(seed, conv, batch_size, kernel, stride, padding)
        batch = lowered_batch(net, x, y)
        assert batch.inputs.block == block
        assert_rel(forward_batch(net, batch.inputs), reference_forward(net, x))
        assert_gradients_match(backward(net, batch), reference_backward(net, x, y), block)

    @pytest.mark.parametrize("conv", [False, True])
    def test_unfolded_batches_match_bitwise(self, conv):
        for seed in range(6):
            net, inputs, targets, block = folded_case(seed, conv, 7)
            n = net.interfaces[0][0]
            rows = inputs.reshape(7, n, -1)
            rng = np.random.default_rng(seed)
            gapped = rows.copy()  # varying entries at both ends, shared between
            gapped[:, 0] = rng.normal(size=gapped[:, 0].shape)
            gapped[:, -1] = rng.normal(size=gapped[:, -1].shape)
            gapped[:, 1:-1] = gapped[:1, 1:-1]
            cases = [
                inputs[:1],  # one sample
                rng.normal(size=inputs.shape),  # nothing shared
            ]
            if n > 2:
                cases.append(gapped.reshape(7, -1))
            for x in cases:
                y = targets[: x.shape[0]]
                b = lowered_batch(net, x, y)
                assert b.inputs.sample is None
                assert np.array_equal(forward_batch(net, b.inputs), reference_forward(net, x))
                assert np.array_equal(backward(net, b).data, reference_backward(net, x, y).data)

    @pytest.mark.parametrize("conv", [False, True])
    def test_nan_in_a_shared_column_propagates(self, conv):
        net, x, y, block = folded_case(11, conv, 7)
        n = net.interfaces[0][0]
        column = block.stop if block.stop < n else block.start - 1
        rows = x.reshape(7, n, -1)
        rows[:, column, 0] = np.nan
        batch = lowered_batch(net, x, y)
        assert np.isnan(forward_batch(net, batch.inputs)).all()
        assert np.isnan(backward(net, batch).data).all()


def poisson_split(conv, arch=None):
    """A net and a generated ``[kappa, x, y]`` split of 12 samples on a 6 x 6 grid.

    Only ``kappa`` varies between the samples, as in every generated dataset.
    Returns (net, inputs, targets).
    """
    ds = generate_dataset(12, 6, seed=31)
    x, y = ds.flat_inputs(), ds.flat_outputs()
    if arch is None:
        arch = "conv:4k3s2p1,dense:9" if conv else "dense:9,dense:7"
    shape = (3, 6, 6) if conv else x.shape[1]
    return build_network(arch, shape, y.shape[1], rng=np.random.default_rng(37)), x, y


class TestSplitLowering:
    """A split lowered once, and batches gathered from it, against the
    batches' raw rows lowered on their own."""

    @pytest.mark.parametrize("conv", [False, True])
    def test_gathered_batches_match_raw_batches_bitwise(self, conv):
        net, x, y = poisson_split(conv)
        lowered = lower_input(net, x)
        assert lowered.block == (slice(0, 1) if conv else slice(0, 36))
        assert lowered.sample is not None
        coarse = restrict_network(net, coarsen_network(net, theta=-1.0))
        assert coarse.unit_counts()[1] < net.unit_counts()[1]
        perm = np.random.default_rng(41).permutation(12)
        for idx in (np.arange(12), perm[:7], perm[:2], perm[::-1]):
            gathered = Minibatch(lowered[idx], y[idx])
            # the batch's raw rows, lowered on their own
            raw = Minibatch(lower_input(net, x[idx]), y[idx])
            assert raw.inputs.block == lowered.block
            # every level reads the same lowering
            for level in (net, coarse):
                assert np.array_equal(forward_batch(level, gathered.inputs),
                                      forward_batch(level, raw.inputs))
                assert loss(level, gathered) == loss(level, raw)
                assert np.array_equal(backward(level, gathered).data,
                                      backward(level, raw).data)

    @pytest.mark.parametrize("conv", [False, True])
    def test_gathered_single_sample_matches_raw_sample(self, conv):
        # one raw sample lowered on its own folds nothing; gathered from the
        # split it keeps the split's fold, so the two agree to rounding, not bit for bit
        net, x, y = poisson_split(conv)
        lowered = lower_input(net, x)
        for i in (0, 5):
            gathered = Minibatch(lowered[[i]], y[[i]])
            raw = Minibatch(lower_input(net, x[[i]]), y[[i]])
            assert raw.inputs.sample is None
            assert_rel(forward_batch(net, gathered.inputs), forward_batch(net, raw.inputs))
            assert loss(net, gathered).l2 == pytest.approx(loss(net, raw).l2, rel=1e-12)
            assert_gradients_match(backward(net, gathered), backward(net, raw), lowered.block)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        conv=st.sampled_from([0, 1, 2]),
        batch_size=st.sampled_from([1, 2, 4]),
        where=st.sampled_from(["first", "last", "middle"]),
    )
    # here the layer-1 weight gradient reads activations whose terms cancel,
    # so its largest entry is 6.6e-5 and a rounding gap of 7.2e-17 exceeded
    # 1e-12 of it
    @example(seed=1_933_376_143, conv=1, batch_size=1, where="first")
    def test_batch_constant_inside_split_block(self, seed, conv, batch_size, where):
        # the batch holds one column (feature or channel) constant that varies
        # over the split, so the split's fold is not the batch's own; the two
        # sum the same terms apart, so they agree to rounding relative to the
        # size of the terms, not of the result they may cancel to
        net, x, y, block = folded_case(seed, conv, 9)
        n = net.interfaces[0][0]
        column = {"first": block.start, "last": block.stop - 1,
                  "middle": (block.start + block.stop - 1) // 2}[where]
        idx = np.random.default_rng(seed).permutation(9)[:batch_size]
        rows = x.reshape(9, n, -1)
        rows[idx, column] = rows[idx[:1], column]
        lowered = lower_input(net, x)
        assert lowered.block == block
        gathered = Minibatch(lowered[idx], y[idx])
        terms, gradient_terms = term_magnitudes(net, x[idx], y[idx])
        assert_rel(forward_batch(net, gathered.inputs), reference_forward(net, x[idx]),
                   scale=terms)
        assert_gradients_match(backward(net, gathered), reference_backward(net, x[idx], y[idx]),
                               block, scale=gradient_terms)


class TestLoweringGeometry:
    """A lowering made for one first-layer geometry is refused by another."""

    @pytest.mark.parametrize("other", [
        "conv:4k2s1p0,dense:9",  # kernel
        "conv:4k3s2p1,dense:9",  # stride: same patch-matrix shape on a 4 x 4 input
        "conv:4k3s1p1,dense:9",  # padding
        "dense:9",  # a dense first layer over the same inputs
    ])
    def test_conv_lowering_rejected(self, other):
        rng = np.random.default_rng(43)
        net = build_network("conv:4k3s1p0,dense:9", (2, 4, 4), 3, rng=rng)
        shape = (2, 4, 4) if other.startswith("conv") else 32
        wrong = build_network(other, shape, 3, rng=rng)
        batch = Minibatch(lower_input(net, rng.normal(size=(5, 32))), rng.normal(size=(5, 3)))
        for call in (lambda: forward_batch(wrong, batch.inputs), lambda: loss(wrong, batch),
                     lambda: backward(wrong, batch)):
            with pytest.raises(NetworkShapeError, match="lowered for first-layer geometry"):
                call()

    def test_input_size_change_rejected(self):
        rng = np.random.default_rng(47)
        for arch, shapes in (("conv:4k3s1p1,dense:9", ((2, 5, 5), (2, 6, 6))),
                             ("dense:9", (50, 72))):
            net, wrong = (build_network(arch, s, 3, rng=rng) for s in shapes)
            x = rng.normal(size=(4, net.input_size))
            with pytest.raises(NetworkShapeError, match="lowered for first-layer geometry"):
                backward(wrong, Minibatch(lower_input(net, x), np.zeros((4, 3))))

    @pytest.mark.parametrize("arch, shape", [("dense:9", 6), ("conv:4k3s1p1,dense:9", (2, 3, 3))])
    def test_raw_rows_rejected_naming_lower_input(self, arch, shape):
        rng = np.random.default_rng(49)
        net = build_network(arch, shape, 3, rng=rng)
        rows = np.ones((3, net.input_size))
        with pytest.raises(TypeError, match="LoweredInput made by lower_input, got ndarray"):
            forward_batch(net, rows)
        # a Minibatch refuses raw rows itself; one whose inputs were swapped
        # for them after is refused by the network
        batch = random_batch(rng, net, size=3)
        batch.inputs = rows
        for call in (loss, backward):
            with pytest.raises(TypeError, match="lower_input"):
                call(net, batch)


def test_package_root_builds_a_lowered_batch():
    import mlfas

    rng = np.random.default_rng(50)
    net = build_network("dense:9", 6, 3, rng=rng)
    x, y = random_rows(rng, net, size=4)
    batch = mlfas.Minibatch(mlfas.lower_input(net, x), y)
    assert isinstance(batch.inputs, mlfas.LoweredInput)
    assert mlfas.loss(net, batch) == loss(net, lowered_batch(net, x, y))


SMALL_NETS = [("dense:12,dense:9,dense:7", 10), ("conv:3k3s2p1,dense:8,dense:6", (2, 7, 7))]


def use_cpus(monkeypatch, count):
    """Let the thread plumbing see ``count`` usable CPUs."""
    monkeypatch.setattr(_threads.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def nan_gradient(net):
    """A gradient buffer for ``net`` whose every entry is NaN, so that an
    entry ``backward`` has not written yet shows."""
    out = net.params.zeros_like()
    out.data[...] = np.nan
    return out


class TestBackwardChain:
    """On batches below the hand-off gate, ``backward`` is one in-line pass
    on the caller's thread, with each layer's step inside the chain."""

    @pytest.mark.parametrize("arch, shape", SMALL_NETS)
    def test_out_and_step_leave_the_gradient_unchanged(self, arch, shape):
        rng = np.random.default_rng(5)
        net = build_network(arch, shape, 4, rng=rng)
        params = net.params.data.copy()
        batch = random_batch(rng, net, size=9)
        ref = backward(net, batch)
        for out in (None, net.grad, nan_gradient(net)):
            for step in (None, lambda k: None):
                got = backward(net, batch, out=out, step=step)
                assert got.data.tobytes() == ref.data.tobytes()
                assert out is None or got is out
        assert net.params.data.tobytes() == params.tobytes()

    @pytest.mark.parametrize("arch, shape", [
        ("dense:5", 6),
        ("dense:12,dense:9,dense:7", 10),
        ("conv:3k3s2p1,dense:8,dense:6", (2, 7, 7)),
        ("conv:3k3s2p1,conv:4k3s1p1,dense:6", (2, 9, 9)),
    ])
    def test_steps_run_once_each_from_the_last_layer_to_the_first(self, arch, shape):
        rng = np.random.default_rng(6)
        net = build_network(arch, shape, 4, rng=rng)
        batch = random_batch(rng, net, size=7)
        ref = backward(net, batch)
        steps = []
        got = backward(net, batch, out=net.grad, step=steps.append)
        assert steps == list(range(net.n_layers - 1, -1, -1))
        assert got.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("arch, shape", SMALL_NETS)
    def test_each_step_sees_its_layer_final_and_the_layers_below_unwritten(self, arch, shape):
        rng = np.random.default_rng(7)
        net = build_network(arch, shape, 4, rng=rng)
        batch = random_batch(rng, net, size=6)
        ref = backward(net, batch)
        out = nan_gradient(net)
        seen = []

        def step(k):
            seen.append(k)
            for j in range(net.n_layers):
                if j < k:
                    assert np.isnan(out.layer(j)).all()
                else:
                    assert out.layer(j).tobytes() == ref.layer(j).tobytes()

        backward(net, batch, out=out, step=step)
        assert seen == list(range(net.n_layers - 1, -1, -1))

    def test_caller_errstate_holds_in_the_weight_products(self):
        # only the product dz.T @ a of the second layer overflows: its
        # weights are zero, so its forward product and dz @ W are 0
        net = Network([DenseLayer(np.ones((3, 2)), np.zeros(3)),
                       DenseLayer(np.zeros((1, 3)), np.zeros(1))])
        batch = lowered_batch(net, np.full((4, 2), 1e300), np.full((4, 1), 1e10))
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            backward(net, batch)
        with np.errstate(all="ignore"):
            grad = backward(net, batch)
        assert np.isinf(grad.weights(1)).all()
        assert np.isfinite(grad.weights(0)).all()
        assert all(np.isfinite(grad.bias(k)).all() for k in range(net.n_layers))

    @pytest.mark.parametrize("fails", [3, 2, 0, "conv layer"])
    def test_an_error_stops_the_chain_where_it_is_raised(self, monkeypatch, fails):
        # layer 0 is the conv layer, layers 1 to 3 dense
        net = build_network(*SMALL_NETS[1], 4, rng=np.random.default_rng(8))
        batch = random_batch(np.random.default_rng(9), net, size=5)
        out = nan_gradient(net)
        stepped = []

        def step(k):
            stepped.append(k)
            if k == fails:
                raise ValueError("step failed")

        def conv_fails(*args):
            raise RuntimeError("conv layer failed")

        if fails == "conv layer":
            monkeypatch.setattr(nets, "conv_backward_batch", conv_fails)
        with pytest.raises(RuntimeError if fails == "conv layer" else ValueError,
                           match="failed"):
            backward(net, batch, out=out, step=step)
        # the chain ends at the failing layer: no layer below it was computed
        if fails == "conv layer":
            assert stepped == [3, 2, 1]
            unwritten = [0]
        else:
            assert stepped == list(range(3, fails - 1, -1))
            unwritten = list(range(fails))
        assert [j for j in range(4) if np.isnan(out.layer(j)).any()] == unwritten
        assert all(np.isnan(out.layer(j)).all() for j in unwritten)

    def test_step_overflow_raises_under_the_callers_errstate(self):
        # layer 1's step overflows; layer 0's, the end of the chain, never runs
        net = Network([DenseLayer(np.ones((3, 2)), np.zeros(3)),
                       DenseLayer(np.ones((1, 3)), np.zeros(1))])
        batch = lowered_batch(net, np.ones((4, 2)), np.zeros((4, 1)))
        out, momentum = nan_gradient(net), net.params.zeros_like()
        momentum.weights(1)[...] = 1e308
        stepped = []

        def step(k):
            stepped.append(k)
            g = out.weights(k)
            m = momentum.weights(k)
            m += g
            np.multiply(m, 10.0, out=g)

        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            backward(net, batch, out=out, step=step)
        assert stepped == [1]
        assert np.isnan(out.layer(0)).all()

    def test_concurrent_callers_get_their_own_gradients(self):
        # the evaluation worker runs forward passes beside a training thread
        nets_and_batches = []
        for seed in range(4):
            net = build_network(*SMALL_NETS[seed % 2], 4, rng=np.random.default_rng(seed))
            batch = random_batch(np.random.default_rng(seed + 10), net, size=6)
            nets_and_batches.append((net, batch, backward(net, batch).data.tobytes()))
        mismatches = []

        def caller(net, batch, ref):
            for _ in range(50):
                if backward(net, batch, out=net.grad).data.tobytes() != ref:
                    mismatches.append(net)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=nb) for nb in nets_and_batches]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    @pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
    def test_forked_child_gets_the_parents_gradient(self):
        net = build_network(*SMALL_NETS[1], 4, rng=np.random.default_rng(10))
        batch = random_batch(np.random.default_rng(11), net, size=5)
        ref = backward(net, batch)
        fork = multiprocessing.get_context("fork")
        results = fork.Queue()
        child = fork.Process(target=lambda: results.put(backward(net, batch).data.tobytes()))
        child.start()
        try:
            got = results.get(timeout=60)
        finally:
            child.join(timeout=60)
            if child.exitcode is None:
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert got == ref.data.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_runs_on_the_callers_thread_whatever_the_cpu_count(self, monkeypatch, cpus):
        net = build_network(*SMALL_NETS[1], 4, rng=np.random.default_rng(12))
        batch = random_batch(np.random.default_rng(13), net, size=5)
        ref = backward(net, batch)
        use_cpus(monkeypatch, cpus)
        assert _threads.allowed_cpus() == cpus
        threads, reference = [], nets.conv_backward_batch

        def recording(*args):
            threads.append(threading.current_thread())
            return reference(*args)

        monkeypatch.setattr(nets, "conv_backward_batch", recording)
        before = threading.active_count()
        stepped = []
        got = backward(net, batch, out=net.grad,
                       step=lambda k: stepped.append(threading.current_thread()))
        assert got.data.tobytes() == ref.data.tobytes()
        assert threads == [threading.current_thread()]
        assert stepped == [threading.current_thread()] * net.n_layers
        assert threading.active_count() == before


# the benchmark conv net on n = 32 Poisson inputs; at batch 200 its dense
# products pass the hand-off gate
CONV_NET = ("conv:8k3s2p1,dense:64", (3, 32, 32), 1024)


def conv_net_and_batch(seed, rows=200):
    rng = np.random.default_rng(seed)
    net = build_network(*CONV_NET, rng=rng)
    return net, random_batch(rng, net, size=rows)


def record_halves(monkeypatch):
    """The (thread, rows) of every in-line gradient pass, one entry per call."""
    passes = []
    gradient_pass = nets._gradient_pass

    def recording(net, lowered, *args):
        passes.append((threading.current_thread(), len(lowered)))
        gradient_pass(net, lowered, *args)

    monkeypatch.setattr(nets, "_gradient_pass", recording)
    return passes


def on_helper(passes):
    """Whether any of the recorded passes ran on another thread than this one."""
    return any(t is not threading.current_thread() for t, _ in passes)


def hand_off_everything(monkeypatch):
    """Split every batch of two rows or more, on 2 CPUs, and let the helper
    start its half before ``backward`` ends it, so that none is taken back;
    returns the recorded passes."""
    monkeypatch.setattr(nets, "HANDOFF_MIN_MACS", 0)
    use_cpus(monkeypatch, 2)
    finish = _threads.finish

    def patient(task, run=True):
        futures.wait([task[0]])
        finish(task, run)

    monkeypatch.setattr(_threads, "finish", patient)
    return record_halves(monkeypatch)


def sgd_step(net, out, momentum):
    """A per-layer SGD-with-momentum step on ``out``, as the smoother's."""
    def step(k):
        gs, ms = out.layer(k), momentum.layer(k)
        ms *= 0.9
        ms += gs
        np.multiply(ms, 1e-3, out=gs)
        net.params.layer(k)[...] -= gs

    return step


def stepped_bytes(net, batch):
    """The gradient, stepped parameters and momentum of one ``sgd_step``
    pass on a copy of ``net``, as bytes."""
    stepped, momentum = net.copy(), net.params.zeros_like()
    got = backward(stepped, batch, out=stepped.grad, step=sgd_step(stepped, stepped.grad, momentum))
    return [got.data.tobytes(), stepped.params.data.tobytes(), momentum.data.tobytes()]


class TestHandOff:
    """A batch that passes the hand-off gate is passed as two row halves,
    the second on the process's one helper thread when 2 CPUs are allowed,
    and the layers step after the halves are summed."""

    def test_gate_separates_the_benchmark_nets(self, monkeypatch):
        conv, batch = conv_net_and_batch(20)
        coarse = restrict_network(conv, coarsen_network(conv))
        dense = build_network("dense:128,dense:128", 768, 256, rng=np.random.default_rng(1))
        macs = lambda net: [200 * layer.weights.size for layer in net.layers[1:]]
        # 26.2 M and 13.1 M fine, 16.4 M and 13.1 M coarse; the README dense net 3.3 M and 6.6 M
        assert macs(conv) == [26_214_400, 13_107_200]
        assert min(macs(coarse)) >= 13_107_200 > nets.HANDOFF_MIN_MACS
        assert max(macs(dense)) == 6_553_600 < nets.HANDOFF_MIN_MACS
        assert nets.hands_off(conv, 200) and nets.hands_off(coarse, 200)
        assert not nets.hands_off(dense, 200)
        # a 99-row batch splits and a 42-row one stays whole
        assert nets.hands_off(conv, 99) and not nets.hands_off(conv, 42)
        queued = []
        queue = _threads.queue
        monkeypatch.setattr(_threads, "queue", lambda fn, *args: (
            queued.append(fn), queue(fn, *args))[1])
        passes = record_halves(monkeypatch)
        use_cpus(monkeypatch, 2)
        backward(dense, random_batch(np.random.default_rng(2), dense, size=200),
                 step=lambda k: None)
        assert queued == [] and [rows for _, rows in passes] == [200]
        backward(conv, batch, step=lambda k: None)
        assert queued == [nets._gradient_pass]  # the second half, one task
        backward(conv, random_batch(np.random.default_rng(3), conv, size=99))
        assert len(queued) == 2
        use_cpus(monkeypatch, 1)
        backward(conv, batch, step=lambda k: None)
        assert len(queued) == 2
        assert [rows for _, rows in passes] == [200, 100, 100, 49, 50, 100, 100]
        # one row never splits, whatever the gate
        monkeypatch.setattr(nets, "HANDOFF_MIN_MACS", 0)
        assert nets.hands_off(dense, 2) and not nets.hands_off(dense, 1)

    @pytest.mark.parametrize("arch, shape, n_out, sizes", [
        (*CONV_NET, (200, 199, 99)),
        ("dense:12,dense:9,dense:7", 10, 4, (2, 3, 7)),
        ("conv:3k3s2p1,dense:8,dense:6", (2, 7, 7), 4, (3, 5)),
    ])
    def test_split_gradient_equals_the_whole_batch_one(self, monkeypatch, arch, shape, n_out,
                                                       sizes):
        rng = np.random.default_rng(23)
        net = build_network(arch, shape, n_out, rng=rng)
        monkeypatch.setattr(nets, "HANDOFF_MIN_MACS", 0)
        passes = record_halves(monkeypatch)
        for rows in sizes:
            x, y = random_rows(rng, net, size=rows)
            # the inputs past the first channel or the first half of the
            # features are shared, so the first layer is folded
            shared = x.reshape(rows, shape[0], -1) if isinstance(shape, tuple) else x
            shared[:, shared.shape[1] // 2:] = shared[:1, shared.shape[1] // 2:]
            batch = lowered_batch(net, x, y)
            assert batch.inputs.sample is not None
            assert nets.hands_off(net, rows)
            start = len(passes)
            got = backward(net, batch)
            assert [r for _, r in passes[start:]] == [rows // 2, rows - rows // 2]
            _, scale = term_magnitudes(net, x, y)
            assert_gradients_match(got, reference_backward(net, x, y), batch.inputs.block,
                                   scale=scale)

    @pytest.mark.parametrize("arch, shape", SMALL_NETS)
    def test_steps_follow_the_summed_halves_on_the_callers_thread(self, monkeypatch, arch,
                                                                  shape):
        net = build_network(arch, shape, 4, rng=np.random.default_rng(24))
        batch = random_batch(np.random.default_rng(25), net, size=7)
        passes = hand_off_everything(monkeypatch)
        ref = backward(net, batch)
        out = nan_gradient(net)
        seen = []

        def step(k):
            seen.append((k, threading.current_thread(), len(passes)))
            # every layer's gradient is final, and the steps above changed
            # only their own slices
            for j in range(k + 1):
                assert out.layer(j).tobytes() == ref.layer(j).tobytes()

        backward(net, batch, out=out, step=step)
        caller = threading.current_thread()
        assert seen == [(k, caller, 4) for k in range(net.n_layers - 1, -1, -1)]
        assert on_helper(passes[2:])

    def test_conv_net_gradient_does_not_depend_on_the_cpu_count(self, monkeypatch):
        net, batch = conv_net_and_batch(21)
        passes = record_halves(monkeypatch)
        results = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            start = len(passes)
            # the helper may be slow to start its half; give it three chances
            results[cpus] = [[backward(net, batch).data.tobytes()] + stepped_bytes(net, batch)
                             for _ in range(3)]
            assert on_helper(passes[start:]) == (cpus == 2)
        assert results[2] == results[1]
        assert all(r == results[1][0] for r in results[1])

    def test_taken_back_tasks_give_the_same_bytes(self, monkeypatch):
        net, batch = conv_net_and_batch(22)
        use_cpus(monkeypatch, 1)
        ref = stepped_bytes(net, batch)
        use_cpus(monkeypatch, 2)
        passes = record_halves(monkeypatch)
        release = threading.Event()
        blocker = _threads.queue(release.wait, 10)[0]
        try:
            got = stepped_bytes(net, batch)
            assert not blocker.done()
        finally:
            release.set()
        assert blocker.result()
        assert got == ref
        assert passes == [(threading.current_thread(), 100)] * 2

    @pytest.mark.parametrize("fails", ["product", "step", "caller", "caller and product"])
    def test_errors_are_raised_after_every_task_ended(self, monkeypatch, fails):
        # "product" is the helper's half, "caller" this thread's; layer 0 is
        # the conv layer, layers 1 to 3 dense
        net = build_network(*SMALL_NETS[1], 4, rng=np.random.default_rng(8))
        batch = random_batch(np.random.default_rng(9), net, size=5)
        monkeypatch.setattr(nets, "HANDOFF_MIN_MACS", 0)
        use_cpus(monkeypatch, 2)
        running, ended, stepped = [], [], []
        gradient_pass = nets._gradient_pass

        def timed_pass(net, lowered, *args):
            if len(lowered) == 2:  # this thread's half
                if fails.startswith("caller"):
                    # fail while the helper's half runs
                    deadline = time.monotonic() + 10
                    while not running and time.monotonic() < deadline:
                        time.sleep(0.001)
                    raise RuntimeError("caller failed")
                time.sleep(0.5)  # the helper ends its half meanwhile
                return gradient_pass(net, lowered, *args)
            # the helper's half takes long enough to be running when the caller fails
            running.append("product")
            time.sleep(0.05)
            ended.append("product")
            running.remove("product")
            if fails in ("product", "caller and product"):
                raise ValueError("product failed")
            return gradient_pass(net, lowered, *args)

        def step(k):
            stepped.append(k)
            if fails == "step" and k == 2:
                raise ValueError("step failed")

        monkeypatch.setattr(nets, "_gradient_pass", timed_pass)
        with pytest.raises(RuntimeError if fails.startswith("caller") else ValueError,
                           match=f"{fails.split()[0]}.* failed"):
            try:
                backward(net, batch, step=step)
            finally:
                assert running == []
        # the helper's half ran once, and no layer steps after a failed half
        assert ended == ["product"]
        assert stepped == ([3, 2] if fails == "step" else [])
        time.sleep(0.1)
        assert ended == ["product"] and running == []

    def test_caller_errstate_holds_in_the_helper(self, monkeypatch):
        # only the helper's half overflows, in the product dz.T @ a of the
        # second layer: its weights are zero, so its forward product and
        # dz @ W are 0
        net = Network([DenseLayer(np.ones((3, 2)), np.zeros(3)),
                       DenseLayer(np.zeros((1, 3)), np.zeros(1))])
        inputs = np.ones((4, 2))
        inputs[2:] = 1e300
        batch = lowered_batch(net, inputs, np.full((4, 1), 1e10))
        passes = hand_off_everything(monkeypatch)
        caller = threading.current_thread()
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            backward(net, batch)
        assert [t is caller for t, _ in passes] == [True, False]
        with np.errstate(all="ignore"):
            grad = backward(net, batch)
        assert [t is caller for t, _ in passes[2:]] == [True, False]
        assert np.isinf(grad.weights(1)).all()
        assert np.isfinite(grad.weights(0)).all()

    def test_concurrent_callers_get_their_single_thread_bytes(self, monkeypatch):
        monkeypatch.setattr(nets, "HANDOFF_MIN_MACS", 0)
        use_cpus(monkeypatch, 1)
        nets_and_batches = []
        for seed in range(4):
            net = build_network(*SMALL_NETS[seed % 2], 4, rng=np.random.default_rng(seed))
            batch = random_batch(np.random.default_rng(seed + 10), net, size=6)
            nets_and_batches.append((net, batch, backward(net, batch).data.tobytes()))
        use_cpus(monkeypatch, 2)
        passes = record_halves(monkeypatch)
        mismatches = []

        def caller(net, batch, ref):
            for _ in range(50):
                if backward(net, batch, out=net.grad).data.tobytes() != ref:
                    mismatches.append(net)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=nb) for nb in nets_and_batches]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert mismatches == []
        assert {t for t, _ in passes} - set(callers)  # some halves ran on the helper

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    @pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
    def test_forked_child_gets_a_helper_of_its_own(self, monkeypatch):
        net = build_network(*SMALL_NETS[0], 4, rng=np.random.default_rng(10))
        batch = random_batch(np.random.default_rng(11), net, size=5)
        passes = hand_off_everything(monkeypatch)
        ref = backward(net, batch)  # the parent's helper thread is running
        caller = threading.current_thread()
        (helper,) = {t for t, _ in passes} - {caller}
        fork = multiprocessing.get_context("fork")
        results = fork.Queue()

        def child():
            seen = len(passes)
            got = backward(net, batch).data.tobytes()
            # the child's second half ran on a helper of its own
            helpers = {t for t, _ in passes[seen:]} - {threading.current_thread()}
            results.put((got, len(helpers) == 1 and helper not in helpers))

        proc = fork.Process(target=child)
        proc.start()
        try:
            got, own_helper = results.get(timeout=60)
        finally:
            proc.join(timeout=60)
            if proc.exitcode is None:
                proc.kill()
                proc.join()
        assert proc.exitcode == 0
        assert got == ref.data.tobytes() and own_helper


class _CopyReluNumpy:
    """numpy, with ``maximum(z, 0.0, out=z)``, the hidden layers' ReLU, seen.

    Each ReLU first writes ``special`` into the first entry of its
    pre-activation.  With ``copy`` it then ignores ``out=`` and returns a
    new array, so ``_forward`` caches the pre-activation and ``backward``
    masks with it: the copy-based ReLU that the in-place one replaced.
    """

    def __init__(self, special, copy):
        self.special, self.copy = special, copy

    def __getattr__(self, name):
        return getattr(np, name)

    def maximum(self, x, y, out=None):
        if out is None:
            return np.maximum(x, y)
        x.flat[0] = self.special
        return np.maximum(x, y) if self.copy else np.maximum(x, y, out=out)


class TestInPlaceRelu:
    """The in-place ReLU gives the copy-based one's results bit for bit."""

    @pytest.mark.parametrize("arch, shape", SMALL_NETS)
    @pytest.mark.parametrize("special", [-0.0, np.nan, 0.5])
    def test_matches_the_copy_based_relu(self, monkeypatch, arch, shape, special):
        rng = np.random.default_rng(12)
        net = build_network(arch, shape, 4, rng=rng)
        x, y = random_rows(rng, net, size=9)
        # a shared second half of the input: the first layer folds it
        x[:, net.input_size // 2:] = x[0, net.input_size // 2:]
        batch = lowered_batch(net, x, y)
        assert batch.inputs.sample is not None

        def results():
            out = [forward_batch(net, batch.inputs), loss(net, batch),
                   backward(net, batch).data, backward(net, batch, out=net.grad).data]
            return [np.asarray(astuple(v) if isinstance(v, LossValue) else v).tobytes()
                    for v in out]

        with np.errstate(invalid="ignore"):
            monkeypatch.setattr(nets, "np", _CopyReluNumpy(special, copy=True))
            ref = results()
            monkeypatch.setattr(nets, "np", _CopyReluNumpy(special, copy=False))
            got = results()
        assert got == ref
        finite = np.isfinite(np.frombuffer(ref[2], dtype=np.float64)).all()
        assert finite == (not np.isnan(special))
