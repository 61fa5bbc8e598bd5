"""Dense networks: forward, loss, backprop, and flat parameter views."""

import multiprocessing
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _builders import (
    assert_rel,
    random_batch,
    random_dense_net,
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
    ParamLayoutError,
    ParamVector,
    backward,
    dense_network,
    flatten,
    forward,
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
        assert forward(Network(self.RELU_PROBE), [2.0, 1.0]) == pytest.approx([1.5], abs=0)

    def test_single_layer_clamped(self):
        assert forward(Network(self.RELU_PROBE), [0.0, 3.0]) == pytest.approx([0.0], abs=0)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            net = random_dense_net(rng, widths=(3, 8), io=(2, 6))
            y = rng.normal(size=net.input_size)
            got = forward(net, y)
            ref = naive_forward([(l.weights, l.bias) for l in net.layers], y)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(got - ref).max() / scale < 1e-15

    def test_input_size_mismatch(self):
        net = dense_network([3, 4, 2], rng=np.random.default_rng(0))
        with pytest.raises(NetworkShapeError, match="input size"):
            forward(net, np.zeros(5))

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
            Network(layers, input_shape=9)

    def test_positive_homogeneity_through_relu(self):
        rng = np.random.default_rng(7)
        net = random_dense_net(rng, widths=(3, 10), io=(2, 6))
        for layer in net.layers:
            layer.bias[...] = 0.0
        y = rng.normal(size=net.input_size)
        base = forward(net, y)
        c = 1.7
        scaled = net.copy()
        for layer in scaled.layers:
            layer.weights *= c
        got = forward(scaled, y)
        ref = c ** net.n_layers * base
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


class TestLoss:
    def test_zero_residual(self):
        rng = np.random.default_rng(3)
        net = random_dense_net(rng)
        x = rng.normal(size=(4, net.input_size))
        batch = Minibatch(x, forward_batch(net, x))
        lv = loss(net, batch)
        assert lv.l2 == 0.0 and lv.linf == 0.0

    def test_scalar_example(self):
        net = Network([DenseLayer([[0.0]], [1.0])])
        lv = loss(net, Minibatch([[5.0]], [[3.0]]))
        assert lv.l2 == pytest.approx(4.0, abs=0)
        assert lv.linf == pytest.approx(2.0, abs=0)

    def test_against_summation_oracle(self):
        rng = np.random.default_rng(11)
        net = random_dense_net(rng)
        batch = random_batch(rng, net, size=5)
        preds = np.vstack([forward(net, row) for row in batch.inputs])
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
        with pytest.raises(ValueError, match="nonempty"):
            Minibatch(np.zeros((0, 3)), np.zeros((0, 2)))


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
    widest = max(int(np.prod(desc[1:])) for desc in net.interfaces[1:])
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
            x = kappa_xy_batch(rng, n, folded)
            batch = Minibatch(x, rng.normal(size=(n, 36)))
            assert len(nets.loss_blocks(net, n)) == -(-n // b)
            assert (lower_input(net, x).sample is not None) == (folded and n > 1)
            for inputs in (x, lower_input(net, x)):
                lv = loss(net, Minibatch(inputs, batch.targets))
                assert (lv.l2, lv.linf) == whole_batch_loss(net, batch)

    def test_benchmark_conv_net_at_the_real_block_size(self):
        rng = np.random.default_rng(59)
        net = build_network("conv:8k3s2p1,dense:64", (3, 32, 32), 1024, rng=rng)
        n = 2 * (nets.LOSS_BLOCK_BYTES // (8 * 8 * 16 * 16)) + 1  # 2 * 32 + 1 at 512 KB
        assert len(nets.loss_blocks(net, n)) == 3
        batch = Minibatch(kappa_xy_batch(rng, n, True, grid=32), rng.normal(size=(n, 1024)))
        lv = loss(net, Minibatch(lower_input(net, batch.inputs), batch.targets))
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
        lv = loss(net, Minibatch(kappa_xy_batch(rng, 15, True), targets))
        expect = np.isnan if np.isnan(bad) else np.isposinf
        assert expect(lv.l2) and expect(lv.linf)

    def test_wide_net_below_32_rows_is_one_block(self):
        # OpenBLAS 0.3.31's Haswell and Zen kernels gave this batch, as 6-
        # and 7-row blocks, another l2 than the whole batch
        rng = np.random.default_rng(3)
        net = build_network("dense:8192,dense:128", 108, 36, rng=rng)
        x = kappa_xy_batch(rng, 20, False)
        batch = Minibatch(x, rng.normal(size=(20, 36)))
        assert nets.loss_blocks(net, 20) == [slice(0, 20)]
        for inputs in (x, lower_input(net, x)):
            lv = loss(net, Minibatch(inputs, batch.targets))
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
        activation = 800 * net.interfaces[1][1] * 16 * 16 * 8  # 13.1 MB
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


def sample_away_from_kinks(rng, make_net_and_batch):
    """Draw (net, batch) until no pre-activation sits within 1e-6 of a kink."""
    for _ in range(50):
        net, batch = make_net_and_batch(rng)
        a = batch.inputs
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
            return net, batch
    raise AssertionError("could not sample a kink-free configuration")


class TestBackward:
    def test_single_layer_hand_case(self):
        # zero parameters, zero inputs: only the output bias gradient survives
        net = Network([DenseLayer(np.zeros((2, 3)), np.zeros(2))])
        targets = np.array([[1.0, -2.0], [3.0, 0.5], [0.0, 4.0]])
        batch = Minibatch(np.zeros((3, 3)), targets)
        g = backward(net, batch)
        assert np.all(g.view(0, "weight") == 0.0)
        expected_bias = -(2.0 / 3.0) * targets.sum(axis=0)
        np.testing.assert_allclose(g.view(0, "bias"), expected_bias, rtol=1e-15)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(17)

        def make(r):
            net = random_dense_net(r, widths=(4, 32), io=(3, 8), n_hidden=int(r.integers(1, 4)))
            return net, random_batch(r, net, size=4)

        net, batch = sample_away_from_kinks(rng, make)
        g = backward(net, batch)
        idx = rng.choice(g.total_len, size=20, replace=False)
        fd = fd_gradient(net, batch, idx)
        rel = np.abs(g.data[idx] - fd) / np.maximum(np.abs(fd), 1e-3)
        assert rel.max() < 1e-5

    def test_duplicated_samples_leave_gradient_unchanged(self):
        rng = np.random.default_rng(19)
        net = random_dense_net(rng)
        batch = random_batch(rng, net, size=3)
        doubled = Minibatch(
            np.vstack([batch.inputs, batch.inputs]),
            np.vstack([batch.targets, batch.targets]),
        )
        g1 = backward(net, batch)
        g2 = backward(net, doubled)
        np.testing.assert_allclose(g2.data, g1.data, rtol=1e-12, atol=1e-14)


class TestParamVector:
    def test_total_len_counting(self):
        net = Network([DenseLayer(np.zeros((2, 3)), np.zeros(2))])
        assert flatten(net).total_len == 8

    def test_each_bias_segment_follows_its_weight_segment(self):
        net = build_network("conv:4k3s2p1,conv:2k3s1p1,dense:6", (3, 8, 8), 5,
                            rng=np.random.default_rng(23))
        segs = flatten(net).segments
        assert [(s.layer, s.kind) for s in segs] == [
            (k, kind) for k in range(net.n_layers) for kind in ("weight", "bias")
        ]
        # the segments tile the vector, so a layer's entries are one slice
        ends = [0] + [s.offset + s.size for s in segs]
        assert [s.offset for s in segs] == ends[:-1]
        assert ends[-1] == net.param_count()
        for k, layer in enumerate(net.layers):
            w = layer.kernels if isinstance(layer, ConvLayer) else layer.weights
            entries = net.params.layer(k)
            assert np.shares_memory(entries, w) and np.shares_memory(entries, layer.bias)
            assert np.array_equal(entries, np.concatenate([w.ravel(), layer.bias]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_roundtrip_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        net = random_dense_net(rng, widths=(2, 9), io=(1, 5))
        before = [(l.weights.copy(), l.bias.copy()) for l in net.layers]
        x = flatten(net)
        x2 = ParamVector(x.data.copy(), x.segments)
        unflatten(net, x2)
        for layer, (w, b) in zip(net.layers, before):
            assert np.array_equal(layer.weights, w)
            assert np.array_equal(layer.bias, b)
        assert np.array_equal(flatten(net).data, x.data)

    def test_unflatten_length_mismatch(self):
        net = dense_network([3, 4, 2], rng=np.random.default_rng(1))
        other = dense_network([3, 5, 2], rng=np.random.default_rng(1))
        with pytest.raises(ParamLayoutError):
            unflatten(net, flatten(other))

    def test_view_matches_layer(self):
        rng = np.random.default_rng(29)
        net = random_dense_net(rng)
        x = flatten(net)
        for k, layer in enumerate(net.layers):
            assert np.array_equal(x.view(k, "weight"), layer.weights)
            assert np.array_equal(x.view(k, "bias"), layer.bias)


def folded_case(seed, conv, batch_size, kernel=3, stride=1, padding=0):
    """A net and a batch whose first-layer input varies in one block only.

    ``conv`` counts the conv layers ahead of a dense head (0 or False for a
    dense net); a second one is ``conv:2k3s2p1``, so the first conv layer's
    upstream is a conv layer's input gradient.  Returns (net, batch, block):
    along axis 1 of the first layer's input (features, or channels for a
    conv first layer) the entries outside ``block`` are copied from the
    first sample into every sample.
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
    batch = random_batch(rng, net, size=batch_size)
    n = net.interfaces[0][1]
    lo = int(rng.integers(0, n))
    hi = int(rng.integers(lo + 1, n + 1))
    if hi - lo == n:
        hi -= 1
    rows = batch.inputs.reshape(batch_size, n, -1)
    rows[:, :lo] = rows[:1, :lo]
    rows[:, hi:] = rows[:1, hi:]
    return net, batch, slice(lo, hi)


def assert_gradients_match(got, ref, block, scale=None):
    """``assert_rel`` per block, with layer 0's weight gradient split at ``block``.

    The varying block and the shared rest are computed apart, so each part
    is held to the tolerance relative to its own scale: the reference's, or
    that of the same part of the vector ``scale`` when given.
    """
    for seg in got.segments:
        g, r = got.view(seg.layer, seg.kind), ref.view(seg.layer, seg.kind)
        s = r if scale is None else scale.view(seg.layer, seg.kind)
        if seg.layer == 0 and seg.kind == "weight":
            varying = np.zeros(g.shape[1], dtype=bool)
            varying[block] = True
            assert_rel(g[:, varying], r[:, varying], scale=s[:, varying])
            assert_rel(g[:, ~varying], r[:, ~varying], scale=s[:, ~varying])
        else:
            assert_rel(g, r, scale=s)


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
        net, batch, block = folded_case(seed, conv, batch_size, kernel, stride, padding)
        assert lower_input(net, batch.inputs).block == block
        assert_rel(forward_batch(net, batch.inputs), reference_forward(net, batch.inputs))
        assert_gradients_match(backward(net, batch), reference_backward(net, batch), block)

    @pytest.mark.parametrize("conv", [False, True])
    def test_unfolded_batches_match_bitwise(self, conv):
        for seed in range(6):
            net, batch, block = folded_case(seed, conv, 7)
            n = net.interfaces[0][1]
            rows = batch.inputs.reshape(7, n, -1)
            rng = np.random.default_rng(seed)
            gapped = rows.copy()  # varying entries at both ends, shared between
            gapped[:, 0] = rng.normal(size=gapped[:, 0].shape)
            gapped[:, -1] = rng.normal(size=gapped[:, -1].shape)
            gapped[:, 1:-1] = gapped[:1, 1:-1]
            cases = [
                batch.inputs[:1],  # one sample
                rng.normal(size=batch.inputs.shape),  # nothing shared
            ]
            if n > 2:
                cases.append(gapped.reshape(7, -1))
            for x in cases:
                b = Minibatch(x, batch.targets[: x.shape[0]])
                assert lower_input(net, b.inputs).sample is None
                assert np.array_equal(forward_batch(net, x), reference_forward(net, x))
                assert np.array_equal(backward(net, b).data, reference_backward(net, b).data)

    @pytest.mark.parametrize("conv", [False, True])
    def test_nan_in_a_shared_column_propagates(self, conv):
        net, batch, block = folded_case(11, conv, 7)
        n = net.interfaces[0][1]
        column = block.stop if block.stop < n else block.start - 1
        rows = batch.inputs.reshape(7, n, -1)
        rows[:, column, 0] = np.nan
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
    """A split lowered once, and batches gathered from it, against per-call lowering."""

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
            gathered, raw = Minibatch(lowered[idx], y[idx]), Minibatch(x[idx], y[idx])
            assert lower_input(net, raw.inputs).block == lowered.block
            # every level reads the same lowering
            for level in (net, coarse):
                assert np.array_equal(forward_batch(level, gathered.inputs),
                                      forward_batch(level, raw.inputs))
                assert loss(level, gathered) == loss(level, raw)
                assert np.array_equal(backward(level, gathered).data,
                                      backward(level, raw).data)

    @pytest.mark.parametrize("conv", [False, True])
    def test_gathered_single_sample_matches_raw_sample(self, conv):
        # one raw sample folds nothing; gathered from the split it keeps the
        # split's fold, so the two agree to rounding, not bit for bit
        net, x, y = poisson_split(conv)
        lowered = lower_input(net, x)
        for i in (0, 5):
            gathered, raw = Minibatch(lowered[[i]], y[[i]]), Minibatch(x[[i]], y[[i]])
            assert lower_input(net, raw.inputs).sample is None
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
        net, split, block = folded_case(seed, conv, 9)
        n = net.interfaces[0][1]
        column = {"first": block.start, "last": block.stop - 1,
                  "middle": (block.start + block.stop - 1) // 2}[where]
        idx = np.random.default_rng(seed).permutation(9)[:batch_size]
        rows = split.inputs.reshape(9, n, -1)
        rows[idx, column] = rows[idx[:1], column]
        lowered = lower_input(net, split.inputs)
        assert lowered.block == block
        raw = Minibatch(split.inputs[idx], split.targets[idx])
        gathered = Minibatch(lowered[idx], raw.targets)
        terms, gradient_terms = term_magnitudes(net, raw)
        assert_rel(forward_batch(net, gathered.inputs), reference_forward(net, raw.inputs),
                   scale=terms)
        assert_gradients_match(backward(net, gathered), reference_backward(net, raw), block,
                               scale=gradient_terms)


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


def use_cpus(monkeypatch, count):
    """Let the thread plumbing see ``count`` usable CPUs."""
    monkeypatch.setattr(_threads.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def hand_off_everything(monkeypatch):
    """Hand every hidden dense product to the helper; returns the threads that
    ran ``_dense_gradient``, one entry per call."""
    monkeypatch.setattr(nets, "HANDOFF_MIN_MACS", 0)
    use_cpus(monkeypatch, 2)
    threads = []
    reference = nets._dense_gradient

    def recording(*args):
        threads.append(threading.current_thread())
        reference(*args)

    monkeypatch.setattr(nets, "_dense_gradient", recording)
    return threads


HANDOFF_NETS = [("dense:12,dense:9,dense:7", 10), ("conv:3k3s2p1,dense:8,dense:6", (2, 7, 7))]


class TestHandOff:
    """Hidden dense weight gradients computed on the process's helper thread."""

    @pytest.mark.parametrize("arch, shape", HANDOFF_NETS)
    def test_bitwise_equal_to_in_line(self, monkeypatch, arch, shape):
        rng = np.random.default_rng(5)
        net = build_network(arch, shape, 4, rng=rng)
        batch = random_batch(rng, net, size=9)
        ref = backward(net, batch)  # tiny products stay in line at the real threshold
        threads = hand_off_everything(monkeypatch)
        for out in (None, net.grad):
            got = backward(net, batch, out=out)
            assert got.data.tobytes() == ref.data.tobytes()
        # layers 3, 2 and 1 of both calls go to the helper; a dense layer 0 stays
        caller = threading.current_thread()
        assert sum(t is not caller for t in threads) == 6
        assert sum(t is caller for t in threads) == (2 if arch.startswith("dense") else 0)

    def test_caller_errstate_holds_in_the_helper(self, monkeypatch):
        # only the handed-off product dz.T @ a overflows: the second layer's
        # weights are zero, so its forward product and dz @ W are 0
        net = Network([DenseLayer(np.ones((3, 2)), np.zeros(3)),
                       DenseLayer(np.zeros((1, 3)), np.zeros(1))])
        batch = Minibatch(np.full((4, 2), 1e300), np.full((4, 1), 1e10))
        threads = hand_off_everything(monkeypatch)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            backward(net, batch)
        assert any(t is not threading.current_thread() for t in threads)
        with np.errstate(all="ignore"):
            grad = backward(net, batch)
        assert np.isinf(grad.view(1, "weight")).all()
        assert all(np.isfinite(grad.view(s.layer, s.kind)).all()
                   for s in grad.segments if (s.layer, s.kind) != (1, "weight"))

    def test_one_cpu_starts_no_helper(self, monkeypatch):
        helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="handoff-test")
        monkeypatch.setattr(_threads, "_helper", helper)
        monkeypatch.setattr(nets, "HANDOFF_MIN_MACS", 0)
        started = lambda: any(t.name.startswith("handoff-test") for t in threading.enumerate())
        net = build_network(*HANDOFF_NETS[0], 4, rng=np.random.default_rng(6))
        batch = random_batch(np.random.default_rng(7), net, size=5)
        try:
            use_cpus(monkeypatch, 1)
            ref = backward(net, batch)
            assert not started()
            use_cpus(monkeypatch, 2)
            assert backward(net, batch).data.tobytes() == ref.data.tobytes()
            assert started()
        finally:
            helper.shutdown()

    @pytest.mark.parametrize("fails", ["helper", "caller"])
    def test_errors_are_raised_after_every_task_ended(self, monkeypatch, fails):
        self.run_failing_backward(monkeypatch, fails, with_step=False)

    @pytest.mark.parametrize("fails", ["helper", "helper step", "caller"])
    def test_step_errors_are_raised_after_every_task_ended(self, monkeypatch, fails):
        self.run_failing_backward(monkeypatch, fails, with_step=True)

    @staticmethod
    def run_failing_backward(monkeypatch, fails, with_step):
        net = build_network(*HANDOFF_NETS[1], 4, rng=np.random.default_rng(8))
        batch = random_batch(np.random.default_rng(9), net, size=5)
        hand_off_everything(monkeypatch)
        reference = nets._dense_gradient
        caller = threading.current_thread()
        ended = []

        def slow(*args):
            if threading.current_thread() is not caller:
                time.sleep(0.2)
                ended.append(args[0].shape)
                if fails == "helper":
                    raise ValueError("handed-off product failed")
            reference(*args)

        def step(k):
            if threading.current_thread() is not caller:
                time.sleep(0.1)
                ended.append(k)
                if fails == "helper step":
                    raise ValueError("handed-off step failed")
            elif k == 0:
                ended.append("chain ended")

        def conv_fails(*args):
            raise RuntimeError("conv layer failed")

        monkeypatch.setattr(nets, "_dense_gradient", slow)
        if fails == "caller":
            monkeypatch.setattr(nets, "conv_backward_batch", conv_fails)
        with pytest.raises(ValueError if fails != "caller" else RuntimeError, match="failed"):
            backward(net, batch, step=step if with_step else None)
        # the three dense layers were handed off, each step behind its
        # layer's product, and all of them had ended; the caller's chain
        # ended long before them unless it failed first
        if with_step:
            chain = [] if fails == "caller" else ["chain ended"]
            assert ended == chain + [(5, 4), 3, (5, 6), 2, (5, 8), 1]
        else:
            assert ended == [(5, 4), (5, 6), (5, 8)]

    def test_step_error_on_the_helper_is_raised_after_the_chain(self, monkeypatch):
        # layer 1's step overflows under the caller's errstate on the helper;
        # layer 0's, the last of the chain, runs here and does not
        net = Network([DenseLayer(np.ones((3, 2)), np.zeros(3)),
                       DenseLayer(np.ones((1, 3)), np.zeros(1))])
        batch = Minibatch(np.ones((4, 2)), np.zeros((4, 1)))
        out, momentum = net.params.zeros_like(), net.params.zeros_like()
        momentum.view(1, "weight")[...] = 1e308
        threads = hand_off_everything(monkeypatch)
        caller = threading.current_thread()
        stepped = []

        def step(k):
            stepped.append((k, threading.current_thread() is caller))
            g = out.view(k, "weight")
            m = momentum.view(k, "weight")
            m += g
            np.multiply(m, 10.0, out=g)

        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            backward(net, batch, out=out, step=step)
        # layer 0's step, the end of the chain, ran before the error was raised
        assert sorted(stepped) == [(0, True), (1, False)]
        assert sorted(t is caller for t in threads) == [False, True]

    def test_concurrent_callers_share_the_helper(self, monkeypatch):
        nets_and_batches = []
        for seed in range(4):
            net = build_network(*HANDOFF_NETS[seed % 2], 4, rng=np.random.default_rng(seed))
            batch = random_batch(np.random.default_rng(seed + 10), net, size=6)
            nets_and_batches.append((net, batch, backward(net, batch).data.tobytes()))
        hand_off_everything(monkeypatch)
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
    def test_forked_child_hands_off_to_a_helper_of_its_own(self, monkeypatch):
        net = build_network(*HANDOFF_NETS[0], 4, rng=np.random.default_rng(10))
        batch = random_batch(np.random.default_rng(11), net, size=5)
        threads = hand_off_everything(monkeypatch)
        ref = backward(net, batch)  # the parent's helper thread is running
        assert any(t is not threading.current_thread() for t in threads)
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

    @pytest.mark.parametrize("arch, shape", HANDOFF_NETS)
    @pytest.mark.parametrize("special", [-0.0, np.nan, 0.5])
    def test_matches_the_copy_based_relu(self, monkeypatch, arch, shape, special):
        rng = np.random.default_rng(12)
        net = build_network(arch, shape, 4, rng=rng)
        batch = random_batch(rng, net, size=9)
        # a shared second half of the input: the first layer folds it
        batch.inputs[:, net.input_size // 2:] = batch.inputs[0, net.input_size // 2:]
        lowered = Minibatch(lower_input(net, batch.inputs), batch.targets)
        assert lowered.inputs.sample is not None

        def results():
            out = [forward_batch(net, batch.inputs), loss(net, batch), loss(net, lowered),
                   backward(net, batch).data, backward(net, lowered, out=net.grad).data]
            return [np.asarray(astuple(v) if isinstance(v, LossValue) else v).tobytes()
                    for v in out]

        with np.errstate(invalid="ignore"):
            monkeypatch.setattr(nets, "np", _CopyReluNumpy(special, copy=True))
            ref = results()
            monkeypatch.setattr(nets, "np", _CopyReluNumpy(special, copy=False))
            got = results()
        assert got == ref
        finite = np.isfinite(np.frombuffer(ref[3], dtype=np.float64)).all()
        assert finite == (not np.isnan(special))
