"""Dense networks: forward, loss, backprop, and flat parameter views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import (
    assert_rel,
    random_batch,
    random_dense_net,
    reference_backward,
    reference_forward,
)
from mlfas import nets
from mlfas.conv import ConvLayer
from mlfas.harness import build_network
from mlfas.nets import (
    DenseLayer,
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

    BLOCK = 7

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
        set_block_rows(monkeypatch, net, self.BLOCK)
        targets = rng.normal(size=(15, 36))
        targets[row, 3] = bad
        lv = loss(net, Minibatch(kappa_xy_batch(rng, 15, True), targets))
        expect = np.isnan if np.isnan(bad) else np.isposinf
        assert expect(lv.l2) and expect(lv.linf)

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_block_sizes(self, monkeypatch, rows):
        net = build_network("dense:9", 108, 36)
        set_block_rows(monkeypatch, net, rows)
        for n in range(1, 60):
            blocks = nets.loss_blocks(net, n)
            sizes = [blk.stop - blk.start for blk in blocks]
            assert blocks[0].start == 0 and blocks[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert max(sizes) - min(sizes) <= 1
            assert min(sizes) >= min(n, 2)
            assert max(sizes) <= max(rows, 2) or len(blocks) == n // 2

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

    def test_segment_order_weights_before_biases(self):
        rng = np.random.default_rng(23)
        net = random_dense_net(rng)
        segs = flatten(net).segments
        kinds = [s.kind for s in segs]
        n = net.n_layers
        assert kinds == ["weight"] * n + ["bias"] * n
        assert [s.layer for s in segs] == list(range(n)) * 2
        offsets = [s.offset for s in segs]
        assert offsets == sorted(offsets)

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


def assert_gradients_match(got, ref, block):
    """``assert_rel`` per block, with layer 0's weight gradient split at ``block``.

    The varying block and the shared rest are computed apart, so each part
    is held to the tolerance relative to its own scale.
    """
    for seg in got.segments:
        g, r = got.view(seg.layer, seg.kind), ref.view(seg.layer, seg.kind)
        if seg.layer == 0 and seg.kind == "weight":
            varying = np.zeros(g.shape[1], dtype=bool)
            varying[block] = True
            assert_rel(g[:, varying], r[:, varying])
            assert_rel(g[:, ~varying], r[:, ~varying])
        else:
            assert_rel(g, r)


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
    def test_batch_constant_inside_split_block(self, seed, conv, batch_size, where):
        # the batch holds one column (feature or channel) constant that varies
        # over the split, so the split's fold is not the batch's own
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
        assert_rel(forward_batch(net, gathered.inputs), reference_forward(net, raw.inputs))
        assert_gradients_match(backward(net, gathered), reference_backward(net, raw), block)


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
