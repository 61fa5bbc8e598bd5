"""Convolution layers against their explicit block-Toeplitz matrix form."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mlfas.nets as nets
from _builders import (
    REFERENCE_CONV,
    assert_rel,
    interface_matrices,
    random_batch,
    random_conv_net,
    reference_backward,
    reference_conv_patches,
)
from mlfas.coarsening import Matching, build_transfer
from mlfas.conv import (
    ChannelTensorView,
    ConvLayer,
    ConvShapeError,
    conv_backward_batch,
    conv_forward,
    conv_forward_batch,
    conv_patches,
    to_matrix,
)
from mlfas.harness import build_network
from mlfas.nets import backward


def random_layer(rng, max_channels=3, max_kernel=3):
    out_c = int(rng.integers(1, max_channels + 1))
    in_c = int(rng.integers(1, max_channels + 1))
    kh = int(rng.integers(1, max_kernel + 1))
    kw = int(rng.integers(1, max_kernel + 1))
    stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
    padding = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
    return ConvLayer(rng.normal(size=(out_c, in_c, kh, kw)), rng.normal(size=out_c),
                     stride=stride, padding=padding)


def random_input(rng, layer, min_h=4, max_h=8):
    h = int(rng.integers(min_h, max_h + 1))
    w = int(rng.integers(min_h, max_h + 1))
    kh, kw = layer.kernel_size
    h = max(h, kh)
    w = max(w, kw)
    return rng.normal(size=(layer.in_channels, h, w))


class TestForward:
    def test_scalar_kernel(self):
        layer = ConvLayer(np.array([[[[2.5]]]]), np.array([0.75]))
        x = np.arange(12.0).reshape(1, 3, 4)
        out = conv_forward(layer, ChannelTensorView.from_array(x))
        np.testing.assert_allclose(out.to_array(), 2.5 * x + 0.75, atol=0)

    def test_1d_unit_vector_gives_first_toeplitz_column(self):
        layer = ConvLayer(np.array([[[[1.0, 2.0, 3.0]]]]), np.array([0.0]))
        n = 7
        e1 = np.zeros((1, 1, n))
        e1[0, 0, 0] = 1.0
        out = conv_forward(layer, ChannelTensorView.from_array(e1))
        m = to_matrix(layer, (1, 1, n))
        np.testing.assert_allclose(out.data, m[:, 0], atol=0)
        # banded toeplitz structure: constant diagonals, bandwidth = kernel width
        assert m.shape == (n - 2, n)
        for r in range(n - 2):
            np.testing.assert_array_equal(m[r, r : r + 3], [1.0, 2.0, 3.0])
            assert np.all(m[r, : r] == 0.0) and np.all(m[r, r + 3 :] == 0.0)

    def test_identity_kernel_block(self):
        layer = ConvLayer(np.array([[[[1.0]]]]), np.array([0.0]))
        m = to_matrix(layer, (1, 3, 3))
        np.testing.assert_array_equal(m, np.eye(9))

    def test_matrix_oracle_random_layers(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            layer = random_layer(rng)
            x = random_input(rng, layer)
            m = to_matrix(layer, x.shape)
            out = conv_forward(layer, ChannelTensorView.from_array(x))
            ref = m @ x.ravel() + np.repeat(layer.bias, out.height * out.width)
            assert np.abs(out.data - ref).max() < 1e-12

    def test_two_by_two_channel_blocks(self):
        rng = np.random.default_rng(5)
        layer = ConvLayer(rng.normal(size=(2, 2, 1, 3)), np.zeros(2))
        n = 6
        m = to_matrix(layer, (2, 1, n))
        ow = n - 2
        for a in range(2):
            for c in range(2):
                block = m[a * ow : (a + 1) * ow, c * n : (c + 1) * n]
                for r in range(ow):
                    np.testing.assert_array_equal(block[r, r : r + 3], layer.kernels[a, c, 0])

    def test_channel_mismatch_names_axis(self):
        layer = ConvLayer(np.zeros((1, 2, 1, 1)), np.zeros(1))
        with pytest.raises(ConvShapeError, match="channel axis"):
            conv_forward(layer, ChannelTensorView.from_array(np.zeros((3, 2, 2))))

    def test_batch_without_channel_axes_names_axis(self):
        layer = ConvLayer(np.zeros((1, 1, 2, 2)), np.zeros(1))
        for shape in ((5, 5), (1, 5, 5)):
            with pytest.raises(ConvShapeError, match="channel axis"):
                conv_forward_batch(layer, np.zeros(shape))

    @pytest.mark.parametrize("shape, axis", [
        ((0, 2, 3, 3), "output channel"), ((2, 0, 3, 3), "input channel"),
        ((2, 2, 0, 3), "kernel height"), ((2, 2, 3, 0), "kernel width"),
    ])
    def test_empty_kernel_axis_names_axis(self, shape, axis):
        with pytest.raises(ConvShapeError, match=f"{axis} axis"):
            ConvLayer(np.zeros(shape), np.zeros(shape[0]))

    def test_matrix_size_guard(self):
        layer = ConvLayer(np.zeros((8, 8, 3, 3)), np.zeros(8), padding=(1, 1))
        with pytest.raises(ValueError, match="entries"):
            to_matrix(layer, (8, 64, 64))


class TestBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(11)
        layer = random_layer(rng)
        x = random_input(rng, layer)
        oh, ow = layer.out_spatial(x.shape[1], x.shape[2])
        gk, gb, gx = conv_backward_batch(
            layer,
            conv_patches(layer, x[None]),
            np.zeros((1, layer.out_channels, oh, ow)),
            x.shape[1:],
        )
        assert np.all(gk == 0.0) and np.all(gb == 0.0) and np.all(gx == 0.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            layer = random_layer(rng)
            x = random_input(rng, layer)
            oh, ow = layer.out_spatial(x.shape[1], x.shape[2])
            up = rng.normal(size=(layer.out_channels, oh, ow))

            def scalar(k=None, b=None, xx=None):
                lay = ConvLayer(
                    layer.kernels if k is None else k,
                    layer.bias if b is None else b,
                    layer.stride, layer.padding,
                )
                arr = x if xx is None else xx
                out = conv_forward_batch(lay, arr[None])[0]
                return float((out * up).sum())

            gk, gb, gx = conv_backward_batch(
                layer, conv_patches(layer, x[None]), up[None], x.shape[1:]
            )
            eps = 1e-6
            for _ in range(6):
                i = tuple(rng.integers(0, s) for s in layer.kernels.shape)
                k = layer.kernels.copy()
                k[i] += eps
                fp = scalar(k=k)
                k[i] -= 2 * eps
                fm = scalar(k=k)
                fd = (fp - fm) / (2 * eps)
                assert abs(gk[i] - fd) / max(abs(fd), 1e-3) < 1e-5
                j = tuple(rng.integers(0, s) for s in x.shape)
                xv = x.copy()
                xv[j] += eps
                fp = scalar(xx=xv)
                xv[j] -= 2 * eps
                fm = scalar(xx=xv)
                fd = (fp - fm) / (2 * eps)
                assert abs(gx[0][j] - fd) / max(abs(fd), 1e-3) < 1e-5
            b = layer.bias.copy()
            b[0] += eps
            fp = scalar(b=b)
            b[0] -= 2 * eps
            fm = scalar(b=b)
            fd = (fp - fm) / (2 * eps)
            assert abs(gb[0] - fd) / max(abs(fd), 1e-3) < 1e-5

    def test_kernel_gradient_via_matrix_oracle(self):
        # dK tap = upstream^T (dM/dtap) y with dM/dtap built from a one-hot kernel
        rng = np.random.default_rng(17)
        layer = ConvLayer(rng.normal(size=(2, 2, 2, 2)), rng.normal(size=2),
                          stride=(1, 2), padding=(1, 0))
        x = rng.normal(size=(2, 5, 6))
        oh, ow = layer.out_spatial(5, 6)
        up = rng.normal(size=(2, oh, ow))
        gk, _, gx = conv_backward_batch(layer, conv_patches(layer, x[None]), up[None], (5, 6))
        ref = np.zeros_like(layer.kernels)
        for tap in np.ndindex(*layer.kernels.shape):
            onehot = np.zeros_like(layer.kernels)
            onehot[tap] = 1.0
            m_tap = to_matrix(
                ConvLayer(onehot, np.zeros(2), layer.stride, layer.padding), x.shape
            )
            ref[tap] = up.ravel() @ (m_tap @ x.ravel())
        assert np.abs(gk - ref).max() < 1e-10
        # input gradient is the matrix transpose action
        m = to_matrix(layer, x.shape)
        np.testing.assert_allclose(gx[0].ravel(), m.T @ up.ravel(), atol=1e-12)

    def test_upstream_shape_mismatch(self):
        layer = ConvLayer(np.zeros((1, 1, 2, 2)), np.zeros(1))
        with pytest.raises(ConvShapeError, match="upstream"):
            conv_backward_batch(layer, np.zeros((1, 4, 9)), np.zeros((1, 1, 9, 9)))
        with pytest.raises(ConvShapeError, match="upstream"):
            conv_backward_batch(layer, np.zeros((1, 4, 9)), np.zeros((1, 1, 3, 3)), (5, 4))
        with pytest.raises(ConvShapeError, match="patch axes"):
            conv_backward_batch(layer, np.zeros((1, 3, 9)), np.zeros((1, 1, 3, 3)))


@st.composite
def layer_and_batch(draw):
    """A conv layer and an input batch within the oracle's reach."""
    in_c, out_c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ph, pw = draw(st.integers(0, kh - 1)), draw(st.integers(0, kw - 1))
    sh, sw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h = draw(st.integers(max(1, kh - 2 * ph), 9))
    w = draw(st.integers(max(1, kw - 2 * pw), 9))
    b = draw(st.sampled_from([1, 2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    layer = ConvLayer(rng.normal(size=(out_c, in_c, kh, kw)), rng.normal(size=out_c),
                      stride=(sh, sw), padding=(ph, pw))
    x = rng.normal(size=(b, in_c, h, w))
    up = rng.normal(size=(b, out_c) + layer.out_spatial(h, w))
    return layer, x, up


def _case(in_c, out_c, kernel, stride, padding, hw, b, seed=0):
    rng = np.random.default_rng(seed)
    layer = ConvLayer(rng.normal(size=(out_c, in_c) + kernel), rng.normal(size=out_c),
                      stride=stride, padding=padding)
    x = rng.normal(size=(b, in_c) + hw)
    return layer, x, rng.normal(size=(b, out_c) + layer.out_spatial(*hw))


class TestBatchedOracle:
    """Batched passes against the Toeplitz matrix, one sample at a time."""

    @settings(max_examples=200, deadline=None)
    @given(case=layer_and_batch())
    @example(case=_case(2, 3, (1, 2), (3, 3), (0, 1), (9, 8), 5))  # stride > kernel
    @example(case=_case(1, 2, (4, 1), (2, 3), (3, 0), (1, 9), 2))  # all-padding rows
    def test_passes_match_matrix(self, case):
        layer, x, up = case
        b, c, h, w = x.shape
        m = to_matrix(layer, (c, h, w))
        # the same matrix with tap index + 1 in place of each kernel entry
        taps = np.arange(1.0, layer.kernels.size + 1).reshape(layer.kernels.shape)
        tap_of = to_matrix(ConvLayer(taps, layer.bias, layer.stride, layer.padding),
                           (c, h, w)).astype(int)
        oh, ow = up.shape[2:]

        out = conv_forward_batch(layer, x)
        assert out.flags.c_contiguous
        ref_out = np.stack([m @ xb.ravel() for xb in x]) + np.repeat(layer.bias, oh * ow)
        assert_rel(out.reshape(b, -1), ref_out)

        patches = conv_patches(layer, x)
        assert np.array_equal(patches, reference_conv_patches(layer, x))
        gk, gb, dx = conv_backward_batch(layer, patches, up, (h, w))
        # dL/dK[tap] sums up_b[row] * x_b[col] over the matrix entries holding that tap
        outer = sum(np.outer(ub.ravel(), xb.ravel()) for ub, xb in zip(up, x))
        ref_gk = np.bincount(tap_of.ravel(), weights=outer.ravel(),
                             minlength=layer.kernels.size + 1)[1:]
        assert_rel(gk, ref_gk.reshape(layer.kernels.shape))
        assert_rel(gb, sum(ub.sum(axis=(1, 2)) for ub in up))
        assert_rel(dx.reshape(b, -1), np.stack([m.T @ ub.ravel() for ub in up]))

        gk_only, gb_only, none = conv_backward_batch(layer, patches, up)
        assert none is None
        assert np.array_equal(gk_only, gk) and np.array_equal(gb_only, gb)


class TestNetworkReference:
    """``nets.backward`` against the im2col code the patch matrix replaced."""

    @staticmethod
    def assert_matches_reference(net, batch):
        got = backward(net, batch)
        ref = reference_backward(net, batch, conv=REFERENCE_CONV)
        for seg in got.segments:
            assert_rel(got.view(seg.layer, seg.kind), ref.view(seg.layer, seg.kind))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_conv=st.sampled_from([1, 2]),
        batch_size=st.sampled_from([1, 2, 5]),
    )
    def test_random_conv_nets(self, seed, n_conv, batch_size):
        rng = np.random.default_rng(seed)
        net = random_conv_net(rng, n_conv=n_conv)
        self.assert_matches_reference(net, random_batch(rng, net, size=batch_size))

    def test_benchmark_shape_at_full_batch(self):
        rng = np.random.default_rng(41)
        net = build_network("conv:8k3s2p1,dense:64", (3, 32, 32), 16, rng=rng)
        self.assert_matches_reference(net, random_batch(rng, net, size=200))

    def test_first_layer_input_gradient_is_never_requested(self, monkeypatch):
        calls = []
        original = nets.conv_backward_batch

        def spy(layer, patches, upstream, in_hw=None):
            calls.append((layer, in_hw))
            return original(layer, patches, upstream, in_hw)

        monkeypatch.setattr(nets, "conv_backward_batch", spy)
        rng = np.random.default_rng(43)
        net = random_conv_net(rng, n_conv=2)
        self.assert_matches_reference(net, random_batch(rng, net))
        (second, second_hw), (first, first_hw) = calls
        assert second is net.layers[1] and second_hw == net.interfaces[1][2:]
        assert first is net.layers[0] and first_hw is None


class TestCoarseningCommutation:
    def test_coarse_matrix_equals_projected_fine_matrix(self):
        # restricting kernels by channel ops then assembling the matrix equals
        # averaging/summing block rows and columns of the fine matrix
        rng = np.random.default_rng(23)
        for weighted in (False, True):
            layer = ConvLayer(rng.normal(size=(4, 4, 2, 2)), rng.normal(size=4),
                              stride=(1, 1), padding=(1, 1))
            in_shape = (4, 4, 4)
            oh, ow = layer.out_spatial(4, 4)
            m_out = Matching(partner=np.array([1, 0, 3, 2]),
                             aggregate=np.array([0, 0, 1, 1]), num_aggregates=2)
            m_in = Matching(partner=np.array([2, 1, 0, 3]),
                            aggregate=np.array([0, 1, 0, 2]), num_aggregates=3)
            rows = layer.kernels.reshape(4, -1)
            t_out = build_transfer(m_out, w_rows=rows if weighted else None, weighted=weighted)
            t_in = build_transfer(m_in, w_rows=rng.normal(size=(4, 3)) if weighted else None,
                                  weighted=weighted)
            kc = t_in.pair_sum(t_out.pair_sum(layer.kernels, t_out.pi, 0), t_in.p, 1)
            coarse = ConvLayer(kc, np.zeros(2), layer.stride, layer.padding)
            lhs = to_matrix(coarse, (3, 4, 4))
            fine = to_matrix(layer, in_shape)
            pi_exp = sp.kron(interface_matrices(t_out)[1], sp.identity(oh * ow)).toarray()
            p_exp = sp.kron(interface_matrices(t_in)[0], sp.identity(16)).toarray()
            rhs = pi_exp @ fine @ p_exp
            assert np.abs(lhs - rhs).max() < 1e-10
