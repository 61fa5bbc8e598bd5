"""Network-level restriction, prolongation, and coarse-grid corrections."""

import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import (
    corrected,
    dense_network,
    explicit_transfer_matrices,
    forward_one,
    interface_matrices,
    random_conv_net,
    random_dense_net,
)
from mlfas.coarsening import Matching, build_transfer, identity_matching, identity_transfer
from mlfas.conv import ConvLayer
from mlfas.nets import (
    DenseLayer,
    Network,
    NetworkShapeError,
    flatten,
)
from mlfas.transfer import (
    TransferLevel,
    coarse_grid_correction,
    coarsen_network,
    prolong_params,
    refresh_weights,
    restrict_gradient,
    restrict_network,
    restrict_params,
    similarity_rows,
)


def level_with(net, matchings=None, weighted=False):
    """Transfer level with the given matchings ({interface: Matching}), identity elsewhere."""
    matchings = matchings or {}
    hidden = []
    for k, n in enumerate(net.unit_counts()[1:-1], start=1):
        m = matchings.get(k)
        if m is None:
            hidden.append(identity_transfer(n))
        else:
            rows = similarity_rows(net.layers[k - 1]) if weighted else None
            hidden.append(build_transfer(m, rows))
    return TransferLevel(net, hidden)


def identity_level(net):
    return level_with(net)


def random_coarsened(rng, conv=False):
    net = random_conv_net(rng) if conv else random_dense_net(rng, widths=(4, 20))
    t = coarsen_network(net, theta=-1.0, weighted=bool(rng.integers(0, 2)))
    return net, t


def random_coarse_vec(rng, t, x):
    xc = restrict_params(t, x)
    return type(xc)(rng.normal(size=xc.total_len), xc.layout)


def check_against_oracle(rng, t, x):
    """All three maps equal the kron oracle's matrices, and Pi P = I."""
    import scipy.sparse as sp

    big_pi, big_p, big_r = explicit_transfer_matrices(t, x.layout)
    v = type(x)(rng.normal(size=x.total_len), x.layout)
    vc = random_coarse_vec(rng, t, x)
    for got, ref in (
        (restrict_params(t, v).data, big_pi @ v.data),
        (prolong_params(t, vc).data, big_p @ vc.data),
        (restrict_gradient(t, v).data, big_r @ v.data),
    ):
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    defect = big_pi @ big_p - sp.identity(vc.total_len)
    assert abs(defect).max() <= 1e-12


def flattened_interface(conv_out_shape, matching, rows=None):
    """Level, vector and expanded (P, Pi) at a conv -> dense flattened interface.

    A 1x1 conv produces the (C, H, W) tensor (its kernels are ``rows``, which
    also weight the transfer when given) and a dense layer holding the
    identity reads it.  Its output interface is the identity, so restricting
    the dense block gives P and restricting it as a gradient gives Pi^T.
    """
    c, h, w = conv_out_shape
    kernels = np.ones((c, 1)) if rows is None else np.asarray(rows)
    n = c * h * w
    net = Network(
        [ConvLayer(kernels.reshape(c, -1, 1, 1), np.zeros(c)), DenseLayer(np.eye(n), np.zeros(n))],
        input_shape=(kernels.shape[1], h, w),
    )
    t = level_with(net, {1: matching}, weighted=rows is not None)
    x = flatten(net)
    p = restrict_params(t, x).weights(1)
    pi = restrict_gradient(t, x).weights(1).T
    return t, x, p, pi


class TestRestrict:
    def test_identity_ops_leave_params(self):
        rng = np.random.default_rng(3)
        net = random_dense_net(rng)
        x = flatten(net)
        out = restrict_params(identity_level(net), x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_example_duplicated_neurons(self):
        w0 = np.array([[1.0, 0.0], [1.0, 0.0]])
        w1 = np.array([[2.0, 3.0]])
        net = Network([DenseLayer(w0, np.zeros(2)), DenseLayer(w1, np.zeros(1))])
        pair = Matching(partner=np.array([1, 0]), aggregate=np.array([0, 0]),
                        num_aggregates=1)
        t = level_with(net, {1: pair})
        xc = restrict_params(t, flatten(net))
        np.testing.assert_allclose(xc.weights(0), [[1.0, 0.0]], atol=0)
        np.testing.assert_allclose(xc.weights(1), [[5.0]], atol=0)  # columns summed

    @pytest.mark.parametrize("conv", [False, True])
    def test_pi_p_identity_on_coarse_space(self, conv):
        rng = np.random.default_rng(7 + conv)
        for _ in range(10):
            net, t = random_coarsened(rng, conv=conv)
            xc = random_coarse_vec(rng, t, flatten(net))
            back = restrict_params(t, prolong_params(t, xc))
            assert np.abs(back.data - xc.data).max() < 1e-12

    def test_restriction_of_prolonged_fixed_point(self):
        rng = np.random.default_rng(11)
        net, t = random_coarsened(rng)
        x = flatten(net)
        xc = restrict_params(t, x)
        np.testing.assert_allclose(
            restrict_params(t, prolong_params(t, xc)).data, xc.data, atol=1e-13
        )


class TestProlong:
    def test_identity_ops(self):
        rng = np.random.default_rng(13)
        net = random_dense_net(rng)
        x = flatten(net)
        np.testing.assert_array_equal(prolong_params(identity_level(net), x).data, x.data)

    @pytest.mark.parametrize("conv", [False, True])
    def test_against_explicit_sparse_oracle(self, conv):
        rng = np.random.default_rng(17 + conv)
        net, t = random_coarsened(rng, conv=conv)
        x = flatten(net)
        xc = random_coarse_vec(rng, t, x)
        _, big_p, _ = explicit_transfer_matrices(t, x.layout)
        ref = big_p @ xc.data
        got = prolong_params(t, xc).data
        assert np.abs(got - ref).max() < 1e-13 * max(1.0, np.abs(ref).max())

    def test_out_buffer_gets_the_fresh_result(self):
        rng = np.random.default_rng(33)
        for conv in (False, True):
            net, t = random_coarsened(rng, conv=conv)
            coarse = restrict_network(net, t)
            coarse.params.data[...] = rng.normal(size=coarse.param_count())
            net.grad.data[...] = np.nan
            out = prolong_params(t, coarse.params, out=net.grad)
            assert out is net.grad
            assert np.array_equal(out.data, prolong_params(t, coarse.params).data)


class TestRestrictGradient:
    @pytest.mark.parametrize("conv", [False, True])
    def test_adjoint_identity(self, conv):
        rng = np.random.default_rng(19 + conv)
        for _ in range(10):
            net, t = random_coarsened(rng, conv=conv)
            x = flatten(net)
            xc = random_coarse_vec(rng, t, x)
            y = type(x)(rng.normal(size=x.total_len), x.layout)
            lhs = prolong_params(t, xc).data @ y.data
            rhs = xc.data @ restrict_gradient(t, y).data
            assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))

    def test_identity_ops(self):
        rng = np.random.default_rng(23)
        net = random_dense_net(rng)
        g = flatten(net)
        np.testing.assert_array_equal(restrict_gradient(identity_level(net), g).data, g.data)

    def test_explicit_matrix_oracle(self):
        rng = np.random.default_rng(29)
        net, t = random_coarsened(rng, conv=True)
        g = flatten(net)
        _, _, big_r = explicit_transfer_matrices(t, g.layout)
        ref = big_r @ g.data
        got = restrict_gradient(t, g).data
        assert np.abs(got - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())

    def test_bias_blocks_use_output_side_transpose(self):
        # the adjoint of bias prolongation p_{k+1} b_c is p_{k+1}^T b
        rng = np.random.default_rng(31)
        net, t = random_coarsened(rng)
        g = flatten(net)
        out = restrict_gradient(t, g)
        for k in range(net.n_layers):
            p_out, _ = interface_matrices(t.interfaces[k + 1])
            ref = p_out.T @ g.bias(k)
            np.testing.assert_allclose(out.bias(k), ref, atol=1e-14)

    def test_out_buffer_gets_the_fresh_result(self):
        rng = np.random.default_rng(32)
        for conv in (False, True):
            net, t = random_coarsened(rng, conv=conv)
            coarse = restrict_network(net, t)
            g = flatten(net)
            g.data[...] = rng.normal(size=g.total_len)
            coarse.grad.data[...] = np.nan
            out = restrict_gradient(t, g, out=coarse.grad)
            assert out is coarse.grad
            assert np.array_equal(out.data, restrict_gradient(t, g).data)


class TestCoarseGridCorrection:
    def test_zero_coarse_movement(self):
        rng = np.random.default_rng(37)
        net, t = random_coarsened(rng)
        x = flatten(net)
        xc = restrict_params(t, x)
        out = corrected(x, xc, t, 0.7)
        np.testing.assert_array_equal(out.data, x.data)

    def test_alpha_zero(self):
        rng = np.random.default_rng(41)
        net, t = random_coarsened(rng)
        x = flatten(net)
        xc = random_coarse_vec(rng, t, x)
        out = corrected(x, xc, t, 0.0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_identity_transfers_alpha_one(self):
        rng = np.random.default_rng(43)
        net = random_dense_net(rng)
        t = identity_level(net)
        x = flatten(net)
        xc = type(x)(rng.normal(size=x.total_len), x.layout)
        out = corrected(x, xc, t, 1.0)
        np.testing.assert_allclose(out.data, xc.data, atol=1e-15)

    def test_scratch_buffers_leave_the_result_bitwise_unchanged(self):
        rng = np.random.default_rng(47)
        for conv in (False, True):
            net, t = random_coarsened(rng, conv=conv)
            coarse = restrict_network(net, t)
            x = flatten(net)
            xc = random_coarse_vec(rng, t, x)
            ref = corrected(x, xc, t, 0.3)
            coarse.grad.data[...] = np.nan
            net.grad.data[...] = np.nan
            scratch = (coarse.grad, net.grad)
            assert coarse_grid_correction(x, xc, t, restrict_params(t, x), 0.3, scratch) is None
            assert np.array_equal(x.data, ref.data)


    def test_repeated_correction_allocates_no_block(self):
        # the level's scratch arrays hold every per-block intermediate, so a
        # call after the first allocates only numpy's fixed-size ufunc buffer
        net = dense_network([768, 128, 128, 256], rng=np.random.default_rng(53))
        t = coarsen_network(net, theta=0.1)
        coarse = restrict_network(net, t)
        x = flatten(net)
        start = restrict_params(t, x)
        scratch = (coarse.grad, net.grad)
        coarse_grid_correction(x, coarse.params, t, start, 0.5, scratch)
        t = refresh_weights(t, net)
        tracemalloc.start()
        try:
            coarse_grid_correction(x, coarse.params, t, start, 0.5, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.data.nbytes / 8


class TestRestrictNetwork:
    def test_identity_transfer_copies_structure(self):
        rng = np.random.default_rng(47)
        net = random_dense_net(rng)
        coarse = restrict_network(net, identity_level(net))
        assert coarse.unit_counts() == net.unit_counts()
        np.testing.assert_array_equal(flatten(coarse).data, flatten(net).data)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_forward_exact_on_duplicated_hidden_neurons(self, weighted):
        rng = np.random.default_rng(53)
        w0 = rng.normal(size=(6, 4))
        w0[3:] = w0[:3]
        b0 = rng.normal(size=6)
        b0[3:] = b0[:3]
        w1 = rng.normal(size=(2, 6))
        net = Network([DenseLayer(w0, b0), DenseLayer(w1, rng.normal(size=2))])
        t = coarsen_network(net, theta=0.999, weighted=weighted)
        coarse = restrict_network(net, t)
        assert coarse.unit_counts()[1] == 3
        for _ in range(5):
            y = rng.normal(size=4)
            fine_out = forward_one(net, y)
            np.testing.assert_allclose(forward_one(coarse, y), fine_out,
                                       atol=1e-12 * max(1.0, np.abs(fine_out).max()))

    def test_coarse_has_fewer_params_when_any_pair_matched(self):
        rng = np.random.default_rng(59)
        net, t = random_coarsened(rng)
        coarse = restrict_network(net, t)
        matched_pairs = any(op.n_coarse < op.n_fine for op in t.interfaces)
        assert matched_pairs
        assert coarse.param_count() < net.param_count()

    def test_conv_structure_preserved(self):
        rng = np.random.default_rng(61)
        net, t = random_coarsened(rng, conv=True)
        coarse = restrict_network(net, t)
        for fine_l, coarse_l in zip(net.layers, coarse.layers):
            assert type(fine_l) is type(coarse_l)
            if isinstance(fine_l, ConvLayer):
                assert fine_l.stride == coarse_l.stride
                assert fine_l.padding == coarse_l.padding
                assert fine_l.kernel_size == coarse_l.kernel_size

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_conv=st.sampled_from([0, 1, 2]),
           theta=st.sampled_from([-1.0, 0.1]))
    def test_level_layouts_are_the_networks(self, seed, n_conv, theta):
        # the level derives the coarse layout from shapes alone; the coarse
        # network's constructor chains the restricted layers' own arrays
        rng = np.random.default_rng(seed)
        net = random_conv_net(rng, n_conv=n_conv) if n_conv else random_dense_net(rng)
        t = coarsen_network(net, theta=theta)
        coarse = restrict_network(net, t)
        assert t.layouts[0] == net.params.layout
        assert t.layouts[1] == coarse.params.layout
        assert coarse.unit_counts() == [op.n_coarse for op in t.interfaces]
        assert t.scratch[0].size == t.scratch[1].size == max(
            layer.weights.size for layer in net.layers
        )


class TestLevelProperties:
    @pytest.mark.parametrize("conv", [False, True])
    def test_q_idempotent_on_parameter_space(self, conv):
        rng = np.random.default_rng(67 + conv)
        net, t = random_coarsened(rng, conv=conv)
        x = flatten(net)
        v = type(x)(rng.normal(size=x.total_len), x.layout)
        q1 = prolong_params(t, restrict_params(t, v))
        q2 = prolong_params(t, restrict_params(t, q1))
        assert np.abs(q2.data - q1.data).max() < 1e-12 * max(1.0, np.abs(q1.data).max())

    def test_momentum_correction_is_same_operation(self):
        # the momentum update reuses coarse_grid_correction verbatim
        rng = np.random.default_rng(71)
        net, t = random_coarsened(rng)
        x = flatten(net)
        m = type(x)(rng.normal(size=x.total_len), x.layout)
        mc = random_coarse_vec(rng, t, x)
        np.testing.assert_array_equal(corrected(m, mc, t, 0.2).data, corrected(m, mc, t, 0.2).data)

    def test_refresh_weights_keeps_matchings_and_projection(self):
        rng = np.random.default_rng(73)
        net, t = random_coarsened(rng)
        for layer in net.layers:
            layer.weights += rng.normal(size=layer.weights.shape) * 0.1
        aggregates = [op.aggregate for op in t.interfaces]
        t2 = refresh_weights(t, net)
        for before, op in zip(aggregates, t2.interfaces):
            np.testing.assert_array_equal(before, op.aggregate)
        x = flatten(net)
        xc = random_coarse_vec(rng, t2, x)
        back = restrict_params(t2, prolong_params(t2, xc))
        assert np.abs(back.data - xc.data).max() < 1e-12


class TestLevelContract:
    def test_widths_must_match_the_network(self):
        net = dense_network([3, 5, 4, 2], rng=np.random.default_rng(79))
        for hidden in ([identity_transfer(6), identity_transfer(4)],
                       [identity_transfer(5)],
                       [identity_transfer(5), identity_transfer(4), identity_transfer(2)]):
            with pytest.raises(NetworkShapeError, match="widths"):
                TransferLevel(net, hidden)

    @pytest.mark.parametrize("conv", [False, True])
    def test_vector_of_the_wrong_layout_rejected(self, conv):
        rng = np.random.default_rng(83 + conv)
        net, t = random_coarsened(rng, conv=conv)
        x = flatten(net)
        coarse = restrict_params(t, x)
        other = flatten(random_conv_net(rng) if conv else random_dense_net(rng))
        for apply, wrong in ((restrict_params, coarse), (restrict_params, other),
                             (restrict_gradient, coarse), (restrict_gradient, other),
                             (prolong_params, x), (prolong_params, other)):
            with pytest.raises(NetworkShapeError, match="shape"):
                apply(t, wrong)

    def test_refresh_weights_updates_the_level_in_place(self):
        rng = np.random.default_rng(89)
        net = random_dense_net(rng, n_hidden=2, widths=(4, 12))
        t = coarsen_network(net, theta=-1.0, weighted=True)
        layouts, scratch = t.layouts, t.scratch
        aggregates = [op.aggregate.copy() for op in t.interfaces]
        for layer in net.layers:
            layer.weights += rng.normal(size=layer.weights.shape)
        assert refresh_weights(t, net) is t
        assert t.layouts is layouts and t.scratch is scratch
        for k, (before, op) in enumerate(zip(aggregates, t.interfaces)):
            np.testing.assert_array_equal(op.aggregate, before)
            if 0 < k < net.n_layers:
                np.testing.assert_array_equal(
                    op.p, np.linalg.norm(similarity_rows(net.layers[k - 1]), axis=1))


PAIR_AND_SINGLETON = Matching(partner=np.array([1, 0, 2]), aggregate=np.array([0, 0, 1]),
                              num_aggregates=2)
ONE_PAIR = Matching(partner=np.array([1, 0]), aggregate=np.array([0, 0]), num_aggregates=1)


def hand_dense_level(rows, matching, weighted):
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    net = Network([DenseLayer(rows, np.arange(n, dtype=np.float64)),
                   DenseLayer(np.arange(2.0 * n).reshape(2, n), np.ones(2))])
    return level_with(net, {1: matching}, weighted=weighted), flatten(net)


# the hand-built interfaces of tests/test_coarsening.py::TestBuildTransfer
# and of TestFlattenInterface below, fed to the oracle check
HAND_CASES = {
    "plain_pair_and_singleton": lambda: hand_dense_level(np.eye(3), PAIR_AND_SINGLETON, False),
    "weighted_norms_two_and_four": lambda: hand_dense_level(
        [[2.0, 0.0], [0.0, 4.0]], ONE_PAIR, True),
    "identity_matching": lambda: hand_dense_level(np.ones((4, 3)), identity_matching(4), False),
    "zero_norm_row_fallback": lambda: hand_dense_level(
        [[0.0, 0.0], [3.0, 0.0]], ONE_PAIR, True),
    "flattened_two_channels_spatial_three": lambda: flattened_interface((2, 1, 3), ONE_PAIR)[:2],
    "flattened_identity": lambda: flattened_interface((3, 2, 2), identity_matching(3))[:2],
    "flattened_weighted": lambda: flattened_interface(
        (3, 2, 2), PAIR_AND_SINGLETON, rows=np.random.default_rng(19).normal(size=(3, 5)))[:2],
    "flattened_plain": lambda: flattened_interface((3, 2, 2), PAIR_AND_SINGLETON)[:2],
}


class TestOracle:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), conv=st.booleans(), weighted=st.booleans(),
           theta=st.floats(-1.0, 0.5, allow_nan=False))
    def test_random_levels_match_kron_oracle(self, seed, conv, weighted, theta):
        rng = np.random.default_rng(seed)
        net = random_conv_net(rng) if conv else random_dense_net(rng, widths=(4, 20))
        t = coarsen_network(net, theta=theta, weighted=weighted)
        check_against_oracle(rng, t, flatten(net))

    @pytest.mark.filterwarnings("ignore:zero-norm rows")
    @pytest.mark.parametrize("case", sorted(HAND_CASES))
    def test_hand_levels_match_kron_oracle(self, case):
        t, x = HAND_CASES[case]()
        check_against_oracle(np.random.default_rng(83), t, x)


class TestFlattenInterface:
    """A dense layer reading a flattened conv output is mapped as (out, C, H*W)."""

    def test_two_channels_into_one_spatial_three(self):
        _, _, p, _ = flattened_interface((2, 1, 3), ONE_PAIR)
        assert p.shape == (6, 3)
        for j in range(3):
            col = p[:, j]
            assert col[j] == 1.0 and col[3 + j] == 1.0
            assert col.sum() == 2.0

    def test_identity_matching_gives_identity(self):
        _, _, p, pi = flattened_interface((3, 2, 2), identity_matching(3))
        np.testing.assert_array_equal(p, np.eye(12))
        np.testing.assert_array_equal(pi, np.eye(12))

    def test_projection_at_interface(self):
        rng = np.random.default_rng(19)
        _, _, p, pi = flattened_interface((3, 2, 2), PAIR_AND_SINGLETON,
                                          rows=rng.normal(size=(3, 5)))
        assert np.abs(pi @ p - np.eye(8)).max() < 1e-14

    def test_channel_count_mismatch(self):
        t, _, _, _ = flattened_interface((3, 2, 2), identity_matching(3))
        _, x, _, _ = flattened_interface((4, 2, 2), identity_matching(4))
        with pytest.raises(NetworkShapeError, match="shape"):
            restrict_params(t, x)

    def test_expanded_maps_match_kron(self):
        import scipy.sparse as sp

        t, _, p, pi = flattened_interface((3, 2, 2), PAIR_AND_SINGLETON)
        p_c, pi_c = interface_matrices(t.interfaces[1])
        np.testing.assert_array_equal(p, sp.kron(p_c, sp.identity(4)).toarray())
        np.testing.assert_array_equal(pi, sp.kron(pi_c, sp.identity(4)).toarray())
