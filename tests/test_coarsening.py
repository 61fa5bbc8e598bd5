"""Strength of connection, greedy matching, and layer transfer operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import interface_matrices
from mlfas.coarsening import (
    Matching,
    StrengthMatrix,
    build_transfer,
    greedy_hem,
    identity_matching,
    identity_transfer,
    strength_from_rows,
)


def symmetric_strength(rng, n):
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    m = 0.5 * (m + m.T)
    np.fill_diagonal(m, 1.0)
    return StrengthMatrix(m)


def applied_matrices(t):
    """Dense (P, Pi) as the index-map primitives apply them, checked against the oracle."""
    p = t.gather(np.eye(t.n_coarse), t.p, axis=0)
    pi = t.pair_sum(np.eye(t.n_fine), t.pi, axis=0)
    p_ref, pi_ref = interface_matrices(t)
    np.testing.assert_array_equal(p, p_ref.toarray())
    np.testing.assert_array_equal(pi, pi_ref.toarray())
    return p, pi


class TestStrength:
    def test_parallel_rows(self):
        s = strength_from_rows([[2.0, 0.0], [4.0, 0.0]])
        assert s.values[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_rows(self):
        s = strength_from_rows([[1.0, 0.0], [0.0, 3.0]])
        assert s.values[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_against_direct_formula(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(6, 4))
        s = strength_from_rows(rows)
        for i in range(6):
            for j in range(6):
                ref = rows[i] @ rows[j] / (np.linalg.norm(rows[i]) * np.linalg.norm(rows[j]))
                assert abs(s.values[i, j] - ref) < 1e-14

    def test_zero_norm_rows(self):
        s = strength_from_rows([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        assert np.all(s.values[0, 1:] == 0.0)
        assert np.all(s.values[:, 2][:2] == 0.0)

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(9)
        s = strength_from_rows(rng.normal(size=(12, 7)))
        assert np.array_equal(s.values, s.values.T)
        assert np.abs(s.values).max() <= 1.0 + 1e-12

    def test_absolute_option(self):
        s = strength_from_rows([[1.0, 0.0], [-2.0, 0.0]], absolute=True)
        assert s.values[0, 1] == pytest.approx(1.0, abs=1e-15)


class TestGreedyHem:
    def test_hand_trace_three_units(self):
        s = np.zeros((3, 3))
        s[0, 1] = s[1, 0] = 0.9
        s[0, 2] = s[2, 0] = 0.3
        s[1, 2] = s[2, 1] = 0.2
        m = greedy_hem(StrengthMatrix(s), theta=0.1)
        assert m.partner.tolist() == [1, 0, 2]
        assert m.num_aggregates == 2
        assert m.aggregate[0] == m.aggregate[1] != m.aggregate[2]

    def test_all_below_threshold_gives_singletons(self):
        s = np.full((5, 5), 0.4)
        np.fill_diagonal(s, 1.0)
        m = greedy_hem(StrengthMatrix(s), theta=0.4)  # strict inequality required
        assert m.partner.tolist() == list(range(5))
        assert m.num_aggregates == 5

    def test_hand_trace_two_pairs(self):
        s = np.zeros((4, 4))
        s[0, 1] = s[1, 0] = 0.8
        s[2, 3] = s[3, 2] = 0.8
        m = greedy_hem(StrengthMatrix(s), theta=0.5)
        assert m.num_aggregates == 2
        assert m.partner.tolist() == [1, 0, 3, 2]

    def test_visit_order_changes_pairing(self):
        s = np.zeros((3, 3))
        s[0, 1] = s[1, 0] = 0.6
        s[1, 2] = s[2, 1] = 0.9
        first = greedy_hem(StrengthMatrix(s), theta=0.0)
        assert first.partner.tolist() == [1, 0, 2]
        second = greedy_hem(StrengthMatrix(s), theta=0.0, order=[2, 1, 0])
        assert second.partner.tolist() == [0, 2, 1]

    def test_tie_break_smallest_index(self):
        s = np.zeros((3, 3))
        s[0, 1] = s[1, 0] = 0.7
        s[0, 2] = s[2, 0] = 0.7
        m = greedy_hem(StrengthMatrix(s), theta=0.0)
        assert m.partner[0] == 1

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError, match="theta"):
            greedy_hem(StrengthMatrix(np.eye(2)), theta=1.5)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 20),
           theta=st.floats(-1.0, 1.0, allow_nan=False))
    def test_fuzzed_invariants(self, seed, n, theta):
        rng = np.random.default_rng(seed)
        s = symmetric_strength(rng, n)
        m = greedy_hem(s, theta)
        # involution and aggregate consistency
        assert np.array_equal(m.partner[m.partner], np.arange(n))
        assert np.array_equal(m.aggregate[m.partner], m.aggregate)
        assert sorted(set(m.aggregate.tolist())) == list(range(m.num_aggregates))
        assert (n + 1) // 2 <= m.num_aggregates <= n
        # no matched pair crosses the threshold
        for i in range(n):
            if m.partner[i] != i:
                assert s.values[i, m.partner[i]] > theta


class TestBuildTransfer:
    def test_plain_pair_and_singleton(self):
        m = Matching(partner=np.array([1, 0, 2]), aggregate=np.array([0, 0, 1]),
                     num_aggregates=2)
        p, pi = applied_matrices(build_transfer(m))
        np.testing.assert_array_equal(p, [[1, 0], [1, 0], [0, 1]])
        np.testing.assert_array_equal(pi, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(pi @ p, np.eye(2), atol=1e-15)

    def test_weighted_norms_two_and_four(self):
        m = Matching(partner=np.array([1, 0]), aggregate=np.array([0, 0]), num_aggregates=1)
        p, pi = applied_matrices(build_transfer(m, w_rows=[[2.0, 0.0], [0.0, 4.0]], weighted=True))
        np.testing.assert_allclose(p, [[2.0], [4.0]], atol=0)
        np.testing.assert_allclose(pi, [[1 / 6, 1 / 6]], rtol=1e-15)
        assert (pi @ p)[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_identity_matching_gives_identity(self):
        p, pi = applied_matrices(build_transfer(identity_matching(4)))
        np.testing.assert_array_equal(p, np.eye(4))
        np.testing.assert_array_equal(pi, np.eye(4))

    def test_weighted_requires_rows(self):
        with pytest.raises(ValueError, match="rows"):
            build_transfer(identity_matching(2), weighted=True)

    def test_zero_norm_row_falls_back_with_warning(self):
        m = Matching(partner=np.array([1, 0]), aggregate=np.array([0, 0]), num_aggregates=1)
        with pytest.warns(RuntimeWarning, match="zero-norm"):
            t = build_transfer(m, w_rows=[[0.0, 0.0], [3.0, 0.0]], weighted=True)
        p, _ = applied_matrices(t)
        np.testing.assert_allclose(p, [[1.0], [3.0]])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 16),
           weighted=st.booleans())
    def test_projection_identities(self, seed, n, weighted):
        rng = np.random.default_rng(seed)
        m = greedy_hem(symmetric_strength(rng, n), theta=0.0)
        rows = rng.normal(size=(n, 3)) + 0.1
        t = build_transfer(m, w_rows=rows if weighted else None, weighted=weighted)
        p, pi = applied_matrices(t)
        assert np.abs(pi @ p - np.eye(m.num_aggregates)).max() < 1e-14
        # q = p pi is a projection
        v = rng.normal(size=n)
        q = lambda u: t.gather(t.pair_sum(u, t.pi, 0), t.p, 0)
        assert np.abs(q(q(v)) - q(v)).max() < 1e-12

    def test_weighted_parallel_rows_invariant_under_q(self):
        # matched rows r and c*r are reproduced exactly by q = p pi
        rng = np.random.default_rng(77)
        r0 = rng.normal(size=5)
        rows = np.vstack([r0, 2.5 * r0])
        m = Matching(partner=np.array([1, 0]), aggregate=np.array([0, 0]), num_aggregates=1)
        t = build_transfer(m, w_rows=rows, weighted=True)
        for j in range(5):
            v = rows[:, j]
            qv = t.gather(t.pair_sum(v, t.pi, 0), t.p, 0)
            assert np.abs(qv - v).max() < 1e-12


class TestApply:
    """The two primitives: pair sums (Pi, P^T) and gathers (P, Pi^T) along one axis."""

    def test_aggregate_constant_fixed_points(self):
        m = Matching(partner=np.array([1, 0, 3, 2]), aggregate=np.array([0, 0, 1, 1]),
                     num_aggregates=2)
        t = build_transfer(m)
        v = np.array([3.0, 3.0, -1.5, -1.5])
        np.testing.assert_array_equal(t.gather(t.pair_sum(v, t.pi, 0), t.p, 0), v)

    def test_against_sparse_product_oracle(self):
        rng = np.random.default_rng(21)
        m = greedy_hem(symmetric_strength(rng, 9), theta=0.0)
        t = build_transfer(m, w_rows=rng.normal(size=(9, 4)), weighted=True)
        p, pi = interface_matrices(t)
        v = rng.normal(size=9)
        vc = rng.normal(size=m.num_aggregates)
        assert np.abs(t.pair_sum(v, t.pi, 0) - pi @ v).max() < 1e-14
        assert np.abs(t.gather(vc, t.p, 0) - p @ vc).max() < 1e-14
        assert np.abs(t.pair_sum(v, t.p, 0) - p.T @ v).max() < 1e-14
        assert np.abs(t.gather(vc, t.pi, 0) - pi.T @ vc).max() < 1e-14

    def test_adjoint_identity(self):
        rng = np.random.default_rng(23)
        m = greedy_hem(symmetric_strength(rng, 8), theta=0.0)
        t = build_transfer(m)
        for _ in range(5):
            vc = rng.normal(size=m.num_aggregates)
            w = rng.normal(size=8)
            lhs = t.gather(vc, t.p, 0) @ w
            rhs = vc @ t.pair_sum(w, t.p, 0)
            assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))

    def test_out_buffer_gets_the_fresh_result(self):
        rng = np.random.default_rng(25)
        m = greedy_hem(symmetric_strength(rng, 9), theta=0.0)
        t = build_transfer(m, w_rows=rng.normal(size=(9, 4)), weighted=True)
        for axis in (0, 1):
            for fn, n_in, n_res in ((t.pair_sum, 9, m.num_aggregates),
                                    (t.gather, m.num_aggregates, 9)):
                shape = [5, 5]
                shape[axis] = n_in
                a = rng.normal(size=shape)
                shape[axis] = n_res
                out = np.full(shape, np.nan)
                assert fn(a, t.p, axis, out=out) is out
                assert np.array_equal(out, fn(a, t.p, axis))
        # pair_sum's mate term in a longer NaN-filled scratch array
        a = rng.normal(size=(9, 5))
        scratch = np.full(60, np.nan)
        assert np.array_equal(t.pair_sum(a, t.pi, 0, scratch=scratch), t.pair_sum(a, t.pi, 0))

    def test_length_mismatch(self):
        t = identity_transfer(3)
        with pytest.raises(ValueError, match="length"):
            t.pair_sum(np.zeros(4), t.pi, 0)
        with pytest.raises(ValueError, match="length"):
            t.gather(np.zeros((2, 4)), t.p, 1)
