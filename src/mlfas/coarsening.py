"""Unit coarsening for network layers.

Neurons (rows of a dense weight matrix) or convolution channels (vectorized
per-output-channel kernels) are paired by greedy heavy-edge matching on a
cosine strength-of-connection matrix.  Each matching induces a pair of
transfer maps per layer interface: an averaging map ``pi`` (fine -> coarse)
and a piecewise-constant interpolation ``p`` (coarse -> fine) with
``pi @ p = I``.  Both are pairwise index maps with one weight per unit,
applied along one array axis and never formed as matrices.  The optional
weighted variant scales the interpolation by per-unit row norms so that
exactly parallel units are reproduced by the induced projector ``p @ pi``.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Matching:
    """Pairwise matching of units into aggregates.

    ``partner`` is an involution (``partner[partner[i]] == i``; singletons
    point at themselves) and ``aggregate`` maps every unit to its 0-based
    aggregate id, assigned in visit order.
    """

    partner: np.ndarray
    aggregate: np.ndarray
    num_aggregates: int

    @property
    def n(self) -> int:
        return self.partner.shape[0]

    def aggregate_sizes(self) -> np.ndarray:
        return np.bincount(self.aggregate, minlength=self.num_aggregates)


@dataclass(frozen=True)
class LayerTransfer:
    """Averaging ``pi`` and interpolation ``p`` at one layer interface.

    A pairwise matching leaves one entry per fine unit in each map: row i of
    the (n x n_c) interpolation holds ``p[i]`` at column ``aggregate[i]``,
    and column i of the (n_c x n) averaging holds ``pi[i]`` at row
    ``aggregate[i]``.  Aggregate a consists of units ``rep[a]`` and
    ``mate[a]``, which are equal for a singleton.  ``pi @ p = I`` holds by
    construction.  In weighted form ``p`` carries the row norms and ``pi``
    the reciprocal aggregate norm sums.
    """

    aggregate: np.ndarray
    rep: np.ndarray
    mate: np.ndarray
    p: np.ndarray
    pi: np.ndarray
    weighted: bool = False

    @property
    def n_fine(self) -> int:
        return self.aggregate.shape[0]

    @property
    def n_coarse(self) -> int:
        return self.rep.shape[0]

    @property
    def is_identity(self) -> bool:
        """All units are singletons of weight 1, so both maps are the identity."""
        return self.n_coarse == self.n_fine and not self.weighted

    def pair_sum(
        self,
        a: np.ndarray,
        w: np.ndarray,
        axis: int,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """Sum ``w * a`` over each aggregate along ``axis`` (fine -> coarse).

        Aggregate a gets ``w[r] a[r] + w[s] a[s]`` with r, s its two units;
        a singleton's second term is zero.  With ``w = pi`` this applies the
        averaging, with ``w = p`` the transposed interpolation.  The result
        is written into ``out`` when given, which must not share memory
        with ``a``.  The second term is built in ``scratch`` when given, a
        flat array at least as long as the result that shares memory with
        neither ``a`` nor ``out``.
        """
        _check_length(a, axis, self.n_fine)
        out = _take(a, self.rep, axis, out)
        out *= _along(w[self.rep], out.ndim, axis)
        if scratch is not None:
            scratch = scratch[: out.size].reshape(out.shape)
        second = _take(a, self.mate, axis, scratch)
        second *= _along(np.where(self.mate == self.rep, 0.0, w[self.mate]), out.ndim, axis)
        out += second
        return out

    def gather(
        self, a: np.ndarray, w: np.ndarray, axis: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Unit i gets ``w[i] * a[aggregate[i]]`` along ``axis`` (coarse -> fine).

        With ``w = p`` this applies the interpolation, with ``w = pi`` the
        transposed averaging.  The result is written into ``out`` when
        given, which must not share memory with ``a``.
        """
        _check_length(a, axis, self.n_coarse)
        out = _take(a, self.aggregate, axis, out)
        out *= _along(w, out.ndim, axis)
        return out


def _take(a: np.ndarray, idx: np.ndarray, axis: int, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return np.take(a, idx, axis)
    # the indices are in range by construction; the default mode="raise"
    # would fill a temporary copy of ``out`` first
    return np.take(a, idx, axis, out=out, mode="clip")


def _check_length(a: np.ndarray, axis: int, expected: int) -> None:
    if a.shape[axis] != expected:
        raise ValueError(
            f"transfer expects length {expected} along axis {axis}, got shape {a.shape}"
        )


def _along(w: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    # per-unit weights shaped to broadcast along ``axis`` of an ndim-d array
    return w.reshape(w.shape + (1,) * (ndim - 1 - axis))


def strength_from_rows(rows) -> np.ndarray:
    """Cosine similarity between the rows of a weight matrix, as a
    symmetric (n, n) array.

    Rows with zero norm get similarity 0 to every other unit.  The sign is
    kept: anti-parallel rows score -1 and are never matched for any
    threshold >= 0.
    """
    r = np.asarray(rows, dtype=np.float64)
    if r.ndim != 2:
        raise ValueError(f"expected a 2-d row stack, got shape {r.shape}")
    norms = np.linalg.norm(r, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = r / safe[:, None]
    g = unit @ unit.T
    dead = norms == 0.0
    g[dead, :] = 0.0
    g[:, dead] = 0.0
    # gemm output is not exactly symmetric; the matching assumes S_ij = S_ji
    return 0.5 * (g + g.T)


def greedy_hem(s: np.ndarray, theta: float) -> Matching:
    """Greedy heavy-edge matching on a symmetric (n, n) strength array ``s``,
    whose diagonal is ignored.

    Units are visited in index order.  An unmatched unit i is paired with
    the unmatched j != i of maximal S_ij, provided S_ij > theta; edges at or
    below the threshold are disregarded and the unit becomes a singleton.
    Ties pick the smallest index.
    """
    if not -1.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [-1, 1], got {theta}")
    n = s.shape[0]
    partner = np.full(n, -1, dtype=np.int64)
    aggregate = np.full(n, -1, dtype=np.int64)
    n_agg = 0
    for i in range(n):
        if partner[i] >= 0:
            continue
        candidates = np.flatnonzero(partner < 0)
        candidates = candidates[candidates != i]
        match = -1
        if candidates.size:
            weights = s[i, candidates]
            k = int(np.argmax(weights))  # argmax returns the first (smallest) index on ties
            if weights[k] > theta:
                match = int(candidates[k])
        if match >= 0:
            partner[i] = match
            partner[match] = i
            aggregate[i] = aggregate[match] = n_agg
        else:
            partner[i] = i
            aggregate[i] = n_agg
        n_agg += 1
    return Matching(partner=partner, aggregate=aggregate, num_aggregates=n_agg)


def identity_matching(n: int) -> Matching:
    idx = np.arange(n, dtype=np.int64)
    return Matching(partner=idx.copy(), aggregate=idx.copy(), num_aggregates=n)


def build_transfer(matching: Matching, w_rows=None, weighted: bool = False) -> LayerTransfer:
    """Construct the (pi, p) pair for a matching.

    Plain form: p is 1 on every unit and pi averages within each aggregate.
    The weighted form is ``reweight`` of the plain one.
    """
    agg = matching.aggregate
    rep = np.unique(agg, return_index=True)[1]  # first unit of each aggregate
    plain = LayerTransfer(
        agg, rep, matching.partner[rep], np.ones(matching.n), 1.0 / matching.aggregate_sizes()[agg]
    )
    if not weighted:
        return plain
    if w_rows is None:
        raise ValueError("weighted transfer requires the weight rows")
    return reweight(plain, w_rows)


def reweight(t: LayerTransfer, w_rows) -> LayerTransfer:
    """Weighted form of ``t`` for the current rows ``w_rows`` of its fine units.

    p carries the row norms d_i and pi the reciprocal of d summed over the
    aggregate, so pi @ p = I still holds and parallel matched rows are fixed
    points of p @ pi.
    """
    rows = np.asarray(w_rows, dtype=np.float64).reshape(t.n_fine, -1)
    d = np.linalg.norm(rows, axis=1)
    if np.any(d == 0.0):
        warnings.warn(
            "zero-norm rows in weighted transfer; falling back to weight 1",
            RuntimeWarning,
            stacklevel=2,
        )
        d = np.where(d == 0.0, 1.0, d)
    totals = np.bincount(t.aggregate, weights=d, minlength=t.n_coarse)
    return replace(t, p=d, pi=1.0 / totals[t.aggregate], weighted=True)


def identity_transfer(n: int) -> LayerTransfer:
    return build_transfer(identity_matching(n))
