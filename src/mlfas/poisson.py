"""Poisson surrogate-regression data.

Each sample draws a rotated, shifted cosine-product diffusion field kappa on
the unit square, solves -div(kappa grad u) = f with a fixed Gaussian forcing
and homogeneous Dirichlet boundary, and packages (kappa + mesh coordinates)
as input channels with the solution grid as the target.  The solver is a
cell-centered 5-point finite-difference scheme with harmonic-mean face
coefficients, solved by matrix-free preconditioned conjugate gradients over
stacks of samples.  The preconditioner scales by kappa^-1/2 on both sides
and inverts the constant-coefficient operator exactly by fast
diagonalization with the closed-form 1-D eigenvectors.
``assemble_operator`` builds the same operator as a sparse matrix for
reference; it is the one user of scipy, which it imports when called.
"""

import functools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

DATASET_MAGIC = b"MLFASDAT"
DATASET_VERSION = 1
_HEADER = struct.Struct("<8sIIIIIq")  # magic, version, count, n, channels, n_val, seed
_CHUNK_CELLS = 2**14  # grid cells per batched solve in generate_dataset
_IO_BLOCK_BYTES = 2**20  # payload bytes per write in write_dataset


class SolverError(RuntimeError):
    """Conjugate gradients failed to reach the requested residual.

    ``index`` is the position of the first sample that did not converge
    among the ``count`` samples named in the message; ``detail`` says how
    far the solve got.
    """

    def __init__(self, index: int, count: int, detail: str):
        super().__init__(f"conjugate gradients stalled on sample {index} of {count}: {detail}")
        self.index = index
        self.detail = detail


class DatasetFormatError(ValueError):
    """Dataset file is not a valid MLFASDAT container."""


@dataclass(frozen=True)
class FieldParams:
    """Diffusion-field parameters: frequencies, phase shifts, rotation."""

    kx: float
    ky: float
    ax: float
    ay: float
    alpha_rot: float


@dataclass
class RegressionDataset:
    """Stacked sample tensors with a deterministic train/validation split.

    inputs: (count, channels, n, n); outputs: (count, n, n).  Training
    indices come first, validation indices last.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    n: int
    seed: int
    train_idx: np.ndarray
    val_idx: np.ndarray

    @property
    def count(self) -> int:
        return self.inputs.shape[0]

    @property
    def channels(self) -> int:
        return self.inputs.shape[1]

    def flat_inputs(self) -> np.ndarray:
        return self.inputs.reshape(self.count, -1)

    def flat_outputs(self) -> np.ndarray:
        return self.outputs.reshape(self.count, -1)


def cell_centers(n: int) -> np.ndarray:
    """Coordinates of cell centers on [0, 1] with spacing h = 1/n."""
    return (np.arange(n) + 0.5) / n


@functools.lru_cache(maxsize=8)
def coordinate_grids(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center x and y grids (ij indexing), built once per n.

    Every caller shares the cached arrays, so they are read-only.
    """
    c = cell_centers(n)
    x, y = np.meshgrid(c, c, indexing="ij")
    x.flags.writeable = False
    y.flags.writeable = False
    return x, y


def sample_kappa(params: FieldParams, n: int) -> np.ndarray:
    """Diffusion coefficient 1.1 + cos(kx*pi*(x'+ax)) * cos(ky*pi*(y'+ay)).

    (x', y') rotates the domain by alpha about its center, so values stay
    in [0.1, 2.1] everywhere.
    """
    x, y = coordinate_grids(n)
    ca, sa = math.cos(params.alpha_rot), math.sin(params.alpha_rot)
    xr = ca * (x - 0.5) - sa * (y - 0.5) + 0.5
    yr = sa * (x - 0.5) + ca * (y - 0.5) + 0.5
    return 1.1 + np.cos(params.kx * np.pi * (xr + params.ax)) * np.cos(
        params.ky * np.pi * (yr + params.ay)
    )


def forcing(n: int) -> np.ndarray:
    """Fixed Gaussian load 32 * exp(-4 * ((x - 1/4)^2 + (y - 1/4)^2))."""
    x, y = coordinate_grids(n)
    return 32.0 * np.exp(-4.0 * ((x - 0.25) ** 2 + (y - 0.25) ** 2))


def assemble_operator(kappa: np.ndarray) -> "scipy.sparse.csr_matrix":
    """5-point operator with harmonic-mean face transmissibilities.

    Boundary faces sit half a cell from the boundary, giving the doubled
    cell-value coefficient that enforces u = 0 there.
    """
    import scipy.sparse as sp

    kappa = np.asarray(kappa, dtype=np.float64)
    n = kappa.shape[0]
    if kappa.shape != (n, n):
        raise ValueError(f"kappa must be square, got shape {kappa.shape}")
    if np.any(kappa <= 0):
        raise ValueError("kappa must be positive everywhere")
    h2 = (1.0 / n) ** 2
    tx = 2.0 * kappa[:-1, :] * kappa[1:, :] / (kappa[:-1, :] + kappa[1:, :])
    ty = 2.0 * kappa[:, :-1] * kappa[:, 1:] / (kappa[:, :-1] + kappa[:, 1:])

    idx = np.arange(n * n).reshape(n, n)
    diag = np.zeros((n, n))
    diag[:-1, :] += tx
    diag[1:, :] += tx
    diag[:, :-1] += ty
    diag[:, 1:] += ty
    diag[0, :] += 2.0 * kappa[0, :]
    diag[-1, :] += 2.0 * kappa[-1, :]
    diag[:, 0] += 2.0 * kappa[:, 0]
    diag[:, -1] += 2.0 * kappa[:, -1]

    rows = np.concatenate(
        [idx.ravel(), idx[:-1, :].ravel(), idx[1:, :].ravel(), idx[:, :-1].ravel(), idx[:, 1:].ravel()]
    )
    cols = np.concatenate(
        [idx.ravel(), idx[1:, :].ravel(), idx[:-1, :].ravel(), idx[:, 1:].ravel(), idx[:, :-1].ravel()]
    )
    vals = np.concatenate([diag.ravel(), -tx.ravel(), -tx.ravel(), -ty.ravel(), -ty.ravel()])
    return sp.csr_matrix((vals / h2, (rows, cols)), shape=(n * n, n * n))


def _stencil(kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients of ``assemble_operator`` for a (B, n, n) stack of kappa.

    Returns (diag, cx, cy), each (B, n, n): ``cx[b, i, j]`` couples cell
    (i, j) with (i + 1, j) and ``cy[b, i, j]`` couples it with (i, j + 1),
    both zero where that neighbour is off the grid.  The values are the CSR
    entries with the off-diagonal signs left positive.
    """
    n = kappa.shape[-1]
    h2 = (1.0 / n) ** 2
    tx = 2.0 * kappa[:, :-1, :] * kappa[:, 1:, :] / (kappa[:, :-1, :] + kappa[:, 1:, :])
    ty = 2.0 * kappa[:, :, :-1] * kappa[:, :, 1:] / (kappa[:, :, :-1] + kappa[:, :, 1:])
    diag = np.zeros(kappa.shape)
    diag[:, :-1, :] += tx
    diag[:, 1:, :] += tx
    diag[:, :, :-1] += ty
    diag[:, :, 1:] += ty
    diag[:, 0, :] += 2.0 * kappa[:, 0, :]
    diag[:, -1, :] += 2.0 * kappa[:, -1, :]
    diag[:, :, 0] += 2.0 * kappa[:, :, 0]
    diag[:, :, -1] += 2.0 * kappa[:, :, -1]
    cx = np.zeros(kappa.shape)
    cy = np.zeros(kappa.shape)
    cx[:, :-1, :] = tx / h2
    cy[:, :, :-1] = ty / h2
    return diag / h2, cx, cy


def _apply_stencil(diag, cx, cy, p, out, tmp) -> np.ndarray:
    """out = A p for every sample of a C-contiguous stack, without forming A.

    On the flattened stack the x and y neighbours sit n and 1 entries away.
    The zero coefficients at each grid edge cancel the terms that would
    reach into the next row or sample, so every product is one contiguous
    slice; ``tmp`` is scratch of the stack's size.
    """
    d, fx, fy, fp, fo, ft = (a.reshape(-1) for a in (diag, cx, cy, p, out, tmp))
    np.multiply(d, fp, out=fo)
    for c, k in ((fx, p.shape[-1]), (fy, 1)):
        np.multiply(c[:-k], fp[k:], out=ft[:-k])
        fo[:-k] -= ft[:-k]
        np.multiply(c[:-k], fp[:-k], out=ft[:-k])
        fo[k:] -= ft[:-k]
    return out


@functools.lru_cache(maxsize=8)
def _eigenbasis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of the constant-coefficient operator, per n.

    The 1-D factor of ``_stencil`` at kappa = 1 is the tridiagonal matrix
    with 2 on the diagonal, 3 at the two ends (the boundary face half a cell
    away) and -1 beside it.  Its orthonormal eigenvectors are the columns of
    ``q``, ``q[j, k - 1] = sqrt(2/n) sin(pi k (j + 1/2) / n)`` for
    k = 1..n with the last column divided by sqrt(2), and its eigenvalues are
    ``lam[k - 1] = 4 sin^2(pi k / 2n)``.  ``grid[i, j] = (lam[i] + lam[j]) n^2``
    are the eigenvalues of the 2-D operator.  The arrays are shared and
    read-only.
    """
    k = np.arange(1, n + 1)
    q = math.sqrt(2.0 / n) * np.sin(np.pi * np.outer(np.arange(n) + 0.5, k) / n)
    q[:, -1] /= math.sqrt(2.0)
    lam = 4.0 * np.sin(np.pi * k / (2 * n)) ** 2
    grid = (lam[:, None] + lam[None, :]) * (n * n)
    for a in (q, lam, grid):
        a.flags.writeable = False
    return q, lam, grid


def _precondition(s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """z = S L0^-1 (S r) for a (B, n, n) stack, with S = kappa^-1/2 given as ``s``.

    ``L0`` is the operator at kappa = 1, solved per sample by fast
    diagonalization, ``Q ((Q^T W Q) / grid) Q^T``.  At kappa = c the result
    is the exact solution A^-1 r.
    """
    q, _, grid = _eigenbasis(r.shape[-1])
    w = q.T @ (s * r) @ q
    w /= grid
    z = q @ w @ q.T
    z *= s
    return z


def solve_poisson(
    kappa: np.ndarray,
    f: np.ndarray,
    rtol: float = 1e-10,
    max_iter: int | None = None,
) -> np.ndarray:
    """Solve the discrete problem by preconditioned CG for one or many kappa.

    ``kappa`` is (n, n) or a stack (B, n, n) sharing the forcing ``f``; the
    result has kappa's shape.  The preconditioner is ``_precondition``: the
    operator is scaled by kappa^-1/2 on both sides and the constant-kappa
    operator is inverted exactly (Concus and Golub, 1973; fast
    diagonalization as in Lynch, Rice and Thomas, 1964), so the iteration
    count depends on how far kappa is from a constant, not on n.  Each
    sample stops on its own once both its updated residual and its true
    residual b - A u are at most rtol * ||b||; converged samples leave the
    working arrays while the rest run on.  Raises SolverError naming the
    first sample still above the target after ``max_iter`` iterations.
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    if kappa.ndim not in (2, 3) or kappa.shape[-2] != kappa.shape[-1]:
        raise ValueError(f"kappa must be square, got shape {kappa.shape}")
    n = kappa.shape[-1]
    stack = kappa.reshape(-1, n, n)
    if np.any(stack <= 0):
        raise ValueError("kappa must be positive everywhere")
    b = np.asarray(f, dtype=np.float64)
    if b.size != n * n:
        raise ValueError(f"forcing has {b.size} entries, expected {n * n}")
    b = b.reshape(n, n)
    u = np.zeros(stack.shape)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return u.reshape(kappa.shape)
    if max_iter is None:
        max_iter = max(1000, 10 * n * n)
    tol = rtol * bnorm

    diag, cx, cy = _stencil(stack)
    s = 1.0 / np.sqrt(stack)
    # working arrays are C-contiguous, so the stencil sees them as flat views
    active = np.arange(stack.shape[0])
    x = np.zeros(stack.shape)
    r = np.broadcast_to(b, stack.shape).copy()
    p = _precondition(s, r)
    ap = np.empty(stack.shape)
    tmp = np.empty(stack.shape)
    rs = np.einsum("bij,bij->b", r, r)
    rz = np.einsum("bij,bij->b", r, p)
    for _ in range(max_iter):
        _apply_stencil(diag, cx, cy, p, ap, tmp)
        alpha = (rz / np.einsum("bij,bij->b", p, ap))[:, None, None]
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, ap, out=tmp)
        rs = np.einsum("bij,bij->b", r, r)
        done = np.sqrt(rs) <= tol
        if done.any():
            # the updated r drifts from b - A x, so confirm on the true residual
            cand = np.flatnonzero(done)
            xc = x[cand]
            res = _apply_stencil(diag[cand], cx[cand], cy[cand], xc, np.empty_like(xc),
                                 np.empty_like(xc))
            np.subtract(b, res, out=res)
            done[cand] = np.sqrt(np.einsum("bij,bij->b", res, res)) <= tol
        if done.any():
            u[active[done]] = x[done]
            keep = ~done
            if not keep.any():
                return u.reshape(kappa.shape)
            active, x, r, p, s = active[keep], x[keep], r[keep], p[keep], s[keep]
            diag, cx, cy = diag[keep], cx[keep], cy[keep]
            ap, tmp = ap[: active.size], tmp[: active.size]
            rs, rz = rs[keep], rz[keep]
        z = _precondition(s, r)
        rz_new = np.einsum("bij,bij->b", r, z)
        p *= (rz_new / rz)[:, None, None]
        p += z
        rz = rz_new
    raise SolverError(
        int(active[0]),
        stack.shape[0],
        f"relative residual {math.sqrt(rs[0]) / bnorm:.3e} after {max_iter} iterations "
        f"(target {rtol:.1e}); {active.size} samples unconverged",
    )


def draw_params(seed: int, index: int) -> FieldParams:
    """Field parameters for one sample, from an independent substream."""
    rng = np.random.default_rng([seed, index])
    return FieldParams(
        kx=rng.uniform(0.5, 4.0),
        ky=rng.uniform(0.5, 4.0),
        ax=rng.uniform(0.0, 0.5),
        ay=rng.uniform(0.0, 0.5),
        alpha_rot=rng.uniform(0.0, np.pi / 2.0),
    )


def _solve_in_chunks(kappa: np.ndarray, f: np.ndarray, out: np.ndarray) -> None:
    """Solve a (count, n, n) kappa stack into ``out``, one CG call per chunk.

    A chunk holds about ``_CHUNK_CELLS`` grid cells, which keeps the working
    arrays of a batched solve small while amortising its per-iteration
    overhead over many samples.
    """
    n = kappa.shape[-1]
    chunk = max(1, _CHUNK_CELLS // (n * n))
    count = kappa.shape[0]
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        try:
            out[lo:hi] = solve_poisson(kappa[lo:hi], f)
        except SolverError as e:
            raise SolverError(
                lo + e.index, count, f"{e.detail} among samples {lo}..{hi - 1}"
            ) from e


def _split_sizes(count: int, val_fraction: float) -> int:
    if count < 2:
        raise ValueError("need at least 2 samples to split")
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie in (0, 1)")
    return min(count - 1, max(1, round(count * val_fraction)))


def generate_dataset(
    count: int,
    n: int,
    seed: int,
    val_fraction: float = 0.2,
    channels: int = 3,
) -> RegressionDataset:
    """Generate ``count`` samples on an n x n grid, deterministic in seed.

    Input channels are [kappa, x, y] by default, or [kappa, f, x, y] with
    ``channels=4``.  The forcing has no per-sample randomness, which is why
    the 3-channel form can drop it.
    """
    if channels not in (3, 4):
        raise ValueError("channels must be 3 or 4")
    n_val = _split_sizes(count, val_fraction)
    f = forcing(n)
    x, y = coordinate_grids(n)
    inputs = np.empty((count, channels, n, n))
    outputs = np.empty((count, n, n))
    for i in range(count):
        inputs[i, 0] = sample_kappa(draw_params(seed, i), n)
    inputs[:, 1:] = [x, y] if channels == 3 else [f, x, y]
    _solve_in_chunks(inputs[:, 0], f, outputs)
    return RegressionDataset(
        inputs=inputs,
        outputs=outputs,
        n=n,
        seed=seed,
        train_idx=np.arange(count - n_val),
        val_idx=np.arange(count - n_val, count),
    )


def write_dataset(ds: RegressionDataset, path) -> None:
    """Write the versioned little-endian binary container.

    Samples go out in blocks of about ``_IO_BLOCK_BYTES``, each sample's
    inputs then its outputs, through one reused block buffer, so the payload
    is never copied whole.
    """
    n_val = ds.val_idx.size
    header = _HEADER.pack(
        DATASET_MAGIC, DATASET_VERSION, ds.count, ds.n, ds.channels, n_val, ds.seed
    )
    inputs = ds.inputs.reshape(ds.count, -1)
    outputs = ds.outputs.reshape(ds.count, -1)
    width = inputs.shape[1] + outputs.shape[1]
    step = max(1, _IO_BLOCK_BYTES // (8 * width))
    buf = np.empty((min(step, ds.count), width), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        for lo in range(0, ds.count, step):
            block = buf[: min(step, ds.count - lo)]
            np.concatenate([inputs[lo : lo + step], outputs[lo : lo + step]], axis=1, out=block)
            fh.write(block)


def read_dataset(path) -> RegressionDataset:
    """Read a dataset container; raises DatasetFormatError on a bad file.

    The header and the file size are checked before any payload is read,
    and the payload is read straight into the one array that the returned
    dataset's ``inputs`` and ``outputs`` are views of.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise DatasetFormatError(f"{path}: file shorter than the header")
        magic, version, count, n, channels, n_val, seed = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != DATASET_MAGIC:
            raise DatasetFormatError(f"{path}: bad magic {magic!r}")
        if version != DATASET_VERSION:
            raise DatasetFormatError(f"{path}: unsupported version {version}")
        if n < 1 or channels < 1:
            raise DatasetFormatError(
                f"{path}: grid size {n} and channel count {channels} must be >= 1"
            )
        if not 1 <= n_val <= count - 1:
            raise DatasetFormatError(
                f"{path}: {n_val} validation samples of {count}; need 1 to {count - 1}"
            )
        per_sample = (channels + 1) * n * n
        expected = _HEADER.size + count * per_sample * 8
        if size != expected:
            raise DatasetFormatError(
                f"{path}: expected {expected} bytes for {count} samples, got {size}"
            )
        flat = np.empty((count, per_sample), dtype="<f8")
        got = fh.readinto(flat)
        if got != flat.nbytes:
            raise DatasetFormatError(
                f"{path}: expected {expected} bytes for {count} samples, "
                f"read {_HEADER.size + got}"
            )
    flat = flat.astype(np.float64, copy=False)
    inputs = flat[:, : channels * n * n].reshape(count, channels, n, n)
    outputs = flat[:, channels * n * n :].reshape(count, n, n)
    return RegressionDataset(
        inputs=inputs,
        outputs=outputs,
        n=n,
        seed=seed,
        train_idx=np.arange(count - n_val),
        val_idx=np.arange(count - n_val, count),
    )
