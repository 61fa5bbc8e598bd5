"""Poisson surrogate-regression data.

Each sample draws a rotated, shifted cosine-product diffusion field kappa on
the unit square, solves -div(kappa grad u) = f with a fixed Gaussian forcing
and homogeneous Dirichlet boundary, and packages [kappa, x, y] as input
channels with the solution grid as the target; the forcing is the same in
every sample, so it is not a channel.  The last ``n_val`` samples are the
validation split, which is all a dataset file stores of it.  The solver is a
cell-centered 5-point finite-difference scheme with harmonic-mean face
coefficients, solved by matrix-free preconditioned conjugate gradients over
stacks of samples.  The preconditioner scales by kappa^-1/2 on both sides
and inverts the constant-coefficient operator exactly by fast
diagonalization with the closed-form 1-D eigenvectors.  Sample i's field
parameters are uniforms 5i .. 5i + 4 of ``Generator(PCG64(seed))``, scaled to
the ``FieldParams`` ranges.  ``generate_dataset`` draws every sample's in one
call, then builds and solves the samples chunk by chunk, on as many threads
as the process has CPUs, and the data does not depend on the thread count
or the chunk size; ``draw_params`` reads one sample's by advancing the stream.
``assemble_operator`` builds the same operator as a sparse matrix for
reference; it is the one user of scipy, which it imports when called.
"""

import functools
import math
import mmap
import os
import struct
from dataclasses import astuple, dataclass

import numpy as np

from . import _threads

DATASET_MAGIC = b"MLFASDAT"
DATASET_VERSION = 1
_HEADER = struct.Struct("<8sIIIIIq")  # magic, version, count, n, channels, n_val, seed
_CHUNK_CELLS = 2**16  # grid cells per chunk task in generate_dataset
_IO_BLOCK_BYTES = 2**20  # payload bytes per write in write_dataset
# (low, high) of each FieldParams field, in field order
_PARAM_RANGES = ((0.5, 4.0), (0.5, 4.0), (0.0, 0.5), (0.0, 0.5), (0.0, np.pi / 2.0))

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


@dataclass(frozen=True)
class RegressionDataset:
    """Stacked sample tensors whose last ``n_val`` samples are the validation split.

    inputs: (count, channels, n, n); outputs: (count, n, n).  These fields
    are what a dataset file holds, so every dataset survives
    ``write_dataset`` then ``read_dataset``.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    seed: int
    n_val: int

    def __post_init__(self):
        shape = self.inputs.shape
        if (len(shape) != 4 or 0 in shape[1:] or shape[2] != shape[3]
                or self.outputs.shape != (shape[0], *shape[2:])):
            raise ValueError(
                f"inputs {shape} and outputs {self.outputs.shape} are not "
                "(count, channels, n, n) and (count, n, n)"
            )
        if not 1 <= self.n_val <= self.count - 1:
            raise ValueError(
                f"{self.n_val} validation samples of {self.count}; need 1 to {self.count - 1}"
            )
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError(f"seed {self.seed} does not fit the header's signed 64-bit field")

    @property
    def count(self) -> int:
        return self.inputs.shape[0]

    @property
    def channels(self) -> int:
        return self.inputs.shape[1]

    @property
    def n(self) -> int:
        return self.inputs.shape[-1]

    @property
    def train_idx(self) -> np.ndarray:
        return np.arange(self.count - self.n_val)

    @property
    def val_idx(self) -> np.ndarray:
        return np.arange(self.count - self.n_val, self.count)

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
    return _kappa_fields(np.array(astuple(params)).reshape(5, 1), n, np.empty((1, n, n)))[0]


def _kappa_fields(params: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """``sample_kappa`` of each column of the (5, B) ``params``, into the (B, n, n) ``out``.

    The rows of ``params`` are the ``FieldParams`` fields in order.  They
    become (B, 1, 1) columns, so every grid value goes through the same float
    operations in the same order whatever the batch.  The rotation's cosine
    and sine come from ``math``, one sample at a time, since numpy's
    vectorized kernels may round them differently.
    """
    x, y = coordinate_grids(n)
    kx, ky, ax, ay = (row.reshape(-1, 1, 1) for row in params[:4])
    alpha = params[4].tolist()
    ca = np.array([math.cos(a) for a in alpha]).reshape(-1, 1, 1)
    sa = np.array([math.sin(a) for a in alpha]).reshape(-1, 1, 1)
    xc, yc = x - 0.5, y - 0.5
    xr, yr = _workspace(2, out.shape)
    # x' = ca xc - sa yc + 1/2 and y' = sa xc + ca yc + 1/2, the second
    # product of each going through ``out``
    np.multiply(ca, xc, out=xr)
    xr -= np.multiply(sa, yc, out=out)
    xr += 0.5
    np.multiply(sa, xc, out=yr)
    yr += np.multiply(ca, yc, out=out)
    yr += 0.5
    xr += ax
    xr *= kx * np.pi
    yr += ay
    yr *= ky * np.pi
    np.multiply(np.cos(xr, out=xr), np.cos(yr, out=yr), out=out)
    out += 1.1
    return out


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


def _stencil(kappa: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients of ``assemble_operator`` for a (B, n, n) stack of kappa.

    Returns (diag, cx, cy), each (B, n, n): ``cx[b, i, j]`` couples cell
    (i, j) with (i + 1, j) and ``cy[b, i, j]`` couples it with (i, j + 1),
    both zero where that neighbour is off the grid.  The values are the CSR
    entries with the off-diagonal signs left positive.  ``out`` is five
    zero-filled arrays of kappa's shape, the three results and two of
    scratch; new ones when not given.
    """
    diag, cx, cy, num, den = [np.zeros(kappa.shape) for _ in range(5)] if out is None else out
    n = kappa.shape[-1]
    h2 = (1.0 / n) ** 2
    faces = ((np.s_[:, :-1, :], np.s_[:, 1:, :], cx), (np.s_[:, :, :-1], np.s_[:, :, 1:], cy))
    for lo, hi, c in faces:
        # harmonic-mean face coefficient 2 k0 k1 / (k0 + k1)
        k0, k1 = kappa[lo], kappa[hi]
        t = num.reshape(-1)[: k0.size].reshape(k0.shape)
        np.multiply(k0, 2.0, out=t)
        t *= k1
        t /= np.add(k0, k1, out=den.reshape(-1)[: k0.size].reshape(k0.shape))
        diag[lo] += t
        diag[hi] += t
        np.divide(t, h2, out=c[lo])
    diag[:, 0, :] += 2.0 * kappa[:, 0, :]
    diag[:, -1, :] += 2.0 * kappa[:, -1, :]
    diag[:, :, 0] += 2.0 * kappa[:, :, 0]
    diag[:, :, -1] += 2.0 * kappa[:, :, -1]
    diag /= h2
    return diag, cx, cy


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
    away) and -1 next to it.  Its orthonormal eigenvectors are the columns of
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


def _precondition(s, r, out=None, work=None) -> np.ndarray:
    """z = S L0^-1 (S r) for a (B, n, n) stack, with S = kappa^-1/2 given as ``s``.

    ``L0`` is the operator at kappa = 1, solved per sample by fast
    diagonalization, ``Q ((Q^T W Q) / grid) Q^T``.  At kappa = c the result
    is the exact solution A^-1 r.  The result goes into ``out`` and ``work``
    is scratch, both of r's shape, apart from r and s, and new when not given.
    """
    q, _, grid = _eigenbasis(r.shape[-1])
    out = np.empty(r.shape) if out is None else out
    work = np.empty(r.shape) if work is None else work
    np.multiply(s, r, out=out)
    np.matmul(q.T, out, out=work)
    np.matmul(work, q, out=out)
    out /= grid
    np.matmul(q, out, out=work)
    np.matmul(work, q.T, out=out)
    out *= s
    return out


def _workspace(count: int, shape: tuple[int, ...]) -> list[np.ndarray]:
    """``count`` zero-filled float64 arrays of ``shape`` in one anonymous memory map.

    The map goes back to the operating system once its last array is gone.
    Memory from ``np.empty`` would stay with the allocating thread's malloc
    arena instead, so a helper thread's solves would leave their working
    set resident for the rest of the process.
    """
    size = math.prod(shape)
    flat = np.frombuffer(mmap.mmap(-1, 8 * max(1, count * size)), dtype=np.float64)
    return [flat[i * size : (i + 1) * size].reshape(shape) for i in range(count)]


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
    working arrays while the rest run on.  Each sample's arithmetic is the
    same whatever other samples share its stack.  The working set is ten
    arrays of the stack's size, the result included, in memory maps that go
    back to the system when they are dropped, and every step writes into
    them.  Raises SolverError naming the first sample still above the target
    after ``max_iter`` iterations.
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
    (u,) = _workspace(1, stack.shape)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return u.reshape(kappa.shape)
    if max_iter is None:
        max_iter = max(1000, 10 * n * n)
    tol = rtol * bnorm

    # working arrays are C-contiguous, so the stencil sees them as flat views;
    # ``ap`` also holds the preconditioned residual, which is spent before
    # the next stencil product
    diag, cx, cy, s, x, r, p, ap, tmp = _workspace(9, stack.shape)
    _stencil(stack, (diag, cx, cy, ap, tmp))
    np.divide(1.0, np.sqrt(stack, out=s), out=s)
    active = np.arange(stack.shape[0])
    r[...] = b
    _precondition(s, r, p, tmp)
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
            k = cand.size
            res = _apply_stencil(diag[cand], cx[cand], cy[cand], x[cand], ap[:k], tmp[:k])
            np.subtract(b, res, out=res)
            done[cand] = np.sqrt(np.einsum("bij,bij->b", res, res)) <= tol
        if done.any():
            u[active[done]] = x[done]
            keep = np.flatnonzero(~done)
            if keep.size == 0:
                return u.reshape(kappa.shape)
            # move the running samples to the front of each working array,
            # gathering through the free ``tmp``
            k = keep.size
            work = (x, r, p, s, diag, cx, cy)
            for a in work:
                a[:k] = np.take(a, keep, axis=0, out=tmp[:k], mode="clip")
            x, r, p, s, diag, cx, cy, ap, tmp = (a[:k] for a in work + (ap, tmp))
            active, rs, rz = active[keep], rs[keep], rz[keep]
        z = _precondition(s, r, ap, tmp)
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
    """Field parameters of sample ``index`` of the data generated with ``seed``.

    Row ``index`` of ``generate_dataset``'s draw, read by advancing the
    stream past the 5 * ``index`` uniforms of the samples before it.
    """
    if index < 0:
        raise ValueError(f"sample index {index} is negative")
    return FieldParams(*_draw_rows(seed, index, 1)[0].tolist())


def _draw_rows(seed: int, start: int, count: int) -> np.ndarray:
    """Field parameters of samples ``start`` .. ``start + count - 1``, one row each.

    Sample i's row is uniforms 5i .. 5i + 4 of ``Generator(PCG64(seed))``,
    each mapped to its ``FieldParams`` range as ``low + (high - low) * u``
    by two ufuncs, so no multiply-add is fused and a row's bits do not
    depend on the rows drawn with it.  ``seed`` lies in [0, 2^63), the
    range of the dataset header's seed field.
    """
    if not 0 <= seed < 2**63:
        raise ValueError(f"seed {seed} is outside [0, 2**63)")
    bits = np.random.PCG64(seed).advance(len(_PARAM_RANGES) * start)
    u = np.random.Generator(bits).random((count, len(_PARAM_RANGES)))
    low, high = np.array(_PARAM_RANGES).T
    return np.add(low, np.multiply(high - low, u, out=u), out=u)


def _solve_in_chunks(
    kappa: np.ndarray, f: np.ndarray, out: np.ndarray, params: np.ndarray | None = None
) -> None:
    """Solve a (count, n, n) kappa stack into ``out``, one CG call per chunk.

    With the (5, count) field parameters ``params``, a chunk first builds its
    samples' fields into its rows of ``kappa``.  A chunk holds about
    ``_CHUNK_CELLS`` grid cells, which keeps a solve's working set small
    while amortising its per-iteration overhead over many samples.  The
    chunks run in order through ``_threads.run_in_order``, on the calling
    thread and one helper thread per further CPU the process may use; a CPU
    then holds at most one chunk's working set, about ten arrays of the
    chunk's size.  Every sample's bits are the same for any thread count
    and any chunk size.  Once a chunk fails no new one starts, and the error
    of the first failed chunk is raised after every started chunk has
    ended.  A chunk reads ``solve_poisson`` from this module at call time,
    where the benchmark's tracer and the tests replace it.
    """
    n = kappa.shape[-1]
    chunk = max(1, _CHUNK_CELLS // (n * n))
    count = kappa.shape[0]

    def solve(lo):
        hi = min(lo + chunk, count)
        if params is not None:
            _kappa_fields(params[:, lo:hi], n, kappa[lo:hi])
        try:
            out[lo:hi] = solve_poisson(kappa[lo:hi], f)
        except SolverError as e:
            raise SolverError(
                lo + e.index, count, f"{e.detail} among samples {lo}..{hi - 1}"
            ) from e

    _threads.run_in_order(solve, range(0, count, chunk))


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
) -> RegressionDataset:
    """Generate ``count`` samples on an n x n grid, deterministic in seed.

    Input channels are [kappa, x, y].  Every sample's field parameters are
    drawn first, on the calling thread, in one call: sample i's are
    uniforms 5i .. 5i + 4 of ``Generator(PCG64(seed))`` (``_draw_rows``), so
    a larger ``count`` extends the data of a smaller one.  A seed outside
    [0, 2^63) raises ValueError before any solve.  The samples are then
    built and solved in chunks on every CPU the process may use
    (``_solve_in_chunks``); the result is the same, byte for byte, for any
    CPU count.  A grid size n below 1 raises ValueError before any work.
    """
    if n < 1:
        raise ValueError(f"grid size n must be >= 1, got {n}")
    n_val = _split_sizes(count, val_fraction)
    params = _draw_rows(seed, 0, count).T
    f = forcing(n)
    inputs = np.empty((count, 3, n, n))
    outputs = np.empty((count, n, n))
    inputs[:, 1:] = coordinate_grids(n)
    _solve_in_chunks(inputs[:, 0], f, outputs, params)
    return RegressionDataset(inputs=inputs, outputs=outputs, seed=seed, n_val=n_val)


def write_dataset(ds: RegressionDataset, path) -> None:
    """Write the versioned little-endian binary container.

    Samples go out in blocks of about ``_IO_BLOCK_BYTES``, each sample's
    inputs then its outputs, through one reused block buffer, so the payload
    is never copied whole.
    """
    header = _HEADER.pack(
        DATASET_MAGIC, DATASET_VERSION, ds.count, ds.n, ds.channels, ds.n_val, ds.seed
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
    return RegressionDataset(inputs=inputs, outputs=outputs, seed=seed, n_val=n_val)
