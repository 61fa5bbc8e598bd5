"""Diffusion-field sampling, the finite-difference solver, and dataset IO."""

import hashlib
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlfas.poisson as poisson
from mlfas.poisson import (
    DatasetFormatError,
    FieldParams,
    RegressionDataset,
    SolverError,
    assemble_operator,
    cell_centers,
    forcing,
    generate_dataset,
    read_dataset,
    sample_kappa,
    solve_poisson,
    write_dataset,
)

field_params = st.builds(
    FieldParams,
    kx=st.floats(0.5, 4.0, exclude_min=True, exclude_max=True),
    ky=st.floats(0.5, 4.0, exclude_min=True, exclude_max=True),
    ax=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    ay=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    alpha_rot=st.floats(0.0, math.pi / 2, exclude_min=True, exclude_max=True),
)


class TestKappa:
    def test_no_rotation_no_shift_is_plain_product(self):
        n = 8
        params = FieldParams(kx=2.0, ky=3.0, ax=0.0, ay=0.0, alpha_rot=0.0)
        k = sample_kappa(params, n)
        c = cell_centers(n)
        for i in range(n):
            for j in range(n):
                ref = 1.1 + math.cos(2 * math.pi * c[i]) * math.cos(3 * math.pi * c[j])
                assert k[i, j] == pytest.approx(ref, abs=1e-14)

    def test_center_value_rotation_invariant(self):
        # the rotation fixes the domain center, where x' = y' = 1/2
        n = 9  # odd grid puts a cell center at (0.5, 0.5)
        for alpha in (0.0, 0.3, 1.2):
            params = FieldParams(kx=1.5, ky=2.5, ax=0.2, ay=0.1, alpha_rot=alpha)
            k = sample_kappa(params, n)
            ref = 1.1 + math.cos(1.5 * math.pi * 0.7) * math.cos(2.5 * math.pi * 0.6)
            assert k[n // 2, n // 2] == pytest.approx(ref, abs=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(params=field_params)
    def test_range_bound(self, params):
        k = sample_kappa(params, 8)
        assert k.min() >= 0.1 - 1e-12
        assert k.max() <= 2.1 + 1e-12


class TestForcing:
    def test_peak_value(self):
        # (0.25, 0.25) is a cell center for n = 10, where the exponent vanishes
        f = forcing(10)
        c = cell_centers(10)
        i = int(np.where(np.isclose(c, 0.25))[0][0])
        assert f[i, i] == pytest.approx(32.0, rel=1e-15)

    def test_value_at_three_quarters(self):
        f = forcing(10)
        c = cell_centers(10)
        i = int(np.where(np.isclose(c, 0.75))[0][0])
        assert f[i, i] == pytest.approx(32.0 * math.exp(-2.0), rel=1e-15)

    def test_positive_everywhere(self):
        assert forcing(16).min() > 0.0


class TestSolver:
    def test_zero_forcing_gives_zero(self):
        k = sample_kappa(FieldParams(1.0, 1.0, 0.1, 0.1, 0.2), 10)
        u = solve_poisson(k, np.zeros((10, 10)))
        assert np.all(u == 0.0)

    def test_manufactured_solution_second_order(self):
        errs = {}
        for n in (16, 32):
            c = cell_centers(n)
            x, y = np.meshgrid(c, c, indexing="ij")
            ustar = np.sin(np.pi * x) * np.sin(np.pi * y)
            f = 2 * np.pi**2 * ustar
            u = solve_poisson(np.ones((n, n)), f)
            errs[n] = np.abs(u - ustar).max()
        ratio = errs[16] / errs[32]
        assert 3.5 <= ratio <= 4.5

    def test_discrete_maximum_principle(self):
        rng = np.random.default_rng(3)
        k = sample_kappa(FieldParams(3.0, 2.0, 0.3, 0.2, 0.7), 12)
        f = rng.uniform(0.0, 5.0, size=(12, 12))
        u = solve_poisson(k, f)
        assert u.min() >= 0.0

    def test_energy_consistency(self):
        n = 16
        k = sample_kappa(FieldParams(2.5, 1.5, 0.1, 0.4, 1.0), n)
        f = forcing(n)
        u = solve_poisson(k, f)
        a = assemble_operator(k)
        res = np.linalg.norm(f.ravel() - a @ u.ravel()) / np.linalg.norm(f.ravel())
        assert res <= 1e-9

    def test_nonpositive_kappa_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            assemble_operator(np.zeros((4, 4)))


class TestBatchedSolver:
    RTOL = 1e-10

    def test_stencil_matches_reference_operator(self):
        rng = np.random.default_rng(8)
        for n in (1, 4, 7, 16):
            k = rng.uniform(0.1, 2.1, size=(3, n, n))
            p = rng.normal(size=(3, n, n))
            out = poisson._apply_stencil(*poisson._stencil(k), p, np.empty_like(p),
                                         np.empty_like(p))
            for i in range(3):
                ref = assemble_operator(k[i]) @ p[i].ravel()
                assert np.linalg.norm(out[i].ravel() - ref) <= 1e-12 * np.linalg.norm(ref)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.sampled_from((4, 7, 16)),
           batch=st.sampled_from(("one", "two", "straddle")))
    def test_batched_solve_matches_reference(self, data, n, batch):
        chunk = poisson._CHUNK_CELLS // (n * n)
        count = {"one": 1, "two": 2, "straddle": chunk + 1}[batch]
        params = data.draw(st.lists(field_params, min_size=min(count, 3), max_size=3))
        kappa = np.stack([sample_kappa(params[i % len(params)], n) for i in range(count)])
        f = forcing(n)
        u = np.empty_like(kappa)
        poisson._solve_in_chunks(kappa, f, u)
        fnorm = np.linalg.norm(f)
        for i in range(count):
            res = np.linalg.norm(f.ravel() - assemble_operator(kappa[i]) @ u[i].ravel())
            assert res <= self.RTOL * fnorm
        # the last sample of the first chunk and the lone sample of the second
        for i in sorted({0, count - 2, count - 1} - {-1}):
            alone = solve_poisson(kappa[i], f)
            assert np.linalg.norm(alone - u[i]) <= 1e-12 * np.linalg.norm(alone)

    def test_stall_names_first_unconverged_sample(self):
        # a constant-kappa 2x2 grid with a constant load converges in one
        # step; the asymmetric kappa needs all four
        hard = np.array([[0.1, 1.0], [2.0, 0.5]])
        easy = np.ones((2, 2))
        stack = np.stack([easy, easy, hard, easy, hard])
        with pytest.raises(SolverError, match="stalled on sample 2 of 5: ") as info:
            solve_poisson(stack, np.ones((2, 2)), max_iter=3)
        assert info.value.index == 2
        assert solve_poisson(stack, np.ones((2, 2)), max_iter=4).shape == stack.shape

    def test_stall_in_later_chunk_names_dataset_index(self, monkeypatch):
        reference = poisson.solve_poisson

        def stall_on_second_chunk(kappa, f):
            if kappa.shape[0] == 2:
                return reference(kappa, f, max_iter=0)
            return reference(kappa, f)

        monkeypatch.setattr(poisson, "_CHUNK_CELLS", 3 * 4 * 4)
        monkeypatch.setattr(poisson, "solve_poisson", stall_on_second_chunk)
        with pytest.raises(SolverError) as info:
            generate_dataset(5, 4, seed=1)
        # one index for the sample, counted in the dataset, not in its chunk
        assert str(info.value).startswith("conjugate gradients stalled on sample 3 of 5: ")
        assert str(info.value).endswith(" among samples 3..4")
        assert info.value.index == 3

    def test_one_nonpositive_kappa_in_stack_rejected(self):
        stack = np.ones((3, 4, 4))
        stack[1, 2, 3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            solve_poisson(stack, forcing(4))

    def test_non_square_stack_rejected(self):
        with pytest.raises(ValueError, match="square"):
            solve_poisson(np.ones((2, 4, 5)), np.ones(20))

    def test_zero_forcing_gives_zero_stack(self):
        stack = np.ones((3, 5, 5))
        u = solve_poisson(stack, np.zeros((5, 5)))
        assert u.shape == stack.shape and np.all(u == 0.0)


def count_stencil_calls(monkeypatch) -> list[int]:
    """Count ``_apply_stencil`` calls, residual confirmations included."""
    calls = [0]
    reference = poisson._apply_stencil

    def counted(*args):
        calls[0] += 1
        return reference(*args)

    monkeypatch.setattr(poisson, "_apply_stencil", counted)
    return calls


class TestPreconditioner:
    @pytest.mark.parametrize("n", (1, 2, 3, 16, 32))
    def test_closed_form_eigenpairs_of_the_1d_operator(self, n):
        t = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        t[0, 0] += 1.0
        t[-1, -1] += 1.0
        q, lam, grid = poisson._eigenbasis(n)
        np.testing.assert_allclose(q.T @ q, np.eye(n), rtol=0, atol=1e-14)
        np.testing.assert_allclose(t @ q, q * lam, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(grid, (lam[:, None] + lam[None, :]) * (n * n))
        # the 2-D constant-kappa stencil is n^2 (T x I + I x T)
        diag, cx, cy = poisson._stencil(np.ones((1, n, n)))
        e = np.zeros((1, n, n))
        e[0, 0, 0] = 1.0
        col = poisson._apply_stencil(diag, cx, cy, e, np.empty_like(e), np.empty_like(e))
        ref = n * n * (np.kron(t, np.eye(n)) + np.kron(np.eye(n), t))[:, 0]
        np.testing.assert_allclose(col.ravel(), ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("c", (0.1, 1.0, 2.1))
    @pytest.mark.parametrize("n", (2, 7, 16))
    def test_constant_kappa_ends_after_one_step(self, monkeypatch, n, c):
        # the preconditioner inverts c * L0 exactly, so one step solves the
        # system; the second stencil call is the true-residual check
        calls = count_stencil_calls(monkeypatch)
        f = forcing(n)
        u = solve_poisson(np.full((3, n, n), c), f)
        assert calls[0] == 2
        res = np.linalg.norm(f.ravel() - assemble_operator(np.full((n, n), c)) @ u[1].ravel())
        assert res <= 1e-10 * np.linalg.norm(f)

    @settings(max_examples=40, deadline=None)
    @given(params=st.lists(field_params, min_size=1, max_size=3),
           n=st.sampled_from((1, 3, 8, 16)), seed=st.integers(0, 2**32 - 1))
    def test_preconditioner_is_symmetric(self, params, n, seed):
        rng = np.random.default_rng(seed)
        kappa = np.stack([sample_kappa(p, n) for p in params])
        s = 1.0 / np.sqrt(kappa)
        a = rng.normal(size=kappa.shape)
        b = rng.normal(size=kappa.shape)
        ma, mb = poisson._precondition(s, a), poisson._precondition(s, b)
        for i in range(len(params)):
            lhs, rhs = np.vdot(a[i], mb[i]), np.vdot(ma[i], b[i])
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(a[i]) * np.linalg.norm(mb[i])

    def test_iteration_guard_on_one_chunk(self, monkeypatch):
        # 33 stencil calls with the preconditioner; plain CG made 216
        n = 32
        kappa = np.stack([sample_kappa(poisson.draw_params(7, i), n) for i in range(16)])
        calls = count_stencil_calls(monkeypatch)
        solve_poisson(kappa, forcing(n))
        assert calls[0] <= 60


class TestGenerate:
    def test_split_arithmetic(self):
        ds = generate_dataset(10, 6, seed=1, val_fraction=0.2)
        assert ds.train_idx.size == 8
        assert ds.val_idx.size == 2
        assert np.intersect1d(ds.train_idx, ds.val_idx).size == 0
        assert np.union1d(ds.train_idx, ds.val_idx).size == 10

    def test_deterministic_under_seed(self, tmp_path):
        a = generate_dataset(6, 8, seed=9)
        b = generate_dataset(6, 8, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.outputs, b.outputs)
        pa, pb = tmp_path / "a.mlfasdat", tmp_path / "b.mlfasdat"
        write_dataset(a, pa)
        write_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_channel_layout(self):
        ds = generate_dataset(3, 5, seed=2)
        assert ds.inputs.shape == (3, 3, 5, 5)
        assert ds.outputs.shape == (3, 5, 5)
        x, y = np.meshgrid(cell_centers(5), cell_centers(5), indexing="ij")
        np.testing.assert_array_equal(ds.inputs[0, 1], x)
        np.testing.assert_array_equal(ds.inputs[0, 2], y)

    def test_four_channel_option_includes_forcing(self):
        ds = generate_dataset(2, 5, seed=2, channels=4)
        np.testing.assert_array_equal(ds.inputs[0, 1], forcing(5))

    def test_outputs_solve_the_sampled_problem(self):
        ds = generate_dataset(2, 8, seed=5)
        a = assemble_operator(ds.inputs[1, 0])
        res = np.linalg.norm(forcing(8).ravel() - a @ ds.outputs[1].ravel())
        assert res <= 1e-8 * np.linalg.norm(forcing(8).ravel())


def use_cpus(monkeypatch, count):
    """Let ``generate_dataset`` see ``count`` usable CPUs."""
    monkeypatch.setattr(poisson.os, "sched_getaffinity", lambda pid: set(range(count)))


def dataset_bytes(ds, tmp_path) -> bytes:
    path = tmp_path / "ds.mlfasdat"
    write_dataset(ds, path)
    return path.read_bytes()


def arithmetic_fingerprint() -> str:
    """Digest of the numpy and BLAS kernels whose rounding the data's bits carry."""
    rng = np.random.default_rng(0)
    a = rng.uniform(-20.0, 20.0, size=(7, 12, 12))
    q = rng.normal(size=(12, 12))
    parts = (np.cos(a), np.sin(a[0, 0]), np.sqrt(np.abs(a)), q.T @ a, a @ q,
             np.einsum("bij,bij->b", a, a))
    raw = b"".join(np.ascontiguousarray(v).tobytes() for v in parts)
    return hashlib.sha256(raw).hexdigest()[:16]


class TestParallelGenerate:
    """Chunks solved on worker threads give the serial data, bit for bit."""

    # the file written for generate_dataset(37, 12, seed=5) before chunks ran
    # on threads (serial 2^14-cell chunks, per-sample kappa), on a host
    # whose kernels have the fingerprint below
    REFERENCE = ("5c19afb3e7d11a3f",
                 "5930b910915cba6c2139bf8b10652c20ea9111b557eee4220c47194a76ee51f1")

    @pytest.mark.parametrize("cells", (None, 5 * 144, 144))
    @pytest.mark.parametrize("cpus", (1, 2, 3))
    def test_bytes_match_the_serial_reference(self, monkeypatch, tmp_path, cpus, cells):
        if arithmetic_fingerprint() != self.REFERENCE[0]:
            pytest.skip("this host's cos or dgemm kernels round differently from the reference's")
        use_cpus(monkeypatch, cpus)
        if cells is not None:
            monkeypatch.setattr(poisson, "_CHUNK_CELLS", cells)
        raw = dataset_bytes(generate_dataset(37, 12, seed=5), tmp_path)
        assert hashlib.sha256(raw).hexdigest() == self.REFERENCE[1]

    def test_equal_bytes_for_any_worker_count_and_chunk_size(self, monkeypatch, tmp_path):
        # eight threads on short switch intervals stress the shared hand-out
        n, count = 8, 41
        seen = set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 3, 8):
                for samples in (1, 4, 7, count, 2 * count):
                    use_cpus(monkeypatch, cpus)
                    monkeypatch.setattr(poisson, "_CHUNK_CELLS", samples * n * n)
                    seen.add(dataset_bytes(generate_dataset(count, n, seed=13), tmp_path))
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 1

    @staticmethod
    def chunk_starts(count, n, seed):
        """Map each sample's kappa bytes to its index, to tell which chunk a call got."""
        ds = generate_dataset(count, n, seed=seed)
        return {ds.inputs[i, 0].tobytes(): i for i in range(count)}

    def test_stall_on_a_worker_names_the_first_stalled_sample(self, monkeypatch):
        # chunks of 3 on three threads, which all start one of the first three
        # chunks before any goes on; every chunk on a worker stalls
        count, n = 14, 4
        index = self.chunk_starts(count, n, seed=1)
        reference = poisson.solve_poisson
        started = threading.Barrier(3, timeout=30)
        calls = {}

        def stub(kappa, f):
            lo = index[kappa[0].tobytes()]
            calls[lo] = threading.current_thread()
            if lo < 9:
                started.wait()
            if calls[lo] is threading.main_thread():
                return reference(kappa, f)
            if lo == min(k for k in (0, 3, 6) if calls[k] is not threading.main_thread()):
                time.sleep(0.2)  # the later chunk fails first
            return reference(kappa, f, max_iter=0)

        use_cpus(monkeypatch, 3)
        monkeypatch.setattr(poisson, "_CHUNK_CELLS", 3 * n * n)
        monkeypatch.setattr(poisson, "solve_poisson", stub)
        with pytest.raises(SolverError) as info:
            generate_dataset(count, n, seed=1)
        assert {0, 3, 6} <= calls.keys()
        lo = min(k for k, t in calls.items() if t is not threading.main_thread())
        assert info.value.index == lo
        assert str(info.value).startswith(
            f"conjugate gradients stalled on sample {lo} of {count}: ")
        assert str(info.value).endswith(f" among samples {lo}..{lo + 2}")

    def test_no_thread_outlives_the_call(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        monkeypatch.setattr(poisson, "_CHUNK_CELLS", 2 * 16)
        before = threading.active_count()
        generate_dataset(20, 4, seed=2)
        assert threading.active_count() == before
        reference = poisson.solve_poisson
        monkeypatch.setattr(poisson, "solve_poisson",
                            lambda kappa, f: reference(kappa, f, max_iter=0))
        with pytest.raises(SolverError):
            generate_dataset(20, 4, seed=2)
        assert threading.active_count() == before

    def test_caller_errstate_holds_in_the_workers(self, monkeypatch):
        reference = poisson.solve_poisson
        both_started = threading.Barrier(2, timeout=30)
        seen = []

        def stub(kappa, f):
            thread = threading.current_thread()
            if all(t is not thread for t, _ in seen):
                seen.append((thread, np.geterr()))
                both_started.wait()  # each thread's first chunk waits for the other's
            seen.append((thread, np.geterr()))
            return reference(kappa, f)

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(poisson, "_CHUNK_CELLS", 2 * 16)
        monkeypatch.setattr(poisson, "solve_poisson", stub)
        with np.errstate(all="raise"):
            generate_dataset(20, 4, seed=2)
        assert len(seen) == 12
        assert len({t for t, _ in seen}) == 2
        assert all(set(err.values()) == {"raise"} for _, err in seen)


class TestDatasetIO:
    def test_roundtrip_bitwise(self, tmp_path):
        ds = generate_dataset(5, 6, seed=4)
        path = tmp_path / "ds.mlfasdat"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.outputs, ds.outputs)
        assert np.array_equal(back.train_idx, ds.train_idx)
        assert np.array_equal(back.val_idx, ds.val_idx)
        assert back.seed == ds.seed
        second = tmp_path / "ds2.mlfasdat"
        write_dataset(back, second)
        assert path.read_bytes() == second.read_bytes()

    def test_file_size_arithmetic(self, tmp_path):
        n = 7
        ds = generate_dataset(10, n, seed=3)
        path = tmp_path / "ds.mlfasdat"
        write_dataset(ds, path)
        header = 8 + 5 * 4 + 8
        assert path.stat().st_size == header + 10 * (3 + 1) * n * n * 8

    def test_corrupted_magic_rejected(self, tmp_path):
        ds = generate_dataset(2, 4, seed=0)
        path = tmp_path / "ds.mlfasdat"
        write_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTMLFAS"
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="magic"):
            read_dataset(path)

    def test_truncated_file_rejected(self, tmp_path):
        ds = generate_dataset(2, 4, seed=0)
        path = tmp_path / "ds.mlfasdat"
        write_dataset(ds, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(DatasetFormatError, match="bytes"):
            read_dataset(path)

    # a 2-sample 4 x 4 file: a 36-byte header and 1024 payload bytes
    @pytest.mark.parametrize("cut, match", [
        (8, r"expected 1060 bytes for 2 samples, got 1068$"),  # oversized
        (36 - 1060, r"expected 1060 bytes for 2 samples, got 36$"),  # header only
        (35 - 1060, r"file shorter than the header$"),
        (-1060, r"file shorter than the header$"),  # empty
    ])
    def test_wrong_file_size_rejected_before_reading(self, tmp_path, cut, match):
        path = tmp_path / "ds.mlfasdat"
        write_dataset(generate_dataset(2, 4, seed=0), path)
        raw = path.read_bytes()
        assert len(raw) == 1060
        path.write_bytes(raw[:cut] if cut < 0 else raw + bytes(cut))
        with pytest.raises(DatasetFormatError, match=match):
            read_dataset(path)

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        # the file shrinks between the size check and the read
        path = tmp_path / "ds.mlfasdat"
        write_dataset(generate_dataset(2, 4, seed=0), path)
        path.write_bytes(path.read_bytes()[:-16])
        real_fstat = poisson.os.fstat

        class Grown:
            def __init__(self, fd):
                self.st_size = real_fstat(fd).st_size + 16

        monkeypatch.setattr(poisson.os, "fstat", Grown)
        with pytest.raises(DatasetFormatError, match=r"expected 1060 bytes .* read 1044$"):
            read_dataset(path)

    @staticmethod
    def random_dataset(count=1000, n=16):
        """A dataset of random values: an 8.2 MB payload, written as seven
        full 1 MiB blocks and a partial one."""
        rng = np.random.default_rng(71)
        return RegressionDataset(
            inputs=rng.normal(size=(count, 3, n, n)), outputs=rng.normal(size=(count, n, n)),
            n=n, seed=5, train_idx=np.arange(count - 3), val_idx=np.arange(count - 3, count),
        )

    @staticmethod
    def traced_peak(call):
        import tracemalloc

        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_copies_one_block_and_keeps_the_bytes(self, tmp_path):
        ds = self.random_dataset()
        path = tmp_path / "ds.mlfasdat"
        _, peak = self.traced_peak(lambda: write_dataset(ds, path))
        payload = np.concatenate(
            [ds.inputs.reshape(ds.count, -1), ds.outputs.reshape(ds.count, -1)], axis=1
        ).astype("<f8")
        header = poisson._HEADER.pack(b"MLFASDAT", 1, ds.count, ds.n, 3, 3, ds.seed)
        assert path.read_bytes() == header + payload.tobytes()
        assert peak <= 0.2 * payload.nbytes

    def test_read_holds_the_payload_once(self, tmp_path):
        ds = self.random_dataset()
        path = tmp_path / "ds.mlfasdat"
        write_dataset(ds, path)
        back, peak = self.traced_peak(lambda: read_dataset(path))
        payload = ds.inputs.nbytes + ds.outputs.nbytes
        assert peak <= 1.1 * payload
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.outputs, ds.outputs)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("n_val", 12, "validation"),  # past count: negative indices would wrap
            ("n_val", 10, "validation"),  # no training samples left
            ("n_val", 0, "validation"),
            ("n", 0, "grid size"),
            ("channels", 0, "channel count"),
        ],
    )
    def test_malformed_header_field_rejected(self, tmp_path, field, value, match):
        path = tmp_path / "ds.mlfasdat"
        write_dataset(generate_dataset(10, 4, seed=0), path)
        raw = bytearray(path.read_bytes())
        names = ("magic", "version", "count", "n", "channels", "n_val", "seed")
        header = dict(zip(names, poisson._HEADER.unpack_from(raw)))
        header[field] = value
        poisson._HEADER.pack_into(raw, 0, *header.values())
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match=match):
            read_dataset(path)
