"""Numerical substrate tests: Haar sampling, contractions, spectral estimation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtpe.errors import PreconditionError
from qtpe.linalg import (
    LinearMap,
    SeededRng,
    complement_closeness,
    haar_unitary,
    kron,
    max_principal_sine,
    mode_apply,
    orthonormalize,
    spectral_norm,
)


def unitarity_defect(u):
    return np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))


class TestSeededRng:
    def test_same_key_same_stream(self):
        a = SeededRng(123, 5).generator().standard_normal(16)
        b = SeededRng(123, 5).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_different_stream_differs(self):
        a = SeededRng(123, 5).generator().standard_normal(16)
        b = SeededRng(123, 6).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_child_streams_distinct(self):
        r = SeededRng(9)
        kids = {r.child(k).stream for k in range(100)}
        assert len(kids) == 100

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -1)])
    def test_negative_key_rejected(self, seed, stream):
        with pytest.raises(PreconditionError):
            SeededRng(seed, stream)


class TestHaarUnitary:
    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16, 64, 100])
    def test_unitary_within_tolerance(self, dim):
        u = haar_unitary(dim, SeededRng(0, dim))
        assert unitarity_defect(u) <= 1e-10 * dim

    def test_dim1_is_phase(self):
        u = haar_unitary(1, SeededRng(4))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14

    def test_deterministic(self):
        a = haar_unitary(16, SeededRng(11, 3))
        b = haar_unitary(16, SeededRng(11, 3))
        assert np.array_equal(a, b)

    def test_trace_second_moment(self):
        # Haar oracle: E |tr U|^2 = 1; Monte Carlo with its own 3-sigma error bar
        samples = np.empty(10_000)
        base = SeededRng(2024)
        for i in range(samples.size):
            samples[i] = abs(np.trace(haar_unitary(16, base.child(i)))) ** 2
        mean = samples.mean()
        sem = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(mean - 1.0) <= 3.0 * sem


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_singular_values_outer_product(self):
        g = SeededRng(5).generator()
        a = g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))
        b = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
        sv = np.linalg.svd(kron(a, b), compute_uv=False)
        expected = np.sort(np.outer(np.linalg.svd(a, compute_uv=False), np.linalg.svd(b, compute_uv=False)).ravel())[::-1]
        assert np.allclose(sv, expected, atol=1e-12)

    def test_index_convention(self):
        d2 = 3
        e1 = np.zeros((2, 2)); e1[0, 0] = 1
        e2 = np.zeros((d2, d2)); e2[1, 1] = 1
        out = kron(e1, e2)
        assert out[0 * d2 + 1, 0 * d2 + 1] == 1.0
        assert out.sum() == 1.0


class TestModeApply:
    def test_identity_leaves_input(self):
        g = SeededRng(1).generator()
        x = g.standard_normal(8) + 1j * g.standard_normal(8)
        out = mode_apply(np.eye(2), x, 1, 2, 3)
        assert np.allclose(out, x)

    def test_single_mode_is_matvec(self):
        g = SeededRng(2).generator()
        u = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
        x = g.standard_normal(4) + 1j * g.standard_normal(4)
        assert np.allclose(mode_apply(u, x, 0, 4, 1), u @ x)

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_all_modes_equal_kron_oracle(self, n, m):
        g = SeededRng(100 + 10 * n + m).generator()
        u = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        x = g.standard_normal(n**m) + 1j * g.standard_normal(n**m)
        out = x
        for mode in range(m):
            out = mode_apply(u, out, mode, n, m)
        dense = np.eye(1)
        for _ in range(m):
            dense = np.kron(dense, u)
        assert np.allclose(out, dense @ x, atol=1e-10)

    def test_shape_errors(self):
        with pytest.raises(PreconditionError):
            mode_apply(np.eye(2), np.zeros(8), 3, 2, 3)
        with pytest.raises(PreconditionError):
            mode_apply(np.eye(3), np.zeros(8), 0, 2, 3)


class TestSpectralNorm:
    def test_identity(self):
        est = spectral_norm(np.eye(4, dtype=complex))
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.method == "dense-svd"

    def test_diagonal(self):
        est = spectral_norm(np.diag([3.0, 1.0, 0.0]).astype(complex))
        assert est.value == pytest.approx(3.0, abs=1e-12)

    def test_iterative_matches_dense_50(self):
        g = SeededRng(77).generator()
        a = g.standard_normal((50, 50)) + 1j * g.standard_normal((50, 50))
        dense = spectral_norm(a, method="dense-svd")
        it = spectral_norm(a, method="power-iteration", tol=1e-9, rng=SeededRng(1))
        assert it.converged
        assert abs(it.value - dense.value) <= 1e-8

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_iterative_vs_dense_grid(self, n):
        for trial in range(20):
            g = SeededRng(1000 + n, trial).generator()
            a = (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(n)
            dense = spectral_norm(a, method="dense-svd")
            it = spectral_norm(a, method="power-iteration", tol=1e-9, rng=SeededRng(trial), max_iters=20000)
            assert it.converged, f"n={n} trial={trial} residual={it.residual}"
            assert abs(it.value - dense.value) <= max(1e-8, 1e-9)

    def test_zero_operator(self):
        est = spectral_norm(np.zeros((5, 5), dtype=complex), method="power-iteration", rng=SeededRng(0))
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.converged

    def test_nonconvergence_reported(self):
        # stability over 3 consecutive steps needs at least 4 iterations
        g = SeededRng(8).generator()
        a = (g.standard_normal((40, 40)) + 1j * g.standard_normal((40, 40))).astype(complex)
        est = spectral_norm(a, method="power-iteration", tol=1e-12, max_iters=3, rng=SeededRng(0))
        assert not est.converged
        assert est.value > 0.0

    def test_deflation_removes_top_space(self):
        a = np.diag([5.0, 2.0, 1.0]).astype(complex)
        q = np.zeros((3, 1), dtype=complex); q[0, 0] = 1.0
        est = spectral_norm(a, method="power-iteration", rng=SeededRng(2), deflate=q)
        assert est.value == pytest.approx(2.0, abs=1e-7)


class TestOrthonormalize:
    def test_duplicate_vector_rank_1(self):
        v = np.array([1.0, 0.0, 0.0], dtype=complex)
        basis, rank = orthonormalize([v, v])
        assert rank == 1 and basis.shape == (3, 1)

    def test_standard_basis_unchanged_up_to_phase(self):
        basis, rank = orthonormalize([np.eye(3, dtype=complex)[:, i] for i in range(3)])
        assert rank == 3
        assert np.allclose(np.abs(basis.conj().T @ np.eye(3)), np.eye(3), atol=1e-12)

    def test_alpha_pair_full_rank(self):
        # t=2, d=2 fixed-space generators: Gram offdiagonal 1/2, rank 2
        from qtpe.moments import alpha_sigma
        from qtpe.perms import all_permutations

        vecs = [alpha_sigma(s, 2, 2).reshape(-1) for s in all_permutations(2)]
        assert np.vdot(vecs[0], vecs[1]) == pytest.approx(0.5)
        basis, rank = orthonormalize(vecs)
        assert rank == 2
        gram = basis.conj().T @ basis
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-10

    def test_idempotent_on_own_output(self):
        g = SeededRng(3).generator()
        vecs = [g.standard_normal(6) + 1j * g.standard_normal(6) for _ in range(4)]
        basis, rank = orthonormalize(vecs)
        basis2, rank2 = orthonormalize([basis[:, i] for i in range(rank)])
        assert rank2 == rank
        overlap = np.linalg.svd(basis.conj().T @ basis2, compute_uv=False)
        assert np.allclose(overlap, 1.0, atol=1e-10)

    def test_all_zero(self):
        basis, rank = orthonormalize([np.zeros(4, dtype=complex)])
        assert rank == 0 and basis.shape == (4, 0)


def brute_force_directed_sine(a, b, steps=4000):
    """Grid oracle: max over unit w in span(a) of distance to projection onto span(b)."""
    q_b, _ = orthonormalize([b[:, i] for i in range(b.shape[1])])
    if a.shape[1] == 1:
        w = a[:, 0] / np.linalg.norm(a[:, 0])
        return np.linalg.norm(w - q_b @ (q_b.conj().T @ w))
    thetas = np.linspace(0, np.pi, steps)  # w and -w are equidistant from any span
    ws = np.outer(a[:, 0], np.cos(thetas)) + np.outer(a[:, 1], np.sin(thetas))
    ws /= np.linalg.norm(ws, axis=0)
    resid = ws - q_b @ (q_b.conj().T @ ws)
    return float(np.max(np.linalg.norm(resid, axis=0)))


class TestMaxPrincipalSine:
    def test_identical_spans(self):
        q, _ = orthonormalize([np.array([1.0, 2.0, 0.0], dtype=complex)])
        assert max_principal_sine(q, q) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_lines(self):
        e1 = np.eye(3, dtype=complex)[:, :1]
        e2 = np.eye(3, dtype=complex)[:, 1:2]
        assert max_principal_sine(e1, e2) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_45_degrees(self):
        e1 = np.eye(2, dtype=complex)[:, :1]
        diag = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
        assert max_principal_sine(e1, diag) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    @pytest.mark.parametrize("trial", range(5))
    def test_grid_oracle_2d_spans(self, trial):
        g = SeededRng(50, trial).generator()
        a_raw = g.standard_normal((4, 2))
        b_raw = g.standard_normal((4, 2))
        qa, _ = orthonormalize([a_raw[:, i].astype(complex) for i in range(2)])
        qb, _ = orthonormalize([b_raw[:, i].astype(complex) for i in range(2)])
        fast = max_principal_sine(qa, qb)
        slow = brute_force_directed_sine(qa, qb)
        assert abs(fast - slow) <= 1e-6

    def test_complement_identity(self):
        # perp-space distance equals the reversed directed distance
        g = SeededRng(51).generator()
        qa, _ = orthonormalize([g.standard_normal(5).astype(complex) for _ in range(2)])
        qb, _ = orthonormalize([g.standard_normal(5).astype(complex) for _ in range(2)])
        # dense complement oracle
        pa = np.eye(5) - qa @ qa.conj().T
        pb = np.eye(5) - qb @ qb.conj().T
        ca, _ = orthonormalize([pa[:, i] for i in range(5)])
        cb, _ = orthonormalize([pb[:, i] for i in range(5)])
        assert complement_closeness(qa, qb) == pytest.approx(max_principal_sine(ca, cb), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            max_principal_sine(np.eye(3, dtype=complex)[:, :1], np.eye(4, dtype=complex)[:, :1])

    def test_non_orthonormal_rejected(self):
        bad = np.ones((3, 2), dtype=complex)
        with pytest.raises(PreconditionError):
            max_principal_sine(bad, np.eye(3, dtype=complex)[:, :1])
