"""Numerical substrate tests: Haar sampling, contractions, spectral estimation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import max_principal_sine, orthonormalize
from qtpe import linalg
from qtpe.ensemble import UnitaryEnsemble, sample_random_qtpe
from qtpe.errors import PreconditionError
from qtpe.linalg import LinearMap, SeededRng, haar_unitary, spectral_norm
from qtpe.moments import MomentOperator, SectorOperator


class ColumnSpan:
    """The span of orthonormal columns q in the form spectral_norm's `deflate`
    takes: its rank and an in-place removal of its component."""

    def __init__(self, q):
        self.q, self.rank = q, q.shape[1]

    def project_out(self, x):
        x -= self.q @ (self.q.conj().T @ x)


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


class TestModeApply:
    """The mode contractions of the matrix-free moment apply.

    MomentOperator.apply_vec views vec(M) as a 2t-way tensor and contracts
    each leg with U or conj(U) in turn; a one-member ensemble pins that
    contraction against explicit Kronecker products.
    """

    @staticmethod
    def single(u):
        return UnitaryEnsemble(u.shape[0], u[None], None, "single")

    def test_identity_leaves_input(self):
        g = SeededRng(1).generator()
        x = g.standard_normal(64) + 1j * g.standard_normal(64)
        out = MomentOperator(self.single(np.eye(2, dtype=complex)), 3).apply_vec(x)
        assert np.allclose(out, x)

    def test_single_mode_is_matvec(self):
        g = SeededRng(2).generator()
        u = haar_unitary(4, SeededRng(2, 1))
        m = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
        phi = MomentOperator(self.single(u), 1)
        assert np.allclose(phi.apply(m), u @ m @ u.conj().T)
        assert np.allclose(phi.apply_vec(m.reshape(-1)), np.kron(u, u.conj()) @ m.reshape(-1))

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_all_modes_equal_kron_oracle(self, n, m):
        g = SeededRng(100 + 10 * n + m).generator()
        u = haar_unitary(n, SeededRng(100 + 10 * n + m, 1))
        x = g.standard_normal(n ** (2 * m)) + 1j * g.standard_normal(n ** (2 * m))
        out = MomentOperator(self.single(u), m).apply_vec(x)
        power = np.eye(1)
        for _ in range(m):
            power = np.kron(power, u)
        assert np.allclose(out, np.kron(power, power.conj()) @ x, atol=1e-10)

    def test_shape_errors(self):
        e = self.single(np.eye(2, dtype=complex))
        with pytest.raises(PreconditionError):
            MomentOperator(e, 0)
        with pytest.raises(PreconditionError):
            MomentOperator(e, 2).apply(np.zeros((8, 8)))


def as_map(a):
    a = np.asarray(a, dtype=complex)
    return LinearMap(a.shape[0], lambda x: a @ x, lambda x: a.conj().T @ x)


def top_singular_value(a):
    return float(np.linalg.svd(a, compute_uv=False)[0])


class TestSpectralNorm:
    def test_identity(self):
        est = spectral_norm(as_map(np.eye(4)))
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.converged

    def test_diagonal(self):
        est = spectral_norm(as_map(np.diag([3.0, 1.0, 0.0])))
        assert est.value == pytest.approx(3.0, abs=1e-12)

    def test_iterative_matches_dense_50(self):
        g = SeededRng(77).generator()
        a = g.standard_normal((50, 50)) + 1j * g.standard_normal((50, 50))
        it = spectral_norm(as_map(a), tol=1e-9, rng=SeededRng(1))
        assert it.converged
        assert abs(it.value - top_singular_value(a)) <= 1e-8

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_iterative_vs_dense_grid(self, n):
        for trial in range(20):
            g = SeededRng(1000 + n, trial).generator()
            a = (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(n)
            it = spectral_norm(as_map(a), tol=1e-9, rng=SeededRng(trial), max_iters=20000)
            assert it.converged, f"n={n} trial={trial} residual={it.residual}"
            assert abs(it.value - top_singular_value(a)) <= max(1e-8, 1e-9)

    def test_zero_operator(self):
        est = spectral_norm(as_map(np.zeros((5, 5))), rng=SeededRng(0))
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.converged

    def test_nonconvergence_reported(self):
        # stability over 3 consecutive steps needs at least 4 iterations
        g = SeededRng(8).generator()
        a = g.standard_normal((40, 40)) + 1j * g.standard_normal((40, 40))
        est = spectral_norm(as_map(a), tol=1e-12, max_iters=3, rng=SeededRng(0))
        assert not est.converged
        assert est.value > 0.0

    def test_deflation_removes_top_space(self):
        a = np.diag([5.0, 2.0, 1.0])
        q = np.zeros((3, 1), dtype=complex); q[0, 0] = 1.0
        est = spectral_norm(as_map(a), rng=SeededRng(2), deflate=ColumnSpan(q))
        assert est.value == pytest.approx(2.0, abs=1e-7)

    @staticmethod
    def normal_with_invariant_space(n, fixed, seed):
        """A normal matrix Q diag(s) Q† whose first `fixed` columns of Q span a
        space it and its adjoint both fix, with the top of s inside that space."""
        q = haar_unitary(n, SeededRng(seed))
        g = SeededRng(seed, 1).generator()
        s = np.concatenate([[10.0] * fixed, [3.0, 2.8], 2.8 * g.random(n - fixed - 2)])
        s = s * np.exp(2j * np.pi * g.random(n))
        return q @ np.diag(s) @ q.conj().T, q[:, :fixed]

    @pytest.mark.parametrize("seed", [3, 5])
    def test_restarts_match_svd_of_deflated_matrix(self, seed):
        # a top spectrum clustered at 3.0, 2.8, ... keeps plain Lanczos on
        # A†A running past the first checks into the spread-out ones
        a, w = self.normal_with_invariant_space(40, 3, seed=seed)
        p = np.eye(40) - w @ w.conj().T
        est = spectral_norm(as_map(a), tol=1e-12, rng=SeededRng(4), deflate=ColumnSpan(w))
        assert est.converged
        assert abs(est.value - top_singular_value(p @ a @ p)) <= 1e-10

    def test_full_space_exit(self):
        # at tol 1e-14 the value keeps moving until the Krylov space spans the
        # 6-dimensional deflated space, where T_k's Ritz values are exact
        q = haar_unitary(8, SeededRng(10))
        w = q[:, :2]
        a = q @ np.diag([4.0, 4.0, 1.0, 0.8, 0.6, 0.4, 0.3, 0.2]) @ q.conj().T
        est = spectral_norm(as_map(a), tol=1e-14, rng=SeededRng(3), deflate=ColumnSpan(w))
        assert est.converged and est.iterations == 6
        assert abs(est.value - 1.0) <= 1e-12

    @pytest.mark.parametrize("tol", [1e-14, 1e-10, 1e-7])
    def test_new_basis_vectors_stay_in_deflated_space(self, tol):
        # a clustered tail divides each new Lanczos vector by a small beta;
        # without projecting it, rounding in W grows at every step
        q = haar_unitary(8, SeededRng(10))
        a = q @ np.diag([4.0, 4.0, 1.0, 0.999, 0.998, 0.997, 0.996, 0.995]) @ q.conj().T
        est = spectral_norm(as_map(a), tol=tol, rng=SeededRng(3), deflate=ColumnSpan(q[:, :2]))
        assert est.converged and est.iterations <= 6
        assert abs(est.value - 1.0) <= 1e-14

    def test_rank_one_exhausts_exactly(self):
        # two Lanczos vectors span an invariant space of A†A for a rank-1 A,
        # so beta_2 vanishes and the Ritz value of T_2 is the exact norm
        g = SeededRng(6).generator()
        u, v = g.standard_normal(10) + 1j * g.standard_normal(10), g.standard_normal(10) + 0j
        est = spectral_norm(as_map(np.outer(u, v.conj())), tol=1e-10, rng=SeededRng(1))
        assert est.converged and est.iterations == 2
        assert est.value == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-14)

    def test_same_seed_bit_identical(self):
        a, w = self.normal_with_invariant_space(60, 2, seed=11)
        for hermitian in (False, True):
            runs = [
                spectral_norm(as_map(a + a.conj().T if hermitian else a), tol=1e-11, rng=SeededRng(5), deflate=ColumnSpan(w), hermitian=hermitian)
                for _ in range(2)
            ]
            assert runs[0].iterations > 32  # long enough for the checks to spread out
            assert runs[0] == runs[1]

    @staticmethod
    def spread_diagonal_map(n, applies):
        """A diagonal map on C^n with a spread spectrum, whose top the solver
        never resolves to tol 1e-12 in a few hundred steps; `applies` counts
        forward applies."""
        d = np.linspace(0.0, 1.0, n)
        q = np.zeros((n, 1), dtype=complex)
        q[-1, 0] = 1.0
        return LinearMap(n, lambda x: applies.append(1) or d * x, lambda x: d * x), q

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_solver_holds_at_most_eight_vectors(self, hermitian):
        # n is the ambient size of the certify_zigzag product; the recurrence
        # keeps two Lanczos vectors and the new one, plus the temporaries of
        # one step, whatever the number of steps
        n, steps, applies = 5184, 60, []
        op, q = self.spread_diagonal_map(n, applies)
        tracemalloc.start()
        try:
            est = spectral_norm(op, tol=1e-12, max_iters=steps, rng=SeededRng(3), deflate=ColumnSpan(q), hermitian=hermitian)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not est.converged and est.iterations == steps and len(applies) == steps
        assert peak <= 8 * n * 16

    def test_ritz_checks_grow_like_log_k(self, monkeypatch):
        # on a map that converges far slower than tol asks, every predicted
        # check lies beyond the cap, so the checks are k // 2 steps apart:
        # ln(k) / ln(3/2) of them, plus the first steps before the readings
        # fall and the forced last step, against k steps
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or real(a))
        counts = {}
        for steps in (100, 400):
            calls.clear()
            op, q = self.spread_diagonal_map(5184, [])
            est = spectral_norm(op, tol=1e-14, max_iters=steps, rng=SeededRng(3), deflate=ColumnSpan(q), hermitian=True)
            assert not est.converged and calls[-1] == steps
            counts[steps] = len(calls)
        for steps, count in counts.items():
            assert count <= 3 + np.log(steps) / np.log(1.5)
        assert counts[400] - counts[100] <= np.log(4) / np.log(1.5) + 1

    def test_haar_t3_solve_reads_few_ritz_values(self, monkeypatch):
        # the bench's haar_t3 shape, (n, s, t) = (4, 8, 3) on the sector map:
        # a solve of 93 steps that reads T_k 14 times
        e = sample_random_qtpe(4, 8, SeededRng(1))
        phi = SectorOperator(e, 3)
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or real(a))
        est = spectral_norm(
            LinearMap(phi.ambient, phi.apply_vec, phi.adjoint_apply_vec),
            tol=1e-7, rng=SeededRng(2), deflate=phi.fixed_space(), hermitian=True,
        )
        assert est.converged and len(calls) <= 20


def deflated_dense(a, w):
    """The matrix of a restricted to the orthogonal complement of w's columns."""
    p = np.eye(a.shape[0]) - w @ w.conj().T
    return p @ a @ p


class TestHermitianLanczos:
    """spectral_norm with hermitian=True runs the recurrence on the map itself:
    its value is the largest |eigenvalue| on W^perp, from either end."""

    @staticmethod
    def hermitian_with_invariant_space(n, fixed, spectrum, seed):
        q = haar_unitary(n, SeededRng(seed))
        return q @ np.diag(np.concatenate([[5.0] * fixed, spectrum])) @ q.conj().T, q[:, :fixed]

    @pytest.mark.parametrize(
        "spectrum",
        [
            np.linspace(-0.5, 0.9, 38),  # the top end wins
            np.linspace(-0.95, 0.6, 38),  # the bottom end wins: the largest |eigenvalue| is negative
            np.concatenate([[-0.8, 0.8], np.linspace(-0.7, 0.7, 36)]),  # both ends tie
        ],
        ids=["top", "bottom", "tie"],
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_eigvalsh_of_deflated_matrix(self, spectrum, seed):
        a, w = self.hermitian_with_invariant_space(40, 2, spectrum, seed)
        est = spectral_norm(as_map(a), tol=1e-12, rng=SeededRng(seed), deflate=ColumnSpan(w), hermitian=True)
        assert est.converged
        exact = float(np.max(np.abs(np.linalg.eigvalsh(deflated_dense(a, w)))))
        assert abs(est.value - exact) <= 1e-10

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_random_hermitian_grid(self, n):
        for trial in range(10):
            g = SeededRng(2000 + n, trial).generator()
            a = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
            a = (a + a.conj().T) / np.sqrt(8 * n)
            est = spectral_norm(as_map(a), tol=1e-10, rng=SeededRng(trial), hermitian=True)
            assert est.converged, f"n={n} trial={trial} residual={est.residual}"
            assert abs(est.value - float(np.max(np.abs(np.linalg.eigvalsh(a))))) <= 1e-10

    def test_one_apply_per_step_and_no_adjoint(self):
        a, w = self.hermitian_with_invariant_space(40, 2, np.linspace(-0.5, 0.9, 38), 3)
        forward, adjoint = [], []
        op = LinearMap(40, lambda x: forward.append(1) or a @ x, lambda x: adjoint.append(1) or a @ x)
        est = spectral_norm(op, tol=1e-10, rng=SeededRng(1), deflate=ColumnSpan(w), hermitian=True)
        assert est.converged and len(forward) == est.iterations and not adjoint

    def test_residual_bounds_the_eigenvalue_error(self):
        # for a Hermitian map, a Ritz pair with ||A y - theta y|| = r |theta|
        # has an eigenvalue within r |theta| of theta
        a, w = self.hermitian_with_invariant_space(40, 2, np.linspace(-0.95, 0.6, 38), 4)
        est = spectral_norm(as_map(a), tol=1e-6, rng=SeededRng(2), deflate=ColumnSpan(w), hermitian=True)
        assert est.converged and est.residual <= 1e-6
        exact = float(np.max(np.abs(np.linalg.eigvalsh(deflated_dense(a, w)))))
        assert abs(est.value - exact) <= est.residual * est.value + 1e-12

    def test_deflating_the_whole_space_gives_zero(self):
        # a full-rank W leaves W^perp = {0}: the roundoff that projecting keeps
        # in the start vector must not be normalised into a Lanczos vector
        q = haar_unitary(3, SeededRng(11))
        est = spectral_norm(as_map(np.eye(3)), rng=SeededRng(1), deflate=ColumnSpan(q), hermitian=True)
        assert (est.value, est.iterations) == (0.0, 0)

    def test_zero_and_exhausted(self):
        zero = spectral_norm(as_map(np.zeros((5, 5))), rng=SeededRng(0), hermitian=True)
        assert (zero.value, zero.residual, zero.iterations, zero.converged) == (0.0, 0.0, 1, True)
        a = np.diag([0.5, -2.0, 1.0])
        est = spectral_norm(as_map(a), tol=1e-15, rng=SeededRng(1), hermitian=True)
        assert est.converged and est.iterations == 3
        assert est.value == pytest.approx(2.0, abs=1e-14)


def random_50_case():
    g = SeededRng(77).generator()
    a = g.standard_normal((50, 50)) + 1j * g.standard_normal((50, 50))
    return as_map(a), None, False, 1e-9, top_singular_value(a)


def clustered_normal_case(seed):
    a, w = TestSpectralNorm.normal_with_invariant_space(40, 3, seed=seed)
    return as_map(a), ColumnSpan(w), False, 1e-12, top_singular_value(deflated_dense(a, w))


def hermitian_ends_case(spectrum, seed):
    a, w = TestHermitianLanczos.hermitian_with_invariant_space(40, 2, spectrum, seed)
    return as_map(a), ColumnSpan(w), True, 1e-12, float(np.max(np.abs(np.linalg.eigvalsh(deflated_dense(a, w)))))


def haar_t3_case(seed):
    # the bench's haar_t3 shape and tolerance, on the Schur-Weyl sector map
    e = sample_random_qtpe(4, 8, SeededRng(seed))
    phi = SectorOperator(e, 3)
    op = LinearMap(phi.ambient, phi.apply_vec, phi.adjoint_apply_vec)
    return op, phi.fixed_space(), True, 1e-7, phi.dense_lambda(True)


class TestCheckSchedule:
    """The Ritz checks at predicted steps (_next_check) against checks at
    every step: both converge, to values within 1e-12 relative of each other
    and 1e-10 of the dense oracle, and the predicted schedule stops at most
    k // 2 steps after the every-step one, k its stop."""

    @pytest.mark.parametrize(
        "case,args",
        [
            pytest.param(random_50_case, (), id="random-50"),
            pytest.param(clustered_normal_case, (3,), id="clustered-3"),
            pytest.param(clustered_normal_case, (5,), id="clustered-5"),
            pytest.param(hermitian_ends_case, (np.linspace(-0.5, 0.9, 38), 1), id="hermitian-top"),
            pytest.param(hermitian_ends_case, (np.linspace(-0.95, 0.6, 38), 2), id="hermitian-bottom"),
            pytest.param(hermitian_ends_case, (np.concatenate([[-0.8, 0.8], np.linspace(-0.7, 0.7, 36)]), 1), id="hermitian-tie"),
            pytest.param(haar_t3_case, (0,), id="haar_t3-0"),
            pytest.param(haar_t3_case, (1,), id="haar_t3-1"),
        ],
    )
    @pytest.mark.parametrize("start", [0, 1])
    def test_predicted_checks_against_every_step(self, case, args, start, monkeypatch):
        op, deflate, hermitian, tol, exact = case(*args)
        kwargs = dict(tol=tol, rng=SeededRng(start), deflate=deflate, hermitian=hermitian)
        predicted = spectral_norm(op, **kwargs)
        monkeypatch.setattr(linalg, "_next_check", lambda k, *_: k + 1)
        every = spectral_norm(op, **kwargs)
        assert predicted.converged and every.converged
        assert predicted.iterations <= every.iterations + every.iterations // 2
        assert abs(predicted.value - every.value) <= 1e-12 * every.value
        assert abs(predicted.value - exact) <= 1e-10


class TestOrthonormalize:
    """conftest.orthonormalize, the SVD oracle of the fixed space and the Schur-Weyl bases."""

    def test_duplicate_vector_rank_1(self):
        v = np.array([1.0, 0.0, 0.0], dtype=complex)
        basis, rank = orthonormalize(np.stack([v, v], axis=1))
        assert rank == 1 and basis.shape == (3, 1)

    def test_standard_basis_unchanged_up_to_phase(self):
        basis, rank = orthonormalize(np.eye(3, dtype=complex))
        assert rank == 3
        assert np.allclose(np.abs(basis.conj().T @ np.eye(3)), np.eye(3), atol=1e-12)

    def test_alpha_pair_full_rank(self):
        # t=2, d=2 fixed-space generators: Gram offdiagonal 1/2, rank 2
        from qtpe.moments import alpha_sigma
        from qtpe.perms import all_permutations

        vecs = [alpha_sigma(s, 2, 2).reshape(-1) for s in all_permutations(2)]
        assert np.vdot(vecs[0], vecs[1]) == pytest.approx(0.5)
        basis, rank = orthonormalize(np.stack(vecs, axis=1))
        assert rank == 2
        gram = basis.conj().T @ basis
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-10

    def test_idempotent_on_own_output(self):
        g = SeededRng(3).generator()
        vecs = [g.standard_normal(6) + 1j * g.standard_normal(6) for _ in range(4)]
        basis, rank = orthonormalize(np.stack(vecs, axis=1))
        basis2, rank2 = orthonormalize(basis)
        assert rank2 == rank
        overlap = np.linalg.svd(basis.conj().T @ basis2, compute_uv=False)
        assert np.allclose(overlap, 1.0, atol=1e-10)

    def test_all_zero(self):
        basis, rank = orthonormalize(np.zeros((4, 1), dtype=complex))
        assert rank == 0 and basis.shape == (4, 0)


def brute_force_directed_sine(a, b, steps=4000):
    """Grid oracle: max over unit w in span(a) of distance to projection onto span(b)."""
    q_b, _ = orthonormalize(b)
    if a.shape[1] == 1:
        w = a[:, 0] / np.linalg.norm(a[:, 0])
        return np.linalg.norm(w - q_b @ (q_b.conj().T @ w))
    thetas = np.linspace(0, np.pi, steps)  # w and -w are equidistant from any span
    ws = np.outer(a[:, 0], np.cos(thetas)) + np.outer(a[:, 1], np.sin(thetas))
    ws /= np.linalg.norm(ws, axis=0)
    resid = ws - q_b @ (q_b.conj().T @ ws)
    return float(np.max(np.linalg.norm(resid, axis=0)))


class TestMaxPrincipalSine:
    """conftest.max_principal_sine, the distance behind the closeness oracle."""

    def test_identical_spans(self):
        q, _ = orthonormalize(np.array([[1.0], [2.0], [0.0]], dtype=complex))
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
        qa, _ = orthonormalize(a_raw.astype(complex))
        qb, _ = orthonormalize(b_raw.astype(complex))
        fast = max_principal_sine(qa, qb)
        slow = brute_force_directed_sine(qa, qb)
        assert abs(fast - slow) <= 1e-6

    def test_complement_identity(self):
        # perp-space distance equals the reversed directed distance, the swap
        # that ClosenessReport.perp_* rely on
        g = SeededRng(51).generator()
        qa, _ = orthonormalize(np.stack([g.standard_normal(5).astype(complex) for _ in range(2)], axis=1))
        qb, _ = orthonormalize(np.stack([g.standard_normal(5).astype(complex) for _ in range(2)], axis=1))
        # dense complement oracle
        pa = np.eye(5) - qa @ qa.conj().T
        pb = np.eye(5) - qb @ qb.conj().T
        ca, _ = orthonormalize(pa)
        cb, _ = orthonormalize(pb)
        assert max_principal_sine(qb, qa) == pytest.approx(max_principal_sine(ca, cb), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            max_principal_sine(np.eye(3, dtype=complex)[:, :1], np.eye(4, dtype=complex)[:, :1])

    def test_non_orthonormal_rejected(self):
        bad = np.ones((3, 2), dtype=complex)
        with pytest.raises(PreconditionError):
            max_principal_sine(bad, np.eye(3, dtype=complex)[:, :1])
