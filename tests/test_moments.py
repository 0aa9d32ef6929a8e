"""Moment operator, fixed space, spectra, design errors, subspace closeness."""

import dataclasses
import functools
import json
import tracemalloc

import numpy as np
import pytest

from conftest import (
    dense_lambda,
    hermitian_ensemble,
    identity,
    identity_ensemble,
    pauli_ensemble,
    raw_haar_ensemble,
    regroup_indices,
)
from qtpe.ensemble import Stage, UnitaryEnsemble, involution_defect, load, product_ensemble, sample_random_qtpe, save, square_compose
from qtpe.errors import PreconditionError, SizeLimitError
from qtpe.linalg import SeededRng, haar_unitary
from qtpe.moments import (
    MomentOperator,
    _CHUNK_BYTES,
    design_errors,
    hermitian_sector_block,
    irrep_action,
    irrep_bases,
    sector_block,
    sector_lambda,
    alpha_prime_inner,
    alpha_sigma,
    design_error_monomial,
    design_iterations_needed,
    fixed_space_basis,
    HERMITIAN_DEFECT,
    lambda_report,
    shuffle_operator,
    subspace_closeness_report,
)
from qtpe.perms import (
    Permutation,
    all_permutations,
    cycle_count,
    cycle_gram_matrix,
    partitions,
    unitary_irrep_dim,
)
from qtpe.zigzag import zigzag, zigzag_derandomised, zigzag_generalised


class TestShuffleOperator:
    def test_identity_permutation(self):
        assert np.array_equal(shuffle_operator(identity(2), 3, 2), np.eye(9))

    def test_swap_is_swap_gate(self):
        swap = shuffle_operator(Permutation((1, 0)), 2, 2)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 1
        expected[1, 2] = expected[2, 1] = 1
        assert np.array_equal(swap, expected)

    def test_three_cycle_cubes_to_identity(self):
        s = shuffle_operator(Permutation((1, 2, 0)), 2, 3)
        assert np.array_equal(np.abs(s).sum(axis=0), np.ones(8))  # permutation matrix
        assert np.array_equal(np.abs(s).sum(axis=1), np.ones(8))
        assert np.allclose(s @ s @ s, np.eye(8))

    def test_homomorphism(self):
        a = Permutation((1, 2, 0))
        b = Permutation((0, 2, 1))
        lhs = shuffle_operator(a, 2, 3) @ shuffle_operator(b, 2, 3)
        rhs = shuffle_operator(a.compose(b), 2, 3)
        assert np.allclose(lhs, rhs)

    def test_matrix_free_shuffle_matches(self):
        # the same action as a transpose of the t tensor legs, without the matrix
        g = SeededRng(9).generator()
        x = g.standard_normal(27) + 1j * g.standard_normal(27)
        for sig in all_permutations(3):
            moved = x.reshape((3,) * 3).transpose(sig.inverse().map).reshape(-1)
            assert np.allclose(moved, shuffle_operator(sig, 3, 3) @ x)


class TestAlphaSigma:
    def test_identity_is_normalised_identity(self):
        out = alpha_sigma(identity(2), 3, 2)
        assert np.allclose(out, np.eye(9) / 3.0)

    def test_unit_norm(self):
        for sig in all_permutations(3):
            a = alpha_sigma(sig, 2, 3)
            assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_id_swap(self):
        perms = all_permutations(2)
        a_id = alpha_sigma(perms[0], 2, 2).reshape(-1)
        a_sw = alpha_sigma(perms[1], 2, 2).reshape(-1)
        assert np.vdot(a_id, a_sw) == pytest.approx(0.5, abs=1e-12)

    def test_commutes_with_tensor_powers(self):
        u = haar_unitary(2, SeededRng(13))
        ut = np.kron(u, u)
        for sig in all_permutations(2):
            a = alpha_sigma(sig, 2, 2)
            assert np.allclose(ut @ a, a @ ut, atol=1e-12)

    @pytest.mark.parametrize("n,t", [(2, 2), (3, 2), (2, 3)])
    def test_gram_convention_pinned(self, n, t):
        # the register-shuffle convention must reproduce n^(cycles - t) exactly
        perms = all_permutations(t)
        for i, sig in enumerate(perms):
            for j, sig_p in enumerate(perms):
                inner = np.vdot(
                    alpha_sigma(sig, n, t).reshape(-1), alpha_sigma(sig_p, n, t).reshape(-1)
                )
                expected = float(n) ** (cycle_count(sig.inverse().compose(sig_p)) - t)
                assert inner == pytest.approx(expected, abs=1e-10)


class TestAlphaPrime:
    def test_t1_equals_alpha(self):
        sig = identity(1)
        assert np.allclose(alpha_prime_inner(sig, 3, 1), alpha_sigma(sig, 3, 1))

    def test_norm_is_falling_factorial_fraction(self):
        sig = identity(2)
        a = alpha_prime_inner(sig, 2, 2)
        assert np.linalg.norm(a) ** 2 == pytest.approx(0.5, abs=1e-12)  # (2)_2 / 2^2

    def test_cross_orthogonality(self):
        perms = all_permutations(2)
        for i, sig in enumerate(perms):
            for j, sig_p in enumerate(perms):
                if i == j:
                    continue
                inner = np.vdot(
                    alpha_prime_inner(sig_p, 3, 2).reshape(-1), alpha_sigma(sig, 3, 2).reshape(-1)
                )
                assert abs(inner) <= 1e-12

    def test_distinctness_needs_t_at_most_d(self):
        with pytest.raises(PreconditionError):
            alpha_prime_inner(identity(3), 2, 3)


class TestRegroup:
    def test_fused_alpha_matches_grouped_kron(self):
        D, d, t = 2, 3, 2
        g = regroup_indices(D, d, t)
        for sig in all_permutations(t):
            fused = alpha_sigma(sig, D * d, t)
            grouped = np.kron(alpha_sigma(sig, D, t), alpha_sigma(sig, d, t))
            regrouped = np.empty_like(fused)
            regrouped[np.ix_(g, g)] = fused
            assert np.allclose(regrouped, grouped, atol=1e-12)


def numeric_gram(basis):
    """<alpha_sigma, alpha_sigma'> over the basis' family, in permutation order."""
    stacked = np.stack([a.reshape(-1) for a in basis.alphas], axis=1)
    return stacked.conj().T @ stacked


class TestFixedSpaceBasis:
    @pytest.mark.parametrize("n,t,rank", [(3, 2, 2), (4, 2, 2), (3, 3, 6), (2, 3, 5), (2, 1, 1)])
    def test_ranks(self, n, t, rank):
        assert fixed_space_basis(n, t).rank == rank

    def test_t1_basis_is_normalised_identity(self):
        basis = fixed_space_basis(2, 1)
        assert np.allclose(np.abs(basis.ortho[:, 0]), np.eye(2).reshape(-1) / np.sqrt(2))

    @pytest.mark.parametrize("n,t", [(2, 2), (3, 2), (2, 3)])
    def test_gram_matches_inner_products(self, n, t):
        # the family's coordinates in `ortho` keep every inner product, so the
        # basis spans the whole family, rank-deficient (2, 3) included
        basis = fixed_space_basis(n, t)
        coords = basis.ortho.conj().T @ np.stack([a.reshape(-1) for a in basis.alphas], axis=1)
        assert np.max(np.abs(coords.conj().T @ coords - numeric_gram(basis))) <= 1e-10

    @pytest.mark.parametrize("n,t", [(5, 2), (10, 3)])
    def test_gram_equals_identity_plus_cycle_matrix(self, n, t):
        gram = numeric_gram(fixed_space_basis(n, t))
        expected = np.eye(gram.shape[0]) + cycle_gram_matrix(t, n)
        assert np.max(np.abs(gram - expected)) <= 1e-12

    def test_ortho_columns_orthonormal(self):
        basis = fixed_space_basis(2, 3)  # rank-deficient path
        gram = basis.ortho.conj().T @ basis.ortho
        assert np.max(np.abs(gram - np.eye(basis.rank))) <= 1e-10


def assert_matches_dense(phi):
    """The matrix-free apply and adjoint apply against the materialised operator, to 1e-10; returns the input."""
    dense = phi.dense()
    g = SeededRng(5, phi.t).generator()
    x = g.standard_normal(phi.ambient) + 1j * g.standard_normal(phi.ambient)
    assert np.max(np.abs(phi.apply_vec(x) - dense @ x)) <= 1e-10
    # (x^* D)^* = D† x without a conjugated copy of D (268 MB at ambient 4096)
    assert np.max(np.abs(phi.adjoint_apply_vec(x) - (x.conj() @ dense).conj())) <= 1e-10
    return x


def staged_product():
    """A two-stage product on C^2 (x) C^2: (1_2 (x) A_i) B_j, the first stage with outer = 2."""
    a, b = raw_haar_ensemble(2, 3, seed=18), raw_haar_ensemble(4, 2, seed=19)
    return product_ensemble([Stage(a.unitaries, outer=2), Stage(b.unitaries)], None, "staged")


class TestMomentOperatorApply:
    def test_identity_ensemble_is_identity_map(self):
        phi = MomentOperator(identity_ensemble(2), 2)
        g = SeededRng(3).generator()
        m = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
        assert np.allclose(phi.apply(m), m)

    def test_pauli_t1_is_trace_projector(self):
        phi = MomentOperator(pauli_ensemble(), 1)
        g = SeededRng(4).generator()
        m = g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))
        assert np.allclose(phi.apply(m), np.trace(m) / 2.0 * np.eye(2), atol=1e-12)

    def test_matrix_free_matches_dense_superoperator(self):
        e = raw_haar_ensemble(2, 3, seed=6)
        for t in (1, 2, 3, 4):  # t = 4 rotates six middle legs in turn
            assert_matches_dense(MomentOperator(e, t))

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_hermitian_family_matches_dense_superoperator(self, t):
        assert_matches_dense(MomentOperator(hermitian_ensemble(2, 4, seed=16), t))

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_staged_product_with_outer_matches_dense_superoperator(self, t):
        phi = MomentOperator(staged_product(), t)
        assert [st.outer for st in phi.ensemble.stages] == [2, 1]
        assert_matches_dense(phi)

    @pytest.mark.parametrize("chunk", [1, 2])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_chunked_kernel_matches_dense_and_reruns_bit_identical(self, monkeypatch, chunk, t):
        import qtpe.moments as m

        raw, staged = raw_haar_ensemble(2, 5, seed=17), staged_product()  # 5 and 3 members: 2 divides neither
        for e in (raw, staged):
            phi = MomentOperator(e, t)
            monkeypatch.setattr(m, "_BATCH_BYTES", 16 * phi.ambient * chunk)
            x = assert_matches_dense(phi)
            assert phi._work.shape == (2, chunk * phi.ambient)  # sized at the first apply, not at construction
            assert np.array_equal(phi.apply_vec(x), phi.apply_vec(x))
            assert np.array_equal(phi.adjoint_apply_vec(x), phi.adjoint_apply_vec(x))

    @pytest.mark.parametrize("n,t,seed", [(2, 2, 0), (2, 2, 1), (2, 2, 2), (3, 2, 0), (2, 3, 0), (3, 3, 0)])
    def test_fixed_space_invariance(self, n, t, seed):
        e = raw_haar_ensemble(n, 2, seed=seed)
        phi = MomentOperator(e, t)
        for sig in all_permutations(t):
            a = alpha_sigma(sig, n, t)
            assert np.linalg.norm(phi.apply(a) - a) <= 1e-9

    @pytest.mark.parametrize("t", [1, 2])
    def test_trace_preserved_and_contractive(self, t):
        e = hermitian_ensemble(3, 4, seed=2)
        phi = MomentOperator(e, t)
        g = SeededRng(6, t).generator()
        nt = 3**t
        m = g.standard_normal((nt, nt)) + 1j * g.standard_normal((nt, nt))
        out = phi.apply(m)
        assert abs(np.trace(out) - np.trace(m)) <= 1e-9
        assert np.linalg.norm(out) <= np.linalg.norm(m) + 1e-9


WORKSPACE_CASES = [("raw", 1), ("raw", 2), ("raw", 3), ("staged", 1), ("staged", 2), ("staged", 3)]


def workspace_case(kind, t):
    """A MomentOperator and two random inputs: 5 Haar members on C^2, or the staged product with outer = 2."""
    phi = MomentOperator(raw_haar_ensemble(2, 5, seed=17) if kind == "raw" else staged_product(), t)
    g = SeededRng(7, t).generator()
    x, y = (g.standard_normal(phi.ambient) + 1j * g.standard_normal(phi.ambient) for _ in range(2))
    return phi, x, y


def apply_peak_bytes(phi):
    """tracemalloc peak of an apply plus an adjoint apply, after a first apply sized the workspace."""
    x = SeededRng(8).generator().standard_normal(phi.ambient) + 0j
    phi.apply_vec(x)
    tracemalloc.start()
    try:
        phi.apply_vec(x)
        phi.adjoint_apply_vec(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelWorkspace:
    @pytest.mark.parametrize("kind,t", WORKSPACE_CASES)
    def test_results_never_alias_the_workspace(self, kind, t):
        phi, x, y = workspace_case(kind, t)
        forward, backward = phi.apply_vec(x), phi.adjoint_apply_vec(x)
        kept = forward.copy(), backward.copy()
        phi.apply_vec(y)
        phi.adjoint_apply_vec(y)
        assert np.array_equal(forward, kept[0]) and np.array_equal(backward, kept[1])

    @pytest.mark.parametrize("kind,t", WORKSPACE_CASES)
    def test_reapply_after_another_input_is_bit_identical(self, kind, t):
        phi, x, y = workspace_case(kind, t)
        first = phi.apply_vec(x), phi.adjoint_apply_vec(x)
        phi.apply_vec(y)
        phi.adjoint_apply_vec(y)
        assert np.array_equal(phi.apply_vec(x), first[0])
        assert np.array_equal(phi.adjoint_apply_vec(x), first[1])

    @pytest.mark.parametrize("kind,t", WORKSPACE_CASES[:-1])  # staged t=3 would materialise 4096 x 4096
    def test_construction_and_dense_allocate_no_workspace(self, kind, t):
        phi, _, _ = workspace_case(kind, t)
        assert phi._work is None
        phi.dense()
        assert phi._work is None

    def test_applies_after_the_first_allocate_no_stacked_intermediate(self):
        # the haar_t1 benchmark shape: one stacked s*ambient intermediate is 16 * 32 * 1600 B = 819 KB
        phi = MomentOperator(sample_random_qtpe(40, 32, SeededRng(0)), 1)
        assert apply_peak_bytes(phi) < 16 * 32 * phi.ambient

    @pytest.mark.parametrize("n,t", [(3, 3), (4, 2)])
    def test_dense_holds_one_result_and_matches_the_member_kronecker_sum(self, n, t):
        # each member's n^2t x n^2t Kronecker product is added a block of rows at a time, never formed whole
        phi = MomentOperator(raw_haar_ensemble(n, 3, seed=20), t)
        tracemalloc.start()
        try:
            dense = phi.dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * dense.nbytes
        powers = [functools.reduce(np.kron, [u] * t) for u in phi.ensemble.unitaries]
        assert np.array_equal(dense, sum(np.kron(p, p.conj()) for p in powers) / len(powers))

    @pytest.mark.parametrize("kind", ["haar_t3", "staged"])
    def test_rotated_middle_legs_write_into_the_workspace(self, kind):
        # the middle legs' GEMMs write strided views of the workspace; a buffered
        # out= would allocate a stacked c*ambient intermediate per leg
        if kind == "haar_t3":  # the benchmark shape: d = 4, s = 8, t = 3
            phi, c = MomentOperator(sample_random_qtpe(4, 8, SeededRng(0)), 3), 8
        else:  # stages of 3 members with outer = 2 and of 2 members
            phi, c = MomentOperator(staged_product(), 2), 3
        assert apply_peak_bytes(phi) < 16 * c * phi.ambient


def small_product(kind):
    """A small product of each kind, built in-process, so it carries its stages."""
    if kind == "zigzag":
        return zigzag(sample_random_qtpe(3, 4, SeededRng(80)), raw_haar_ensemble(4, 3, seed=81))
    if kind == "derandomised":
        return zigzag_derandomised(sample_random_qtpe(2, 4, SeededRng(82)), sample_random_qtpe(4, 4, SeededRng(83)))
    if kind == "square":
        return square_compose(raw_haar_ensemble(4, 3, seed=91))
    k = int(kind[-1])  # generalised-k: d = 2, d' = 2
    hs = [raw_haar_ensemble(4, 3, seed=84 + i) for i in range(k)]
    return zigzag_generalised(raw_haar_ensemble(2, 2, seed=90), hs, 2, 2)


def without_stages(e):
    """The same members without the factorisation: the member kernel's input."""
    return dataclasses.replace(e, stages=None)


PRODUCT_KINDS = ["zigzag", "derandomised", "generalised-2", "generalised-3", "square"]


class TestFactoredProducts:
    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("kind", PRODUCT_KINDS)
    def test_factored_applies_match_the_member_kernel(self, kind, t):
        product = small_product(kind)
        assert product.stages is not None
        factored = MomentOperator(product, t)
        members = MomentOperator(without_stages(product), t)
        g = SeededRng(t, len(kind)).generator()
        x = g.standard_normal(factored.ambient) + 1j * g.standard_normal(factored.ambient)
        assert np.max(np.abs(factored.apply_vec(x) - members.apply_vec(x))) <= 1e-12
        assert np.max(np.abs(factored.adjoint_apply_vec(x) - members.adjoint_apply_vec(x))) <= 1e-12

    @pytest.mark.parametrize("kind", PRODUCT_KINDS)
    def test_lambda_matches_the_saved_product(self, kind, tmp_path):
        product = small_product(kind)
        save(product, tmp_path / "p.qtpe")
        loaded = load(tmp_path / "p.qtpe")
        assert loaded.stages is None
        kwargs = dict(method="power-iteration", tol=1e-10, rng=SeededRng(5), max_iters=4000)
        factored = lambda_report(product, 1, **kwargs)
        members = lambda_report(loaded, 1, **kwargs)
        assert factored.converged and members.converged
        assert abs(factored.lambda_ - members.lambda_) <= 1e-10

    def test_inner_stage_is_the_lifted_member_kernel(self):
        h = raw_haar_ensemble(2, 3, seed=14)
        lifted = np.stack([np.kron(np.eye(3), v) for v in h.unitaries])
        inner = MomentOperator(UnitaryEnsemble(6, lifted, stages=(Stage(h.unitaries, outer=3),)), 2)
        full = MomentOperator(UnitaryEnsemble(6, lifted), 2)
        x = SeededRng(15).generator().standard_normal(6**4) + 0j
        assert np.max(np.abs(inner.apply_vec(x) - full.apply_vec(x))) <= 1e-12
        assert np.max(np.abs(inner.adjoint_apply_vec(x) - full.adjoint_apply_vec(x))) <= 1e-12


class TestIdealApply:
    """FixedSpaceBasis.project_vec is the Haar average: the projection onto W."""

    def test_fixes_alphas(self):
        basis = fixed_space_basis(2, 2)
        for a in basis.alphas:
            assert np.allclose(basis.project_vec(a.reshape(-1)), a.reshape(-1), atol=1e-10)

    def test_kills_traceless_offdiagonal_t1(self):
        basis = fixed_space_basis(3, 1)
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 1.0
        assert np.allclose(basis.project_vec(m.reshape(-1)), 0.0, atol=1e-12)

    def test_idempotent(self):
        basis = fixed_space_basis(2, 3)
        g = SeededRng(7).generator()
        x = g.standard_normal(64) + 1j * g.standard_normal(64)
        once = basis.project_vec(x)
        assert np.allclose(basis.project_vec(once), once, atol=1e-10)


class TestLambda:
    def test_identity_ensemble_lambda_one(self):
        assert dense_lambda(identity_ensemble(2), 1) == pytest.approx(1.0, abs=1e-12)

    def test_pauli_t1_zero(self):
        assert dense_lambda(pauli_ensemble(), 1) == pytest.approx(0.0, abs=1e-12)

    def test_pauli_t2_one(self):
        assert dense_lambda(pauli_ensemble(), 2) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "family,d,t,seed",
        [
            ("hermitian", 3, 1, 0),
            ("hermitian", 4, 1, 1),
            ("hermitian", 2, 2, 2),
            ("hermitian", 3, 2, 3),
            ("hermitian", 2, 3, 4),
            ("raw", 3, 2, 5),
            ("generalised", 8, 1, 6),
        ],
        ids=["3-1-0", "4-1-1", "2-2-2", "3-2-3", "2-3-4", "raw-3-2-5", "generalised-8-1-6"],
    )
    def test_dense_vs_iterative(self, family, d, t, seed):
        # the non-Hermitian inputs check the single deflation, which rests on
        # Phi and Phi† both fixing W where Phi is not self-adjoint
        if family == "hermitian":
            e = hermitian_ensemble(d, 4, seed)
        elif family == "raw":
            e = raw_haar_ensemble(d, 3, seed)
        else:  # k = 2, control of degree 4 on C^2, inner on C^4 (d' = 1)
            hs = [raw_haar_ensemble(4, 3, seed + 1 + i) for i in range(2)]
            e = zigzag_generalised(raw_haar_ensemble(2, 4, seed), hs, 4, 1)
        assert e.dim == d
        dense = lambda_report(e, t, method="dense-svd")
        it = lambda_report(e, t, method="power-iteration", tol=1e-9, rng=SeededRng(seed), max_iters=20000)
        assert it.converged
        assert abs(dense.lambda_ - it.lambda_) <= 1e-7

    def test_lambda_in_unit_interval(self):
        for seed in range(5):
            e = raw_haar_ensemble(3, 3, seed)
            lam = dense_lambda(e, 2)
            assert -1e-12 <= lam <= 1.0 + 1e-9

    def test_hermitian_power_lambda(self):
        # iterating a self-adjoint ensemble squares and cubes its deviation norm
        e = hermitian_ensemble(3, 4, seed=11)
        lam = dense_lambda(e, 1)
        sq = square_compose(e)
        assert dense_lambda(sq, 1) == pytest.approx(lam**2, abs=1e-6)
        cube_members = np.stack([a @ b for a in sq.unitaries for b in e.unitaries])
        from qtpe.ensemble import UnitaryEnsemble

        cube = UnitaryEnsemble(3, cube_members, None, "cube")
        assert dense_lambda(cube, 1) == pytest.approx(lam**3, abs=1e-6)

    def test_report_serialisation_fields(self):
        doc = json.loads(json.dumps(lambda_report(pauli_ensemble(), 1).to_json_dict()))
        assert set(doc) == {
            "lambda",
            "method",
            "iterations",
            "applies",
            "residual",
            "seed",
            "ensemble-label",
            "t",
            "converged",
        }
        assert doc["ensemble-label"] == "pauli"

    def test_guards(self):
        e = hermitian_ensemble(2, 4, seed=0)
        with pytest.raises(SizeLimitError):
            lambda_report(e, 5)
        with pytest.raises(PreconditionError):
            lambda_report(e, 0)
        with pytest.raises(PreconditionError):
            lambda_report(e, 1, method="svd")

    @pytest.mark.parametrize("method", ["auto", "dense-svd", "power-iteration"])
    @pytest.mark.parametrize("setting", [{"max_iters": 0}, {"tol": 0.0}, {"tol": -1.0}, {"tol": float("inf")}])
    def test_solver_settings_checked_on_every_path(self, method, setting):
        with pytest.raises(PreconditionError):
            lambda_report(hermitian_ensemble(2, 4, seed=0), 1, method=method, **setting)


def deflated_dense_deviation(e, t):
    """Phi - P as a dense matrix: Phi on W^perp, 0 on W."""
    basis = fixed_space_basis(e.dim, t)
    return MomentOperator(e, t).dense() - basis.ortho @ basis.ortho.conj().T


def count_applies(monkeypatch):
    """Count MomentOperator's forward and adjoint applies into a dict."""
    counts = {"apply": 0, "adjoint": 0}
    for name, key in (("apply_vec", "apply"), ("adjoint_apply_vec", "adjoint")):
        real = getattr(MomentOperator, name)

        def counted(self, x, real=real, key=key):
            counts[key] += 1
            return real(self, x)

        monkeypatch.setattr(MomentOperator, name, counted)
    return counts


class TestLanczosPaths:
    """The iterative path runs Lanczos on Phi when the members' involution
    defect is at most HERMITIAN_DEFECT, and on Phi†Phi otherwise."""

    @pytest.mark.parametrize(
        "kind,t",
        [("hermitian", 1), ("hermitian", 2), ("zigzag", 1), ("derandomised", 1)],
    )
    def test_hermitian_path_matches_eigvalsh_of_the_deflated_operator(self, kind, t):
        if kind == "hermitian":
            e = hermitian_ensemble(3, 6, 40 + t)
        else:
            g, h = sample_random_qtpe(2, 4, SeededRng(41)), sample_random_qtpe(4, 4, SeededRng(42))
            e = zigzag(g, h) if kind == "zigzag" else zigzag_derandomised(g, h)
        rep = lambda_report(e, t, method="power-iteration", tol=1e-12, rng=SeededRng(t))
        exact = float(np.max(np.abs(np.linalg.eigvalsh(deflated_dense_deviation(e, t)))))
        assert rep.converged and abs(rep.lambda_ - exact) <= 1e-10

    def test_negative_end_counts(self):
        # the Paulis X, Y, Z (each its own adjoint) average to X -> (tr X) I/2 - X/3
        # on traceless X at t = 1: Phi - P has the single eigenvalue -1/3 on W^perp
        paulis = pauli_ensemble().unitaries[1:]
        e = UnitaryEnsemble(2, paulis, (0, 1, 2), "xyz")
        rep = lambda_report(e, 1, method="power-iteration", tol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(deflated_dense_deviation(e, 1)), [-1 / 3] * 3 + [0.0])
        assert rep.converged and abs(rep.lambda_ - 1 / 3) <= 1e-12

    def test_hermitian_ensemble_makes_no_adjoint_apply(self, monkeypatch):
        counts = count_applies(monkeypatch)
        rep = lambda_report(hermitian_ensemble(4, 6, 7), 2, method="power-iteration", rng=SeededRng(3))
        assert rep.converged and counts == {"apply": rep.iterations, "adjoint": 0}
        assert rep.applies == rep.iterations > 0

    def test_ensemble_without_involution_applies_twice_per_step(self, monkeypatch):
        counts = count_applies(monkeypatch)
        rep = lambda_report(raw_haar_ensemble(4, 3, 7), 2, method="power-iteration", rng=SeededRng(3))
        assert rep.converged and counts == {"apply": rep.iterations, "adjoint": rep.iterations}
        assert rep.applies == 2 * rep.iterations > 0

    def test_involution_defect_above_the_gate_takes_the_adjoint_path(self, monkeypatch, tmp_path):
        # a file may pass validation with an involution defect up to 1e-8 * dim;
        # its Phi is Hermitian only to that defect, so Phi†Phi is solved
        e = hermitian_ensemble(3, 4, 8)
        members = e.unitaries.copy()
        members[0, 0, 0] += 1e-10
        noisy = UnitaryEnsemble(3, members, e.involution, "noisy")
        save(noisy, tmp_path / "noisy.qtpe")
        loaded = load(tmp_path / "noisy.qtpe")
        assert HERMITIAN_DEFECT < involution_defect(loaded) <= 1e-8
        counts = count_applies(monkeypatch)
        rep = lambda_report(loaded, 1, method="power-iteration", tol=1e-10, rng=SeededRng(1))
        assert rep.converged and counts["adjoint"] == rep.iterations and rep.applies == 2 * rep.iterations
        assert abs(rep.lambda_ - lambda_report(loaded, 1, method="dense-svd").lambda_) <= 1e-8

    def test_dense_path_counts_no_applies(self):
        assert lambda_report(hermitian_ensemble(3, 4, 2), 2, method="dense-svd").applies == 0

    @pytest.mark.parametrize("kind", ["hermitian", "raw"])
    def test_rerun_identical(self, kind):
        e = hermitian_ensemble(4, 6, 9) if kind == "hermitian" else raw_haar_ensemble(4, 3, 9)
        runs = [lambda_report(e, 2, method="power-iteration", rng=SeededRng(5)) for _ in range(2)]
        assert runs[0] == runs[1]


class TestDesignError:
    def test_pauli_exact_design_t1(self):
        e = pauli_ensemble()
        for k in (1, 2, 3):
            for i in range(2):
                for j in range(2):
                    assert design_error_monomial(e, 1, k, (i,), (j,)) <= 1e-12

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_bounded_by_lambda_power(self, t, seed):
        e = hermitian_ensemble(2, 4, seed)
        lam = dense_lambda(e, t)
        idx = [(a, b) for a in range(2) for b in range(2)] if t == 2 else [(a,) for a in range(2)]
        for k in (1, 2, 3):
            for rows in idx:
                for cols in idx:
                    err = design_error_monomial(e, t, k, rows, cols)
                    assert err <= lam**k + 1e-9

    def test_k_zero_rejected(self):
        with pytest.raises(PreconditionError):
            design_error_monomial(pauli_ensemble(), 1, 0, (0,), (0,))

    def test_index_range_checked(self):
        with pytest.raises(PreconditionError):
            design_error_monomial(pauli_ensemble(), 1, 1, (2,), (0,))


class TestDesignErrors:
    @pytest.mark.parametrize("t", [1, 2])
    def test_table_matches_monomial_calls(self, t):
        import itertools

        e = raw_haar_ensemble(2, 3, 40 + t)
        ks = [2, 1, 3]
        table = design_errors(e, t, ks)
        tuples = list(itertools.product(range(2), repeat=t))
        for a, k in enumerate(ks):
            assert table[a].shape == (2**t, 2**t)
            for i, rows in enumerate(tuples):
                for j, cols in enumerate(tuples):
                    assert table[a][i, j] == design_error_monomial(e, t, k, rows, cols)

    def test_one_basis_and_n_t_applies(self, monkeypatch):
        import qtpe.moments as m

        calls = {"basis": 0, "apply": 0}
        real_basis, real_apply = m.fixed_space_basis, m.MomentOperator.apply_vec

        def basis(*args):
            calls["basis"] += 1
            return real_basis(*args)

        def apply(self, x):
            calls["apply"] += 1
            return real_apply(self, x)

        monkeypatch.setattr(m, "fixed_space_basis", basis)
        monkeypatch.setattr(m.MomentOperator, "apply_vec", apply)
        design_errors(hermitian_ensemble(3, 4, 1), 2, [1, 3])
        assert calls == {"basis": 1, "apply": 9 * 3}

    def test_k_zero_rejected(self):
        with pytest.raises(PreconditionError):
            design_errors(pauli_ensemble(), 1, [1, 0])

    def test_apply_count_bounded(self, monkeypatch):
        import qtpe.moments as m

        applies = []
        monkeypatch.setattr(m.MomentOperator, "apply_vec", lambda self, x: applies.append(1) or x)
        limit = m.DESIGN_APPLY_LIMIT
        # pauli_ensemble acts on C^2: at t = 1 two column tuples take max(ks) applies each
        design_errors(pauli_ensemble(), 1, [1, limit // 2])
        assert len(applies) == limit
        with pytest.raises(SizeLimitError):
            design_errors(pauli_ensemble(), 1, [limit // 2 + 1])
        assert len(applies) == limit


def full_dense_lambda(e, t):
    """The oracle: top singular value of the materialised moment operator minus the Haar projector."""
    basis = fixed_space_basis(e.dim, t)
    deviation = MomentOperator(e, t).dense() - basis.ortho @ basis.ortho.conj().T
    return float(np.linalg.svd(deviation, compute_uv=False)[0])


def small_zigzag(outer_dim, seed):
    g = sample_random_qtpe(outer_dim, 4, SeededRng(seed))
    h = sample_random_qtpe(4, 4, SeededRng(seed + 1))
    return zigzag(g, h)


class TestSchurWeylSectors:
    @pytest.mark.parametrize("n,t", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 3), (5, 2)])
    def test_ranks_are_hook_content_dims(self, n, t):
        bases = irrep_bases(n, t)
        for b in bases:
            assert b.dim == unitary_irrep_dim(b.shape, n) > 0
            assert b.basis.shape == (n**t, b.dim)
        assert sum(b.multiplicity * b.dim for b in bases) == n**t

    def test_partitions_with_more_than_n_rows_skipped(self):
        assert [b.shape for b in irrep_bases(2, 3)] == [(3,), (2, 1)]
        assert [b.shape for b in irrep_bases(2, 4)] == [(4,), (3, 1), (2, 2)]
        assert [b.shape for b in irrep_bases(1, 2)] == [(2,)]
        assert [b.shape for b in irrep_bases(4, 3)] == partitions(3)

    @pytest.mark.parametrize("n,t", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
    def test_bases_orthonormal(self, n, t):
        for b in irrep_bases(n, t):
            assert np.allclose(b.basis.conj().T @ b.basis, np.eye(b.dim), atol=1e-12)

    def test_t1_basis_is_exactly_the_identity(self):
        (only,) = irrep_bases(5, 1)
        assert only.shape == (1,) and only.multiplicity == 1
        assert np.array_equal(only.basis, np.eye(5))

    @pytest.mark.parametrize("n,t", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
    def test_irrep_action_is_a_homomorphism(self, n, t):
        u = haar_unitary(n, SeededRng(n, t))
        v = haar_unitary(n, SeededRng(n, t + 10))
        members = np.stack([u, v, u @ v])
        for b in irrep_bases(n, t):
            ru, rv, ruv = irrep_action(members, b.basis, n, t)
            assert np.allclose(ruv, ru @ rv, atol=1e-12)
            assert np.allclose(ru.conj().T @ ru, np.eye(b.dim), atol=1e-12)

    def test_irrep_action_matches_kronecker_power(self):
        u = haar_unitary(3, SeededRng(5))
        ut = np.kron(np.kron(u, u), u)
        for b in irrep_bases(3, 3):
            (r,) = irrep_action(u[None], b.basis, 3, 3)
            assert np.allclose(r, b.basis.conj().T @ ut @ b.basis, atol=1e-12)

    @pytest.mark.parametrize(
        "n,t", [(2, 1), (5, 1), (1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (1, 4), (2, 4)]
    )
    @pytest.mark.parametrize("family", ["hermitian", "raw"])
    def test_oracle_against_full_dense_svd(self, n, t, family):
        seed = 100 * n + 10 * t
        e = hermitian_ensemble(n, 4, seed) if family == "hermitian" else raw_haar_ensemble(n, 3, seed)
        assert abs(sector_lambda(e, t) - full_dense_lambda(e, t)) <= 1e-10

    @pytest.mark.parametrize("outer_dim,t", [(1, 1), (2, 1), (1, 2)])
    def test_oracle_on_zigzag_products(self, outer_dim, t):
        product = small_zigzag(outer_dim, 70 + outer_dim)
        assert abs(sector_lambda(product, t) - full_dense_lambda(product, t)) <= 1e-10

    @pytest.mark.parametrize("n,t", [(2, 2), (3, 2), (2, 3)])
    def test_false_involution_falls_back_to_the_svd(self, n, t):
        raw = raw_haar_ensemble(n, 3, 30 + n)
        claimed = dataclasses.replace(raw, involution=(1, 0, 2))  # U_1 != U_0†, so the blocks are not Hermitian
        assert abs(sector_lambda(claimed, t) - full_dense_lambda(raw, t)) <= 1e-10

    def test_pauli_exact(self):
        assert sector_lambda(pauli_ensemble(), 1) == 0.0
        assert sector_lambda(pauli_ensemble(), 2) == pytest.approx(1.0, abs=1e-12)

    def test_report_fields_unchanged(self):
        rep = lambda_report(hermitian_ensemble(3, 4, 2), 2, method="dense-svd", rng=SeededRng(4))
        assert (rep.method, rep.iterations, rep.residual, rep.converged, rep.seed) == ("dense-svd", 0, 0.0, True, 4)
        assert rep.lambda_ == sector_lambda(hermitian_ensemble(3, 4, 2), 2)

    def test_dense_path_builds_no_fixed_space_basis(self, monkeypatch):
        import qtpe.moments as m

        def refuse(*args):
            raise AssertionError("the dense path must not build the fixed-space basis")

        monkeypatch.setattr(m, "fixed_space_basis", refuse)
        assert lambda_report(pauli_ensemble(), 2).method == "dense-svd"

    def test_rerun_bit_identical(self):
        e = raw_haar_ensemble(3, 5, 9)
        assert sector_lambda(e, 2) == sector_lambda(e, 2)


def hermitian_basis(d):
    """The unitary T whose columns are vec(E_jj), then vec((E_jk + E_kj)/sqrt 2)
    and then vec(i(E_jk - E_kj)/sqrt 2) for j < k in row-major order."""
    j, k = np.triu_indices(d, 1)
    sym, anti = np.zeros((d * d, j.size), dtype=complex), np.zeros((d * d, j.size), dtype=complex)
    cols = np.arange(j.size)
    sym[j * d + k, cols] = sym[k * d + j, cols] = np.sqrt(0.5)
    anti[j * d + k, cols], anti[k * d + j, cols] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
    diag = np.zeros((d * d, d), dtype=complex)
    diag[np.arange(d) * (d + 1), np.arange(d)] = 1.0
    return np.hstack([diag, sym, anti])


def sector_reps(e, t):
    """R_lambda(U_i) for every irrep lambda of (C^n)^(x t), in partition order."""
    return [irrep_action(e.unitaries, b.basis, e.dim, t) for b in irrep_bases(e.dim, t)]


def complex_diagonal_block(r):
    """sector_block(R, R) minus vec(I)vec(I)†/d, on C^(d^2)."""
    d = r.shape[1]
    vec_eye = np.eye(d).reshape(-1)
    return sector_block(r, r) - np.outer(vec_eye, vec_eye) / d


# t = 1..4, with n < t at (1, 2), (1, 3), (2, 3), (2, 4) and (3, 4)
HERMITIAN_COORDINATE_CASES = [(2, 1), (4, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3), (2, 4), (3, 4)]


class TestHermitianCoordinates:
    """The real form of each diagonal Schur-Weyl block against its complex
    block, in the style of criterion 8: same spectrum, or same singular values
    without an involution, to 1e-10."""

    @staticmethod
    def reps(n, t, family):
        seed = 100 * n + 10 * t + 3
        return sector_reps(hermitian_ensemble(n, 4, seed) if family == "hermitian" else raw_haar_ensemble(n, 3, seed), t)

    @pytest.mark.parametrize("n,t", HERMITIAN_COORDINATE_CASES)
    @pytest.mark.parametrize("family", ["hermitian", "raw"])
    def test_real_block_is_the_complex_block_in_the_hermitian_basis(self, n, t, family):
        for r in self.reps(n, t, family):
            basis = hermitian_basis(r.shape[1])
            assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-14)
            rotated = basis.conj().T @ complex_diagonal_block(r) @ basis
            real = hermitian_sector_block(r)
            assert real.dtype == np.float64 and real.shape == rotated.shape
            assert np.max(np.abs(rotated.imag), initial=0.0) <= 1e-13  # the discarded part is roundoff
            assert np.max(np.abs(real - rotated.real), initial=0.0) <= 1e-13

    @pytest.mark.parametrize("n,t", HERMITIAN_COORDINATE_CASES)
    def test_hermitian_spectrum_matches_the_complex_block(self, n, t):
        for r in self.reps(n, t, "hermitian"):
            real = hermitian_sector_block(r)
            assert np.max(np.abs(real - real.T), initial=0.0) <= 1e-13
            complex_eigs = np.linalg.eigvalsh(complex_diagonal_block(r))
            assert np.max(np.abs(np.linalg.eigvalsh(real) - complex_eigs)) <= 1e-10

    @pytest.mark.parametrize("n,t", HERMITIAN_COORDINATE_CASES)
    def test_raw_singular_values_match_the_complex_block(self, n, t):
        for r in self.reps(n, t, "raw"):
            real_sv = np.linalg.svd(hermitian_sector_block(r), compute_uv=False)
            complex_sv = np.linalg.svd(complex_diagonal_block(r), compute_uv=False)
            assert np.max(np.abs(real_sv - complex_sv)) <= 1e-10

    def test_t1_pauli_block_is_exactly_zero(self):
        (r,) = sector_reps(pauli_ensemble(), 1)
        assert np.array_equal(hermitian_sector_block(r), np.zeros((4, 4)))

    def test_sector_lambda_peak_memory_at_n6_t2(self):
        # the dense_t2 shape: diagonal blocks 441 and 225, off-diagonal 315. At
        # most the complex 441^2 GEMM result and the real 441^2 block are alive
        # at once, plus the chunks being gathered; the complex-block path held
        # about 9.1 MB (the block, its transposed copy and B - B†)
        e = hermitian_ensemble(6, 8, 0)
        tracemalloc.start()
        try:
            sector_lambda(e, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        side = 21 * 21
        assert peak <= 16 * side**2 + 8 * side**2 + 6 * _CHUNK_BYTES < 9.1e6

    def test_implicit_complex_to_real_cast_fails_the_suite(self, pytestconfig):
        # a cast that drops an imaginary part in the real-block path cannot pass unnoticed
        warning = getattr(np, "exceptions", np).ComplexWarning
        assert f"error::{warning.__module__}.{warning.__qualname__}" in pytestconfig.getini("filterwarnings")
        with pytest.raises(warning):
            np.zeros(2)[:] = np.full(2, 1j)


class TestDesignIterations:
    def test_example_small(self):
        assert design_iterations_needed(1, 2, 0.5, 0.5) == 2

    def test_example_larger(self):
        assert design_iterations_needed(2, 4, 1e-3, 0.8) == 44

    def test_lambda_one_rejected(self):
        with pytest.raises(PreconditionError):
            design_iterations_needed(1, 2, 0.5, 1.0)


class TestSubspaceCloseness:
    def test_t1_all_zero(self):
        rep = subspace_closeness_report(2, 4, 1)
        assert rep.w_to_wprime == pytest.approx(0.0, abs=1e-10)
        assert rep.wprime_to_w == pytest.approx(0.0, abs=1e-10)
        assert rep.w2prime_to_w2 == pytest.approx(0.0, abs=1e-10)

    def test_t2_values_within_bounds_and_monotone(self):
        reports = {d: subspace_closeness_report(2, d, 2) for d in (4, 8)}
        for d, rep in reports.items():
            assert max(rep.w_to_wprime, rep.wprime_to_w) <= rep.bound_pair + 1e-12
            assert rep.w2prime_to_w2 <= rep.bound_pair + 1e-12
            assert max(rep.perp_w_to_wprime, rep.perp_wprime_to_w) <= rep.bound_perp + 1e-12
            assert all(rep.claims.values())
        assert reports[8].w_to_wprime < reports[4].w_to_wprime

    def test_t1_claims_hold_despite_roundoff(self):
        # both bounds are exactly 0 at t=1 while the distances are ~2e-16
        rep = subspace_closeness_report(2, 2, 1)
        assert rep.bound_pair == 0.0 and rep.bound_perp == 0.0
        assert 0.0 < rep.w_to_wprime <= 1e-15
        assert all(rep.claims.values())

    @pytest.mark.parametrize("inner", [2, 3, 4, 8])
    def test_t2_claims_match_the_bare_comparison(self, inner):
        rep = subspace_closeness_report(2, inner, 2)
        bare = {
            "pair_w": max(rep.w_to_wprime, rep.wprime_to_w) <= rep.bound_pair,
            "pair_w2": rep.w2prime_to_w2 <= rep.bound_pair,
            "perp_w": max(rep.perp_w_to_wprime, rep.perp_wprime_to_w) <= rep.bound_perp,
            "perp_w2": rep.perp_w2prime_to_w2 <= rep.bound_perp,
        }
        assert rep.claims == bare

    def test_t2_d4_analytic_value(self):
        # distance from W into W' is sqrt(1 - (d)_t/d^t) for the pure generators:
        # at t=2, d=4 the deficit is 1/4 with Gram corrections pushing it to 0.57735
        rep = subspace_closeness_report(2, 4, 2)
        assert rep.w_to_wprime == pytest.approx(0.5773502691896257, abs=1e-9)

    def test_guard(self):
        with pytest.raises(SizeLimitError):
            subspace_closeness_report(2, 4, 4)
        with pytest.raises(PreconditionError):
            subspace_closeness_report(0, 4, 2)
