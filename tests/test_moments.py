"""Moment operator, fixed space, spectra, design errors, subspace closeness."""

import dataclasses
import functools
import json
import tracemalloc

import numpy as np
import pytest

from conftest import (
    dense_lambda,
    distinct_columns,
    hermitian_ensemble,
    identity,
    identity_ensemble,
    orthonormalize,
    pauli_ensemble,
    raw_haar_ensemble,
    regroup_indices,
    sector_reference_apply,
    shuffle_columns,
    svd_closeness,
    svd_deviation,
    svd_fixed_space,
)
from qtpe.ensemble import (
    Stage,
    UnitaryEnsemble,
    hermitian_double,
    involution_defect,
    load,
    product_ensemble,
    sample_random_qtpe,
    save,
    square_compose,
)
from qtpe.errors import PreconditionError, SizeLimitError
from qtpe.linalg import DENSE_LIMIT, LinearMap, SeededRng, haar_unitary, spectral_norm
from qtpe.moments import (
    MomentOperator,
    SectorOperator,
    _CHUNK_BYTES,
    _lanczos_is_cheaper,
    _sector_bytes,
    _symmetriser_columns,
    _takes_sectors,
    design_errors,
    hermitian_sector_block,
    irrep_action,
    irrep_actions,
    irrep_bases,
    sector_block,
    alpha_sigma,
    design_error_monomial,
    fixed_space_basis,
    HERMITIAN_DEFECT,
    MAX_T_BASIS,
    lambda_report,
    shuffle_operator,
    subspace_closeness_report,
)
from qtpe.perms import (
    Permutation,
    all_permutations,
    cycle_count,
    column_group,
    cycle_gram_matrix,
    falling_factorial,
    partitions,
    permutation_gram,
    row_group,
    semistandard_words,
    sign,
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
    """The distinct-tuple family alpha' of the closeness oracle, and the facts
    the closed form of subspace_closeness_report rests on."""

    def test_t1_equals_alpha(self):
        assert np.array_equal(distinct_columns(3, 1), shuffle_columns(3, 1))

    def test_norm_is_falling_factorial_fraction(self):
        a = distinct_columns(2, 2)
        assert np.linalg.norm(a[:, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)  # (2)_2 / 2^2

    @pytest.mark.parametrize("d,t", [(3, 2), (4, 3), (3, 3)])
    def test_cross_orthogonality(self, d, t):
        # the alpha' family and its cross Gram with alpha are both c I, c = (d)_t/d^t
        a, ap = shuffle_columns(d, t), distinct_columns(d, t)
        c = falling_factorial(d, t) / d**t
        for gram in (ap.T @ ap, a.T @ ap):
            assert np.max(np.abs(gram - c * np.eye(gram.shape[0]))) <= 1e-12

    def test_shuffle_columns_are_the_alphas(self):
        cols = shuffle_columns(2, 3)
        for i, sig in enumerate(all_permutations(3)):
            assert np.max(np.abs(cols[:, i] - alpha_sigma(sig, 2, 3).reshape(-1))) <= 1e-15


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


def numeric_gram(n, t):
    """<alpha_sigma, alpha_sigma'> over the shuffle family, in permutation order."""
    stacked = np.stack([alpha_sigma(sig, n, t).reshape(-1) for sig in all_permutations(t)], axis=1)
    return stacked.conj().T @ stacked


class TestFixedSpaceBasis:
    @pytest.mark.parametrize("n,t,rank", [(3, 2, 2), (4, 2, 2), (3, 3, 6), (2, 3, 5), (2, 1, 1)])
    def test_ranks(self, n, t, rank):
        assert fixed_space_basis(n, t).rank == rank

    def test_t1_projection_is_the_normalised_trace(self):
        m = SeededRng(4).generator().standard_normal((2, 2)) + 0j
        x = m.reshape(-1).copy()
        fixed_space_basis(2, 1).project_out(x)
        assert np.allclose(m.reshape(-1) - x, np.trace(m) / 2 * np.eye(2).reshape(-1), atol=1e-15)

    @pytest.mark.parametrize("n,t", [(2, 2), (3, 2), (2, 3)])
    def test_fixes_the_family(self, n, t):
        # every alpha_sigma lies in W, rank-deficient (2, 3) included
        basis = fixed_space_basis(n, t)
        for sig in all_permutations(t):
            a = alpha_sigma(sig, n, t).reshape(-1)
            basis.project_out(a)
            assert np.max(np.abs(a)) <= 1e-10

    @pytest.mark.parametrize("n,t", [(5, 2), (10, 3)])
    def test_gram_equals_identity_plus_cycle_matrix(self, n, t):
        gram = numeric_gram(n, t)
        expected = np.eye(gram.shape[0]) + cycle_gram_matrix(t, n)
        assert np.max(np.abs(gram - expected)) <= 1e-12
        assert np.max(np.abs(gram - permutation_gram(t, n))) <= 1e-12

    def test_projector_is_hermitian(self):
        basis = fixed_space_basis(2, 3)  # rank-deficient path
        g = SeededRng(8).generator()
        x, y = (g.standard_normal(64) + 1j * g.standard_normal(64) for _ in range(2))
        px, py = x.copy(), y.copy()  # (I - P) is Hermitian exactly when P is
        basis.project_out(px)
        basis.project_out(py)
        assert abs(np.vdot(x, py) - np.vdot(px, y)) <= 1e-12

    @pytest.mark.parametrize(
        "n,t",
        [(1, 1), (2, 1)]
        + [(n, t) for t in (2, 3, 4) for n in (t - 1, t, t + 1)]
        + [(2, 5), (3, 5), (2, 6)],
    )
    def test_projector_matches_the_svd_oracle(self, n, t):
        # n < t, n = t and n > t for t <= 4, and n < t at t = 5, 6
        q, rank = svd_fixed_space(n, t)
        basis = fixed_space_basis(n, t)
        g = SeededRng(n, t).generator()
        x = g.standard_normal((n ** (2 * t), 3)) + 1j * g.standard_normal((n ** (2 * t), 3))
        residual = x.T.copy()
        for row in residual:
            basis.project_out(row)
        assert basis.rank == rank
        assert np.max(np.abs(residual.T - (x - q @ (q.T @ x)))) <= 1e-10

    @pytest.mark.parametrize("n,t", [(1, 1), (5, 1), (1, 2), (2, 3), (3, 3), (3, 4)])
    def test_project_out_subtracts_the_projection_in_place(self, n, t):
        q, _ = svd_fixed_space(n, t)
        basis = fixed_space_basis(n, t)
        g = SeededRng(n, t).generator()
        x = g.standard_normal(n ** (2 * t)) + 1j * g.standard_normal(n ** (2 * t))
        expected = x - q @ (q.T @ x)
        basis.project_out(x)
        assert np.max(np.abs(x - expected)) <= 1e-14

    @pytest.mark.parametrize("n", [5, 7])
    def test_peak_memory_stays_below_4_mb(self, n):
        # the basis holds t! n^t gather positions and a t! x t! matrix; a dense
        # shuffle family at (5, 4) alone is 24 * 5^8 complex entries, 150 MB
        tracemalloc.start()
        try:
            basis = fixed_space_basis(n, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.rank == 24 and peak < 4 * 2**20


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


def stage_kernel_product(kind):
    """A product on C^4 or C^16 whose lifted stages take the moment-matrix kernel
    and whose Gdot takes the controlled one: zigzag with an involution-carrying
    g of 2 members on C^2 and an h of 6 on C^2 (m = outer = 2), the same with a
    g without involution (identity relabelling), or generalised with d = 2 and
    d' = 1 or 2 (each of g's blocks repeated d' times; g on C^4 when d' = 2,
    so that m <= outer)."""
    if kind == "zigzag":
        g = hermitian_double(UnitaryEnsemble(2, raw_haar_ensemble(2, 1, seed=60).unitaries))
        return zigzag(g, sample_random_qtpe(2, 6, SeededRng(61)))
    if kind == "zigzag-no-involution":
        return zigzag(raw_haar_ensemble(2, 2, seed=62), sample_random_qtpe(2, 6, SeededRng(61)))
    dprime = int(kind[-1])  # generalised-d'1 or generalised-d'2
    g = raw_haar_ensemble(2 * dprime, 2, seed=63)
    return zigzag_generalised(g, [raw_haar_ensemble(2 * dprime, 3, seed=64 + i) for i in range(2)], 2, dprime)


def kernel_kinds(e, t):
    return [k.kind for k in MomentOperator(e, t)._kernels]


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


WORKSPACE_CASES = [("raw", 1), ("raw", 2), ("raw", 3), ("zigzag", 2), ("staged", 1), ("staged", 2), ("staged", 3)]
# SectorOperator, whose workspace and apply plan are built at its first apply
SECTOR_WORKSPACE_CASES = [("sector-hermitian", 1), ("sector-hermitian", 3), ("sector-raw", 1), ("sector-raw", 3)]


def workspace_case(kind, t):
    """A MomentOperator and two random inputs: 5 Haar members on C^2, the
    staged product with outer = 2, or a zigzag product whose stages take the
    moment-matrix and the controlled kernels; or a SectorOperator of 4
    members on C^3, a sampled Hermitian family or independent Haar ones."""
    if kind == "raw":
        e = raw_haar_ensemble(2, 5, seed=17)
    elif kind.startswith("sector"):
        e = hermitian_ensemble(3, 4, 17) if kind == "sector-hermitian" else raw_haar_ensemble(3, 4, seed=17)
    else:
        e = staged_product() if kind == "staged" else stage_kernel_product(kind)
    phi = SectorOperator(e, t) if kind.startswith("sector") else MomentOperator(e, t)
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
    @pytest.mark.parametrize("kind,t", WORKSPACE_CASES + SECTOR_WORKSPACE_CASES)
    def test_results_never_alias_the_workspace(self, kind, t):
        phi, x, y = workspace_case(kind, t)
        forward, backward = phi.apply_vec(x), phi.adjoint_apply_vec(x)
        kept = forward.copy(), backward.copy()
        phi.apply_vec(y)
        phi.adjoint_apply_vec(y)
        assert np.array_equal(forward, kept[0]) and np.array_equal(backward, kept[1])

    @pytest.mark.parametrize("kind,t", WORKSPACE_CASES + SECTOR_WORKSPACE_CASES)
    def test_reapply_after_another_input_is_bit_identical(self, kind, t):
        phi, x, y = workspace_case(kind, t)
        first = phi.apply_vec(x), phi.adjoint_apply_vec(x)
        phi.apply_vec(y)
        phi.adjoint_apply_vec(y)
        assert np.array_equal(phi.apply_vec(x), first[0])
        assert np.array_equal(phi.adjoint_apply_vec(x), first[1])

    # staged t=3 would materialise 4096 x 4096
    @pytest.mark.parametrize("kind,t", WORKSPACE_CASES[:-1] + SECTOR_WORKSPACE_CASES)
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


def certify_shaped_product(g_dim):
    """zigzag of g on C^g_dim with 8 members and h on C^8 with 4: g_dim = 9 is the
    certify_zigzag benchmark's product, 32 the criterion-2 product."""
    return zigzag(sample_random_qtpe(g_dim, 8, SeededRng(70)), sample_random_qtpe(8, 4, SeededRng(71)))


class TestStageKernels:
    @pytest.mark.parametrize(
        "kind,t",
        [
            ("zigzag", 1),
            ("zigzag", 2),
            ("zigzag", 3),
            ("zigzag-no-involution", 1),
            ("zigzag-no-involution", 2),
            ("generalised-d'1", 1),
            ("generalised-d'1", 2),
            ("generalised-d'2", 1),
        ],
    )
    def test_moment_matrix_and_controlled_kernels_match_dense(self, kind, t):
        phi = MomentOperator(stage_kernel_product(kind), t)
        assert [k.kind for k in phi._kernels] == ["moment-matrix", "controlled", "moment-matrix"]
        assert_matches_dense(phi)

    @pytest.mark.parametrize("copies,t", [(1, 1), (1, 2), (2, 1)])
    def test_controlled_kernel_with_a_relabelling_that_is_not_an_involution(self, copies, t):
        # a 3-cycle tells r from r^-1, which every involution leaves equal; with
        # each block repeated, (b, c) -> (r(b), c) cycles the repeated blocks
        blocks = np.repeat(raw_haar_ensemble(2, 3, seed=65).unitaries, copies, axis=0)
        relabel = [copies * r + c for r in (1, 2, 0) for c in range(copies)]
        phi = MomentOperator(product_ensemble([Stage(blocks, relabel=relabel)], None, "cycle"), t)
        assert [k.kind for k in phi._kernels] == ["controlled"]
        assert_matches_dense(phi)

    @pytest.mark.parametrize("kind", ["zigzag", "generalised-d'2"])
    def test_lambda_matches_the_saved_product(self, kind, tmp_path):
        product = stage_kernel_product(kind)
        save(product, tmp_path / "p.qtpe")
        kwargs = dict(method="power-iteration", tol=1e-10, rng=SeededRng(5), max_iters=4000)
        staged, members = lambda_report(product, 1, **kwargs), lambda_report(load(tmp_path / "p.qtpe"), 1, **kwargs)
        assert staged.converged and members.converged
        assert abs(staged.lambda_ - members.lambda_) <= 1e-10

    @pytest.mark.parametrize("g_dim", [9, 32])
    def test_certify_and_criterion_2_lifted_stages_take_the_moment_matrix_at_t1_only(self, g_dim):
        product = certify_shaped_product(g_dim)
        # m = 8 <= outer and m^2 = 64 <= 2t*s*m = 64 multiply-adds per entry
        assert kernel_kinds(product, 1) == ["moment-matrix", "controlled", "moment-matrix"]
        # m^4 = 4096 against the member kernel's 2t*s*m = 128
        assert kernel_kinds(product, 2) == ["member", "controlled", "member"]

    def test_haar_ensembles_and_lifted_stages_wider_than_outer_keep_the_member_kernel(self):
        # outer = 1: K_t would hold m^4t entries, more than the m^2t of the vector
        for t in (1, 2, 3):
            assert kernel_kinds(sample_random_qtpe(4, 8, SeededRng(72)), t) == ["member"]
        # h on C^4 lifted by g on C^3: m = 4 > outer = 3
        assert kernel_kinds(small_product("zigzag"), 1) == ["member", "controlled", "member"]

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("kind", PRODUCT_KINDS)
    def test_every_gdot_stage_takes_the_controlled_kernel(self, kind, t):
        product = small_product(kind)
        controlled = [k == "controlled" for k in kernel_kinds(product, t)]
        assert controlled == [st.relabel is not None for st in product.stages]
        assert any(controlled) == (kind == "zigzag" or kind.startswith("generalised"))

    def test_certify_shaped_apply_allocates_only_its_result(self):
        phi = MomentOperator(certify_shaped_product(9), 1)
        # a stage's input and its result, two complex vectors, plus numpy's
        # per-call bookkeeping; a fresh intermediate would add a third vector
        assert apply_peak_bytes(phi) <= 2 * 16 * phi.ambient + 4096


class TestIdealApply:
    """FixedSpaceBasis.project_out removes the Haar average, the projection onto W."""

    def test_fixes_alphas(self):
        basis = fixed_space_basis(2, 2)
        for sig in all_permutations(2):
            a = alpha_sigma(sig, 2, 2).reshape(-1)
            basis.project_out(a)
            assert np.allclose(a, 0.0, atol=1e-10)

    def test_kills_traceless_offdiagonal_t1(self):
        basis = fixed_space_basis(3, 1)
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 1.0
        x = m.reshape(-1).copy()
        basis.project_out(x)
        assert np.allclose(x, m.reshape(-1), atol=1e-12)

    def test_idempotent(self):
        basis = fixed_space_basis(2, 3)
        g = SeededRng(7).generator()
        x = g.standard_normal(64) + 1j * g.standard_normal(64)
        basis.project_out(x)
        once = x.copy()
        basis.project_out(x)
        assert np.allclose(x, once, atol=1e-10)


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


def count_applies(monkeypatch):
    """Count the forward and adjoint applies of the map Lanczos ran, into a
    dict per class name. SectorOperator shares MomentOperator's apply_vec and
    adjoint_apply_vec, so wrapping those two counts either map."""
    counts = {name: {"apply": 0, "adjoint": 0} for name in ("MomentOperator", "SectorOperator")}
    for name, key in (("apply_vec", "apply"), ("adjoint_apply_vec", "adjoint")):
        real = getattr(MomentOperator, name)

        def counted(self, x, real=real, key=key):
            counts[type(self).__name__][key] += 1
            return real(self, x)

        monkeypatch.setattr(MomentOperator, name, counted)
    return counts


def one_member(n, kind):
    """One Haar member, or a Hermitian one, a reflection U = U† with eigenvalues +-1."""
    if kind == "raw":
        return raw_haar_ensemble(n, 1, 60 + n)
    v = haar_unitary(n, SeededRng(60 + n))
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return UnitaryEnsemble(n, ((v * signs) @ v.conj().T)[None], (0,), "reflection")


def lanczos_map(e, t):
    """The class of the map the iterative path runs Lanczos on."""
    return "SectorOperator" if _takes_sectors(e, t) else "MomentOperator"


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
        exact = float(np.max(np.abs(np.linalg.eigvalsh(svd_deviation(e, t)))))
        assert rep.converged and abs(rep.lambda_ - exact) <= 1e-10

    def test_negative_end_counts(self):
        # the Paulis X, Y, Z (each its own adjoint) average to X -> (tr X) I/2 - X/3
        # on traceless X at t = 1: Phi - P has the single eigenvalue -1/3 on W^perp
        paulis = pauli_ensemble().unitaries[1:]
        e = UnitaryEnsemble(2, paulis, (0, 1, 2), "xyz")
        rep = lambda_report(e, 1, method="power-iteration", tol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(svd_deviation(e, 1)), [-1 / 3] * 3 + [0.0])
        assert rep.converged and abs(rep.lambda_ - 1 / 3) <= 1e-12

    def assert_counts(self, counts, e, t, rep, adjoints):
        # every ensemble here is stage-less with two members or more, so at
        # t = 1 and t = 2 alike Lanczos runs on the Schur-Weyl blocks
        ran = lanczos_map(e, t)
        assert ran == "SectorOperator"
        assert rep.converged and counts.pop(ran) == {"apply": rep.iterations, "adjoint": adjoints}
        assert counts == {name: {"apply": 0, "adjoint": 0} for name in counts}

    def test_hermitian_ensemble_makes_no_adjoint_apply(self, monkeypatch):
        e = hermitian_ensemble(4, 6, 7)
        counts = count_applies(monkeypatch)
        rep = lambda_report(e, 2, method="power-iteration", rng=SeededRng(3))
        self.assert_counts(counts, e, 2, rep, 0)
        assert rep.applies == rep.iterations > 0

    def test_ensemble_without_involution_applies_twice_per_step(self, monkeypatch):
        e = raw_haar_ensemble(4, 3, 7)
        counts = count_applies(monkeypatch)
        rep = lambda_report(e, 2, method="power-iteration", rng=SeededRng(3))
        self.assert_counts(counts, e, 2, rep, rep.iterations)
        assert rep.applies == 2 * rep.iterations > 0

    @pytest.mark.parametrize("kind", ["hermitian", "raw"])
    def test_t1_applies_count_the_moment_operator(self, monkeypatch, kind):
        e = hermitian_ensemble(4, 6, 7) if kind == "hermitian" else raw_haar_ensemble(4, 3, 7)
        counts = count_applies(monkeypatch)
        rep = lambda_report(e, 1, method="power-iteration", rng=SeededRng(3))
        self.assert_counts(counts, e, 1, rep, 0 if kind == "hermitian" else rep.iterations)
        assert rep.applies == (1 if kind == "hermitian" else 2) * rep.iterations > 0

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
        assert lanczos_map(loaded, 1) == "SectorOperator"
        counts = count_applies(monkeypatch)["SectorOperator"]
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


# (n, s, t) at which auto keeps the dense norms of the Schur-Weyl blocks, and
# at which it moves to Lanczos on them, as timed in the README's table
STAYS_DENSE = [(8, 4, 1), (9, 8, 1), (3, 8, 2), (4, 8, 2), (2, 8, 3), (2, 8, 4)]
MOVES = [(24, 8, 1), (32, 8, 1), (6, 8, 2), (7, 8, 2), (8, 8, 2), (4, 8, 3)]


def auto_case(n, s, seed, family="hermitian"):
    return hermitian_ensemble(n, s, seed) if family == "hermitian" else raw_haar_ensemble(n, s, seed)


class TestAutoRoute:
    """auto prices the dense norms of the Schur-Weyl blocks against Lanczos on
    them from shapes alone, and takes the cheaper one."""

    @pytest.mark.parametrize("involution", [True, False], ids=["involution", "none"])
    @pytest.mark.parametrize("shape", STAYS_DENSE + MOVES, ids=str)
    def test_pinned_routes(self, shape, involution):
        assert _lanczos_is_cheaper(*shape, involution) == (shape in MOVES)

    @pytest.mark.parametrize("shape", STAYS_DENSE, ids=str)
    def test_small_shapes_report_the_dense_path(self, shape):
        n, s, t = shape
        e = auto_case(n, s, 1)
        assert _takes_sectors(e, t)
        assert lambda_report(e, t).method == "dense-svd"

    # criterion 8's oracle on the moved shapes with ambient n^2t <= 1296, and
    # on one family without an involution, where Lanczos runs on Phi†Phi
    @pytest.mark.parametrize(
        "n,s,t,family",
        [(24, 8, 1, "hermitian"), (32, 8, 1, "hermitian"), (6, 8, 2, "hermitian"), (6, 8, 2, "raw")],
        ids=["24-8-1", "32-8-1", "6-8-2", "raw-6-8-2"],
    )
    def test_moved_lambda_matches_the_dense_path(self, n, s, t, family):
        e = auto_case(n, s, 20 + n, family)
        rep = lambda_report(e, t, rng=SeededRng(3))
        assert rep.method == "power-iteration" and rep.converged and rep.applies > 0
        assert abs(rep.lambda_ - lambda_report(e, t, method="dense-svd").lambda_) <= 1e-10

    @pytest.mark.parametrize("shape", [(9, 8, 1), (4, 8, 2), (6, 8, 2), (4, 8, 3)], ids=str)
    @pytest.mark.parametrize("family", ["hermitian", "raw"])
    def test_two_draws_take_the_same_route(self, shape, family):
        n, s, t = shape
        first, second = (lambda_report(auto_case(n, s, seed, family), t) for seed in (5, 6))
        assert first.method == second.method

    def test_unconverged_route_returns_the_dense_report(self, monkeypatch):
        import qtpe.moments as m

        e = auto_case(6, 8, 1)
        assert lambda_report(e, 2, method="power-iteration", max_iters=20).converged is False
        # the dense norms read the operator Lanczos ran on: one set of bases
        bases = []
        monkeypatch.setattr(m, "irrep_bases", lambda *args, real=m.irrep_bases: bases.append(args) or real(*args))
        rep = lambda_report(e, 2, max_iters=20, rng=SeededRng(7))
        assert bases == [(6, 2)]
        assert (rep.method, rep.converged, rep.iterations, rep.applies, rep.residual) == ("dense-svd", True, 0, 0, 0.0)
        assert rep.lambda_ == dense_lambda(e, 2) and rep.seed == 7

    def test_products_keep_the_dense_path(self):
        # the price would move it, but the blocks do not admit a product
        e = square_compose(raw_haar_ensemble(24, 2, 3))
        assert _lanczos_is_cheaper(e.dim, e.size, 1, False) and not _takes_sectors(e, 1)
        assert lambda_report(e, 1).method == "dense-svd"

    def test_near_hermitian_file_is_priced_outside_the_gate(self, tmp_path):
        # a file may pass validation with an involution defect up to 1e-8 * dim;
        # above HERMITIAN_DEFECT it is priced, as it is solved, for Phi†Phi and
        # the SVD, where Lanczos wins at (16, 8, 1), and not for eigvalsh,
        # where the dense norms win as they do for the family it was made from
        e = hermitian_ensemble(16, 8, 3)
        members = e.unitaries.copy()
        members[0, 0, 0] += 1e-10
        save(UnitaryEnsemble(16, members, e.involution, "near-hermitian"), tmp_path / "near.qtpe")
        loaded = load(tmp_path / "near.qtpe")
        assert HERMITIAN_DEFECT < involution_defect(loaded) <= 1e-8
        assert lambda_report(e, 1).method == "dense-svd"
        rep = lambda_report(loaded, 1)
        assert rep.method == "power-iteration" and rep.converged
        assert abs(rep.lambda_ - lambda_report(loaded, 1, method="dense-svd").lambda_) <= 1e-10


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

    @pytest.mark.parametrize("t,k", [(5, 1), (1, 2 * 10**5)])
    def test_checked_as_design_errors_before_any_apply(self, monkeypatch, t, k):
        # t above the lambda guard, and dim^t k = 4 * 10^5 applies above
        # DESIGN_APPLY_LIMIT, are refused as design_errors refuses them
        import qtpe.moments as m

        def refuse(*args):
            raise AssertionError("the moment operator was applied")

        monkeypatch.setattr(m.MomentOperator, "apply_vec", refuse)
        with pytest.raises(SizeLimitError):
            design_errors(pauli_ensemble(), t, [k])
        with pytest.raises(SizeLimitError):
            design_error_monomial(pauli_ensemble(), t, k, (0,) * t, (0,) * t)

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
    return float(np.linalg.svd(svd_deviation(e, t), compute_uv=False)[0])


def small_zigzag(outer_dim, seed):
    g = sample_random_qtpe(outer_dim, 4, SeededRng(seed))
    h = sample_random_qtpe(4, 4, SeededRng(seed + 1))
    return zigzag(g, h)


def dense_symmetriser(shape, n, t):
    """The Young symmetriser (sum_row P_p)(sum_col sgn(q) P_q) of `shape`, as
    the product of the two dense n^t x n^t group sums."""
    rows = sum(shuffle_operator(p, n, t) for p in row_group(shape))
    cols = sum(sign(q) * shuffle_operator(q, n, t) for q in column_group(shape))
    return rows @ cols


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

    @pytest.mark.parametrize("n,t", [(1, 2), (3, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
    def test_symmetriser_columns_are_those_of_the_product_of_the_group_sums(self, n, t):
        # bit for bit, signed zeros included: the columns QR reads are exact
        for shape in partitions(t):
            words = semistandard_words(shape, n)
            product = dense_symmetriser(shape, n, t)[:, words]
            assert not product.imag.any()
            assert _symmetriser_columns(shape, n, t, words).tobytes() == product.real.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_semistandard_word_counts_are_hook_content_dims(self, n):
        for t in range(1, MAX_T_BASIS + 1):
            for shape in partitions(t):
                assert semistandard_words(shape, n).size == unitary_irrep_dim(shape, n)

    @pytest.mark.parametrize("n,t", [(4, 3), (6, 2), (3, 4), (2, 5)])
    def test_projectors_match_the_svd_of_the_dense_symmetriser(self, n, t):
        for b in irrep_bases(n, t):
            oracle, rank = orthonormalize(dense_symmetriser(b.shape, n, t))
            assert rank == b.dim
            assert np.max(np.abs(b.basis @ b.basis.T - oracle @ oracle.conj().T)) <= 1e-12

    def test_bases_at_six_dimensions_and_t4_stay_small(self):
        # the SVDs of the dense n^t x n^t symmetrisers peak at 88 MiB here
        tracemalloc.start()
        try:
            irrep_bases(6, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_bases_hold_only_their_columns(self):
        for b in irrep_bases(3, 3):
            assert b.basis.base is None or b.basis.base.size == b.basis.size

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
        assert abs(dense_lambda(e, t) - full_dense_lambda(e, t)) <= 1e-10

    @pytest.mark.parametrize("outer_dim,t", [(1, 1), (2, 1), (1, 2)])
    def test_oracle_on_zigzag_products(self, outer_dim, t):
        product = small_zigzag(outer_dim, 70 + outer_dim)
        assert abs(dense_lambda(product, t) - full_dense_lambda(product, t)) <= 1e-10

    @pytest.mark.parametrize("n,t", [(2, 2), (3, 2), (2, 3)])
    def test_false_involution_falls_back_to_the_svd(self, n, t):
        raw = raw_haar_ensemble(n, 3, 30 + n)
        claimed = dataclasses.replace(raw, involution=(1, 0, 2))  # U_1 != U_0†, so the blocks are not Hermitian
        assert abs(dense_lambda(claimed, t) - full_dense_lambda(raw, t)) <= 1e-10

    def test_pauli_exact(self):
        assert dense_lambda(pauli_ensemble(), 1) == 0.0
        assert dense_lambda(pauli_ensemble(), 2) == pytest.approx(1.0, abs=1e-12)

    def test_report_fields_unchanged(self):
        rep = lambda_report(hermitian_ensemble(3, 4, 2), 2, method="dense-svd", rng=SeededRng(4))
        assert (rep.method, rep.iterations, rep.residual, rep.converged, rep.seed) == ("dense-svd", 0, 0.0, True, 4)
        assert rep.lambda_ == dense_lambda(hermitian_ensemble(3, 4, 2), 2)

    def test_dense_path_builds_no_fixed_space_basis(self, monkeypatch):
        import qtpe.moments as m

        def refuse(*args):
            raise AssertionError("the dense path must not build the fixed-space basis")

        monkeypatch.setattr(m, "fixed_space_basis", refuse)
        assert lambda_report(pauli_ensemble(), 2).method == "dense-svd"

    def test_rerun_bit_identical(self):
        e = raw_haar_ensemble(3, 5, 9)
        assert dense_lambda(e, 2) == dense_lambda(e, 2)


# (n, t) at t = 1, where the one block is the whole space, up to the haar_t1
# benchmark's n = 40; n < t, n = t and n > t at t = 2, 3; and n < t and n = t
# at t = 4; n > t at t = 4 is left out: at n = 5 the dense oracle's largest
# block is 11025 x 11025
SECTOR_CASES = [(1, 1), (3, 1), (40, 1), (1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4)]


def sector_case(n, t, family):
    """An ensemble of shape (n, 4, t) that takes the sector path."""
    seed = 10 * n + t
    e = hermitian_ensemble(n, 4, seed) if family == "hermitian" else raw_haar_ensemble(n, 4, seed)
    assert _takes_sectors(e, t)
    return e


def irrep_pairs(e, t):
    """(R_lambda, R_mu, lambda == mu) for every unordered irrep pair, i <= j in
    irrep_actions order: the blocks SectorOperator must hold, listed without it."""
    reps = irrep_actions(e, t)
    return [(reps[i], reps[j], i == j) for i in range(len(reps)) for j in range(i, len(reps))]


class TestSectorOperator:
    """Lanczos on the direct sum of the Schur-Weyl blocks: its applies against
    the dense sector_block of each block, its lambda against the dense path
    and against Lanczos on the moment operator, its dense() against
    dense_lambda, and the shape rule."""

    @pytest.mark.parametrize("n,t", SECTOR_CASES)
    @pytest.mark.parametrize("family", ["hermitian", "raw"])
    def test_applies_match_the_dense_blocks(self, n, t, family):
        e = sector_case(n, t, family)
        pairs, op = irrep_pairs(e, t), SectorOperator(e, t)
        g = SeededRng(n, t).generator()
        x = g.standard_normal(op.ambient) + 1j * g.standard_normal(op.ambient)
        forward, backward = op.apply_vec(x), op.adjoint_apply_vec(x)
        lo = 0
        for left, right, _ in pairs:
            block = sector_block(left, right)
            size = block.shape[0]
            assert np.max(np.abs(forward[lo : lo + size] - block @ x[lo : lo + size])) <= 1e-12
            assert np.max(np.abs(backward[lo : lo + size] - block.conj().T @ x[lo : lo + size])) <= 1e-12
            lo += size
        assert lo == op.ambient == sum(left.shape[1] * right.shape[1] for left, right, _ in pairs)
        if op.ambient <= DENSE_LIMIT:
            assert np.max(np.abs(forward - op.dense() @ x)) <= 1e-12

    @pytest.mark.parametrize("n,t", SECTOR_CASES)
    @pytest.mark.parametrize("family", ["hermitian", "raw"])
    def test_planned_applies_equal_the_per_block_reference(self, n, t, family):
        # the plan's views and offsets and the one division of the result by s
        # change no bit of the plain per-block GEMMs; s = 6 and 5, not a power
        # of two, so that a division moved before a GEMM would round differently
        seed = 10 * n + t
        e = hermitian_ensemble(n, 6, seed) if family == "hermitian" else raw_haar_ensemble(n, 5, seed)
        assert _takes_sectors(e, t)
        op = SectorOperator(e, t)
        g = SeededRng(n, t + 10).generator()
        x = g.standard_normal(op.ambient) + 1j * g.standard_normal(op.ambient)
        forward, backward = sector_reference_apply(e, t, x), sector_reference_apply(e, t, x, adjoint=True)
        for _ in range(2):  # the first apply builds the plan, the second reads it
            assert np.array_equal(op.apply_vec(x), forward)
            assert np.array_equal(op.adjoint_apply_vec(x), backward)

    def test_fixed_space_is_each_diagonal_identity(self):
        e = hermitian_ensemble(3, 4, 1)
        op = SectorOperator(e, 3)
        dims = [(left.shape[1], right.shape[1], diagonal) for left, right, diagonal in irrep_pairs(e, 3)]
        assert op.fixed_space().rank == sum(diagonal for _, _, diagonal in dims) == 3
        g = SeededRng(2).generator()
        x = g.standard_normal(op.ambient) + 1j * g.standard_normal(op.ambient)
        y = x.copy()
        op.fixed_space().project_out(y)
        lo = 0
        for da, db, diagonal in dims:
            block, before = y[lo : lo + da * db].reshape(da, db), x[lo : lo + da * db].reshape(da, db)
            if diagonal:
                assert abs(np.trace(block)) <= 1e-13
                assert np.allclose(block, before - np.trace(before) / da * np.eye(da), atol=1e-14)
            else:
                assert np.array_equal(block, before)
            lo += da * db

    @pytest.mark.parametrize("n,t", SECTOR_CASES)
    @pytest.mark.parametrize("family", ["hermitian", "raw"])
    def test_dense_less_the_projector_has_norm_dense_lambda(self, n, t, family):
        # dense() is the dense path's oracle: its top singular value, with
        # vec(I)vec(I)†/d removed from each diagonal block of the independent
        # pair list, is the lambda dense_lambda reads block by block
        e = sector_case(n, t, family)
        op = SectorOperator(e, t)
        assert op.ambient <= DENSE_LIMIT
        dense, lo = op.dense(), 0
        for left, right, diagonal in irrep_pairs(e, t):
            da, db = left.shape[1], right.shape[1]
            if diagonal:
                ones = lo + (da + 1) * np.arange(da)  # the positions of X's diagonal in the vector
                dense[np.ix_(ones, ones)] -= 1.0 / da
            lo += da * db
        assert lo == op.ambient
        assert abs(op.dense_lambda(family == "hermitian") - np.linalg.svd(dense, compute_uv=False)[0]) <= 1e-10

    # n = t = 4 once: the raw case's complex dense blocks alone take 4 s
    @pytest.mark.parametrize(
        "n,t,family", [(n, t, f) for n, t in SECTOR_CASES for f in ("hermitian", "raw")] + [(4, 4, "hermitian")]
    )
    def test_lambda_matches_dense_and_the_moment_operator(self, n, t, family):
        e = sector_case(n, t, family)
        rep = lambda_report(e, t, method="power-iteration", tol=1e-12, rng=SeededRng(t))
        phi = MomentOperator(e, t)
        full = spectral_norm(
            LinearMap(phi.ambient, phi.apply_vec, phi.adjoint_apply_vec),
            tol=1e-12,
            rng=SeededRng(t),
            deflate=fixed_space_basis(n, t),
            hermitian=family == "hermitian",
        )
        assert rep.converged and full.converged
        assert abs(rep.lambda_ - SectorOperator(e, t).dense_lambda(family == "hermitian")) <= 1e-10
        assert abs(rep.lambda_ - full.value) <= 1e-10

    @pytest.mark.parametrize(
        "n,s,t,sectors",
        [
            (4, 8, 3, True),  # the haar_t3 benchmark shape
            (12, 8, 2, True),  # the largest n measured no slower at t = 2
            (13, 8, 2, False),
            (10, 4, 3, True),  # at t = 3
            (11, 4, 3, False),
            (6, 4, 4, True),  # at t = 4 no n is excluded, only the budget of (b)
            (7, 4, 4, True),  # an apply 0.13 s on the blocks against 0.66 s on the full space
            (7, 20, 4, True),  # holds 252.4 MiB of the 256 MiB
            (7, 21, 4, False),
            (6, 2, 4, True),  # two members: 75 s against 545 s
            (6, 1, 4, True),  # one member: 0.12 s against 0.18 s
            (2, 1, 2, True),
            (6, 66, 4, True),  # holds 254.5 MiB of the 256 MiB that 2 * _BATCH_BYTES allows
            (6, 67, 4, False),
            (4, 8, 1, True),  # t = 1: the one block is the whole space, at any n
            (40, 32, 1, True),  # the haar_t1 benchmark shape
            (4, 1, 1, True),  # one member, at t = 1 too
            (64, 1024, 1, True),  # 64 s n^2 B: 256 MiB, all that 2 * _BATCH_BYTES allows
            (64, 1025, 1, False),
        ],
    )
    def test_shape_rule(self, n, s, t, sectors):
        assert _takes_sectors(raw_haar_ensemble(n, s, 0), t) is sectors

    # one member's Phi is unitary, so lambda = 1 and Lanczos exhausts its Krylov
    # space in a step or two: on Phi†Phi = 1 for a raw member, and on Phi,
    # whose eigenvalues are +-1, for a Hermitian one (a reflection, U = U†,
    # as a Pauli is); t = 4 at n = 4 is above the dense limit, so the oracle
    # is the blocks' dense norms themselves
    @pytest.mark.parametrize("n,t", [(4, 4), (6, 2), (4, 3)], ids=str)
    @pytest.mark.parametrize("kind", ["raw", "hermitian"])
    def test_one_member_lambda_matches_the_dense_blocks(self, n, t, kind):
        e = one_member(n, kind)
        assert _takes_sectors(e, t)
        rep = lambda_report(e, t, method="power-iteration", tol=1e-12, rng=SeededRng(t))
        assert rep.converged and abs(rep.lambda_ - SectorOperator(e, t).dense_lambda(kind == "hermitian")) <= 1e-10

    # at (7, 1, 4) no dense oracle is in reach, the (3, 1) block alone being
    # 142884^2, but lambda = 1 exactly: Lanczos must give it on the blocks
    @pytest.mark.parametrize("kind", ["raw", "hermitian"])
    def test_one_member_lambda_at_n7_t4_is_one_on_the_blocks(self, kind, monkeypatch):
        e = one_member(7, kind)
        counts = count_applies(monkeypatch)
        rep = lambda_report(e, 4, method="power-iteration", tol=1e-12, rng=SeededRng(4))
        assert rep.converged and abs(rep.lambda_ - 1.0) <= 1e-10
        assert counts["SectorOperator"]["apply"] > 0 and counts["MomentOperator"] == {"apply": 0, "adjoint": 0}

    @pytest.mark.parametrize("kind", PRODUCT_KINDS)
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_products_keep_their_stage_kernels(self, kind, t):
        e = small_product(kind)
        assert e.stages and not _takes_sectors(e, t)

    def test_shares_the_moment_operator_applies(self):
        # what counts or times MomentOperator's applies sees the sector map's too
        assert issubclass(SectorOperator, MomentOperator)
        assert "apply_vec" not in vars(SectorOperator) and "adjoint_apply_vec" not in vars(SectorOperator)
        op = SectorOperator(hermitian_ensemble(3, 4, 1), 3)
        with pytest.raises(PreconditionError):
            op.apply(np.eye(27))

    @pytest.mark.parametrize("n,s,t", [(40, 32, 1), (4, 8, 3)], ids=["haar_t1", "haar_t3"])
    def test_applies_after_the_first_allocate_only_their_result(self, n, s, t):
        # a block's two GEMMs write the workspace and the result in place, and
        # the workspace is one row, the largest block's s * d_lambda * d_mu
        # entries; a buffered out= would allocate as many again per apply
        e = sample_random_qtpe(n, s, SeededRng(0))
        assert _takes_sectors(e, t)
        op = SectorOperator(e, t)
        assert apply_peak_bytes(op) <= 16 * op.ambient + 4096
        assert op._work.nbytes <= 16 * s * max(da * db for _, da, db, _, _ in op._blocks)

    def test_memory_stays_within_the_budget_at_large_s(self, monkeypatch):
        import qtpe.moments as m

        # with a 1 MiB _BATCH_BYTES, (n, t) = (3, 3) holds 16 (2 * 165 + 2 * 100) =
        # 8480 B a member (irreps of dimensions 10, 8 and 1), so the rule admits up to
        # s = 247 members against a 2 MiB budget
        budget = 2**20
        monkeypatch.setattr(m, "_BATCH_BYTES", budget)
        assert _sector_bytes(3, 247, 3) == 247 * 8480 <= 2 * budget < _sector_bytes(3, 248, 3)
        e = raw_haar_ensemble(3, 247, 0)
        assert _takes_sectors(e, 3) and not _takes_sectors(raw_haar_ensemble(3, 248, 0), 3)
        tracemalloc.start()
        try:
            op = SectorOperator(e, 3)
            x = np.ones(op.ambient, dtype=complex)
            op.apply_vec(x)
            op.adjoint_apply_vec(x)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # beyond the stacks and the workspace: the vector of 263 entries
        assert held <= _sector_bytes(3, 247, 3) + 2**14
        # building the stacks adds at most one _BATCH_BYTES of transients
        assert peak <= _sector_bytes(3, 247, 3) + budget + 2**14


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

    @pytest.mark.parametrize(
        "n,s,t,earlier",
        [
            # the dense_t2 shape: diagonal blocks 441 and 225, off-diagonal 315;
            # the complex-block path held about 9.1 MB (the block, its
            # transposed copy and B - B†)
            (6, 8, 2, 9.1e6),
            # t = 1 with s >> d^2: the stack is the members themselves, 8.4 MB;
            # laying it out member-minor when the operator is built, not at its
            # first apply, adds H and its conjugate, 26.2 MB or more
            (16, 2048, 1, 26.2e6),
        ],
        ids=["n6-t2", "n16-s2048-t1"],
    )
    def test_dense_lambda_peak_memory(self, n, s, t, earlier):
        # at most the conjugate of the largest diagonal block's stack, which its
        # GEMM reads, the complex side^2 GEMM result and the real side^2 block
        # are alive at once, plus the chunks being gathered
        e = hermitian_ensemble(n, s, 0)
        involution_defect(e)  # measured once and kept on e, as validate does on load
        tracemalloc.start()
        try:
            dense_lambda(e, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d = max(unitary_irrep_dim(shape, n) for shape in partitions(t) if len(shape) <= n)
        side = d * d
        assert peak <= 16 * s * side + 16 * side**2 + 8 * side**2 + 6 * _CHUNK_BYTES < earlier

    def test_dense_lambda_holds_one_block_at_a_time(self, monkeypatch):
        # each block is released before the next is formed: one still held
        # while the next was built raised a dense_t2 process's peak RSS by 1.4 MB
        import qtpe.moments as m

        e = hermitian_ensemble(6, 8, 0)
        held = []
        for name in ("sector_block", "hermitian_sector_block"):

            def build(*args, real=getattr(m, name)):
                held.append(tracemalloc.get_traced_memory()[0])
                return real(*args)

            monkeypatch.setattr(m, name, build)
        tracemalloc.start()
        try:
            dense_lambda(e, 2)
        finally:
            tracemalloc.stop()
        # the R stacks, 16 * 8 * (21^2 + 15^2) bytes, against a 441^2 block of 1.6 MB
        assert len(held) == 3 and max(held) <= 2**18

    def test_implicit_complex_to_real_cast_fails_the_suite(self, pytestconfig):
        # a cast that drops an imaginary part in the real-block path cannot pass unnoticed
        warning = getattr(np, "exceptions", np).ComplexWarning
        assert f"error::{warning.__module__}.{warning.__qualname__}" in pytestconfig.getini("filterwarnings")
        with pytest.raises(warning):
            np.zeros(2)[:] = np.full(2, 1j)


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

    def test_t1_claims_hold_at_exactly_zero(self):
        # both bounds are exactly 0 at t=1, and so are the closed-form distances
        # (the SVD oracle measures ~2e-16)
        rep = subspace_closeness_report(2, 2, 1)
        assert rep.bound_pair == 0.0 and rep.bound_perp == 0.0
        assert rep.w_to_wprime == rep.wprime_to_w == rep.w2prime_to_w2 == 0.0
        assert all(rep.claims.values())

    def test_distances_keep_a_margin_below_the_bounds(self):
        # w^2 = 1 - c/g <= t(t-1)/d at t >= 2, so no claim sits within roundoff of its bound
        for t in range(2, MAX_T_BASIS + 1):
            for inner in range(t, 65):
                for outer in (1, 2, 3, 8, 64):
                    rep = subspace_closeness_report(outer, inner, t)
                    w = max(rep.w_to_wprime, rep.w2prime_to_w2)
                    assert w <= 0.5 * rep.bound_pair and w <= 0.45 * rep.bound_perp, (outer, inner, t)

    @pytest.mark.parametrize(
        "outer,inner,t",
        [(2, 8, 2), (2, 5, 3), (2, 4, 2), (4, 6, 2), (1, 3, 3), (2, 3, 3), (2, 1, 1), (3, 3, 2), (2, 16, 2)],
    )
    def test_closed_form_matches_the_svd_oracle(self, outer, inner, t):
        rep = subspace_closeness_report(outer, inner, t)
        measured = (rep.w_to_wprime, rep.wprime_to_w, rep.w2prime_to_w2, rep.w2_to_w2prime)
        assert np.max(np.abs(np.subtract(measured, svd_closeness(outer, inner, t)))) <= 1e-15

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
            subspace_closeness_report(2, 8, MAX_T_BASIS + 1)
        with pytest.raises(PreconditionError):
            subspace_closeness_report(0, 4, 2)
        with pytest.raises(PreconditionError):
            subspace_closeness_report(2, 3, 4)  # d < t
        # d = t, t up to MAX_T_BASIS and ambient sizes far past the vector limit
        for outer, inner, t in ((2, 4, 4), (2, MAX_T_BASIS, MAX_T_BASIS), (100, 8, 2)):
            assert all(subspace_closeness_report(outer, inner, t).claims.values())
