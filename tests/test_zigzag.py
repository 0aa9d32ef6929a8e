"""Product constructions and closed-form bound calculators."""

import itertools

import numpy as np
import pytest

from conftest import dense_lambda, hermitian_ensemble, identity_ensemble, raw_haar_ensemble
from qtpe.ensemble import (
    Stage,
    UnitaryEnsemble,
    hermitian_double,
    load,
    sample_random_qtpe,
    save,
    square_compose,
    validate,
)
from qtpe.errors import PreconditionError, SizeLimitError
from qtpe.linalg import SeededRng, haar_unitary
from qtpe.moments import MomentOperator
from qtpe.zigzag import (
    bound_genzigzag,
    bound_zigzag,
    bound_zigzag_derandomised,
    bound_zigzag_improved,
    g_dot,
    g_dot_general,
    zigzag,
    zigzag_derandomised,
    zigzag_generalised,
)


def hermitian_unitary(d, seed):
    """Random unitary that is also Hermitian (a reflection)."""
    v = haar_unitary(d, SeededRng(seed, 31))
    signs = np.diag([(-1.0) ** k for k in range(d)]).astype(complex)
    return v @ signs @ v.conj().T


def odd_hermitian_ensemble(d, seed):
    """Explicitly Hermitian ensemble of odd degree 3: {R, U, U†}."""
    u = haar_unitary(d, SeededRng(seed, 32))
    members = np.stack([hermitian_unitary(d, seed), u, u.conj().T])
    return UnitaryEnsemble(d, members, (0, 2, 1), f"odd-herm-d{d}")


class TestGDot:
    def test_all_identity_members(self):
        g = identity_ensemble(3, copies=2)
        assert np.allclose(g_dot(g), np.eye(6))

    def test_hermitian_gives_involution(self):
        g = sample_random_qtpe(3, 4, SeededRng(5))
        dot = g_dot(g)
        assert np.allclose(dot @ dot, np.eye(12), atol=1e-10)
        assert np.allclose(dot.conj().T @ dot, np.eye(12), atol=1e-10)

    def test_entrywise_against_definition(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        g = UnitaryEnsemble(2, np.stack([np.eye(2, dtype=complex), x]), (0, 1), "ix")
        dot = g_dot(g)
        d = 2
        for a in range(2):
            for b in range(2):
                col = dot[:, a * d + b]
                expected = np.kron(g.member(b)[:, a], np.eye(d)[:, b])  # identity involution
                assert np.allclose(col, expected)

    def test_unitary_without_involution(self):
        g = raw_haar_ensemble(2, 3, seed=1)
        dot = g_dot(g)
        assert np.allclose(dot.conj().T @ dot, np.eye(6), atol=1e-10)


class TestZigzag:
    def test_member_count_and_validation(self):
        g = sample_random_qtpe(8, 4, SeededRng(1))
        h = sample_random_qtpe(4, 4, SeededRng(2))
        product = zigzag(g, h)
        assert product.size == 16
        assert product.dim == 32
        assert product.involution is not None
        assert validate(product, tol=1e-8).passed

    def test_member_reconstruction(self):
        g = sample_random_qtpe(4, 4, SeededRng(3))
        h = sample_random_qtpe(4, 4, SeededRng(4))
        product = zigzag(g, h)
        dot = g_dot(g)
        eye = np.eye(4)
        s = h.size
        for i in range(s):
            for j in range(s):
                expected = np.kron(eye, h.member(i)) @ dot @ np.kron(eye, h.member(j))
                assert np.allclose(product.member(i * s + j), expected, atol=1e-12)

    def test_trivial_outer_reduces_to_square(self):
        # outer dimension 1: members collapse to V_i V_j, the squared ensemble
        g = identity_ensemble(1, copies=2)
        h = raw_haar_ensemble(2, 2, seed=9)
        product = zigzag(g, h)
        sq = square_compose(h)
        assert product.dim == 2
        assert dense_lambda(product, 1) == pytest.approx(dense_lambda(sq, 1), abs=1e-7)

    def test_closed_form_bound_small_instance(self):
        g = sample_random_qtpe(8, 4, SeededRng(11))
        h = sample_random_qtpe(4, 4, SeededRng(12))
        product = zigzag(g, h)
        l1 = dense_lambda(g, 1)
        l2 = dense_lambda(h, 1)
        lam = dense_lambda(product, 1)
        assert lam <= bound_zigzag(l1, l2, 1, g.size).value + 1e-6

    def test_dimension_mismatch_names_both(self):
        g = sample_random_qtpe(8, 4, SeededRng(1))
        h = sample_random_qtpe(5, 4, SeededRng(2))
        with pytest.raises(PreconditionError) as info:
            zigzag(g, h)
        assert "5" in str(info.value) and "4" in str(info.value)


class TestZigzagDerandomised:
    def test_member_count(self):
        g = sample_random_qtpe(4, 4, SeededRng(6))
        h = sample_random_qtpe(4, 4, SeededRng(7))
        product = zigzag_derandomised(g, h)
        assert product.size == 64
        assert validate(product, tol=1e-8).passed

    def test_singleton_h_collapses_to_gdot(self):
        g = sample_random_qtpe(2, 4, SeededRng(8))
        h = identity_ensemble(4, copies=1)
        product = zigzag_derandomised(g, h)
        assert product.size == 1
        assert np.allclose(product.member(0), g_dot(g), atol=1e-12)

    def test_requires_involutions(self):
        g = raw_haar_ensemble(4, 4, seed=1)
        h = sample_random_qtpe(4, 4, SeededRng(2))
        with pytest.raises(PreconditionError):
            zigzag_derandomised(g, h)

    def test_remark_bound_small_instance(self):
        g = sample_random_qtpe(8, 4, SeededRng(13))
        h = odd_hermitian_ensemble(4, seed=14)
        product = zigzag_derandomised(g, h)
        assert product.size == 27
        l1 = dense_lambda(g, 1)
        l2 = dense_lambda(h, 1)
        lam = dense_lambda(product, 1)
        assert lam <= bound_zigzag_derandomised(l1, l2, 1, g.size).value + 1e-6


class TestGDotGeneral:
    def test_identity_members(self):
        g = identity_ensemble(3, copies=2)
        assert np.allclose(g_dot_general(g, 2, 3), np.eye(18))

    def test_coincides_with_gdot_when_dprime_trivial(self):
        u0 = haar_unitary(3, SeededRng(1))
        u1 = haar_unitary(3, SeededRng(2))
        g = UnitaryEnsemble(3, np.stack([u0, u1]), (0, 1), "identity-involution")
        assert np.allclose(g_dot_general(g, 2, 1), g_dot(g), atol=1e-12)

    def test_unitarity(self):
        g = raw_haar_ensemble(3, 2, seed=5)
        dot = g_dot_general(g, 2, 4)
        assert np.allclose(dot.conj().T @ dot, np.eye(24), atol=1e-10)

    def test_degree_mismatch(self):
        g = raw_haar_ensemble(3, 2, seed=5)
        with pytest.raises(PreconditionError):
            g_dot_general(g, 3, 4)
        with pytest.raises(PreconditionError):
            g_dot_general(g, 2, 0)

    @pytest.mark.parametrize("dprime", [1, 2, 3])
    def test_equals_the_kron_of_gdot_with_the_identity(self, dprime):
        g = raw_haar_ensemble(3, 2, seed=6)
        assert np.array_equal(g_dot_general(g, 2, dprime), general_dot(g, dprime))


class TestZigzagGeneralised:
    def test_k1_members_are_lifted_inner(self):
        g = sample_random_qtpe(4, 4, SeededRng(20))
        h = raw_haar_ensemble(8, 3, seed=21)  # dim = d*d' = 4*2
        product = zigzag_generalised(g, [h], 4, 2)
        assert product.size == 3
        for i in range(3):
            assert np.allclose(product.member(i), np.kron(np.eye(4), h.member(i)), atol=1e-12)

    def test_k2_word_form(self):
        g = sample_random_qtpe(4, 4, SeededRng(22))
        h1 = raw_haar_ensemble(8, 2, seed=23, label="h1")
        h2 = raw_haar_ensemble(8, 2, seed=24, label="h2")
        product = zigzag_generalised(g, [h2, h1], 4, 2)  # list is (H_k, ..., H_1)
        assert product.size == 4
        dot = g_dot_general(g, 4, 2)
        eye = np.eye(4)
        pos = 0
        for i2 in range(2):
            for i1 in range(2):
                expected = np.kron(eye, h2.member(i2)) @ dot @ np.kron(eye, h1.member(i1))
                assert np.allclose(product.member(pos), expected, atol=1e-12)
                pos += 1

    def test_identity_inner_gives_dot_powers(self):
        g = sample_random_qtpe(4, 4, SeededRng(25))
        h = identity_ensemble(8, copies=1)
        product = zigzag_generalised(g, [h, h, h], 4, 2)
        assert product.size == 1
        dot = g_dot_general(g, 4, 2)
        assert np.allclose(product.member(0), dot @ dot, atol=1e-12)

    def test_no_involution_attached(self):
        g = sample_random_qtpe(4, 4, SeededRng(26))
        h = raw_haar_ensemble(8, 2, seed=27)
        assert zigzag_generalised(g, [h, h], 4, 2).involution is None

    def test_mismatched_dims_rejected(self):
        g = sample_random_qtpe(4, 4, SeededRng(28))
        h1 = raw_haar_ensemble(8, 2, seed=29)
        h2 = raw_haar_ensemble(4, 2, seed=30)
        with pytest.raises(PreconditionError):
            zigzag_generalised(g, [h1, h2], 4, 2)

    def test_degree_guard(self):
        g = sample_random_qtpe(2, 4, SeededRng(31))
        h = raw_haar_ensemble(4, 9, seed=32)
        with pytest.raises(SizeLimitError):
            zigzag_generalised(g, [h, h, h, h], 2, 2)


def general_dot(g, dprime):
    """The generalised product's Gdot from its definition, built from g alone:
    (sum_b U_b (x) |b><b|) (x) 1_{d'}."""
    e = np.eye(g.size)
    return np.kron(sum(np.kron(u, np.outer(e[b], e[b])) for b, u in enumerate(g.unitaries)), np.eye(dprime))


def stage_factors(st, dot=None):
    """A stage's unitaries from their definition: the lifted 1_outer (x) A_i, or
    the one control unitary, `dot` when given, else sum_b U_b (x) |relabel[b]><b|."""
    if st.relabel is None:
        return [np.kron(np.eye(st.outer), a) for a in st.members]
    if dot is not None:
        return [dot]
    e = np.eye(len(st.relabel))
    return [sum(np.kron(u, np.outer(e[r], e[b])) for b, (u, r) in enumerate(zip(st.members, st.relabel)))]


def stage_products(e, dot=None):
    """Every product of one factor from each stage, in lexicographic order; a
    controlled stage contributes `dot` when it is given."""
    factors = [stage_factors(st, dot) for st in e.stages]
    out = []
    for word in itertools.product(*factors):
        m = np.eye(e.dim, dtype=complex)
        for f in word:
            m = m @ f
        out.append(m)
    return np.stack(out)


class TestStages:
    def general_g(self):
        """The outer ensemble of the generalised products, d = 2."""
        return raw_haar_ensemble(2, 2, seed=52)

    def products(self):
        g = sample_random_qtpe(3, 4, SeededRng(50))
        h = sample_random_qtpe(4, 4, SeededRng(51))
        g2 = self.general_g()
        hs = [raw_haar_ensemble(6, 3, seed=53 + i) for i in range(3)]  # d = 2, d' = 3
        gen = [zigzag_generalised(g2, hs, 2, 3), zigzag_generalised(g2, hs[:1], 2, 3)]
        return [zigzag(g, h), zigzag_derandomised(g, h)] + gen + [square_compose(hs[0])]

    def test_members_are_the_stage_products(self):
        zz, der, gen3, gen1, sq = self.products()
        dot = general_dot(self.general_g(), 3)
        for product, oracle in [(zz, None), (der, None), (gen3, dot), (gen1, dot), (sq, None)]:
            assert np.max(np.abs(product.unitaries - stage_products(product, oracle))) <= 1e-12

    def test_stage_shapes(self):
        zz, der, gen3, gen1, sq = self.products()
        assert [(st.size, st.outer, st.inner) for st in zz.stages] == [(4, 3, 4), (1, 1, 12), (4, 3, 4)]
        assert [st.size for st in der.stages] == [4, 4, 4]
        assert [st.outer for st in gen3.stages] == [2, 1, 2, 1, 2]
        assert len(gen1.stages) == 1
        assert [(st.size, st.outer, st.inner) for st in sq.stages] == [(3, 1, 6), (3, 1, 6)]
        # Gdot is declared by its blocks: g's s blocks relabelled by g's involution, or in the
        # generalised product d*d' blocks, block (b, b') being U_b, relabelled by the identity
        assert zz.stages[1].members.shape == (4, 3, 3) and zz.stages[1].relabel == (2, 3, 0, 1)
        blocks = np.stack([self.general_g().unitaries] * 3, axis=1)  # [b, b'] = U_b, d' = 3
        for st in gen3.stages[1::2]:
            assert (st.size, st.outer, st.inner) == (1, 1, 12) and st.relabel == tuple(range(6))
            assert np.array_equal(st.members.reshape(2, 3, 2, 2), blocks)
        assert all(st.relabel is None for st in der.stages)

    def test_load_and_double_carry_no_stages(self, tmp_path):
        product = self.products()[0]
        save(product, tmp_path / "p.qtpe")
        assert load(tmp_path / "p.qtpe").stages is None
        assert hermitian_double(product).stages is None
        assert sample_random_qtpe(2, 4, SeededRng(1)).stages is None

    def test_inconsistent_stages_rejected(self):
        product = self.products()[0]
        with pytest.raises(PreconditionError):
            UnitaryEnsemble(product.dim, product.unitaries, None, "", product.stages[:2])
        with pytest.raises(PreconditionError):
            UnitaryEnsemble(product.dim, product.unitaries, None, "", (Stage(np.eye(5)[None]),) + product.stages[1:])
        with pytest.raises(PreconditionError):
            Stage(np.eye(4)[None], outer=0)
        blocks = np.stack([np.eye(2)] * 3)
        for bad in [dict(relabel=(0, 0, 1)), dict(relabel=(0, 1)), dict(relabel=(0, 1, 2), outer=2)]:
            with pytest.raises(PreconditionError):
                Stage(blocks, **bad)


class TestSuperoperatorIdentity:
    @pytest.mark.parametrize("t", [1, 2])
    def test_zigzag_composition_identity(self, t):
        # the product superoperator factors through the inner average twice
        # with the lifted control conjugation between
        from conftest import zigzag_superop_sides

        D = d = s = 2
        g = UnitaryEnsemble(
            D, np.stack([haar_unitary(D, SeededRng(40, i)) for i in range(d)]), (0, 1), "g"
        )
        h = UnitaryEnsemble(
            d, np.stack([haar_unitary(d, SeededRng(41, i)) for i in range(s)]), None, "h"
        )
        lhs, rhs = zigzag_superop_sides(g, h, t)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestBoundCalculators:
    def test_zigzag_t1_example(self):
        assert bound_zigzag(0.1, 0.2, 1, 100).value == pytest.approx(0.34, abs=1e-12)

    def test_zigzag_vacuous_t2(self):
        b = bound_zigzag(0.0, 0.0, 2, 40)
        assert b.value == pytest.approx(24.0 * (2.0 / 40.0) ** 0.25, abs=1e-12)
        assert b.vacuous
        assert not b.flags  # 40 >= 10 * 4

    def test_zigzag_large_d_value(self):
        b = bound_zigzag(0.1, 0.1, 2, 2 * 10**6)
        assert b.value == pytest.approx(0.21 + 24.0 * 1e-6**0.25, abs=1e-12)

    def test_zigzag_hypothesis_flag(self):
        assert bound_zigzag(0.1, 0.1, 2, 8).flags
        assert not bound_zigzag(0.1, 0.1, 1, 10).flags

    def test_improved_as_printed_t1(self):
        b = bound_zigzag_improved(0.2, 0.3, 1, 100)
        expected = 0.5 * 0.91 * 0.2 + 0.5 * np.sqrt(0.91 * 0.04 + 4 * 0.09)
        assert b.value == pytest.approx(expected, abs=1e-12)
        assert b.value == pytest.approx(0.40580, abs=5e-5)

    def test_improved_collapses_when_mu2_zero(self):
        for variant in ("as-printed", "squared"):
            assert bound_zigzag_improved(0.2, 0.0, 1, 50, variant).value == pytest.approx(0.2, abs=1e-12)

    def test_improved_collapses_when_mu1_zero(self):
        for variant in ("as-printed", "squared"):
            assert bound_zigzag_improved(0.0, 0.3, 1, 50, variant).value == pytest.approx(0.3, abs=1e-12)

    def test_improved_variants_differ_generically(self):
        a = bound_zigzag_improved(0.2, 0.3, 1, 100, "as-printed").value
        b = bound_zigzag_improved(0.2, 0.3, 1, 100, "squared").value
        assert a != b

    def test_derandomised_t1(self):
        assert bound_zigzag_derandomised(0.1, 0.2, 1, 100).value == pytest.approx(0.18, abs=1e-12)

    def test_derandomised_t2_formula(self):
        b = bound_zigzag_derandomised(0.0, 0.0, 2, 200)
        mu1 = 9.0 * np.sqrt(2.0 / 200.0)
        mu2 = 2.0 * (2.0 / 200.0) ** 0.25
        assert b.value == pytest.approx(mu1 + 2 * mu2**2 + 2.0 * (2.0 / 200.0) ** 0.25, abs=1e-12)

    def test_derandomised_l2_zero_t1(self):
        assert bound_zigzag_derandomised(0.37, 0.0, 1, 64).value == pytest.approx(0.37, abs=1e-12)

    def test_genzigzag_example(self):
        b = bound_genzigzag(0.01, 0.1, 2, 1, 100, 100, 0.001)
        assert b.value == pytest.approx(8 * 0.017 + 0.1 + 0.01, abs=1e-12)
        assert not b.vacuous

    def test_genzigzag_k1_flagged(self):
        b = bound_genzigzag(0.01, 0.0, 1, 1, 100, 100, 0.001)
        assert any("k=1" in f for f in b.flags)

    def test_genzigzag_t2_vacuous(self):
        b = bound_genzigzag(0.0, 0.0, 2, 2, 100, 100, 0.001)
        assert b.value >= 47.0 * (2.0 / 10**4) ** 0.25
        assert b.vacuous

    def test_out_of_domain_arguments_rejected(self):
        for call in (
            lambda: bound_zigzag(0.1, 0.1, 1, 0),
            lambda: bound_zigzag_derandomised(0.1, 0.1, 0, 8),
            lambda: bound_zigzag_improved(0.1, 0.1, 1, -4),
            lambda: bound_genzigzag(0.1, 0.0, 0, 1, 100, 100, 0.001),
            lambda: bound_genzigzag(0.1, 0.1, 2, 1, 100, 0, 0.001),
            lambda: bound_genzigzag(0.1, 0.1, 2, 1, 100, 100, 0.0),
            lambda: bound_genzigzag(0.1, 0.1, 2, 1, 100, 100, -0.1),
            lambda: bound_genzigzag(0.1, 0.1, 2, 1, -1, -1, 0.001),
        ):
            with pytest.raises(PreconditionError):
                call()


class TestNonVacuousBound:
    def test_exact_design_inner_gives_bound_below_one(self):
        # Weyl-Heisenberg shifts/clocks form an exact 1-design (lambda = 0),
        # so the closed-form bound collapses to lambda_1 < 1 and the guarantee
        # is checked in a non-vacuous regime.
        d = 4
        omega = np.exp(2j * np.pi / d)
        x_shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        z_clock = np.diag(omega ** np.arange(d))
        members = np.stack(
            [
                np.linalg.matrix_power(x_shift, a) @ np.linalg.matrix_power(z_clock, b)
                for a in range(d)
                for b in range(d)
            ]
        )
        h = UnitaryEnsemble(d, members, None, "weyl-heisenberg-4")
        l2 = dense_lambda(h, 1)
        assert l2 <= 1e-12
        g = sample_random_qtpe(8, 4, SeededRng(61))
        l1 = dense_lambda(g, 1)
        bound = bound_zigzag(l1, l2, 1, g.size)
        assert not bound.vacuous
        lam = dense_lambda(zigzag(g, h), 1)
        assert lam <= bound.value + 1e-6


class TestProductsStayContractive:
    @pytest.mark.parametrize("t", [1, 2])
    def test_zigzag_lambda_at_most_one(self, t):
        g = sample_random_qtpe(4, 4, SeededRng(50))
        h = sample_random_qtpe(4, 4, SeededRng(51))
        product = zigzag(g, h)
        if product.dim ** (2 * t) <= 4096:
            assert dense_lambda(product, t) <= 1.0 + 1e-9
