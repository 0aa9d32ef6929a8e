"""Permutation combinatorics: oracles are brute-force enumerations of S_t."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qtpe.errors import PreconditionError, SizeLimitError
from qtpe.perms import (
    Permutation,
    all_permutations,
    column_group,
    cycle_count,
    cycle_gram_matrix,
    distinct_fraction_deficit,
    falling_factorial,
    fixed_point_count,
    fixed_point_matrix,
    identity,
    partitions,
    row_group,
    sign,
    stirling_first,
    symmetric_irrep_dim,
    unitary_irrep_dim,
)


def brute_force_cycle_histogram(t):
    """Independent oracle: count permutations of [t] by number of cycles."""
    hist = {}
    for p in itertools.permutations(range(t)):
        c = cycle_count(Permutation(p))
        hist[c] = hist.get(c, 0) + 1
    return hist


perm_strategy = st.integers(1, 6).flatmap(
    lambda t: st.permutations(list(range(t))).map(lambda p: Permutation(tuple(p)))
)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(PreconditionError):
            Permutation((0, 0, 2))

    @given(perm_strategy)
    def test_inverse_composes_to_identity(self, p):
        assert p.compose(p.inverse()) == identity(p.size)
        assert p.inverse().compose(p) == identity(p.size)

    @given(perm_strategy)
    def test_cycle_and_fixed_point_counts_consistent(self, p):
        assert 1 <= cycle_count(p) <= p.size
        assert fixed_point_count(p) <= cycle_count(p)

    def test_cycle_count_examples(self):
        assert cycle_count(identity(3)) == 3
        assert cycle_count(Permutation((1, 0, 2))) == 2
        assert cycle_count(Permutation((1, 2, 0))) == 1

    def test_fixed_point_examples(self):
        assert fixed_point_count(identity(4)) == 4
        assert fixed_point_count(Permutation((1, 2, 0))) == 0
        assert fixed_point_count(Permutation((1, 0, 2))) == 1


class TestAllPermutations:
    def test_t1(self):
        assert all_permutations(1) == [identity(1)]

    def test_t2_lexicographic(self):
        assert [p.map for p in all_permutations(2)] == [(0, 1), (1, 0)]

    def test_t3_count(self):
        perms = all_permutations(3)
        assert len(perms) == 6
        assert len(set(p.map for p in perms)) == 6
        assert [p.map for p in perms] == sorted(p.map for p in perms)

    def test_guard(self):
        with pytest.raises(SizeLimitError):
            all_permutations(9)
        with pytest.raises(SizeLimitError):
            all_permutations(0)


class TestStirling:
    def test_identity_only_full_cycle_count(self):
        assert stirling_first(3, 3) == 1

    def test_s3_oracle(self):
        # brute force over S_3: two 3-cycles have a single cycle
        assert brute_force_cycle_histogram(3)[1] == 2
        assert stirling_first(3, 1) == 2

    def test_s4_oracle(self):
        assert brute_force_cycle_histogram(4)[2] == 11
        assert stirling_first(4, 2) == 11

    @pytest.mark.parametrize("t", range(1, 9))
    def test_row_sums_match_enumeration(self, t):
        hist = brute_force_cycle_histogram(t)
        for k in range(1, t + 1):
            assert stirling_first(t, k) == hist.get(k, 0)
        assert sum(stirling_first(t, k) for k in range(1, t + 1)) == math.factorial(t)

    @pytest.mark.parametrize("t", range(2, 9))
    def test_near_diagonal_binomial_bound(self, t):
        for k in range(1, t):
            assert stirling_first(t, t - k) <= math.comb(math.comb(t, 2), k)

    def test_guard(self):
        with pytest.raises(PreconditionError):
            stirling_first(3, 0)
        with pytest.raises(PreconditionError):
            stirling_first(21, 1)
        with pytest.raises(PreconditionError):
            stirling_first(3, 4)


class TestFallingFactorial:
    def test_examples(self):
        assert falling_factorial(4, 2) == 12
        assert falling_factorial(5, 5) == 120
        assert falling_factorial(3, 4) == 0
        assert falling_factorial(7, 0) == 1

    @given(st.integers(0, 30), st.integers(0, 12))
    def test_matches_math_perm(self, d, t):
        expected = math.perm(d, t) if t <= d else 0
        assert falling_factorial(d, t) == expected


class TestDistinctFractionDeficit:
    def test_trivial_t1(self):
        assert distinct_fraction_deficit(4, 1) == (0.0, 0.0)

    def test_derived_values(self):
        exact, bound = distinct_fraction_deficit(4, 2)
        assert exact == pytest.approx(0.25, abs=1e-15)
        assert bound == pytest.approx(0.25, abs=1e-15)
        exact, bound = distinct_fraction_deficit(10, 3)
        assert exact == pytest.approx(0.28, abs=1e-15)
        assert bound == pytest.approx(0.30, abs=1e-15)

    @given(st.integers(1, 8).flatmap(lambda t: st.tuples(st.integers(t, 64), st.just(t))))
    def test_exact_below_bound(self, dt):
        d, t = dt
        exact, bound = distinct_fraction_deficit(d, t)
        assert 0.0 <= exact <= bound + 1e-15

    def test_domain_error(self):
        with pytest.raises(PreconditionError):
            distinct_fraction_deficit(2, 3)


class TestCycleGramMatrix:
    def test_t1_zero(self):
        m = cycle_gram_matrix(1, 5)
        assert m.shape == (1, 1) and m[0, 0] == 0.0

    def test_t2_d9(self):
        m = cycle_gram_matrix(2, 9)
        assert m[0, 0] == m[1, 1] == 0.0
        assert m[0, 1] == m[1, 0] == pytest.approx(1 / 9)

    def test_t3_d16_entry_values(self):
        m = cycle_gram_matrix(3, 16)
        off = m[~np.eye(6, dtype=bool)]
        assert set(np.round(off, 12)) == {round(1 / 16, 12), round(1 / 256, 12)}

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            cycle_gram_matrix(3, 9)

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_spectral_norm_and_eigenvalue_bounds(self, t):
        for d in (t * t + 1, 2 * t * t, 64):
            m = cycle_gram_matrix(t, d)
            assert np.allclose(m, m.T)
            norm = np.max(np.abs(np.linalg.eigvalsh(m)))
            assert norm <= t * (t - 1) / d + 1e-12
            evals = np.linalg.eigvalsh(np.eye(m.shape[0]) + m)
            assert evals.min() >= 1 - t * (t - 1) / d - 1e-12
            assert evals.max() <= 1 + t * (t - 1) / d + 1e-12


class TestFixedPointMatrix:
    def test_t1_zero(self):
        assert fixed_point_matrix(1, 0.3).shape == (1, 1)

    def test_t2_swap_entry(self):
        eps = 0.2
        m = fixed_point_matrix(2, eps)
        assert m[0, 1] == pytest.approx(eps**2)

    def test_t3_entry_values(self):
        m = fixed_point_matrix(3, 0.1)
        off = m[~np.eye(6, dtype=bool)]
        assert set(np.round(off, 12)) == {0.01, 0.001}

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            fixed_point_matrix(2, 0.3)
        with pytest.raises(PreconditionError):
            fixed_point_matrix(2, 0.0)

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_spectral_norm_bound(self, t):
        for frac in (0.5, 0.9):
            eps = frac / (2 * t)
            m = fixed_point_matrix(t, eps)
            norm = np.max(np.abs(np.linalg.eigvalsh(m)))
            assert norm <= 2 * eps * eps * t * t + 1e-12


def brute_force_sign(p):
    """Independent oracle: parity of the inversion count."""
    m = p.map
    inversions = sum(1 for a in range(len(m)) for b in range(a + 1, len(m)) if m[a] > m[b])
    return -1 if inversions % 2 else 1


class TestYoungDiagrams:
    @pytest.mark.parametrize("t,count", [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)])
    def test_partition_counts(self, t, count):
        parts = partitions(t)
        assert len(parts) == count == len(set(parts))
        assert all(sum(p) == t and list(p) == sorted(p, reverse=True) for p in parts)
        assert parts[0] == (t,) and parts[-1] == (1,) * t

    def test_partition_guard(self):
        with pytest.raises(SizeLimitError):
            partitions(0)

    @given(perm_strategy)
    def test_sign_is_inversion_parity(self, p):
        assert sign(p) == brute_force_sign(p)

    @given(perm_strategy, perm_strategy)
    def test_sign_is_a_character(self, p, q):
        if p.size == q.size:
            assert sign(p.compose(q)) == sign(p) * sign(q)

    def test_row_and_column_groups(self):
        # canonical tableau of (2, 1): rows {0, 1}, {2}; columns {0, 2}, {1}
        assert {p.map for p in row_group((2, 1))} == {(0, 1, 2), (1, 0, 2)}
        assert {p.map for p in column_group((2, 1))} == {(0, 1, 2), (2, 1, 0)}
        assert len(row_group((3, 1))) == 6 and len(column_group((3, 1))) == 2
        assert len(row_group((2, 2))) == 4 and len(column_group((2, 2))) == 4

    @pytest.mark.parametrize("t", range(1, 7))
    def test_row_and_column_groups_meet_in_identity(self, t):
        for shape in partitions(t):
            rows = {p.map for p in row_group(shape)}
            cols = {p.map for p in column_group(shape)}
            assert rows & cols == {tuple(range(t))}
            assert len(rows) == math.prod(math.factorial(r) for r in shape)

    @pytest.mark.parametrize("t", range(1, 8))
    def test_hook_lengths_square_sum_is_group_order(self, t):
        assert sum(symmetric_irrep_dim(p) ** 2 for p in partitions(t)) == math.factorial(t)

    def test_hook_length_examples(self):
        assert symmetric_irrep_dim((2, 1)) == 2
        assert symmetric_irrep_dim((3, 1)) == 3
        assert symmetric_irrep_dim((2, 2)) == 2
        assert symmetric_irrep_dim((3, 2)) == 5

    @pytest.mark.parametrize("n", range(1, 7))
    def test_hook_content_closed_forms(self, n):
        assert unitary_irrep_dim((2,), n) == n * (n + 1) // 2
        assert unitary_irrep_dim((1, 1), n) == n * (n - 1) // 2
        assert unitary_irrep_dim((2, 1), n) == n * (n * n - 1) // 3
        assert unitary_irrep_dim((1,) * 3, n) == math.comb(n, 3)
        assert unitary_irrep_dim((3,), n) == math.comb(n + 2, 3)

    @pytest.mark.parametrize("t", range(1, 7))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_schur_weyl_dimension_count(self, n, t):
        # (C^n)^(x t) = sum over lambda of V_lambda (x) S_lambda
        assert sum(symmetric_irrep_dim(p) * unitary_irrep_dim(p, n) for p in partitions(t)) == n**t

    def test_too_many_rows_have_dimension_zero(self):
        assert unitary_irrep_dim((1, 1, 1), 2) == 0
        assert unitary_irrep_dim((2, 1, 1), 2) == 0
        assert unitary_irrep_dim((1, 1), 1) == 0

    def test_rejects_non_partitions(self):
        for bad in [(), (1, 2), (2, 0)]:
            with pytest.raises(PreconditionError):
                symmetric_irrep_dim(bad)
        with pytest.raises(PreconditionError):
            unitary_irrep_dim((2,), 0)
