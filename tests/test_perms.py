"""Permutation combinatorics: oracles are brute-force enumerations of S_t."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import identity
from hypothesis import given, strategies as st
from qtpe.errors import PreconditionError, SizeLimitError
from qtpe.perms import (
    Permutation,
    all_permutations,
    column_group,
    cycle_count,
    cycle_gram_matrix,
    falling_factorial,
    fixed_point_count,
    fixed_point_matrix,
    partitions,
    permutation_gram,
    row_group,
    sign,
    symmetric_irrep_dim,
    unitary_irrep_dim,
)


perm_strategy = st.integers(1, 6).flatmap(
    lambda t: st.permutations(list(range(t))).map(lambda p: Permutation(tuple(p)))
)


def stirling_first(t, k):
    """Unsigned Stirling number of the first kind by its recurrence: the
    number of permutations of [t] with k cycles."""
    row = [1]  # t = 0
    for n in range(t):
        row = [(row[j - 1] if j >= 1 else 0) + (n * row[j] if j < len(row) else 0) for j in range(n + 2)]
    return row[k] if 0 <= k < len(row) else 0


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


class TestCycleStatistics:
    @pytest.mark.parametrize("t", range(1, 9))
    def test_cycle_histogram_is_stirling_first(self, t):
        hist = {}
        for p in all_permutations(t):
            c = cycle_count(p)
            hist[c] = hist.get(c, 0) + 1
        assert hist == {k: stirling_first(t, k) for k in range(1, t + 1)}
        assert sum(hist.values()) == math.factorial(t)

    @pytest.mark.parametrize("t", range(2, 8))
    def test_a_transposition_merges_or_splits_one_cycle(self, t):
        # sigma after (a b) splits the cycle holding a and b, or merges the two holding them
        for p in all_permutations(t):
            c = cycle_count(p)
            for a in range(t):
                for b in range(a + 1, t):
                    swap = list(range(t))
                    swap[a], swap[b] = b, a
                    x, same = p.map[a], False
                    while x != a:
                        same |= x == b
                        x = p.map[x]
                    assert cycle_count(p.compose(Permutation(tuple(swap)))) == c + (1 if same else -1)

    @given(perm_strategy, perm_strategy)
    def test_cycle_count_is_a_class_function(self, p, q):
        if p.size == q.size:
            assert cycle_count(q.compose(p).compose(q.inverse())) == cycle_count(p) == cycle_count(p.inverse())


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


class TestDistinctTupleFraction:
    """(d)_t / d^t, the share of t-tuples over [d] with distinct entries: the
    constant c of the closeness report's W' Gram matrices."""

    def test_t1_all_distinct(self):
        assert falling_factorial(4, 1) / 4 == 1.0

    def test_examples(self):
        assert 1 - falling_factorial(4, 2) / 4**2 == pytest.approx(0.25, abs=1e-15)
        assert 1 - falling_factorial(10, 3) / 10**3 == pytest.approx(0.28, abs=1e-15)
        assert falling_factorial(3, 4) / 3**4 == 0.0

    @given(st.integers(1, 8).flatmap(lambda t: st.tuples(st.integers(t, 64), st.just(t))))
    def test_deficit_below_the_pair_union_bound(self, dt):
        # a repeated entry needs one of the C(t, 2) pairs to collide, each with chance 1/d
        d, t = dt
        deficit = 1 - falling_factorial(d, t) / d**t
        assert 0.0 <= deficit <= math.comb(t, 2) / d + 1e-15


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


class TestPermutationGram:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_the_pairwise_loop(self, t, n):
        perms = all_permutations(t)
        loop = [[float(n) ** (cycle_count(a.inverse().compose(b)) - t) for b in perms] for a in perms]
        assert np.array_equal(permutation_gram(t, n), np.array(loop))

    @pytest.mark.parametrize("t,n", [(3, 2), (4, 3), (6, 4)])
    def test_perron_root_is_the_rising_factorial_ratio(self, t, n):
        gram = permutation_gram(t, n)
        perron = math.prod(1 + j / n for j in range(t))
        assert np.allclose(gram.sum(axis=1), perron, rtol=1e-14)
        assert np.linalg.eigvalsh(gram)[-1] == pytest.approx(perron, rel=1e-13)

    def test_n_checked(self):
        with pytest.raises(PreconditionError):
            permutation_gram(2, 0)

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
    def test_equals_the_composition_array_construction(self, t):
        # the pairs' products as one (t!, t!, t) array of one-line maps, read as base-t codes
        perms = all_permutations(t)
        maps, digits = np.array([p.map for p in perms]), t ** np.arange(t)
        index = np.zeros(t**t, dtype=np.intp)
        index[maps @ digits] = np.arange(len(perms))
        values = np.array([3.0 ** (cycle_count(p) - t) for p in perms])
        assert np.array_equal(permutation_gram(t, 3), values[index[np.argsort(maps, axis=1)[:, maps] @ digits]])

    def test_t6_peaks_below_12_mb(self):
        # the (720, 720, 6) composition array of intp alone is 24.9 MB; the result is 4.1 MB
        tracemalloc.start()
        try:
            permutation_gram(6, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


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
