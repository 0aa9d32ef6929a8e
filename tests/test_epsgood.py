"""Measurement-goodness checkers."""

import itertools

import numpy as np
import pytest

from qtpe.epsgood import (
    _branch,
    check_tuple_size,
    is_good_for_set,
    is_good_for_vector,
    is_tuple_good,
)
from qtpe.errors import PreconditionError, SizeLimitError
from qtpe.linalg import SeededRng, haar_unitary

# Frozen Monte Carlo calibration (scripts/calibrate_epsgood.py, seeds 0..199):
# per-vector goodness at (d=2, d'=256, eps=0.3) accepted 200/200 Haar draws,
# k=2 exhaustive tuple goodness accepted 50/50. Threshold frozen at 0.9.
CALIBRATED_ACCEPT_RATE = 0.9


def basis_vector(n, i):
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return v


def measure(u, x, d, dprime):
    """(probability, conditioned state or None) of every outcome of the first factor of u @ x."""
    y = (u @ x).reshape(d, dprime)
    return [_branch(y, v) for v in range(d)]


class TestMeasureFirstFactor:
    def test_identity_on_product_state(self):
        x = np.kron(basis_vector(2, 0), basis_vector(3, 0))
        (p0, state0), (p1, state1) = measure(np.eye(6, dtype=complex), x, 2, 3)
        assert p0 == pytest.approx(1.0)
        assert np.allclose(state0, x)
        assert p1 == pytest.approx(0.0)
        assert state1 is None

    def test_uniform_superposition(self):
        d, dprime = 4, 3
        x = np.zeros(d * dprime, dtype=complex)
        for v in range(d):
            x += np.kron(basis_vector(d, v), basis_vector(dprime, 0))
        x /= np.linalg.norm(x)
        for p, _ in measure(np.eye(d * dprime, dtype=complex), x, d, dprime):
            assert p == pytest.approx(1.0 / d, abs=1e-12)

    def test_probabilities_sum_to_one_and_states_unit(self):
        d, dprime = 3, 4
        u = haar_unitary(d * dprime, SeededRng(5))
        x = basis_vector(d * dprime, 7)
        outcomes = measure(u, x, d, dprime)
        assert sum(p for p, _ in outcomes) == pytest.approx(1.0, abs=1e-10)
        for v, (_, state) in enumerate(outcomes):
            if state is not None:
                assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)
                # the conditioned state lives on the block of its outcome
                block = np.zeros(d * dprime, dtype=bool)
                block[v * dprime : (v + 1) * dprime] = True
                assert not state[~block].any()


class TestGoodForVector:
    def test_identity_concentrates_and_fails(self):
        x = np.kron(basis_vector(2, 0), basis_vector(2, 0))
        decision = is_good_for_vector(np.eye(4, dtype=complex), x, 2, 2, eps=0.1)
        assert not decision.good
        assert decision.witness["probability"] == pytest.approx(1.0)

    def test_uniform_passes_any_eps(self):
        d, dprime = 2, 3
        x = np.zeros(d * dprime, dtype=complex)
        for v in range(d):
            x += np.kron(basis_vector(d, v), basis_vector(dprime, 0))
        x /= np.linalg.norm(x)
        assert is_good_for_vector(np.eye(d * dprime, dtype=complex), x, d, dprime, eps=1e-9).good

    def test_monotone_in_eps(self):
        u = haar_unitary(8, SeededRng(17))
        x = basis_vector(8, 0)
        good_at = [eps for eps in (0.05, 0.1, 0.2, 0.4, 0.8) if is_good_for_vector(u, x, 2, 4, eps).good]
        if good_at:
            threshold = min(good_at)
            for eps in (0.05, 0.1, 0.2, 0.4, 0.8):
                if eps >= threshold:
                    assert is_good_for_vector(u, x, 2, 4, eps).good

    def test_non_unit_rejected(self):
        with pytest.raises(PreconditionError):
            is_good_for_vector(np.eye(4, dtype=complex), np.ones(4, dtype=complex), 2, 2, 0.1)

    def test_haar_acceptance_rate_meets_calibration(self):
        accepted = 0
        trials = 50
        x = basis_vector(512, 0)
        for seed in range(trials):
            u = haar_unitary(512, SeededRng(seed, 900))
            accepted += is_good_for_vector(u, x, 2, 256, eps=0.3).good
        assert accepted / trials >= CALIBRATED_ACCEPT_RATE


class TestGoodForSet:
    def test_singleton_reduces_to_vector(self):
        u = haar_unitary(6, SeededRng(3))
        x = basis_vector(6, 2)
        assert is_good_for_set(u, [x], 2, 3, 0.5).good == is_good_for_vector(u, x, 2, 3, 0.5).good

    def test_identity_pair_fails_on_probabilities(self):
        xs = [np.kron(basis_vector(2, 0), basis_vector(2, 0)), np.kron(basis_vector(2, 0), basis_vector(2, 1))]
        decision = is_good_for_set(np.eye(4, dtype=complex), xs, 2, 2, eps=0.1)
        assert not decision.good
        assert decision.witness["kind"] == "probability"

    def test_non_orthonormal_rejected(self):
        xs = [basis_vector(4, 0), basis_vector(4, 0)]
        with pytest.raises(PreconditionError):
            is_good_for_set(np.eye(4, dtype=complex), xs, 2, 2, 0.1)

    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_nonpositive_eps_rejected(self, eps):
        xs = [basis_vector(4, i) for i in range(4)]
        with pytest.raises(PreconditionError, match="eps must be positive"):
            is_good_for_set(haar_unitary(4, SeededRng(2)), xs, 2, 2, eps)

    def test_haar_small_set_mostly_good(self):
        accepted = 0
        for seed in range(10):
            u = haar_unitary(512, SeededRng(seed, 901))
            xs = [basis_vector(512, i) for i in range(3)]
            accepted += is_good_for_set(u, xs, 2, 256, eps=0.3).good
        assert accepted >= 9


class TestTupleGood:
    def test_k1_equals_set_goodness_on_full_basis(self):
        u = haar_unitary(4, SeededRng(23))
        xs = [basis_vector(4, i) for i in range(4)]
        expected = is_good_for_set(u, xs, 2, 2, eps=0.7).good
        assert is_tuple_good([u], 2, 2, 0.7).good == expected

    @pytest.mark.parametrize("d,dprime", [(0, 4), (-2, -2)])
    def test_nonpositive_split_rejected(self, d, dprime):
        with pytest.raises(PreconditionError):
            is_tuple_good([np.eye(4, dtype=complex)], d, dprime, 0.5)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_all_identity_rejected(self, d):
        eps = (d - 1) / 3.0 * 0.9
        us = [np.eye(d * 2, dtype=complex)] * 2
        decision = is_tuple_good(us, d, 2, eps)
        assert not decision.good

    def test_exhaustive_equals_sampled_full_budget(self):
        us = [haar_unitary(4, SeededRng(31, i)) for i in range(2)]
        exhaustive = is_tuple_good(us, 2, 2, 0.5, mode="exhaustive")
        sampled = is_tuple_good(us, 2, 2, 0.5, mode="sampled", budget=10**6, rng=SeededRng(0))
        assert exhaustive.good == sampled.good
        assert sampled.coverage == 1.0

    def test_sampled_reports_partial_coverage(self):
        us = [haar_unitary(4, SeededRng(32, i)) for i in range(3)]
        decision = is_tuple_good(us, 2, 2, 0.9, mode="sampled", budget=3, rng=SeededRng(1))
        assert decision.coverage < 1.0

    def test_exhaustive_guard_suggests_sampled(self):
        us = [np.eye(2048, dtype=complex)] * 4
        with pytest.raises(SizeLimitError) as info:
            is_tuple_good(us, 8, 256, 0.1)
        assert "sampled" in str(info.value)

    def test_size_check_needs_no_unitaries_and_stays_cheap(self):
        with pytest.raises(SizeLimitError):
            check_tuple_size(2**31 - 1, 2, 2, "exhaustive")
        with pytest.raises(SizeLimitError):
            check_tuple_size(2**31 - 1, 1, 4, "exhaustive")  # d = 1: paths of length up to k-1
        check_tuple_size(200, 1, 4, "exhaustive")  # 4 * 200 * 199 / 2 = 79600 path steps
        check_tuple_size(40, 2, 2, "sampled", budget=5)
        with pytest.raises(PreconditionError):
            check_tuple_size(2, 2, 2, "greedy")

    @pytest.mark.parametrize(
        "k,d,dprime,eps,budget,seed",
        [
            (3, 2, 2, 0.9, 5, 1),
            (3, 2, 2, 0.9, 19, 2),
            (4, 2, 2, 0.6, 7, 3),
            (3, 3, 2, 0.5, 10, 4),
            (4, 2, 3, 0.3, 12, 5),
            (4, 1, 3, 0.5, 4, 6),
            (3, 2, 2, 0.9, 10**6, 7),
            (4, 2, 2, 0.3, 9, 8),
        ],
    )
    @pytest.mark.parametrize("last", ["haar", "identity"])
    def test_sampled_matches_the_full_walk(self, k, d, dprime, eps, budget, seed, last):
        # an identity last factor fails at level k, after the picks of lower levels
        us = [haar_unitary(d * dprime, SeededRng(seed, i)) for i in range(k)]
        if last == "identity":
            us[-1] = np.eye(d * dprime, dtype=complex)
        args = (us, d, dprime, eps)
        decision = is_tuple_good(*args, mode="sampled", budget=budget, rng=SeededRng(seed))
        assert decision == full_walk(*args, budget=budget, rng=SeededRng(seed))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("last", ["haar", "identity"])
    def test_exhaustive_matches_the_full_walk(self, seed, last):
        us = [haar_unitary(4, SeededRng(60 + seed, i)) for i in range(4)]
        if last == "identity":
            us[-1] = np.eye(4, dtype=complex)
        assert is_tuple_good(us, 2, 2, 0.3) == full_walk(us, 2, 2, 0.3, budget=None, rng=None)

    def test_sampled_count_must_fit_the_sampler(self):
        check_tuple_size(61, 2, 2, "sampled", budget=5)  # 4*(2^61 - 2) < 2^63
        for k in (62, 5000, 2**31 - 1):
            with pytest.raises(SizeLimitError, match="configuration count"):
                check_tuple_size(k, 2, 2, "sampled", budget=5)

    def test_sampled_work_is_bounded(self):
        # d = 1: the count (k-1)*d' always fits, but a pick at level j walks j-1 steps
        check_tuple_size(16667, 1, 2, "sampled", budget=5)  # 16667 + 5 * 16666 = 99997
        for k in (16668, 80000, 2**31 - 1):
            with pytest.raises(SizeLimitError, match="draws and path steps"):
                check_tuple_size(k, 1, 2, "sampled", budget=5)
        # a budget above the configuration count counts only the configurations
        check_tuple_size(3, 2, 2, "sampled", budget=10**6)
        with pytest.raises(PreconditionError, match="budget"):
            check_tuple_size(3, 2, 2, "sampled")

    def test_draw_size_is_bounded(self):
        # n = d*d': n^2 <= ITERATIVE_AMBIENT_LIMIT (10^7) and k*n^2 <= PRODUCT_ENTRY_LIMIT (2^26), in either mode
        check_tuple_size(2, 2, 1581, "exhaustive")  # n^2 = 9998244
        check_tuple_size(16, 8, 256, "sampled", budget=1)  # 16 * 2048^2 = 2^26
        for args in [(1, 2, 1582, "exhaustive"), (17, 8, 256, "sampled", 1), (1, 2, 10**6, "sampled", 1)]:
            with pytest.raises(SizeLimitError, match="sampling guards"):
                check_tuple_size(*args)

    def test_dead_branches_skipped(self):
        # X on C^2 (x) C^1 sends e0 to e1: outcome 0 is a dead branch; with a
        # window wide enough to allow it the tuple is vacuously good
        x_gate = np.array([[0, 1], [1, 0]], dtype=complex)
        decision = is_tuple_good([x_gate, x_gate], 2, 1, eps=0.4)
        assert decision.good

    def test_haar_tuple_k2_good_at_calibrated_eps(self):
        accepted = 0
        for seed in range(5):
            us = [haar_unitary(512, SeededRng(seed, 902 + i)) for i in range(2)]
            accepted += is_tuple_good(us, 2, 256, eps=0.3).good
        assert accepted >= 4


def full_walk(us, d, dprime, eps, budget, rng):
    """is_tuple_good as it walked before: every configuration of levels 2..k in
    order, checking the sampled ones. The reference for the decoded walk."""
    from qtpe.epsgood import GoodnessDecision, _branch

    k, n = len(us), d * dprime
    total = sum(n * d ** (j - 1) for j in range(2, k + 1))
    chosen = None
    if budget is not None and budget < total:
        chosen = set(int(p) for p in rng.generator().choice(total, size=budget, replace=False))
    basis = np.eye(n, dtype=complex)
    level1 = is_good_for_set(us[0], [basis[:, i] for i in range(n)], d, dprime, eps)
    if not level1.good:
        return GoodnessDecision(False, dict(level1.witness, level=1), 1.0)
    covered = flat = 0
    for j in range(2, k + 1):
        for x0 in range(n):
            for path in itertools.product(range(d), repeat=j - 1):
                keep = chosen is None or flat in chosen
                flat += 1
                if not keep:
                    continue
                covered += 1
                state = basis[:, x0]
                for level, outcome in enumerate(path):
                    _, state = _branch((us[level] @ state).reshape(d, dprime), outcome)
                    if state is None:
                        break
                if state is None:
                    continue
                decision = is_good_for_vector(us[j - 1], state, d, dprime, eps)
                if not decision.good:
                    witness = dict(decision.witness, level=j, start=x0, path=list(path))
                    return GoodnessDecision(False, witness, 1.0)
    coverage = 1.0 if (chosen is None or total == 0) else covered / total
    return GoodnessDecision(True, None, coverage)
