"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear;
criterion 1 samples five 100-dimensional ensembles and is the slow one.
"""

import itertools

import numpy as np
import pytest

from conftest import (
    dense_lambda,
    hermitian_ensemble,
    pauli_ensemble,
    raw_haar_ensemble,
    zigzag_superop_sides,
)
from qtpe.ensemble import (
    UnitaryEnsemble,
    hermitian_double,
    sample_random_qtpe,
    square_compose,
    tensor_ensemble,
    validate,
)
from qtpe.epsgood import is_good_for_vector, is_tuple_good
from qtpe.linalg import SeededRng, haar_unitary
from qtpe.moments import (
    MomentOperator,
    alpha_sigma,
    design_error_monomial,
    fixed_space_basis,
    lambda_report,
    subspace_closeness_report,
)
from qtpe.perms import all_permutations, cycle_count, cycle_gram_matrix, fixed_point_matrix
from qtpe.zigzag import bound_genzigzag, bound_zigzag, g_dot_general, zigzag, zigzag_generalised


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_random_qtpe_bound():
    """d=100, s=100, five seeds: measured lambda < 8/sqrt(s) = 0.8 in >= 4 of 5."""
    lambdas = []
    hits = 0
    for i in range(5):
        e = sample_random_qtpe(100, 100, SeededRng(1000 + i))
        rep = lambda_report(e, 1, method="power-iteration", tol=1e-6, rng=SeededRng(i), max_iters=3000)
        lambdas.append(rep.lambda_)
        if rep.converged and rep.lambda_ < 0.8:
            hits += 1
    report(
        1,
        hits >= 4,
        f"random qTPE t=1: {hits}/5 runs below 0.8 (lambdas {['%.4f' % x for x in lambdas]})",
    )


def test_criterion_02_zigzag_bound_t1():
    """Zigzag of (D=32, d=8) with (d=8, s=4): lambda <= l1 + l2 + l2^2 + 1e-6, 16 members."""
    g = sample_random_qtpe(32, 8, SeededRng(2001))
    h = sample_random_qtpe(8, 4, SeededRng(2002))
    product = zigzag(g, h)
    l1 = dense_lambda(g, 1)
    l2 = dense_lambda(h, 1)
    rep = lambda_report(product, 1, method="power-iteration", tol=1e-7, rng=SeededRng(7), max_iters=3000)
    bound = bound_zigzag(l1, l2, 1, g.size).value
    ok = product.size == 16 and rep.converged and rep.lambda_ <= bound + 1e-6
    report(
        2,
        ok,
        f"zigzag t=1: lambda {rep.lambda_:.6f} <= {bound:.6f} (l1 {l1:.4f}, l2 {l2:.4f}), members {product.size}",
    )


def test_criterion_03_out_of_regime_structural():
    """t=2 outside the guaranteed parameter regime: contraction, composition identity,
    generalised product verified structurally plus bound arithmetic."""
    checks = []

    # zigzag at t=2, D=4, d=2 (outside d >= 10 t^2)
    u = haar_unitary(4, SeededRng(3001))
    g = hermitian_double(UnitaryEnsemble(4, u[None], None, "g0"))
    h = sample_random_qtpe(2, 4, SeededRng(3002))
    product = zigzag(g, h)
    rep = lambda_report(product, 2, method="power-iteration", tol=1e-7, rng=SeededRng(3), max_iters=4000)
    checks.append(("lambda <= 1", rep.lambda_ <= 1.0 + 1e-9))

    phi = MomentOperator(product, 2)
    fixed_ok = all(
        np.linalg.norm(phi.apply(alpha_sigma(sig, 8, 2)) - alpha_sigma(sig, 8, 2)) <= 1e-9
        for sig in all_permutations(2)
    )
    checks.append(("fixed-space invariance", fixed_ok))

    # superoperator composition identity on the small instance
    for t in (1, 2):
        g2 = UnitaryEnsemble(2, np.stack([haar_unitary(2, SeededRng(3010, i)) for i in range(2)]), (0, 1), "g2")
        h2 = UnitaryEnsemble(2, np.stack([haar_unitary(2, SeededRng(3011, i)) for i in range(2)]), None, "h2")
        lhs, rhs = zigzag_superop_sides(g2, h2, t)
        checks.append((f"composition identity t={t}", float(np.max(np.abs(lhs - rhs))) <= 1e-9))

    # generalised product: structure only
    gg = sample_random_qtpe(4, 4, SeededRng(3003))
    hh = [raw_haar_ensemble(8, 2, seed=3004, label="h1"), raw_haar_ensemble(8, 2, seed=3005, label="h2")]
    gen = zigzag_generalised(gg, hh, 4, 2)
    checks.append(("generalised count s^k", gen.size == 4))
    checks.append(("generalised unitarity", validate(gen, tol=1e-8).passed))
    gen_rep = lambda_report(gen, 1, method="dense-svd")
    checks.append(("generalised lambda <= 1", gen_rep.lambda_ <= 1.0 + 1e-9))
    dot = g_dot_general(gg, 4, 2)
    eye = np.eye(4)
    word_ok = True
    pos = 0
    for i2 in range(2):
        for i1 in range(2):
            expected = np.kron(eye, hh[0].member(i2)) @ dot @ np.kron(eye, hh[1].member(i1))
            word_ok = word_ok and np.allclose(gen.member(pos), expected, atol=1e-12)
            pos += 1
    checks.append(("generalised k=2 word form", word_ok))
    b = bound_genzigzag(0.01, 0.1, 2, 1, 100, 100, 0.001)
    checks.append(("bound arithmetic", abs(b.value - (8 * 0.017 + 0.1 + 0.01)) <= 1e-12))

    failed = [name for name, ok in checks if not ok]
    report(3, not failed, f"out-of-regime structural checks: {len(checks)} checks" + (f"; failed {failed}" if failed else ""))


def test_criterion_04_fixed_space_geometry():
    """dim W = t! at (3,2), (4,2), (3,3); rank 5 at (2,3); Gram formula; invariance."""
    checks = []
    for n, t, expected in ((3, 2, 2), (4, 2, 2), (3, 3, 6), (2, 3, 5)):
        basis = fixed_space_basis(n, t)
        checks.append((f"rank({n},{t})={expected}", basis.rank == expected))
        perms = all_permutations(t)
        stacked = np.stack([alpha_sigma(sig, n, t).reshape(-1) for sig in perms], axis=1)
        gram = (stacked.conj().T @ stacked).real
        formula = np.array(
            [[float(n) ** (cycle_count(a.inverse().compose(b)) - t) for b in perms] for a in perms]
        )
        checks.append((f"gram({n},{t})", float(np.max(np.abs(gram - formula))) <= 1e-10))

    invariance_ok = True
    for i in range(10):
        if i % 2 == 0:
            e = hermitian_ensemble(2 + (i % 3 == 0), 4, 4000 + i)
        else:
            e = raw_haar_ensemble(2 + (i % 3 == 0), 3, 4000 + i)
        t = 2
        phi = MomentOperator(e, t)
        for sig in all_permutations(t):
            a = alpha_sigma(sig, e.dim, t)
            invariance_ok = invariance_ok and np.linalg.norm(phi.apply(a) - a) <= 1e-9
    checks.append(("moment invariance on 10 ensembles", invariance_ok))

    failed = [name for name, ok in checks if not ok]
    report(4, not failed, "fixed-space geometry" + (f"; failed {failed}" if failed else ""))


def test_criterion_05_gram_matrix_numerics():
    """Spectral-norm bounds for the cycle and fixed-point matrices over the grid."""
    worst_m = worst_n = -np.inf
    for t in (2, 3, 4, 5):
        d_grid = sorted({t * t + 1, t * t + 2, t * t + 4, t * t + 8, t * t + 16, 40, 64})
        for d in (x for x in d_grid if t * t < x <= 64):
            m = cycle_gram_matrix(t, d)
            evals = np.linalg.eigvalsh(m)
            norm = max(abs(evals[0]), abs(evals[-1]))
            worst_m = max(worst_m, norm - t * (t - 1) / d)
            one = np.linalg.eigvalsh(np.eye(m.shape[0]) + m)
            worst_m = max(worst_m, (1 - t * (t - 1) / d) - one[0], one[-1] - (1 + t * (t - 1) / d))
        for frac in (0.5, 0.9):
            eps = frac / (2 * t)
            nmat = fixed_point_matrix(t, eps)
            evals = np.linalg.eigvalsh(nmat)
            worst_n = max(worst_n, max(abs(evals[0]), abs(evals[-1])) - 2 * eps * eps * t * t)
    ok = worst_m <= 1e-12 and worst_n <= 1e-12
    report(5, ok, f"cycle/fixed-point matrix bounds: worst excess {max(worst_m, worst_n):.2e}")


def test_criterion_06_subspace_closeness():
    """Directed closeness within bounds at t=2, D=2, d in {4,8,16}; decreasing in d."""
    reports = {d: subspace_closeness_report(2, d, 2) for d in (4, 8, 16)}
    ok = True
    for d, rep in reports.items():
        ok = ok and max(rep.w_to_wprime, rep.wprime_to_w) <= rep.bound_pair
        ok = ok and rep.w2prime_to_w2 <= rep.bound_pair
        ok = ok and max(rep.perp_w_to_wprime, rep.perp_wprime_to_w) <= rep.bound_perp
        ok = ok and rep.perp_w2prime_to_w2 <= rep.bound_perp
    values = [max(reports[d].w_to_wprime, reports[d].wprime_to_w) for d in (4, 8, 16)]
    ok = ok and values[0] > values[1] > values[2]
    report(6, ok, f"closeness values {['%.4f' % v for v in values]} decreasing within bounds")


def test_criterion_07_ensemble_algebra():
    """Squaring lambda^2, doubling preserves, tensoring preserves, tracing-out monotone."""
    checks = []

    sq_ok = all(
        abs(dense_lambda(square_compose(e), 1) - dense_lambda(e, 1) ** 2) <= 1e-6
        for e in (hermitian_ensemble(3 + (i % 2), 4, 7000 + i) for i in range(10))
    )
    checks.append(("squaring", sq_ok))

    db_ok = all(
        abs(dense_lambda(hermitian_double(e), 1) - dense_lambda(e, 1)) <= 1e-7
        for e in (hermitian_ensemble(3 + (i % 2), 4, 7100 + i) for i in range(10))
    )
    checks.append(("doubling", db_ok))

    tn_ok = all(
        abs(dense_lambda(tensor_ensemble(e), 1) - dense_lambda(e, 1)) <= 1e-7
        for e in (raw_haar_ensemble(3, 3 + (i % 2), 7200 + i) for i in range(10))
    )
    checks.append(("tensoring", tn_ok))

    mono_ok = True
    for i in range(8):
        e = hermitian_ensemble(3, 4, 7300 + i)
        l1, l2, l3 = (dense_lambda(e, t) for t in (1, 2, 3))
        mono_ok = mono_ok and l1 <= l2 + 1e-7 and l2 <= l3 + 1e-7 and l1 <= l3 + 1e-7
    for i in range(2):
        e = hermitian_ensemble(4, 4, 7400 + i)
        l1, l2 = (dense_lambda(e, t) for t in (1, 2))
        rep3 = lambda_report(e, 3, method="power-iteration", tol=1e-8, rng=SeededRng(i), max_iters=20000)
        mono_ok = mono_ok and rep3.converged and l1 <= l2 + 1e-7 and l2 <= rep3.lambda_ + 1e-7
    checks.append(("tracing-out", mono_ok))

    failed = [name for name, ok in checks if not ok]
    report(7, not failed, "ensemble algebra facts on 10+ instances each" + (f"; failed {failed}" if failed else ""))


def test_criterion_08_oracle_equivalence():
    """Dense and matrix-free lambda agree within 1e-7 wherever both run."""
    worst = 0.0
    grid = []
    for d, t, seed in ((2, 1, 0), (4, 1, 1), (8, 1, 2), (2, 2, 3), (3, 2, 4), (4, 2, 5), (2, 3, 6), (3, 3, 7), (4, 3, 8)):
        e = hermitian_ensemble(d, 4, 8000 + seed)
        dense = lambda_report(e, t, method="dense-svd")
        it = lambda_report(e, t, method="power-iteration", tol=1e-9, rng=SeededRng(seed), max_iters=30000)
        assert it.converged, f"(d={d}, t={t}) iterative did not converge"
        worst = max(worst, abs(dense.lambda_ - it.lambda_))
        grid.append((d, t))
    # one product instance as well
    g = sample_random_qtpe(4, 4, SeededRng(8100))
    h = sample_random_qtpe(4, 4, SeededRng(8101))
    product = zigzag(g, h)
    dense = lambda_report(product, 1, method="dense-svd")
    it = lambda_report(product, 1, method="power-iteration", tol=1e-9, rng=SeededRng(9), max_iters=30000)
    worst = max(worst, abs(dense.lambda_ - it.lambda_))
    grid.append((product.dim, 1))
    report(8, worst <= 1e-7, f"dense vs matrix-free on {len(grid)} instances: worst gap {worst:.2e}")


def test_criterion_09_design_error():
    """Monomial deviations bounded by lambda^k; Pauli exact at t=1."""
    pauli_worst = max(
        design_error_monomial(pauli_ensemble(), 1, k, (i,), (j,))
        for k in (1, 2, 3)
        for i in range(2)
        for j in range(2)
    )
    ok = pauli_worst <= 1e-12

    worst_excess = -np.inf
    ensembles = [hermitian_ensemble(2, 4, 9000 + i) for i in range(3)] + [raw_haar_ensemble(2, 3, 9100)]
    for e in ensembles:
        for t in (1, 2):
            lam = dense_lambda(e, t)
            tuples = list(itertools.product(range(2), repeat=t))
            for k in (1, 2, 3):
                for rows in tuples:
                    for cols in tuples:
                        err = design_error_monomial(e, t, k, rows, cols)
                        worst_excess = max(worst_excess, err - lam**k)
                        ok = ok and err <= lam**k + 1e-9
    report(9, ok, f"design errors: pauli worst {pauli_worst:.1e}, worst excess over lambda^k {worst_excess:.2e}")


def test_criterion_10_epsgood_checker():
    """Identity rejection, exhaustive/sampled agreement, calibrated Haar acceptance."""
    checks = []

    reject_ok = True
    for d in (2, 3, 4):
        eps = 0.9 * (d - 1) / 3.0
        us = [np.eye(d * 2, dtype=complex)] * 2
        reject_ok = reject_ok and not is_tuple_good(us, d, 2, eps).good
    checks.append(("identity rejected", reject_ok))

    us = [haar_unitary(4, SeededRng(10000, i)) for i in range(2)]
    exhaustive = is_tuple_good(us, 2, 2, 0.5, mode="exhaustive")
    sampled = is_tuple_good(us, 2, 2, 0.5, mode="sampled", budget=10**6, rng=SeededRng(0))
    checks.append(("exhaustive = sampled full budget", exhaustive.good == sampled.good and sampled.coverage == 1.0))

    # frozen Monte Carlo calibration: scripts/calibrate_epsgood.py, 200/200 accepted
    x0 = np.zeros(512, dtype=complex)
    x0[0] = 1.0
    accepted = sum(
        is_good_for_vector(haar_unitary(512, SeededRng(seed, 900)), x0, 2, 256, 0.3).good for seed in range(20)
    )
    checks.append(("haar acceptance >= 0.9", accepted / 20 >= 0.9))

    failed = [name for name, ok in checks if not ok]
    report(10, not failed, f"epsilon-good checker (haar acceptance {accepted}/20)" + (f"; failed {failed}" if failed else ""))
