"""Shared helpers: ensemble constructors, the dense spectral oracle, the
SVD orthonormalisation and the oracles built on it, of the fixed space and
of its closeness to the distinct-tuple proxy with the principal-angle
distance they use, and the per-block oracle of SectorOperator's planned
applies."""

import numpy as np
import pytest

from qtpe.ensemble import UnitaryEnsemble, sample_random_qtpe
from qtpe.errors import PreconditionError
from qtpe.linalg import SeededRng, haar_unitary
from qtpe.moments import _RANK_TOL, MomentOperator, irrep_actions, lambda_report
from qtpe.perms import Permutation, all_permutations


def pytest_configure(config):
    """Make numpy's ComplexWarning, an implicit complex -> real cast, an error
    as RuntimeWarning is (pyproject.toml). numpy 1.24 has the class at the top
    level, numpy >= 1.25 in numpy.exceptions, so it is looked up here."""
    warning = getattr(np, "exceptions", np).ComplexWarning
    config.addinivalue_line("filterwarnings", f"error::{warning.__module__}.{warning.__qualname__}")


def sector_reference_apply(e, t, x, adjoint=False):
    """SectorOperator's apply_vec (adjoint_apply_vec with `adjoint`) written
    plainly, block by block: the member-minor stacks H of irrep_actions, the
    views of each block taken on every call, two GEMMs into a fresh
    intermediate, and a division of each block by s. The same GEMMs on the
    same operands, so the planned applies equal it bit for bit."""
    s = e.size
    stacks = [np.ascontiguousarray(r.transpose(1, 0, 2)) for r in irrep_actions(e, t)]
    out, lo = [], 0
    for i in range(len(stacks)):
        for j in range(i, len(stacks)):
            h_left, h_right = stacks[i], stacks[j]
            da, db = h_left.shape[0], h_right.shape[0]
            block, work = x[lo : lo + da * db].reshape(da, db), np.empty(s * da * db, dtype=complex)
            y = np.empty((da, db), dtype=complex)
            if adjoint:
                np.matmul(block, h_right.reshape(db, s * db), out=work.reshape(da, s * db))
                np.matmul(h_left.conj().reshape(da * s, da).T, work.reshape(da * s, db), out=y)
            else:
                np.matmul(h_left.reshape(da * s, da), block, out=work.reshape(da * s, db))
                np.matmul(work.reshape(da, s * db), h_right.conj().reshape(db, s * db).T, out=y)
            y /= s
            out.append(y.reshape(-1))
            lo += da * db
    return np.concatenate(out)


def identity(t):
    """The identity permutation of range(t)."""
    return Permutation(tuple(range(t)))


def dense_lambda(e, t):
    """Exact second-largest singular value via the dense SVD path."""
    return lambda_report(e, t, method="dense-svd").lambda_


def shuffle_columns(n, t):
    """The t! normalised shuffles alpha_sigma, vectorised row-major, as the real
    columns of an n^2t x t! matrix in all_permutations order. Column j of the
    shuffle of sigma has its one in the row whose index tuple is j's with
    register a moved to sigma(a)."""
    nt = n**t
    digits = np.array(np.unravel_index(np.arange(nt), (n,) * t))
    perms = all_permutations(t)
    out = np.zeros((nt * nt, len(perms)))
    for i, sig in enumerate(perms):
        rows = np.ravel_multi_index(tuple(digits[list(sig.inverse().map)]), (n,) * t)
        out[rows * nt + np.arange(nt), i] = float(n) ** (-t / 2)
    return out


def distinct_columns(d, t):
    """shuffle_columns(d, t) on the matrix columns whose index tuple has t
    distinct values only, zero elsewhere: the distinct-tuple family alpha'."""
    nt = d**t
    digits = np.array(np.unravel_index(np.arange(nt), (d,) * t))
    distinct = np.array([len(set(col)) == t for col in digits.T])
    return shuffle_columns(d, t) * np.tile(distinct, nt)[:, None]


def orthonormalize(a):
    """Orthonormal columns spanning the columns of the 2-D array a, real when
    a is real, and their number: the left singular vectors of the singular
    values above _RANK_TOL times the largest. An all-zero input yields rank 0
    and no columns. The SVD oracle of the fixed space and of the Schur-Weyl
    bases."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((a.shape[0], 0), dtype=a.dtype), 0
    rank = int(np.sum(s > _RANK_TOL * s[0]))
    return u[:, :rank], rank


def svd_fixed_space(n, t):
    """Orthonormal columns spanning W and their number, from the SVD of the
    shuffle family: the oracle of moments.fixed_space_basis."""
    return orthonormalize(shuffle_columns(n, t))


def svd_deviation(e, t):
    """Phi - P as a dense matrix, P from the SVD basis of W: Phi on W^perp, 0 on W."""
    q, _ = svd_fixed_space(e.dim, t)
    return MomentOperator(e, t).dense() - q @ q.T


def _check_orthonormal(basis, tag, tol=1e-8):
    if basis.ndim != 2:
        raise PreconditionError(f"{tag} must be a 2-D column basis")
    if basis.shape[1] == 0:
        return
    gram = basis.conj().T @ basis
    defect = np.max(np.abs(gram - np.eye(basis.shape[1])))
    if defect > tol:
        raise PreconditionError(f"{tag} is not orthonormal (defect {defect:.2e} > {tol})")


def max_principal_sine(basis_a, basis_b):
    """Directed subspace distance: max over unit w in span(A) of its distance to span(B).

    Equals the sine of the largest principal angle from span(A) into span(B),
    computed as the top singular value of (I - B B†) A. Symmetric closeness is
    the max of the two directed values.
    """
    _check_orthonormal(basis_a, "basis_a")
    _check_orthonormal(basis_b, "basis_b")
    if basis_a.shape[0] != basis_b.shape[0]:
        raise PreconditionError(f"ambient dimensions differ: {basis_a.shape[0]} vs {basis_b.shape[0]}")
    if basis_a.shape[1] == 0:
        return 0.0
    resid = basis_a - basis_b @ (basis_b.conj().T @ basis_a)
    value = float(np.linalg.svd(resid, compute_uv=False)[0])
    return min(max(value, 0.0), 1.0)


def svd_closeness(outer_dim, inner_dim, t):
    """(w_to_wprime, wprime_to_w, w2prime_to_w2, w2_to_w2prime) from the SVD
    bases of W, W', W_2 and W_2': the oracle of moments.subspace_closeness_report.
    W's family is the column-wise Kronecker product of the outer and inner
    families, a fixed relabelling of the grouped layout's coordinates."""
    a1, a2, a2p = shuffle_columns(outer_dim, t), shuffle_columns(inner_dim, t), distinct_columns(inner_dim, t)
    q = [
        orthonormalize(family)[0]
        for family in (
            np.einsum("pi,qi->pqi", a1, a2).reshape(-1, a1.shape[1]),
            np.einsum("pi,qi->pqi", a1, a2p).reshape(-1, a1.shape[1]),
            a2,
            a2p,
        )
    ]
    return (
        max_principal_sine(q[0], q[1]),
        max_principal_sine(q[1], q[0]),
        max_principal_sine(q[3], q[2]),
        max_principal_sine(q[2], q[3]),
    )


def raw_haar_ensemble(d, s, seed, label=""):
    """s independent Haar members, no involution (generically non-Hermitian)."""
    base = SeededRng(seed, 777)
    members = np.stack([haar_unitary(d, base.child(i)) for i in range(s)])
    return UnitaryEnsemble(d, members, None, label or f"raw-d{d}-s{s}")


def hermitian_ensemble(d, s, seed, label=""):
    """Explicitly Hermitian sample (s even >= 4)."""
    return sample_random_qtpe(d, s, SeededRng(seed), label=label)


def identity_ensemble(d, copies=1):
    return UnitaryEnsemble(d, np.stack([np.eye(d, dtype=complex)] * copies), tuple(range(copies)), f"identity-d{d}")


def pauli_ensemble():
    paulis = np.stack(
        [
            np.eye(2, dtype=complex),
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
    )
    return UnitaryEnsemble(2, paulis, (0, 1, 2, 3), "pauli")


def _phase_free_key(u):
    """u up to a global phase: its entries rotated so that the first nonzero
    one is real and positive, rounded, with -0.0 read as 0.0."""
    flat = u.reshape(-1)
    lead = flat[np.argmax(np.abs(flat) > 1e-9)]
    v = flat * (abs(lead) / lead)
    return tuple(np.round(np.concatenate([v.real, v.imag]), 9) + 0.0)


def clifford_ensemble():
    """The one-qubit Clifford group modulo phases: 24 members, built by
    closure from H and S, rephased so that U_{-i} = U_i† exactly. A member
    that is its own inverse up to the phase c (U^2 = c I) is divided by
    sqrt(c), which makes it Hermitian. The group is a unitary 3-design and
    not a 4-design, and each moment operator a projector, so lambda_1..3 = 0
    and lambda_4 = 1 exactly."""
    gens = [np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2), np.diag([1, 1j])]
    members, index, frontier = [], {}, [np.eye(2, dtype=complex)]
    while frontier:
        u = frontier.pop()
        key = _phase_free_key(u)
        if key not in index:
            index[key] = len(members)
            members.append(u)
            frontier.extend(g @ u for g in gens)
    partners = [index[_phase_free_key(u.conj().T)] for u in members]
    for i, j in enumerate(partners):
        if j == i:
            members[i] = members[i] / np.sqrt((members[i] @ members[i])[0, 0])
        elif j > i:
            members[j] = members[i].conj().T
    return UnitaryEnsemble(2, np.stack(members), tuple(partners), "clifford-1q")


def regroup_indices(outer_dim, inner_dim, t):
    """Index permutation from interleaved (C^D x C^d)^(x t) to grouped
    (C^D)^(x t) x (C^d)^(x t) register order."""
    n = outer_dim * inner_dim
    idx = np.arange(n**t)
    digits = np.array(np.unravel_index(idx, (n,) * t))
    outer = digits // inner_dim
    inner = digits % inner_dim
    grouped = np.zeros_like(idx)
    for r in range(t):
        grouped = grouped * outer_dim + outer[r]
    for r in range(t):
        grouped = grouped * inner_dim + inner[r]
    return grouped


def regroup_vec_permutation(outer_dim, inner_dim, t):
    """Permutation on the n^2t vec space induced by register regrouping."""
    g = regroup_indices(outer_dim, inner_dim, t)
    nt = (outer_dim * inner_dim) ** t
    idx = np.arange(nt * nt)
    rows, cols = idx // nt, idx % nt
    return g[rows] * nt + g[cols]


def regroup_matrix_vec(m, outer_dim, inner_dim, t):
    """Conjugate a matrix on the interleaved layout into the grouped layout."""
    g = regroup_indices(outer_dim, inner_dim, t)
    out = np.empty_like(m)
    out[np.ix_(g, g)] = m
    return out


def conjugation_superop(w):
    """Dense superoperator of M -> W M W† under row-major vectorisation."""
    return np.kron(w, w.conj())


def zigzag_superop_sides(g, h, t):
    """Dense (grouped-layout) factors of the product superoperator identity.

    Returns (lhs, rhs): the product ensemble's moment superoperator conjugated
    into the grouped register layout, and the composition
    (inner average) o (lifted control conjugation) o (inner average).
    """
    from qtpe.moments import MomentOperator
    from qtpe.zigzag import g_dot, zigzag

    D, d = g.dim, h.dim
    product = zigzag(g, h)
    perm = regroup_vec_permutation(D, d, t)
    lhs_inter = MomentOperator(product, t).dense()
    lhs = np.empty_like(lhs_inter)
    lhs[np.ix_(perm, perm)] = lhs_inter

    dot = g_dot(g)
    dot_t = np.eye(1, dtype=complex)
    for _ in range(t):
        dot_t = np.kron(dot_t, dot)
    super_g = conjugation_superop(regroup_matrix_vec(dot_t, D, d, t))

    nt = (D * d) ** t
    eye_dt = np.eye(D**t, dtype=complex)
    super_h = np.zeros((nt * nt, nt * nt), dtype=complex)
    for v in h.unitaries:
        vt = np.eye(1, dtype=complex)
        for _ in range(t):
            vt = np.kron(vt, v)
        super_h += conjugation_superop(np.kron(eye_dt, vt))
    super_h /= h.size
    return lhs, super_h @ super_g @ super_h
