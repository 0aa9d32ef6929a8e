"""Shared helpers: ensemble constructors and the dense spectral oracle."""

import numpy as np
import pytest

from qtpe.ensemble import UnitaryEnsemble, sample_random_qtpe
from qtpe.linalg import SeededRng, haar_unitary
from qtpe.moments import lambda_report
from qtpe.perms import Permutation


def pytest_configure(config):
    """Make numpy's ComplexWarning, an implicit complex -> real cast, an error
    as RuntimeWarning is (pyproject.toml). numpy 1.24 has the class at the top
    level, numpy >= 1.25 in numpy.exceptions, so it is looked up here."""
    warning = getattr(np, "exceptions", np).ComplexWarning
    config.addinivalue_line("filterwarnings", f"error::{warning.__module__}.{warning.__qualname__}")


def identity(t):
    """The identity permutation of range(t)."""
    return Permutation(tuple(range(t)))


def dense_lambda(e, t):
    """Exact second-largest singular value via the dense SVD path."""
    return lambda_report(e, t, method="dense-svd").lambda_


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
