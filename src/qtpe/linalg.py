"""Complex dense linear algebra substrate.

Seeded Haar-random unitary sampling, Kronecker/tensor-mode contraction
kernels, orthonormalisation, principal-angle distances, and largest-singular-
value estimation (dense SVD below a size threshold, seeded power iteration
with windowed Rayleigh-Ritz extraction above it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError, SizeLimitError

DENSE_LIMIT = 4096  # largest dimension the dense path materialises
ITERATIVE_AMBIENT_LIMIT = 10**7  # largest vector length a moment operator is applied to
KRON_ENTRY_LIMIT = 2**31
DEFAULT_TOL_DENSE = 1e-9
DEFAULT_TOL_ITERATIVE = 1e-7
DEFAULT_MAX_ITERS = 5000

_RITZ_WINDOW = 24
_RITZ_KEEP = 2


@dataclass(frozen=True)
class SeededRng:
    """Reproducible random stream: identical (seed, stream) gives identical values.

    Backed by PCG64 keyed on the (seed, stream) pair, which numpy guarantees
    platform-stable.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise PreconditionError(f"seed and stream must be nonnegative, got ({self.seed}, {self.stream})")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, self.stream])))

    def child(self, k: int) -> "SeededRng":
        """Derived stream for sub-task k (splitmix-style mixing, collision-safe)."""
        mixed = (self.stream * 0x9E3779B97F4A7C15 + k + 1) % 2**64
        return SeededRng(self.seed, mixed)


def haar_unitary(dim: int, rng: SeededRng) -> np.ndarray:
    """Haar-distributed dim x dim unitary.

    Ginibre draw, QR orthonormalisation, then a diagonal phase correction so
    the triangular factor has positive real diagonal; without the correction
    the distribution is not Haar.
    """
    if dim < 1:
        raise PreconditionError(f"dim must be >= 1, got {dim}")
    g = rng.generator()
    z = (g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with row-major index convention ((i1,i2) -> i1*dim2 + i2)."""
    a = np.asarray(a)
    b = np.asarray(b)
    entries = a.shape[0] * b.shape[0] * a.shape[1] * b.shape[1]
    if entries > KRON_ENTRY_LIMIT:
        raise SizeLimitError(f"kron result would have {entries} entries (> {KRON_ENTRY_LIMIT})")
    return np.kron(a, b)


def mode_apply(u: np.ndarray, x: np.ndarray, mode: int, n: int, m: int) -> np.ndarray:
    """Apply u to tensor factor `mode` of x viewed as an m-way tensor of side n.

    Matrix-free building block for tensor-power conjugations: equals the dense
    (I ⊗ ... ⊗ u ⊗ ... ⊗ I) x without materialising the n^m x n^m operator.
    """
    u = np.asarray(u)
    x = np.asarray(x)
    if u.shape != (n, n):
        raise PreconditionError(f"u must be {n}x{n}, got {u.shape}")
    if not 0 <= mode < m:
        raise PreconditionError(f"mode {mode} outside range(0, {m})")
    if x.shape != (n**m,):
        raise PreconditionError(f"x must have length n^m = {n**m}, got {x.shape}")
    lead = n**mode
    view = x.reshape(lead, n, -1)
    return np.matmul(u, view).reshape(-1)


@dataclass
class LinearMap:
    """Matrix-free linear map handle on C^dim with apply/adjoint-apply.

    `dense` optionally materialises the matrix for the dense SVD path.
    """

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint_apply: Callable[[np.ndarray], np.ndarray]
    dense: Callable[[], np.ndarray] | None = None

    @classmethod
    def from_matrix(cls, a: np.ndarray) -> "LinearMap":
        a = np.asarray(a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise PreconditionError(f"expected a square matrix, got shape {a.shape}")
        # a^H x as conj(a^T conj(x)), so no conjugated copy of a is stored
        return cls(
            dim=a.shape[0], apply=lambda x: a @ x, adjoint_apply=lambda x: (a.T @ x.conj()).conj(), dense=lambda: a
        )


@dataclass
class SpectralEstimate:
    """Largest-singular-value estimate with convergence evidence."""

    value: float
    residual: float
    iterations: int
    method: str  # "dense-svd" | "power-iteration"
    converged: bool = True


def spectral_norm(
    op: LinearMap | np.ndarray,
    tol: float | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
    rng: SeededRng | None = None,
    method: str | None = None,
    deflate: np.ndarray | None = None,
) -> SpectralEstimate:
    """Largest singular value of a linear map.

    Dense path (dim <= DENSE_LIMIT and a materialiser is available): exact
    SVD. Iterative path: power iteration on op†∘op from a seeded random start,
    with a windowed Rayleigh-Ritz extraction over recent iterates so clustered
    spectral edges still converge quickly. Convergence requires the relative
    value change to stay <= tol over 3 consecutive steps AND the residual
    ||op†op v - value^2 v|| / value^2 <= tol. Non-convergence is reported
    explicitly, never silently dropped.

    `deflate` takes orthonormal columns spanning a known invariant subspace;
    every iterate is re-projected onto its complement.
    """
    if isinstance(op, np.ndarray):
        op = LinearMap.from_matrix(op)
    if op.dim < 1:
        raise PreconditionError("operator dimension must be >= 1")
    if method not in (None, "dense-svd", "power-iteration"):
        raise PreconditionError(f"unknown method {method!r}")
    if method is None:
        method = "dense-svd" if (op.dim <= DENSE_LIMIT and op.dense is not None) else "power-iteration"

    if method == "dense-svd":
        if op.dense is None:
            raise PreconditionError("dense-svd requested but the map has no dense materialiser")
        mat = np.asarray(op.dense(), dtype=complex)
        if deflate is not None and deflate.size:
            mat = mat - (mat @ deflate) @ deflate.conj().T
        value = float(np.linalg.svd(mat, compute_uv=False)[0]) if mat.size else 0.0
        return SpectralEstimate(value=value, residual=0.0, iterations=0, method="dense-svd")

    tol = DEFAULT_TOL_ITERATIVE if tol is None else float(tol)
    rng = SeededRng(0, 0) if rng is None else rng
    return _power_iteration_ritz(op, tol, max_iters, rng, deflate)


def _project_out(q: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    if q is None or q.size == 0:
        return x
    return x - q @ (q.conj().T @ x)


def _power_iteration_ritz(
    op: LinearMap,
    tol: float,
    max_iters: int,
    rng: SeededRng,
    deflate: np.ndarray | None,
) -> SpectralEstimate:
    n = op.dim
    g = rng.generator()

    def b_apply(x: np.ndarray) -> np.ndarray:
        x = _project_out(deflate, x)
        y = op.apply(x)
        z = op.adjoint_apply(y)
        return _project_out(deflate, z)

    v = g.standard_normal(n) + 1j * g.standard_normal(n)
    v = _project_out(deflate, v)
    nrm = np.linalg.norm(v)
    if nrm < 1e-300:  # deflation removed everything
        return SpectralEstimate(value=0.0, residual=0.0, iterations=0, method="power-iteration")
    v /= nrm

    full_dim = n - (deflate.shape[1] if deflate is not None and deflate.size else 0)
    # Window cap keeps basis memory bounded for very large ambient dimensions.
    window = max(3, min(_RITZ_WINDOW, (2**27) // max(1, 16 * n)))
    basis = [v]
    images: list[np.ndarray] = []
    value_prev = None
    stable_steps = 0
    best = SpectralEstimate(value=0.0, residual=np.inf, iterations=0, method="power-iteration", converged=False)

    for iteration in range(1, max_iters + 1):
        images.append(b_apply(basis[-1]))
        vm = np.stack(basis, axis=1)
        wm = np.stack(images, axis=1)
        h = vm.conj().T @ wm
        h = 0.5 * (h + h.conj().T)
        evals, evecs = np.linalg.eigh(h)
        theta = float(max(evals[-1], 0.0))
        y = evecs[:, -1]
        ritz = vm @ y
        resid_vec = wm @ y - theta * ritz
        residual = float(np.linalg.norm(resid_vec) / max(theta, 1e-24))
        value = float(np.sqrt(theta))

        if residual < best.residual:
            best = SpectralEstimate(value, residual, iteration, "power-iteration", converged=False)

        if value_prev is not None and abs(value - value_prev) <= tol * max(value, 1e-12):
            stable_steps += 1
        else:
            stable_steps = 0
        value_prev = value

        if stable_steps >= 3 and residual <= tol:
            return SpectralEstimate(value, residual, iteration, "power-iteration", converged=True)

        if len(basis) >= full_dim:
            # The basis spans the whole deflated space: the Ritz extraction is
            # an exact eigendecomposition and nothing can improve it.
            return SpectralEstimate(value, residual, iteration, "power-iteration", converged=residual <= tol)

        if len(basis) >= window:
            keep = min(_RITZ_KEEP, len(basis))
            yk = evecs[:, -keep:]
            vm = vm @ yk
            wm = wm @ yk
            basis = [vm[:, i] for i in range(keep)]
            images = [wm[:, i] for i in range(keep)]
            vm = np.stack(basis, axis=1)

        nxt = resid_vec
        nxt = nxt - vm @ (vm.conj().T @ nxt)
        nxt = nxt - vm @ (vm.conj().T @ nxt)  # second pass for orthogonality
        nrm = np.linalg.norm(nxt)
        if nrm < 1e-14:
            fresh = g.standard_normal(n) + 1j * g.standard_normal(n)
            raw = np.linalg.norm(fresh)
            nxt = _project_out(deflate, fresh)
            nxt = nxt - vm @ (vm.conj().T @ nxt)
            nxt = nxt - vm @ (vm.conj().T @ nxt)
            nrm = np.linalg.norm(nxt)
            if nrm < 1e-8 * raw:  # space exhausted up to roundoff
                return SpectralEstimate(value, residual, iteration, "power-iteration", converged=residual <= tol)
        basis.append(nxt / nrm)

    return best


def orthonormalize(vectors: Sequence[np.ndarray] | np.ndarray, rank_tol: float = 1e-10) -> tuple[np.ndarray, int]:
    """Orthonormal basis (as columns) of the span, with its numerical rank.

    Rank counts singular values above rank_tol times the largest one; an
    all-zero input yields rank 0 and an empty basis.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        a = np.asarray(vectors, dtype=complex)
    else:
        seq = list(vectors)
        if not seq:
            raise PreconditionError("orthonormalize needs at least one vector")
        a = np.stack([np.asarray(v, dtype=complex).reshape(-1) for v in seq], axis=1)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((a.shape[0], 0), dtype=complex), 0
    rank = int(np.sum(s > rank_tol * s[0]))
    return u[:, :rank], rank


def _check_orthonormal(basis: np.ndarray, tag: str, tol: float = 1e-8) -> None:
    if basis.ndim != 2:
        raise PreconditionError(f"{tag} must be a 2-D column basis")
    if basis.shape[1] == 0:
        return
    gram = basis.conj().T @ basis
    defect = np.max(np.abs(gram - np.eye(basis.shape[1])))
    if defect > tol:
        raise PreconditionError(f"{tag} is not orthonormal (defect {defect:.2e} > {tol})")


def max_principal_sine(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
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


def complement_closeness(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Directed distance from span(A)^perp into span(B)^perp.

    Uses the projector identity ||P_B P_{A^perp}|| = ||P_{A^perp} P_B||: the
    orthogonal-complement closeness equals the reversed directed distance of
    the original spaces, so no complement basis is ever materialised.
    """
    return max_principal_sine(basis_b, basis_a)
