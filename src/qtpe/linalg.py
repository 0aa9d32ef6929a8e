"""Complex dense linear algebra substrate.

Seeded Haar-random unitary sampling and the matrix-free
largest-singular-value solver: seeded plain Lanczos, on the map
itself when it is Hermitian and on op†∘op otherwise, with optional deflation
of an invariant subspace that removes itself from a vector in place. The
solver keeps three vectors and the coefficients of its tridiagonal matrix,
whose Ritz values it reads only at the steps where the rate of convergence
so far predicts that the stop can be reached.
Which lambda path runs, dense or iterative, is decided in
moments.lambda_report, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .errors import PreconditionError

DENSE_LIMIT = 4096  # largest n^2t of dense-svd and the dense() oracles; the dense path forms blocks only
ITERATIVE_AMBIENT_LIMIT = 10**7  # largest vector length a moment operator is applied to
DEFAULT_TOL_ITERATIVE = 1e-7
DEFAULT_MAX_ITERS = 5000


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


@dataclass
class LinearMap:
    """Matrix-free linear map handle on C^dim with apply/adjoint-apply.

    Each call returns a new array, which the caller may overwrite."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint_apply: Callable[[np.ndarray], np.ndarray]


class Subspace(Protocol):
    """A subspace of dimension `rank` that can remove itself from a vector:
    project_out(x) sets x to its orthogonal projection onto the complement,
    in place."""

    rank: int

    def project_out(self, x: np.ndarray) -> None: ...


@dataclass
class SpectralEstimate:
    """Largest-singular-value estimate with convergence evidence."""

    value: float
    residual: float
    iterations: int
    converged: bool = True


def _next_check(k: int, readings: list[tuple[int, float]], tol: float, wait: int) -> int:
    """The step after k at which the Ritz values are next read.

    `readings` are the (step, q) readings so far of the quantity the stop
    still waits on, which must fall to tol. The last two give q's geometric
    rate per step; the next check is where that rate brings q to tol, plus
    `wait` steps, but at least 1 and at most k // 2 steps after k. Without
    two readings that fall, it is k // 8 steps after k, and at least 1.
    """
    if len(readings) >= 2:
        (k0, q0), (k1, q1) = readings[-2:]
        if q1 <= tol:
            return k + min(max(1, k1 + wait - k), max(1, k // 2))
        fall = math.log(q0 / q1) if q1 < q0 else 0.0
        if fall > 0.0:
            steps = (k1 - k0) * (math.log(q1) - math.log(tol)) / fall
            return k + min(max(1, math.ceil(k1 + steps + wait - k)), max(1, k // 2))
    return k + max(1, k // 8)


def _last_component(alphas: list[float], betas: list[float], sigma: float) -> float:
    """|s_k|, the last entry of the unit eigenvector of the tridiagonal T_k
    (diagonal alphas, off-diagonal betas) for its eigenvalue next to sigma.

    Two steps of inverse iteration from the all-ones vector. sigma lies just
    outside the spectrum, so T_k - sigma I is definite and its LU without
    pivoting (the Thomas recurrence) is stable.
    """
    k = len(alphas)
    pivots, ratios = [0.0] * k, [0.0] * k
    for i in range(k):
        pivots[i] = alphas[i] - sigma - (betas[i - 1] * ratios[i - 1] if i else 0.0)
        ratios[i] = betas[i] / pivots[i] if i < k - 1 else 0.0
    x = [1.0] * k
    for _ in range(2):
        for i in range(k):
            x[i] = (x[i] - (betas[i - 1] * x[i - 1] if i else 0.0)) / pivots[i]
        for i in range(k - 2, -1, -1):
            x[i] -= ratios[i] * x[i + 1]
        scale = max(map(abs, x))
        x = [v / scale for v in x]
    return abs(x[-1]) / math.sqrt(sum(v * v for v in x))


def spectral_norm(
    op: LinearMap,
    tol: float | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
    rng: SeededRng | None = None,
    deflate: Subspace | None = None,
    hermitian: bool = False,
) -> SpectralEstimate:
    """Largest singular value of a matrix-free linear map, by plain Lanczos.

    The three-term recurrence runs from a seeded random start on B = op when
    `hermitian` (op† = op, one apply per step), and on B = op† o op
    otherwise (two applies per step). It keeps only the last two Lanczos
    vectors and the coefficients alpha_i, beta_i of the tridiagonal T_k;
    without reorthogonalisation the extreme Ritz values of T_k and their
    residual estimates stay reliable (Paige 1980). The value is
    max(|theta_min|, theta_max) of T_k on the Hermitian path, so both ends
    of the spectrum count, and sqrt(theta_max) otherwise. The residual is
    beta_k |s_k| / |theta|, s_k the last component of theta's eigenvector of
    T_k: ||op v - theta v|| / |theta| on the Hermitian path and
    ||op†op v - theta v|| / theta otherwise, for the Ritz vector v.

    The Ritz values come from eigvalsh(T_k) at checks only, which
    _next_check schedules from the quantity the stop still waits on: the
    relative change of the value per step between checks until the residual
    is first read, the residual after that. The geometric rate of its last
    two readings predicts the step where it reaches tol; the next check is
    there (3 steps later while the value must still prove stable), but at
    least 1 and at most k // 2 steps after k, and k // 8 steps after k while
    there is no falling pair of readings. The schedule reads only T_k, so a
    rerun checks at the same steps. Convergence requires the value to stay
    within tol (relative) over at least 3 steps AND the residual to be <=
    tol. When the Krylov space is invariant (beta_k <= 1e-12 times the size
    of T_k) the value is exact. On the Hermitian path that size is at least
    1, the norm of every map solved there (an average of isometries): at an
    exact design every alpha_i and beta_i is roundoff, and a size read from
    them would never call the space invariant. There theta may be roundoff
    too, so the residual is divided by max(|theta|, 1). When k reaches the
    dimension first, the value is reported as converged on op†op; on the
    Hermitian path only if the residual is <= tol, and the solve goes on
    otherwise, because without reorthogonalisation k Lanczos vectors need
    not span the space. When max_iters runs out, the last check is reported
    with converged False. All three force a check.

    `deflate` is a subspace W that op and op† both map into itself, given by
    its rank and project_out; the start and every new Lanczos vector are
    projected onto W^perp in place, which is then invariant too, so the
    result is the norm of op restricted to W^perp. Projecting once per step
    keeps rounding in W from growing.
    """
    if op.dim < 1 or max_iters < 1:
        raise PreconditionError(f"operator dimension and max_iters must be >= 1, got {op.dim} and {max_iters}")
    tol = DEFAULT_TOL_ITERATIVE if tol is None else float(tol)
    rng = SeededRng(0, 0) if rng is None else rng
    n = op.dim
    g = rng.generator()

    def project_out(x: np.ndarray) -> np.ndarray:
        if deflate is not None:
            deflate.project_out(x)
        return x

    def b_apply(x: np.ndarray) -> np.ndarray:
        return op.apply(x) if hermitian else op.adjoint_apply(op.apply(x))

    v = project_out(g.standard_normal(n) + 1j * g.standard_normal(n))
    nrm = np.linalg.norm(v)
    full_dim = n - (0 if deflate is None else deflate.rank)
    # deflation removed everything: W^perp is {0}, whatever roundoff v keeps
    if full_dim < 1 or nrm < 1e-300:
        return SpectralEstimate(value=0.0, residual=0.0, iterations=0)
    v *= 1.0 / nrm
    v_prev = None
    alphas: list[float] = []
    betas: list[float] = []
    scale = 0.0  # largest |alpha_i|, beta_i: the size of T_k
    check = last_check = 1
    value_prev = None
    stable_from = 0  # the step from which the value has been stable
    # the readings _next_check schedules from: the relative change of the
    # value per step between checks, until the residual is first read
    changes: list[tuple[int, float]] = []
    residuals: list[tuple[int, float]] = []

    for k in range(1, max_iters + 1):
        w = np.asarray(b_apply(v), dtype=complex)
        if v_prev is not None:
            w -= betas[-1] * v_prev
        alpha = float(np.vdot(v, w).real)
        w -= alpha * v
        project_out(w)
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        betas.append(beta)
        scale = max(scale, abs(alpha), beta)
        # beta_k at the rounding level of T_k, or on the Hermitian path of
        # the map: K_k is invariant and T_k exact
        invariant = beta <= 1e-12 * (max(scale, 1.0) if hermitian else scale)
        counted = k == full_dim
        exhausted = invariant or (counted and not hermitian)
        if k == check or invariant or counted or k == max_iters:
            t_k = np.zeros((k, k))
            t_k.flat[:: k + 1] = alphas
            t_k.flat[1 :: k + 1] = t_k.flat[k :: k + 1] = betas[:-1]
            ritz = np.linalg.eigvalsh(t_k)
            if hermitian:
                theta = float(ritz[-1] if ritz[-1] >= -ritz[0] else ritz[0])
            else:
                theta = max(float(ritz[-1]), 0.0)
            value = abs(theta) if hermitian else math.sqrt(theta)
            if value_prev is None or abs(value - value_prev) > tol * max(value, 1e-12):
                stable_from = k
            if value_prev is not None:
                changes.append((k, abs(value - value_prev) / max(value, 1e-12) / (k - last_check)))
            value_prev, last_check = value, k
            # the residual is read only where it can end the solve or is reported
            if invariant or counted or k == max_iters or k - stable_from >= 3:
                shift = math.copysign(1e-10 * scale, theta)  # past theta, so outside T_k's spectrum
                s_k = _last_component(alphas, betas, theta + shift) if beta > 0.0 else 0.0
                # an invariant K_k on the Hermitian path may hold theta at
                # roundoff, so its residual is read against the map's norm
                floor = 1.0 if hermitian and invariant else 1e-24
                residual = beta * s_k / max(abs(theta), floor)
                if exhausted or (residual <= tol and (counted or k - stable_from >= 3)):
                    return SpectralEstimate(value, residual, k, converged=True)
                residuals.append((k, residual))
            # before the residual is read, the value must stay stable for 3 steps
            check = _next_check(k, residuals or changes, tol, 0 if residuals else 3)
        w *= 1.0 / beta  # several times cheaper than dividing complex entries by beta
        v_prev, v = v, w

    return SpectralEstimate(value, residual, max_iters, converged=False)
