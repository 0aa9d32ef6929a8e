"""The t-th moment superoperator, its fixed space, and spectral diagnostics.

Everything here works on matrices over (C^n)^(x t), vectorised row-major into
C^(n^2t). The moment operator averages tensor-power conjugations over an
ensemble; the ideal operator is the orthogonal projection onto the span of
the register-shuffle matrices, and the second largest singular value of their
difference is the quantity every construction is judged by.

Two exact ways to that value exist, and lambda_report alone picks between
them. The iterative one hands the moment operator, matrix-free, to
linalg.spectral_norm, which deflates the fixed space W from every iterate
once: the operator and its adjoint both fix W, so W^perp is invariant, and
there the operator equals its difference with the projector. The dense
one never materialises the n^2t x n^2t operator: by Schur-Weyl duality
(C^n)^(x t) splits into U(n) irreps V_lambda, lambda a partition of t with
at most n rows, each repeated f_lambda times, and the moment operator is
block diagonal over pairs (lambda, mu). Each block acts on d_lambda x d_mu
matrices as X -> (1/s) sum_i R_lambda(U_i) X R_mu(U_i)†, the Haar projector
is vec(I)vec(I)†/d_lambda on the diagonal blocks and 0 elsewhere, and
lambda is the largest top singular value over the blocks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import Stage, UnitaryEnsemble
from .errors import PreconditionError, SizeLimitError
from .linalg import (
    DENSE_LIMIT,
    ITERATIVE_AMBIENT_LIMIT,
    LinearMap,
    SeededRng,
    SpectralEstimate,
    kron,
    max_principal_sine,
    orthonormalize,
    spectral_norm,
)
from .perms import (
    Permutation,
    all_permutations,
    column_group,
    cycle_count,
    partitions,
    row_group,
    sign,
    symmetric_irrep_dim,
    unitary_irrep_dim,
)

MAX_T_LAMBDA = 4
MAX_T_BASIS = 6
_BATCH_BYTES = 2**27  # member batching budget for the contraction kernel
# roundoff allowed on top of a closeness bound: at t=1 the bounds are exactly 0
# and the measured distances ~1e-16; at t >= 2 a bound is at least 2*sqrt(2/d)
CLOSENESS_ROUNDOFF = 1e-12


def shuffle_operator(sigma: Permutation, n: int, t: int) -> np.ndarray:
    """Permutation matrix moving register a to register sigma(a) on (C^n)^(x t).

    Acts on basis vectors as e_{j_1}...e_{j_t} -> e_{j_{sigma^-1(1)}}...; the
    convention is pinned by the Gram identity <alpha_{s'}, alpha_s> =
    n^(cycles(s'^-1 s) - t), which a unit test enforces.
    """
    if sigma.size != t:
        raise PreconditionError(f"permutation size {sigma.size} != t = {t}")
    nt = n**t
    if nt > DENSE_LIMIT:
        raise SizeLimitError(f"shuffle operator of size {nt} exceeds dense limit {DENSE_LIMIT}")
    inv = sigma.inverse().map
    idx = np.arange(nt)
    digits = np.array(np.unravel_index(idx, (n,) * t))
    dst = np.ravel_multi_index(tuple(digits[list(inv)]), (n,) * t)
    out = np.zeros((nt, nt), dtype=complex)
    out[dst, idx] = 1.0
    return out


def alpha_sigma(sigma: Permutation, n: int, t: int) -> np.ndarray:
    """Fixed-space generator: register shuffle times the normalised identity.

    Unit Schatten-2 norm; commutes with every tensor power U^(x t).
    """
    if t > MAX_T_BASIS:
        raise SizeLimitError(f"t={t} exceeds basis guard {MAX_T_BASIS}")
    return shuffle_operator(sigma, n, t) / float(n) ** (t / 2.0)


def alpha_prime_inner(sigma: Permutation, d: int, t: int) -> np.ndarray:
    """Distinct-tuple variant of the inner fixed-space generator.

    Keeps only the diagonal entries whose index tuple has t distinct values
    before shuffling; squared norm is (d)_t / d^t.
    """
    if t > d:
        raise PreconditionError(f"distinct tuples need t <= d, got t={t}, d={d}")
    nt = d**t
    digits = np.array(np.unravel_index(np.arange(nt), (d,) * t))
    distinct = np.ones(nt, dtype=bool)
    for a in range(t):
        for b in range(a + 1, t):
            distinct &= digits[a] != digits[b]
    base = np.diag(distinct.astype(complex)) / float(d) ** (t / 2.0)
    return shuffle_operator(sigma, d, t) @ base


def alpha_prime_sigma(sigma: Permutation, split: tuple[int, int], t: int) -> np.ndarray:
    """Grouped-layout product generator: full alpha on the outer factor tensored
    with the distinct-tuple alpha on the inner factor."""
    outer_dim, inner_dim = split
    return kron(alpha_sigma(sigma, outer_dim, t), alpha_prime_inner(sigma, inner_dim, t))


@dataclass
class FixedSpaceBasis:
    """The shuffle-generator family, its Gram matrix, and an orthonormal basis.

    `alphas` follow the lexicographic permutation ordering; `ortho` holds
    orthonormal columns spanning the same space in vectorised form.
    """

    t: int
    local_dim: int
    alphas: list[np.ndarray]
    gram: np.ndarray
    ortho: np.ndarray
    rank: int

    def project_vec(self, x: np.ndarray) -> np.ndarray:
        return self.ortho @ (self.ortho.conj().T @ x)


def fixed_space_basis(n: int, t: int) -> FixedSpaceBasis:
    """Build the fixed space of all tensor-power conjugations on (C^n)^(x t).

    The Gram matrix is computed exactly from the cycle formula; the
    orthonormal basis uses the Gram inverse square root (Loewdin) when the
    family is full rank and an SVD-based orthonormalisation when t > n makes
    it rank-deficient.
    """
    if t > MAX_T_BASIS:
        raise SizeLimitError(f"t={t} exceeds basis guard {MAX_T_BASIS}")
    ambient = n ** (2 * t)
    if ambient > ITERATIVE_AMBIENT_LIMIT:
        raise SizeLimitError(f"ambient dimension {ambient} exceeds vector limit {ITERATIVE_AMBIENT_LIMIT}")
    perms = all_permutations(t)
    alphas = [alpha_sigma(sig, n, t) for sig in perms]
    gram = np.empty((len(perms), len(perms)))
    for i, sig in enumerate(perms):
        inv = sig.inverse()
        for j, sig_p in enumerate(perms):
            gram[i, j] = float(n) ** (cycle_count(inv.compose(sig_p)) - t)
    stacked = np.stack([a.reshape(-1) for a in alphas], axis=1)
    evals = np.linalg.eigvalsh(gram)
    if evals[0] > 1e-8 * evals[-1]:
        # Loewdin: continuous in n, keeps the permutation labelling symmetric
        w, v = np.linalg.eigh(gram)
        inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
        ortho = stacked @ inv_sqrt
        rank = len(perms)
    else:
        ortho, rank = orthonormalize(stacked, rank_tol=1e-8)
    return FixedSpaceBasis(t=t, local_dim=n, alphas=alphas, gram=gram, ortho=ortho, rank=rank)


def _conjugation_average(
    members: np.ndarray, adjoint: bool, x: np.ndarray, n: int, t: int, outer: int = 1
) -> np.ndarray:
    """Average of tensor-power conjugations applied to vec(M), matrix-free.

    Realises M -> (1/s) sum_i A_i^(x t) M (A_i†)^(x t) with A = 1_outer (x) U
    (or 1_outer (x) U† for the adjoint map) as 2t mode contractions on a
    2t-way tensor of side outer*n, each on the inner axis of one leg, batched
    over members within a memory budget. Partial sums reduce in fixed member
    order for reproducibility.
    """
    s = members.shape[0]
    stack = members if not adjoint else members.conj().transpose(0, 2, 1)
    side = outer * n
    ambient = side ** (2 * t)
    chunk = max(1, min(s, _BATCH_BYTES // max(1, 16 * ambient)))
    acc = np.zeros(ambient, dtype=complex)
    x = np.asarray(x, dtype=complex).reshape(-1)
    for start in range(0, s, chunk):
        mats = stack[start : start + chunk]
        conj = mats.conj()
        c = mats.shape[0]
        view = np.broadcast_to(x.reshape((1,) + (side,) * (2 * t)), (c,) + (side,) * (2 * t))
        cur = view
        for mode in range(2 * t):
            lead = side**mode * outer
            cur = np.matmul(mats[:, None] if mode < t else conj[:, None], cur.reshape(c, lead, n, -1))
        acc += np.add.reduce(cur.reshape(c, ambient), axis=0)
    return acc / s


@dataclass
class MomentOperator:
    """M -> (1/s) sum_i U_i^(x t) M (U_i†)^(x t) on matrices over (C^n)^(x t).

    For an ensemble with stages (S_1, ..., S_m) the operator is the
    composition Phi_1 o ... o Phi_m of the stage averages, because every
    member is one product F_1 ... F_m and the weights are uniform. The
    applies run that composition, S_m first, so a zigzag product costs two
    inner averages and one control conjugation instead of s^2 member
    conjugations; the adjoint runs the adjoint stages from S_1 on. An
    ensemble without stages is its own single stage.
    """

    ensemble: UnitaryEnsemble
    t: int

    def __post_init__(self):
        if self.t < 1:
            raise PreconditionError(f"t must be >= 1, got {self.t}")

    @property
    def local_dim(self) -> int:
        return self.ensemble.dim

    @property
    def ambient(self) -> int:
        return self.ensemble.dim ** (2 * self.t)

    def apply(self, m: np.ndarray) -> np.ndarray:
        n = self.local_dim
        nt = n**self.t
        m = np.asarray(m, dtype=complex)
        if m.shape != (nt, nt):
            raise PreconditionError(f"expected a {nt}x{nt} matrix, got {m.shape}")
        return self.apply_vec(m.reshape(-1)).reshape(nt, nt)

    def apply_vec(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, adjoint=False)

    def adjoint_apply_vec(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, adjoint=True)

    def _apply(self, x: np.ndarray, adjoint: bool) -> np.ndarray:
        stages = self.ensemble.stages or (Stage(self.ensemble.unitaries),)
        for st in stages if adjoint else reversed(stages):
            x = _conjugation_average(st.members, adjoint, x, st.inner, self.t, st.outer)
        return x

    def dense(self) -> np.ndarray:
        if self.ambient > DENSE_LIMIT:
            raise SizeLimitError(f"ambient {self.ambient} exceeds dense limit {DENSE_LIMIT}")
        n = self.local_dim
        acc = np.zeros((self.ambient, self.ambient), dtype=complex)
        for u in self.ensemble.unitaries:
            ut = u
            for _ in range(self.t - 1):
                ut = np.kron(ut, u)
            acc += np.kron(ut, ut.conj())
        return acc / self.ensemble.size


@dataclass
class IrrepBasis:
    """One copy of the U(n) irrep V_lambda inside (C^n)^(x t).

    `basis` holds d_lambda(n) orthonormal columns spanning the image of the
    Young symmetriser of `shape`; the irrep occurs `multiplicity` = f_lambda
    times in (C^n)^(x t).
    """

    shape: tuple[int, ...]
    multiplicity: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def irrep_bases(n: int, t: int) -> list[IrrepBasis]:
    """A basis of one copy of each U(n) irrep in (C^n)^(x t), in partition order.

    For every partition lambda of t with at most n rows, the image of the
    Young symmetriser c_lambda = (sum_row P_p)(sum_col sgn(q) P_q) is one copy
    of V_lambda; partitions with more rows have c_lambda = 0 and are skipped.
    The ranks are checked against the hook-content formula, and the copies
    against sum_lambda f_lambda d_lambda(n) = n^t. At t=1 the symmetriser is
    the identity and so is the basis, exactly.
    """
    if t > MAX_T_BASIS:
        raise SizeLimitError(f"t={t} exceeds basis guard {MAX_T_BASIS}")
    nt = n**t
    out = []
    for shape in partitions(t):
        if len(shape) > n:
            continue
        dim = unitary_irrep_dim(shape, n)
        if t == 1:
            basis = np.eye(n, dtype=complex)
        else:
            rows = sum(shuffle_operator(p, n, t) for p in row_group(shape))
            cols = sum(sign(q) * shuffle_operator(q, n, t) for q in column_group(shape))
            basis, rank = orthonormalize(rows @ cols, rank_tol=1e-8)
            if rank != dim:
                raise AssertionError(f"Young symmetriser {shape} has rank {rank}, hook-content formula gives {dim}")
        out.append(IrrepBasis(shape, symmetric_irrep_dim(shape), basis))
    copies = sum(b.multiplicity * b.dim for b in out)
    if copies != nt:
        raise AssertionError(f"irrep copies fill {copies} of {nt} dimensions")
    return out


def irrep_action(members: np.ndarray, basis: np.ndarray, n: int, t: int) -> np.ndarray:
    """R(U_i) = B† U_i^(x t) B for every member, as an (s, d, d) stack.

    U^(x t) B is t mode contractions on the columns of B, batched over
    members; no Kronecker power is formed.
    """
    s = members.shape[0]
    nt, d = basis.shape
    cur = np.broadcast_to(basis, (s, nt, d))
    for mode in range(t):
        cur = np.matmul(members[:, None], cur.reshape(s, n**mode, n, -1))
    return np.matmul(basis.conj().T, cur.reshape(s, nt, d))


def sector_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of X -> (1/s) sum_i A_i X B_i† under row-major vectorisation.

    That is (1/s) sum_i A_i (x) conj(B_i), formed as one GEMM over members
    followed by an index transpose.
    """
    s, da, _ = a.shape
    db = b.shape[1]
    m = a.reshape(s, -1).T @ b.conj().reshape(s, -1)
    m /= s
    return m.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, da * db)


def sector_lambda(e: UnitaryEnsemble, t: int) -> float:
    """Largest singular value of the moment operator minus the Haar projector,
    exactly, from its Schur-Weyl blocks.

    The (lambda, mu) block is sector_block(R_lambda, R_mu); the diagonal ones
    lose their fixed vector vec(I)/sqrt(d_lambda). Each unordered pair is
    computed once: the (mu, lambda) block equals J (lambda, mu) J with the
    antiunitary J: X -> X†, so both have the same singular values.
    """
    reps = [irrep_action(e.unitaries, b.basis, e.dim, t) for b in irrep_bases(e.dim, t)]
    value = 0.0
    for i, a in enumerate(reps):
        for j in range(i, len(reps)):
            block = sector_block(a, reps[j])
            if i == j:
                d = a.shape[1]
                diag = np.arange(d) * (d + 1)  # where vec(I) is 1
                block[np.ix_(diag, diag)] -= 1.0 / d
            value = max(value, float(np.linalg.svd(block, compute_uv=False)[0]))
    return value


@dataclass
class SpectralReport:
    """Second-largest-singular-value report for one ensemble at one t."""

    lambda_: float
    method: str
    iterations: int
    residual: float
    seed: int
    t: int
    label: str = ""
    bound_reference: float | None = None
    converged: bool = True

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lambda_,
            "method": self.method,
            "iterations": self.iterations,
            "residual": self.residual,
            "bound_reference": self.bound_reference,
            "seed": self.seed,
            "ensemble-label": self.label,
            "t": self.t,
            "converged": self.converged,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def lambda_report(
    e: UnitaryEnsemble,
    t: int,
    method: str | None = None,
    tol: float | None = None,
    rng: SeededRng | None = None,
    max_iters: int = 5000,
    bound_reference: float | None = None,
) -> SpectralReport:
    """Second largest singular value of the moment operator vs the Haar projector.

    The one place that picks the solver path: `method` None takes the dense
    one up to the dense limit on n^2t and the iterative one above it. The
    dense method is exact: it takes the SVD of every Schur-Weyl block
    (sector_lambda) instead of the n^2t x n^2t superoperator. The iterative
    method is matrix-free with fixed-space deflation of every iterate. The
    solver settings are checked whichever path runs. Non-convergence is
    surfaced in the report, never silently dropped.
    """
    if method not in (None, "dense-svd", "power-iteration"):
        raise PreconditionError(f"unknown method {method!r}")
    if t < 1:
        raise PreconditionError(f"t must be >= 1, got {t}")
    if t > MAX_T_LAMBDA:
        raise SizeLimitError(f"t={t} exceeds lambda guard {MAX_T_LAMBDA}")
    if max_iters < 1:
        raise PreconditionError(f"max_iters must be >= 1, got {max_iters}")
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        raise PreconditionError(f"tol must be a finite number > 0, got {tol}")
    ambient = e.dim ** (2 * t)
    if method == "dense-svd" and ambient > DENSE_LIMIT:
        raise SizeLimitError(f"ambient {ambient} exceeds dense limit {DENSE_LIMIT}")
    if ambient > ITERATIVE_AMBIENT_LIMIT:
        raise SizeLimitError(f"ambient {ambient} exceeds iterative limit {ITERATIVE_AMBIENT_LIMIT}")
    rng = SeededRng(0, 0) if rng is None else rng
    if method is None:
        method = "dense-svd" if ambient <= DENSE_LIMIT else "power-iteration"
    if method == "dense-svd":
        est = SpectralEstimate(value=sector_lambda(e, t), residual=0.0, iterations=0)
    else:
        phi = MomentOperator(e, t)
        # Phi and Phi† both fix W (every U^(x t) commutes with it), so W^perp is
        # invariant under both and Phi - P is 0 on W and Phi on W^perp: the
        # norm of Phi on the deflated iterates is exactly lambda.
        est = spectral_norm(
            LinearMap(phi.ambient, phi.apply_vec, phi.adjoint_apply_vec),
            tol=tol,
            max_iters=max_iters,
            rng=rng,
            deflate=fixed_space_basis(e.dim, t).ortho,
        )
    return SpectralReport(
        lambda_=est.value,
        method=method,
        iterations=est.iterations,
        residual=est.residual,
        seed=rng.seed,
        t=t,
        label=e.label,
        bound_reference=bound_reference,
        converged=est.converged,
    )


def design_error_monomial(
    e: UnitaryEnsemble,
    t: int,
    k: int,
    row_indices: tuple[int, ...],
    col_indices: tuple[int, ...],
) -> float:
    """Deviation of a balanced-monomial average from its Haar value.

    Evaluates |<E_I, (Phi^k - P_W)(M'_J)>| where M'_J is the matrix with a one
    at position (J, J), E_I the one at (I, I), and Phi^k the k-fold sequential
    iteration. Bounded by lambda^k for unit-norm monomial matrices.
    """
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    n = e.dim
    if len(row_indices) != t or len(col_indices) != t:
        raise PreconditionError("index tuples must have length t")
    for tup in (row_indices, col_indices):
        if any(not 0 <= j < n for j in tup):
            raise PreconditionError(f"indices must lie in range(0, {n}): {tup}")
    flat_j = 0
    for j in col_indices:
        flat_j = flat_j * n + j
    flat_i = 0
    for i in row_indices:
        flat_i = flat_i * n + i
    deviations = _monomial_deviations(MomentOperator(e, t), fixed_space_basis(n, t), [k], flat_j)
    return float(deviations[0][flat_i])


def design_errors(e: UnitaryEnsemble, t: int, ks: list[int]) -> list[np.ndarray]:
    """design_error_monomial for every row and column tuple at once.

    Returns one n^t x n^t array per k in `ks`, indexed by the flat (row-major)
    row tuple and column tuple. The fixed-space basis and the moment operator
    are built once, and each column tuple costs max(ks) applies of Phi whose
    image is read at every row tuple: n^t max(ks) applies in all.
    """
    if not ks or min(ks) < 1:
        raise PreconditionError(f"every k must be >= 1, got {ks}")
    phi = MomentOperator(e, t)
    basis = fixed_space_basis(e.dim, t)
    columns = [_monomial_deviations(phi, basis, ks, flat_j) for flat_j in range(e.dim**t)]
    return [np.stack([col[a] for col in columns], axis=1) for a in range(len(ks))]


def _monomial_deviations(phi: MomentOperator, basis: FixedSpaceBasis, ks: list[int], flat_j: int) -> list[np.ndarray]:
    """|<E_I, (Phi^k - P_W)(M'_J)>| for every flat row tuple I, one array per k in ks."""
    nt = phi.local_dim**phi.t
    x = np.zeros(nt * nt, dtype=complex)
    x[flat_j * nt + flat_j] = 1.0
    fixed = basis.project_vec(x)
    reads = {}
    y = x
    for k in range(1, max(ks) + 1):
        y = phi.apply_vec(y)
        if k in ks:
            reads[k] = np.abs((y - fixed).reshape(nt, nt).diagonal())
    return [reads[k] for k in ks]


def design_iterations_needed(t: int, n: int, alpha: float, lam: float) -> int:
    """Iterations of the moment operator needed for an alpha-approximate design.

    ceil((t ln n + ln(1/alpha)) / ln(1/lambda)); the implied constant is fixed
    to 1 by choice, documented rather than claimed tight.
    """
    if not 0.0 < lam < 1.0:
        raise PreconditionError(f"lambda must lie in (0, 1), got {lam}")
    if not 0.0 < alpha < 1.0:
        raise PreconditionError(f"alpha must lie in (0, 1), got {alpha}")
    if n < 2:
        raise PreconditionError(f"n must be >= 2, got {n}")
    return math.ceil((t * math.log(n) + math.log(1.0 / alpha)) / math.log(1.0 / lam))


@dataclass
class ClosenessReport:
    """Directed principal-angle distances between the exact and distinct-tuple
    fixed-space families, plus the bounds they are checked against.

    The perpendicular-space numbers are the directed distances swapped: the
    distance from one complement into the other equals the reversed distance
    of the spaces themselves, so no complement basis is ever built.
    """

    outer_dim: int
    inner_dim: int
    t: int
    w_to_wprime: float
    wprime_to_w: float
    w2prime_to_w2: float
    w2_to_w2prime: float
    bound_pair: float
    bound_perp: float

    @property
    def perp_w_to_wprime(self) -> float:
        return self.wprime_to_w

    @property
    def perp_wprime_to_w(self) -> float:
        return self.w_to_wprime

    @property
    def perp_w2prime_to_w2(self) -> float:
        return self.w2_to_w2prime

    @property
    def claims(self) -> dict[str, bool]:
        pair, perp = self.bound_pair + CLOSENESS_ROUNDOFF, self.bound_perp + CLOSENESS_ROUNDOFF
        return {
            "pair_w": max(self.w_to_wprime, self.wprime_to_w) <= pair,
            "pair_w2": self.w2prime_to_w2 <= pair,
            "perp_w": max(self.perp_w_to_wprime, self.perp_wprime_to_w) <= perp,
            "perp_w2": self.perp_w2prime_to_w2 <= perp,
        }

    def to_json_dict(self) -> dict:
        return {
            "outer_dim": self.outer_dim,
            "inner_dim": self.inner_dim,
            "t": self.t,
            "w_to_wprime": self.w_to_wprime,
            "wprime_to_w": self.wprime_to_w,
            "w2prime_to_w2": self.w2prime_to_w2,
            "w2_to_w2prime": self.w2_to_w2prime,
            "bound_pair": self.bound_pair,
            "bound_perp": self.bound_perp,
            "claims": self.claims,
        }


def subspace_closeness_report(outer_dim: int, inner_dim: int, t: int) -> ClosenessReport:
    """Measure how close the product fixed space is to its distinct-tuple proxy.

    Works in the grouped register layout (outer factors first), which is a
    fixed unitary relabelling of the interleaved layout and therefore leaves
    all principal angles unchanged.
    """
    if min(outer_dim, inner_dim, t) < 1:
        raise PreconditionError(f"dimensions and t must be >= 1, got D={outer_dim}, d={inner_dim}, t={t}")
    if t > 3:
        raise SizeLimitError(f"t={t} exceeds closeness guard 3")
    ambient = (outer_dim * inner_dim) ** (2 * t)
    if ambient > ITERATIVE_AMBIENT_LIMIT:
        raise SizeLimitError(f"ambient {ambient} exceeds vector limit {ITERATIVE_AMBIENT_LIMIT}")
    perms = all_permutations(t)
    w_cols = []
    wp_cols = []
    w2_cols = []
    w2p_cols = []
    for sig in perms:
        a2 = alpha_sigma(sig, inner_dim, t)
        w_cols.append(kron(alpha_sigma(sig, outer_dim, t), a2).reshape(-1))
        wp_cols.append(alpha_prime_sigma(sig, (outer_dim, inner_dim), t).reshape(-1))
        w2_cols.append(a2.reshape(-1))
        w2p_cols.append(alpha_prime_inner(sig, inner_dim, t).reshape(-1))
    qw, _ = orthonormalize(w_cols)
    qwp, _ = orthonormalize(wp_cols)
    q2, _ = orthonormalize(w2_cols)
    q2p, _ = orthonormalize(w2p_cols)
    tt = t * (t - 1) / inner_dim
    return ClosenessReport(
        outer_dim=outer_dim,
        inner_dim=inner_dim,
        t=t,
        w_to_wprime=max_principal_sine(qw, qwp),
        wprime_to_w=max_principal_sine(qwp, qw),
        w2prime_to_w2=max_principal_sine(q2p, q2),
        w2_to_w2prime=max_principal_sine(q2, q2p),
        bound_pair=2.0 * math.sqrt(tt),
        bound_perp=2.0 * tt**0.25,
    )
