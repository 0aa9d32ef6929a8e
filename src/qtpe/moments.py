"""The t-th moment superoperator, its fixed space, and spectral diagnostics.

Everything here works on matrices over (C^n)^(x t), vectorised row-major into
C^(n^2t). The moment operator averages tensor-power conjugations over an
ensemble; the ideal operator is the orthogonal projection onto the span of
the register-shuffle matrices, and the second largest singular value of their
difference is the quantity every construction is judged by.

Two exact ways to that value exist, and lambda_report alone picks between
them. The iterative one hands the moment operator, matrix-free, to
linalg.spectral_norm, which deflates the fixed space W from every Lanczos
vector once: the operator and its adjoint both fix W, so W^perp is
invariant, and there the operator equals its difference with the
projector. With an involution the operator is Hermitian and Lanczos runs on
it directly; without one it runs on the operator's adjoint times it. Each
apply runs one conjugation kernel per stage: a GEMM by the stacked members
on the first leg of vec(M), per-member GEMMs that rotate each middle leg to
the end, and a GEMM by the stacked adjoints on the last leg that also sums
over the members; the stacks are laid out once per MomentOperator, the
stacked intermediates in a two-row workspace that the operator allocates at
its first apply and reuses, at most 2 * _BATCH_BYTES, so one MomentOperator
must not be applied from two threads at once. The dense one never
materialises the n^2t x n^2t operator: by Schur-Weyl duality (C^n)^(x t)
splits into U(n) irreps
V_lambda, lambda a partition of t with at most n rows, each repeated
f_lambda times, and the moment operator is block diagonal over pairs
(lambda, mu). Each block acts on d_lambda x d_mu matrices as X -> (1/s)
sum_i R_lambda(U_i) X R_mu(U_i)†, the Haar projector is
vec(I)vec(I)†/d_lambda on the diagonal blocks and 0 elsewhere, and lambda is
the largest top singular value over the blocks, read from eigvalsh when an
involution makes the blocks Hermitian. The moment operator maps Hermitian
matrices to Hermitian ones, so each diagonal block is solved as a real
matrix in an orthonormal basis of Herm(V_lambda); the off-diagonal blocks
stay complex.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .ensemble import Stage, UnitaryEnsemble, involution_defect
from .errors import PreconditionError, SizeLimitError
from .linalg import (
    DEFAULT_MAX_ITERS,
    DENSE_LIMIT,
    ITERATIVE_AMBIENT_LIMIT,
    LinearMap,
    SeededRng,
    SpectralEstimate,
    max_principal_sine,
    orthonormalize,
    spectral_norm,
)
from .perms import (
    Permutation,
    all_permutations,
    column_group,
    partitions,
    row_group,
    sign,
    symmetric_irrep_dim,
    unitary_irrep_dim,
)

MAX_T_LAMBDA = 4
METHODS = ("auto", "dense-svd", "power-iteration")  # the lambda paths; auto picks one by size
# most applies of the moment operator one design_errors call makes, n^t max(ks)
DESIGN_APPLY_LIMIT = 10**5
MAX_T_BASIS = 6
# bound on the stacked (c*ambient) complex intermediate of one kernel chunk of
# c members; every benchmark shape and criteria 1 and 2 fit in one chunk, but
# at the 10^7 iterative limit one member's intermediate alone is 160 MB
_BATCH_BYTES = 2**27
# roundoff allowed on top of a closeness bound: at t=1 the bounds are exactly 0
# and the measured distances ~1e-16; at t >= 2 a bound is at least 2*sqrt(2/d)
CLOSENESS_ROUNDOFF = 1e-12
# bound on the complex rows of a diagonal sector block that
# hermitian_sector_block gathers at once: 37 rows of the 441 block at t=2, n=6
_CHUNK_BYTES = 2**18
# how far from Hermitian an ensemble's moment operator may be and still be
# treated as Hermitian: the members' involution defect (ensemble.
# involution_defect) gates both lambda paths, and on the dense path each
# sector block's entrywise |B - B†| is checked against it too: the real form
# of a diagonal block (hermitian_sector_block), and the complex off-diagonal
# blocks. Sampled and product ensembles measure 0 to ~1e-14; a loaded file may
# pass validation with up to 1e-8 * dim, and then takes the paths for
# non-Hermitian operators
HERMITIAN_DEFECT = 1e-12


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

    alpha_sigma with only the columns whose index tuple has t distinct values
    kept; squared norm is (d)_t / d^t.
    """
    if t > d:
        raise PreconditionError(f"distinct tuples need t <= d, got t={t}, d={d}")
    digits = np.array(np.unravel_index(np.arange(d**t), (d,) * t))
    distinct = np.ones(d**t, dtype=bool)
    for a in range(t):
        for b in range(a + 1, t):
            distinct &= digits[a] != digits[b]
    return alpha_sigma(sigma, d, t) * distinct


@dataclass
class FixedSpaceBasis:
    """The shuffle-generator family and an orthonormal basis of its span.

    `alphas` follow the lexicographic permutation ordering; `ortho` holds
    `rank` orthonormal columns spanning the same space in vectorised form.
    The family's Gram matrix has entries n^(cycles(sigma^-1 sigma') - t),
    I + perms.cycle_gram_matrix(t, n) for n > t^2.
    """

    alphas: list[np.ndarray]
    ortho: np.ndarray
    rank: int

    def project_vec(self, x: np.ndarray) -> np.ndarray:
        return self.ortho @ (self.ortho.conj().T @ x)


def fixed_space_basis(n: int, t: int) -> FixedSpaceBasis:
    """Build the fixed space of all tensor-power conjugations on (C^n)^(x t).

    The orthonormal basis is the SVD orthonormalisation of the stacked family,
    which also covers t > n, where the family is rank-deficient; only its
    span is used (to deflate W and to project onto it).
    """
    if t > MAX_T_BASIS:
        raise SizeLimitError(f"t={t} exceeds basis guard {MAX_T_BASIS}")
    ambient = n ** (2 * t)
    if ambient > ITERATIVE_AMBIENT_LIMIT:
        raise SizeLimitError(f"ambient dimension {ambient} exceeds vector limit {ITERATIVE_AMBIENT_LIMIT}")
    alphas = [alpha_sigma(sig, n, t) for sig in all_permutations(t)]
    ortho, rank = orthonormalize(alphas)
    return FixedSpaceBasis(alphas, ortho, rank)


def _conjugation_average(
    left: np.ndarray,
    right: np.ndarray,
    x: np.ndarray,
    t: int,
    outer: int,
    work: np.ndarray,
) -> np.ndarray:
    """Average of tensor-power conjugations applied to vec(M), matrix-free.

    Realises M -> (1/s) sum_i A_i^(x t) M B_i^(x t) with A_i = 1_outer (x)
    left[i] and B_i = 1_outer (x) right[i]; the moment operator passes right[i]
    = left[i]†. vec(M) is a 2t-way tensor of side outer*m, and each leg is
    contracted on its inner axis. The first leg is one GEMM by the stacked
    left members [L_1; ...; L_s] (s*m x m), broadcast over the outer axis.
    Each middle leg (t >= 2) is contracted and rotated to the end (de Boor's
    shuffle) by outer^2*c*m GEMMs, one per outer index and row of the first
    leg, member and outer index of the leg: the rest of the tensor, with the
    leg's inner axis last, times the view left[i]^T on the row legs and
    right[i] on the column legs, written into a strided view of the free row
    (ldc = outer*m). That leaves legs 1, 2t, 2, ..., 2t-1; the copy before
    the last leg restores leg order with the member axis beside the last
    inner axis, and one GEMM by the stacked right members sums over them.

    Every stacked (c*ambient) intermediate of a chunk of c members lives in
    the two rows of `work` (MomentOperator's workspace): the first-leg GEMM
    writes one row, each middle leg writes the other and swaps them, the
    reordering copy before the last leg goes into the free row, and the
    partial sums of later chunks reuse the row it came from. Only the result
    is a fresh array, as callers keep it. A chunk holds as many members as
    one row has room for, and the chunk sums add in fixed member order, so
    reruns are bit-identical.
    """
    s, m, _ = left.shape
    side = outer * m
    ambient = side ** (2 * t)
    rest = side ** (2 * t - 2)
    chunk = min(s, work.shape[1] // ambient)
    x = np.asarray(x, dtype=complex).reshape(outer, m, -1)
    lefts, rights = left.reshape(s * m, m), right.reshape(s * m, m)
    acc = None
    for start in range(0, s, chunk):
        c = min(chunk, s - start)
        cur, free = work[0, : c * ambient], work[1, : c * ambient]
        np.matmul(lefts[start * m : (start + c) * m], x, out=cur.reshape(outer, c * m, -1))
        rows, cols = left[start : start + c, None, None].swapaxes(-1, -2), right[start : start + c, None, None]
        for mode in range(1, 2 * t - 1):
            src = cur.reshape(outer, c, m, outer, m, rest).swapaxes(-1, -2)
            np.matmul(src, rows if mode < t else cols, out=free.reshape(outer, c, m, rest, outer, m).swapaxes(3, 4))
            cur, free = free, cur
        legs = cur.reshape(outer, c, m, outer, m, rest).transpose(0, 2, 5, 3, 1, 4)
        np.copyto(free.reshape(outer, m, rest, outer, c, m), legs)
        stacked, block = free.reshape(-1, c * m), rights[start * m : (start + c) * m]
        if acc is None:
            acc = stacked @ block
        else:
            acc += np.matmul(stacked, block, out=cur[:ambient].reshape(-1, m))
    acc /= s
    return acc.reshape(ambient)


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

    The kernel operands of every stage are laid out once, here, not once per
    apply: the member stacks A_i and A_i†, which the forward and the adjoint
    map use in swapped roles; the middle legs (t >= 2) read them in place,
    the row legs through a transposed view, so a kernel entry is (outer,
    (A, A†), (A†, A)).

    The kernel's stacked intermediates live in one workspace of two rows,
    allocated at the first apply and reused by every later one. A row holds
    the largest chunk*ambient of the stages, the chunk being the most members
    whose intermediate fits _BATCH_BYTES, so an operator holds at most
    2 * _BATCH_BYTES; construction and dense() allocate none. Because the
    applies share the workspace, one MomentOperator must not be applied from
    two threads at once.
    """

    ensemble: UnitaryEnsemble
    t: int
    _kernels: tuple = field(init=False, repr=False, compare=False)
    _work: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.t < 1:
            raise PreconditionError(f"t must be >= 1, got {self.t}")
        kernels = []
        for st in self.ensemble.stages or (Stage(self.ensemble.unitaries),):
            a = st.members
            a_dag = np.ascontiguousarray(a.conj().transpose(0, 2, 1))
            kernels.append((st.outer, (a, a_dag), (a_dag, a)))
        self._kernels = tuple(kernels)

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
        if self._work is None:
            ambient = self.ambient
            members = max(forward[0].shape[0] for _, forward, _ in self._kernels)
            chunk = max(1, min(members, _BATCH_BYTES // (16 * ambient)))
            self._work = np.empty((2, chunk * ambient), dtype=complex)
        for outer, forward, backward in self._kernels if adjoint else reversed(self._kernels):
            x = _conjugation_average(*(backward if adjoint else forward), x, self.t, outer, self._work)
        return x

    def dense(self) -> np.ndarray:
        """The n^2t x n^2t matrix, the applies' oracle. Each member's term
        V (x) conj(V), V = U^(x t), is added as n^2t scaled copies V[a, j] conj(V)
        in place, so beyond the result only one n^t x n^t copy is held."""
        if self.ambient > DENSE_LIMIT:
            raise SizeLimitError(f"ambient {self.ambient} exceeds dense limit {DENSE_LIMIT}")
        acc = np.zeros((self.ambient, self.ambient), dtype=complex)
        nt = self.local_dim**self.t
        terms = acc.reshape(nt, nt, nt, nt)  # [a, k, j, m] of (V (x) conj(V))[a*nt + k, j*nt + m]
        for u in self.ensemble.unitaries:
            ut = u
            for _ in range(self.t - 1):
                ut = np.kron(ut, u)
            conj = ut.conj()
            for (a, j), v in np.ndenumerate(ut):
                terms[a, :, j] += v * conj
        acc /= self.ensemble.size
        return acc


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
            basis, rank = orthonormalize(rows @ cols)
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


def hermitian_sector_block(r: np.ndarray) -> np.ndarray:
    """The diagonal block sector_block(R, R) minus vec(I)vec(I)†/d, as a real
    d^2 x d^2 matrix in the orthonormal basis of Herm(C^d): E_jj, then
    (E_jk + E_kj)/sqrt(2) and then i(E_jk - E_kj)/sqrt(2) for j < k in
    row-major order.

    X -> (1/s) sum_i R_i X R_i† maps Hermitian matrices to Hermitian ones, so
    with T the unitary whose columns are that basis, T† B T is real, and it
    has the spectrum and the singular values of the complex block B. Its
    entries are pair sums and differences of the real and imaginary parts of
    B, read through a strided view of the sector_block GEMM and written a
    chunk of _CHUNK_BYTES of B's rows at a time; the imaginary part of T† B T,
    roundoff, is never formed. The complex GEMM result is released on return,
    before any eigensolver runs. The projector is 1/d on the E_jj x E_kk
    corner.
    """
    s, d, _ = r.shape
    flat = r.reshape(s, -1)
    m = flat.T @ flat.conj()
    m /= s
    b = m.reshape(d, d, d, d).transpose(0, 2, 1, 3)  # b[a, a', c, c'] = B[(a, a'), (c, c')]
    diag, (j, k) = np.arange(d), np.triu_indices(d, 1)
    u = j.size
    out = np.empty((d * d, d * d))
    step = max(1, _CHUNK_BYTES // (16 * d * d))
    # rows of one basis kind, from B's rows (p, q), plus or minus (q, p) for a pair
    for first, kind, p, q in ((0, "diag", diag, diag), (d, "sym", j, k), (d + u, "anti", j, k)):
        for lo in range(0, p.size, step):
            pp, qq = p[lo : lo + step], q[lo : lo + step]
            z = b[pp, qq]
            if kind == "sym":
                z += b[qq, pp]
            elif kind == "anti":
                z -= b[qq, pp]
            # T† multiplies the antisymmetric rows by -i: their real part is
            # z.imag and their imaginary part -z.real, whose sign the column
            # difference below takes up by its operand order
            re, im = (z.imag, z.real) if kind == "anti" else (z.real, z.imag)
            minuend, subtrahend = (im[:, j, k], im[:, k, j]) if kind == "anti" else (im[:, k, j], im[:, j, k])
            rows = out[first + lo : first + lo + pp.size]
            rows[:, :d] = re[:, diag, diag]
            np.add(re[:, j, k], re[:, k, j], out=rows[:, d : d + u])
            np.subtract(minuend, subtrahend, out=rows[:, d + u :])
    out[d:] *= math.sqrt(0.5)
    out[:, d:] *= math.sqrt(0.5)
    out[:d, :d] -= 1.0 / d
    return out


def sector_lambda(e: UnitaryEnsemble, t: int) -> float:
    """Largest singular value of the moment operator minus the Haar projector,
    exactly, from its Schur-Weyl blocks.

    The (lambda, mu) block is sector_block(R_lambda, R_mu). Each unordered
    pair is computed once: the (mu, lambda) block equals J (lambda, mu) J with
    the antiunitary J: X -> X†, so both have the same singular values. J maps
    each diagonal block to itself, so that one is real in Hermitian
    coordinates (hermitian_sector_block, which also removes the fixed vector
    vec(I)/sqrt(d_lambda)); the off-diagonal ones stay complex.

    With an involution (U_{-i} = U_i†, to HERMITIAN_DEFECT) every block is
    Hermitian, the diagonal ones real symmetric, so its norm is max
    |eigenvalue|: eigvalsh is used once the block's Hermitian defect is
    checked, and the SVD otherwise.
    """
    hermitian = involution_defect(e) <= HERMITIAN_DEFECT
    reps = [irrep_action(e.unitaries, b.basis, e.dim, t) for b in irrep_bases(e.dim, t)]
    value = 0.0
    for i, a in enumerate(reps):
        value = max(value, _block_norm(hermitian_sector_block(a), hermitian))
        for b in reps[i + 1 :]:
            value = max(value, _block_norm(sector_block(a, b), hermitian))
    return value


def _block_norm(block: np.ndarray, hermitian: bool) -> float:
    """Spectral norm of one sector block, real or complex: max |eigenvalue|
    from eigvalsh when the block's entrywise |B - B†| is at most
    HERMITIAN_DEFECT, the top singular value otherwise."""
    if hermitian and np.max(np.abs(block - block.conj().T)) <= HERMITIAN_DEFECT:
        return float(np.max(np.abs(np.linalg.eigvalsh(block))))
    return float(np.linalg.svd(block, compute_uv=False)[0])


@dataclass
class SpectralReport:
    """Second-largest-singular-value report for one ensemble at one t."""

    lambda_: float
    method: str
    iterations: int
    applies: int  # of the moment operator or its adjoint; 0 on the dense path
    residual: float
    seed: int
    t: int
    label: str = ""
    converged: bool = True

    def to_json_dict(self) -> dict:
        """The fields under their report names: lambda_ reads lambda, label ensemble-label."""
        doc = asdict(self)
        doc["lambda"], doc["ensemble-label"] = doc.pop("lambda_"), doc.pop("label")
        return doc


def check_solver_settings(
    dim: int, t: int, method: str = "auto", tol: float | None = None, max_iters: int = DEFAULT_MAX_ITERS
) -> None:
    """Refuse, before any work, settings lambda_report cannot run with on an
    ensemble of dimension `dim`.

    A method not in METHODS, t < 1, max_iters < 1 or a tol that is not finite and
    > 0 raise PreconditionError; t above MAX_T_LAMBDA, or an ambient size
    dim^2t above the limit of the path asked for, raises SizeLimitError.
    """
    if method not in METHODS:
        raise PreconditionError(f"unknown method {method!r}")
    if t < 1:
        raise PreconditionError(f"t must be >= 1, got {t}")
    if t > MAX_T_LAMBDA:
        raise SizeLimitError(f"t={t} exceeds lambda guard {MAX_T_LAMBDA}")
    if max_iters < 1:
        raise PreconditionError(f"max_iters must be >= 1, got {max_iters}")
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        raise PreconditionError(f"tol must be a finite number > 0, got {tol}")
    ambient = dim ** (2 * t)
    if method == "dense-svd" and ambient > DENSE_LIMIT:
        raise SizeLimitError(f"ambient {ambient} exceeds dense limit {DENSE_LIMIT}")
    if ambient > ITERATIVE_AMBIENT_LIMIT:
        raise SizeLimitError(f"ambient {ambient} exceeds iterative limit {ITERATIVE_AMBIENT_LIMIT}")


def lambda_report(
    e: UnitaryEnsemble,
    t: int,
    method: str = "auto",
    tol: float | None = None,
    rng: SeededRng | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SpectralReport:
    """Second largest singular value of the moment operator vs the Haar projector.

    The one place that picks the solver path: `method` "auto" takes the dense
    one up to the dense limit on n^2t and the iterative one above it. The
    dense method is exact: it takes the norm of every Schur-Weyl block
    (sector_lambda) instead of the n^2t x n^2t superoperator, from eigvalsh
    when an involution makes the blocks Hermitian and from the SVD
    otherwise. The iterative method (named "power-iteration") is Lanczos,
    matrix-free, with fixed-space deflation: on Phi itself, one apply per
    step, when the members' involution defect is at most HERMITIAN_DEFECT,
    and on Phi†Phi, two applies per step, otherwise. The solver settings are
    checked whichever path runs (check_solver_settings).
    Non-convergence is surfaced in the report, never silently dropped.
    """
    check_solver_settings(e.dim, t, method, tol, max_iters)
    rng = SeededRng(0, 0) if rng is None else rng
    if method == "auto":
        method = "dense-svd" if e.dim ** (2 * t) <= DENSE_LIMIT else "power-iteration"
    if method == "dense-svd":
        est, applies = SpectralEstimate(value=sector_lambda(e, t), residual=0.0, iterations=0), 0
    else:
        phi = MomentOperator(e, t)
        # Phi and Phi† both fix W (every U^(x t) commutes with it), so W^perp is
        # invariant under both and Phi - P is 0 on W and Phi on W^perp: the
        # norm of Phi on the deflated iterates is exactly lambda. With an
        # involution Phi† = Phi, so its norm there is its largest |eigenvalue|.
        hermitian = involution_defect(e) <= HERMITIAN_DEFECT
        est = spectral_norm(
            LinearMap(phi.ambient, phi.apply_vec, phi.adjoint_apply_vec),
            tol=tol,
            max_iters=max_iters,
            rng=rng,
            deflate=fixed_space_basis(e.dim, t).ortho,
            hermitian=hermitian,
        )
        applies = est.iterations * (1 if hermitian else 2)
    return SpectralReport(
        lambda_=est.value,
        method=method,
        iterations=est.iterations,
        applies=applies,
        residual=est.residual,
        seed=rng.seed,
        t=t,
        label=e.label,
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
    flat_i, flat_j = (int(np.ravel_multi_index(tup, (n,) * t)) for tup in (row_indices, col_indices))
    deviations = _monomial_deviations(MomentOperator(e, t), fixed_space_basis(n, t), [k], flat_j)
    return float(deviations[0][flat_i])


def check_design_powers(dim: int, t: int, ks: list[int]) -> None:
    """Refuse, before any work, powers design_errors cannot run with on an
    ensemble of dimension `dim`.

    The errors are compared with lambda^k, so t must pass
    check_solver_settings. An empty `ks` or a k < 1 raises PreconditionError,
    and more than DESIGN_APPLY_LIMIT applies of Phi, dim^t max(ks), raise
    SizeLimitError.
    """
    check_solver_settings(dim, t)
    if not ks or min(ks) < 1:
        raise PreconditionError(f"every k must be >= 1, got {ks}")
    applies = dim**t * max(ks)
    if applies > DESIGN_APPLY_LIMIT:
        raise SizeLimitError(
            f"design errors at dim {dim}, t={t}, k up to {max(ks)} need {applies} applies "
            f"of the moment operator (> {DESIGN_APPLY_LIMIT})"
        )


def design_errors(e: UnitaryEnsemble, t: int, ks: list[int]) -> list[np.ndarray]:
    """design_error_monomial for every row and column tuple at once.

    Returns one n^t x n^t array per k in `ks`, indexed by the flat (row-major)
    row tuple and column tuple. The fixed-space basis and the moment operator
    are built once, and each column tuple costs max(ks) applies of Phi whose
    image is read at every row tuple: n^t max(ks) applies in all, at most
    DESIGN_APPLY_LIMIT (check_design_powers).
    """
    check_design_powers(e.dim, t, ks)
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
        """The fields and the claims checked against them."""
        return dict(asdict(self), claims=self.claims)


def _real_columns(columns, rows: int, count: int) -> np.ndarray:
    """A preallocated real (rows x count) matrix whose column j is columns[j] flattened."""
    out = np.empty((rows, count))
    for j, column in enumerate(columns):
        out[:, j] = column.reshape(-1)
    return out


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
    # the generators are real, and so are the families and their bases
    a1s = [alpha_sigma(sig, outer_dim, t).real for sig in perms]
    a2s = [alpha_sigma(sig, inner_dim, t).real for sig in perms]
    a2ps = [alpha_prime_inner(sig, inner_dim, t).real for sig in perms]
    inner = inner_dim ** (2 * t)
    # W, W', and their inner factors W_2, W_2'
    qw, qwp, q2, q2p = (
        orthonormalize(_real_columns(columns, rows, len(perms)))[0]
        for columns, rows in (
            (map(np.kron, a1s, a2s), ambient),
            (map(np.kron, a1s, a2ps), ambient),
            (a2s, inner),
            (a2ps, inner),
        )
    )
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
