"""The t-th moment superoperator, its fixed space, and spectral diagnostics.

Everything here works on matrices over (C^n)^(x t), vectorised row-major into
C^(n^2t). The moment operator averages tensor-power conjugations over an
ensemble; the ideal operator is the orthogonal projection onto the span of
the register-shuffle matrices, and the second largest singular value of their
difference is the quantity every construction is judged by.

Two exact ways to that value exist, and lambda_report alone picks between
them. It decides each call once: the Hermitian gate (the members'
involution defect at most HERMITIAN_DEFECT), the representation of Phi,
and the path, and it builds one operator that the path reads. The
iterative way hands Phi, matrix-free, to linalg.spectral_norm, which
deflates Phi's fixed space from every Lanczos vector once: Phi and its
adjoint both fix it, so its complement is invariant, and there Phi equals
its difference with the projector. Through the gate Phi is Hermitian and
Lanczos runs on it directly; otherwise it runs on Phi†Phi. Phi comes in
one of two representations, chosen from shapes alone (_takes_sectors). An
ensemble without stages, within a memory budget and, at t = 2 and 3, up to
the n past which the full space was measured faster, takes SectorOperator,
the direct sum of the Schur-Weyl blocks below, one per unordered irrep
pair, whose fixed space is each diagonal block's identity; at t = 1 that
is one block, the whole space. Each block apply is two GEMMs by a
member-minor stack of R(U_i), laid out at the first apply, with no
reordering copy. Every other call takes MomentOperator on C^(n^2t), whose
fixed space W is held as t! gathers and a t! x t! Gram matrix
(FixedSpaceBasis). SectorOperator is a MomentOperator on another space:
the two share apply_vec and adjoint_apply_vec, and each names its fixed
space.

A MomentOperator apply runs one kernel per stage, chosen once per
MomentOperator from the stage's shapes (_stage_kernel). The member kernel
makes a GEMM by the stacked members on the first leg of vec(M), per-member
GEMMs that rotate each middle leg to the end, and a GEMM by the stacked
adjoints on the last leg that also sums over the members. A lifted stage
with a small inner moment matrix K_t is one GEMM by K_t on the inner axes
instead, and the zigzag control unitary a batched matmul of its s blocks
per leg. Operands are laid out once per MomentOperator, intermediates in a
two-row workspace that the operator allocates at its first apply and
reuses, at most 2 * _BATCH_BYTES, so one MomentOperator must not be applied
from two threads at once.

The dense way never materialises the n^2t x n^2t operator: by Schur-Weyl
duality (C^n)^(x t) splits into U(n) irreps V_lambda, lambda a partition of
t with at most n rows, each repeated f_lambda times, and the moment
operator is block diagonal over pairs (lambda, mu). Each block acts on
d_lambda x d_mu matrices as X -> (1/s) sum_i R_lambda(U_i) X R_mu(U_i)†,
the Haar projector is vec(I)vec(I)†/d_lambda on the diagonal blocks and 0
elsewhere, and lambda is the largest top singular value over the blocks
(one per unordered pair, from the one block list that SectorOperator
holds; SectorOperator.dense_lambda reads it without an apply), read from
eigvalsh when the Hermitian gate makes the blocks Hermitian. The moment
operator maps Hermitian matrices to Hermitian ones, so each diagonal block
is solved as a real matrix in an orthonormal basis of Herm(V_lambda); the
off-diagonal blocks stay complex.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

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
    spectral_norm,
)
from .perms import (
    Permutation,
    all_permutations,
    column_group,
    falling_factorial,
    partitions,
    permutation_gram,
    row_group,
    semistandard_words,
    sign,
    symmetric_irrep_dim,
    unitary_irrep_dim,
)

MAX_T_LAMBDA = 4
METHODS = ("auto", "dense-svd", "power-iteration")  # the lambda paths; auto picks one from shapes
# most applies of the moment operator one design_errors call makes, n^t max(ks)
DESIGN_APPLY_LIMIT = 10**5
MAX_T_BASIS = 6
# relative rank cut: on the eigenvalues of the shuffle Gram matrix in
# fixed_space_basis (t <= 6, n <= 8: below 2.8e-15 or above 2.2e-3), and on
# the QR pivots |R_jj| in irrep_bases, all of which must lie above it (t <= 4
# with n <= 8 and t <= 6 with n <= 4: at least 0.074 times the largest); no
# rank depends on where in those gaps the cut lies
_RANK_TOL = 1e-8
# bound on the stacked (c*ambient) complex intermediate of one kernel chunk of
# c members; every benchmark shape and criteria 1 and 2 fit in one chunk, but
# at the 10^7 iterative limit one member's intermediate alone is 160 MB
_BATCH_BYTES = 2**27
# The largest n at which the iterative path takes the Schur-Weyl blocks, at
# the t where the full space was measured faster above it (_takes_sectors;
# 2 vCPUs, OpenBLAS, README): at t = 2 the blocks took 1.0x its time at
# n = 12 and 1.3x at n = 16 (s = 8), at t = 3 1.1x at n = 12 (s = 4).
_SECTOR_MAX_DIM = {2: 12, 3: 10}
# The price model by which lambda_report's auto picks dense or Lanczos on the
# Schur-Weyl blocks (_lanczos_is_cheaper), in multiply-adds of a block apply.
# Fitted to best-of-5 timings of both paths at 27 (n, s, t) shapes, with and
# without an involution, on 2 vCPUs with OpenBLAS at 2 threads (README): a
# block multiply-add took about 155 ps; eigvalsh of a real N x N diagonal
# block 60-190 ps per N^3 for N = 225..1024, a complex one about 3 times
# that, and the SVD 2-3 times eigvalsh; Lanczos took 35-130 steps at the
# default tol and about 25 us per step beyond its applies.
_EIGVALSH_PRICE = 0.7  # per N^3 of a real diagonal block
_COMPLEX_PRICE = 3.0  # a complex off-diagonal block against a real diagonal one
_SVD_PRICE = 2.5  # the SVD, outside the Hermitian gate, against eigvalsh
_LANCZOS_STEPS = 100  # the step budget priced, whatever the shape
_STEP_PRICE = 1.5e5  # Lanczos' vector work and Python dispatch per step
# bound on the complex rows of a diagonal sector block that
# hermitian_sector_block gathers at once: 37 rows of the 441 block at t=2, n=6
_CHUNK_BYTES = 2**18
# how far from Hermitian an ensemble's moment operator may be and still be
# treated as Hermitian: lambda_report reads the members' involution defect
# (ensemble.involution_defect) against it once per call, and that one gate
# sets auto's price, Lanczos' map (Phi or Phi†Phi) and the dense norms'
# eigvalsh; on the dense path each sector block's entrywise |B - B†| is
# checked against it too: the real form of a diagonal block
# (hermitian_sector_block), and the complex off-diagonal blocks. Sampled and
# product ensembles measure 0 to ~1e-14; a loaded file may pass validation
# with up to 1e-8 * dim, and is then priced and solved as non-Hermitian
HERMITIAN_DEFECT = 1e-12


def _shuffle_targets(sigma: Permutation, n: int, t: int) -> np.ndarray:
    """Flat row-major positions of the n^t ones of the register shuffle of
    sigma, an n^t x n^t permutation matrix: the one of column j lies in row
    r_j, j's index tuple with its registers moved by sigma, at r_j n^t + j."""
    if sigma.size != t:
        raise PreconditionError(f"permutation size {sigma.size} != t = {t}")
    nt = n**t
    rows = np.arange(nt).reshape((n,) * t).transpose(sigma.map).reshape(-1)
    return rows * nt + np.arange(nt)


def shuffle_operator(sigma: Permutation, n: int, t: int) -> np.ndarray:
    """Permutation matrix moving register a to register sigma(a) on (C^n)^(x t).

    Acts on basis vectors as e_{j_1}...e_{j_t} -> e_{j_{sigma^-1(1)}}...; the
    convention is pinned by the Gram identity <alpha_{s'}, alpha_s> =
    n^(cycles(s'^-1 s) - t), which a unit test enforces.
    """
    nt = n**t
    if nt > DENSE_LIMIT:
        raise SizeLimitError(f"shuffle operator of size {nt} exceeds dense limit {DENSE_LIMIT}")
    out = np.zeros((nt, nt), dtype=complex)
    out.flat[_shuffle_targets(sigma, n, t)] = 1.0
    return out


def alpha_sigma(sigma: Permutation, n: int, t: int) -> np.ndarray:
    """Fixed-space generator: register shuffle times the normalised identity.

    Unit Schatten-2 norm; commutes with every tensor power U^(x t).
    """
    if t > MAX_T_BASIS:
        raise SizeLimitError(f"t={t} exceeds basis guard {MAX_T_BASIS}")
    return shuffle_operator(sigma, n, t) / float(n) ** (t / 2.0)


@dataclass
class FixedSpaceBasis:
    """The fixed space W of every tensor-power conjugation on (C^n)^(x t), held
    as its spanning family alpha_sigma and their Gram matrix.

    Row i of `targets` holds the flat positions in vec(M) of the n^t ones of
    the register shuffle of the i-th permutation in all_permutations order,
    so <alpha_sigma, x> is a gather and a sum scaled by n^(-t/2). `gram_pinv`
    is the pseudo-inverse of their Gram matrix perms.permutation_gram(t, n)
    without the eigenvalues at most _RANK_TOL times the largest (n < t, where
    the family is rank-deficient); `rank` = dim W counts the others.
    """

    targets: np.ndarray
    gram_pinv: np.ndarray
    rank: int

    def project_out(self, x: np.ndarray) -> None:
        """x -= P_W x in place. P_W x adds (G^+ <alpha_tau, x>)_sigma n^(-t/2)
        at each one of each shuffle sigma, a gather and a t! x t! multiply,
        so each shuffle's coefficient is subtracted at its n^t positions:
        O(t! n^t) work and no n^2t-long temporary."""
        coefficients = self.gram_pinv @ x[self.targets].sum(axis=1) / self.targets.shape[1]
        for positions, c in zip(self.targets, coefficients):
            x[positions] -= c


def fixed_space_basis(n: int, t: int) -> FixedSpaceBasis:
    """Build the fixed space of all tensor-power conjugations on (C^n)^(x t),
    in O(t! n^t + (t!)^2) memory: no shuffle matrix or n^2t-long vector."""
    if t > MAX_T_BASIS:
        raise SizeLimitError(f"t={t} exceeds basis guard {MAX_T_BASIS}")
    evals, evecs = np.linalg.eigh(permutation_gram(t, n))
    keep = evals > _RANK_TOL * evals[-1]
    kept = evecs[:, keep]
    targets = np.stack([_shuffle_targets(sig, n, t) for sig in all_permutations(t)])
    return FixedSpaceBasis(targets, (kept / evals[keep]) @ kept.T, int(keep.sum()))


def _conjugation_average(
    left: np.ndarray,
    right: np.ndarray,
    outer: int,
    x: np.ndarray,
    t: int,
    work: np.ndarray,
) -> np.ndarray:
    """The member kernel: an average of tensor-power conjugations applied to
    vec(M), matrix-free.

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
    x = x.reshape(outer, m, -1)
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


def _moment_matrix_average(k: np.ndarray, outer: int, m: int, x: np.ndarray, t: int, work: np.ndarray) -> np.ndarray:
    """The moment-matrix kernel of a lifted stage 1_outer (x) A_i, applied to vec(M).

    The stage acts on the 2t inner axes of vec(M) alone, as the inner moment
    matrix K_t = (1/s) sum_i A_i^(x t) (x) conj(A_i)^(x t); `k` is K_t^T for
    the forward map and conj(K_t) for the adjoint. A copy into one row of
    `work` moves the inner axes of the 2t legs (outer, m) last, one GEMM by
    `k` into the other row acts on them, and a copy into the result moves
    them back.
    """
    legs = (outer, m) * (2 * t)
    order = tuple(range(0, 4 * t, 2)) + tuple(range(1, 4 * t, 2))  # outer axes, then inner axes
    grouped_shape = [legs[a] for a in order]
    ambient = math.prod(legs)
    grouped, product = work[0, :ambient], work[1, :ambient]
    np.copyto(grouped.reshape(grouped_shape), x.reshape(legs).transpose(order))
    np.matmul(grouped.reshape(-1, k.shape[0]), k, out=product.reshape(-1, k.shape[0]))
    out = np.empty(ambient, dtype=complex)
    np.copyto(out.reshape(legs), product.reshape(grouped_shape).transpose([order.index(a) for a in range(4 * t)]))
    return out


def _controlled_average(
    rows: np.ndarray, cols: np.ndarray, gather: np.ndarray | None, x: np.ndarray, t: int, work: np.ndarray
) -> np.ndarray:
    """The controlled kernel of Gdot = sum_b U_b (x) |r(b)><b|, applied to vec(M).

    Each leg of vec(M), of side D*s, is contracted at the front of the tensor
    in turn: one batched matmul of the s D x D blocks over the leg's b axis
    (rows[b] on the row legs, cols[b] on the column legs), unless the
    relabelling is the identity a gather along b, and a copy that rotates
    the leg to the end, so 2t legs restore the order. Forward, the blocks
    are U_b and conj(U_b) and the gather reads r^-1, which moves b to r(b);
    the adjoint's blocks are U_{r^-1(b)}† and its transpose, and its gather
    reads r. Each pass writes one row of `work`, the last copy the result.
    """
    s, d, _ = rows.shape
    side = d * s
    ambient = side ** (2 * t)
    rest = ambient // side
    split = (1, 0, 2)  # the leg's (D, s) axes as s D-row matrices
    cur, free, other = x, work[0, :ambient], work[1, :ambient]
    for leg in range(2 * t):
        np.matmul(
            rows if leg < t else cols,
            cur.reshape(d, s, rest).transpose(split),
            out=free.reshape(d, s, rest).transpose(split),
        )
        if gather is not None:
            # mode "wrap", not "raise", lets take write `out` without a buffer
            np.take(free.reshape(d, s, -1), gather, axis=1, out=other.reshape(d, s, -1), mode="wrap")
            free, other = other, free
        cur = np.empty(ambient, dtype=complex) if leg == 2 * t - 1 else other
        np.copyto(cur.reshape(rest, d, s), free.reshape(d, s, rest).transpose(2, 0, 1))
    return cur


class _Kernel(NamedTuple):
    """One stage's kernel: average(*operands, x, t, work) with the forward or the
    adjoint operands; `members` is how many a member-kernel chunk may stack, 1
    for the other kinds."""

    kind: str  # "member", "moment-matrix" or "controlled"
    average: Callable
    forward: tuple
    backward: tuple
    members: int = 1


def _stage_kernel(st: Stage, t: int) -> _Kernel:
    """The cheapest exact kernel of one stage, chosen from its shapes alone.

    A controlled stage takes the controlled kernel, s times fewer flops than
    a GEMM by the dense control unitary. A lifted stage takes the moment-
    matrix kernel when K_t costs no more flops per entry than the member
    kernel, m^2t <= 2t*s*m, and holds no more entries than the vector,
    m^4t <= ambient, which is m <= outer; else the member kernel.
    """
    a = st.members
    if st.relabel is not None:
        r = st.relabel
        r_inv = sorted(range(len(r)), key=r.__getitem__)
        back = np.ascontiguousarray(a[r_inv].conj().transpose(0, 2, 1))
        gathers = (None, None) if r == tuple(range(len(r))) else (np.array(r_inv), np.array(r))
        return _Kernel(
            "controlled",
            _controlled_average,
            (a, a.conj(), gathers[0]),
            (back, back.conj(), gathers[1]),
        )
    s, m, _ = a.shape
    if m ** (2 * t) <= 2 * t * s * m and m <= st.outer:
        powers = a
        for _ in range(t - 1):
            powers = np.einsum("sij,skl->sikjl", powers, a).reshape(s, powers.shape[1] * m, -1)
        k = sector_block(powers, powers)
        return _Kernel("moment-matrix", _moment_matrix_average, (k.T.copy(), st.outer, m), (k.conj(), st.outer, m))
    a_dag = np.ascontiguousarray(a.conj().transpose(0, 2, 1))
    return _Kernel("member", _conjugation_average, (a, a_dag, st.outer), (a_dag, a, st.outer), s)


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

    Each stage's kernel and its operands are fixed once, here, from shapes
    alone (_stage_kernel): the controlled kernel with Gdot's blocks for a
    controlled stage; the moment-matrix kernel with K_t^T and conj(K_t) for
    a lifted stage whose K_t is cheap and small; otherwise the member kernel
    with the stacks A_i and A_i†, which the forward and the adjoint map use
    in swapped roles.

    The kernels' intermediates live in one workspace of two rows, allocated
    at the first apply and reused by every later one. A row holds one
    vector, or the largest chunk*ambient of the member-kernel stages, the
    chunk being the most members whose intermediate fits _BATCH_BYTES, so an
    operator holds at most 2 * _BATCH_BYTES; construction and dense()
    allocate none. Because the applies share the workspace, one
    MomentOperator must not be applied from two threads at once.
    """

    ensemble: UnitaryEnsemble
    t: int
    _kernels: tuple = field(init=False, repr=False, compare=False)
    _work: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.t < 1:
            raise PreconditionError(f"t must be >= 1, got {self.t}")
        stages = self.ensemble.stages or (Stage(self.ensemble.unitaries),)
        self._kernels = tuple(_stage_kernel(st, self.t) for st in stages)

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

    def fixed_space(self) -> FixedSpaceBasis:
        """The space W that Phi and Phi† fix, as Lanczos deflates it."""
        return fixed_space_basis(self.local_dim, self.t)

    def apply_vec(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, adjoint=False)

    def adjoint_apply_vec(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, adjoint=True)

    def _apply(self, x: np.ndarray, adjoint: bool) -> np.ndarray:
        if self._work is None:
            ambient = self.ambient
            members = max(k.members for k in self._kernels)
            chunk = max(1, min(members, _BATCH_BYTES // (16 * ambient)))
            self._work = np.empty((2, chunk * ambient), dtype=complex)
        x = np.asarray(x, dtype=complex)
        for k in self._kernels if adjoint else reversed(self._kernels):
            x = k.average(*(k.backward if adjoint else k.forward), x, self.t, self._work)
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

    `basis` holds d_lambda(n) real orthonormal columns spanning the image of
    the Young symmetriser of `shape`; the irrep occurs `multiplicity` =
    f_lambda times in (C^n)^(x t).
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
    of V_lambda, spanned by the columns c_lambda e_w of the semistandard words
    w (perms.semistandard_words); partitions with more rows have c_lambda = 0
    and are skipped. Those columns (_symmetriser_columns) are orthonormalised
    by one real QR. The word counts are checked against the hook-content
    formula, the QR pivots |R_jj| against _RANK_TOL times the largest, and
    the copies against sum_lambda f_lambda d_lambda(n) = n^t. At t=1 the
    columns are the identity, and so is their QR, exactly.
    """
    if t > MAX_T_BASIS:
        raise SizeLimitError(f"t={t} exceeds basis guard {MAX_T_BASIS}")
    nt = n**t
    out = []
    for shape in partitions(t):
        if len(shape) > n:
            continue
        words = semistandard_words(shape, n)
        dim = unitary_irrep_dim(shape, n)
        if words.size != dim:
            raise AssertionError(f"{words.size} semistandard words of {shape}, hook-content formula gives {dim}")
        basis, r = np.linalg.qr(_symmetriser_columns(shape, n, t, words))
        pivots = np.abs(r.diagonal())
        if pivots.min() <= _RANK_TOL * pivots.max():
            raise AssertionError(f"Young symmetriser {shape}: its semistandard columns are rank-deficient")
        out.append(IrrepBasis(shape, symmetric_irrep_dim(shape), basis))
    copies = sum(b.multiplicity * b.dim for b in out)
    if copies != nt:
        raise AssertionError(f"irrep copies fill {copies} of {nt} dimensions")
    return out


def _symmetriser_columns(shape: tuple[int, ...], n: int, t: int, words: np.ndarray) -> np.ndarray:
    """The columns c_lambda e_w of the Young symmetriser of `shape` at the
    flat indices `words`, as a real n^t x len(words) array, written one
    product at a time: P_p P_q is a permutation matrix whose one of column j
    lies in row r_p(r_q(j)), so the columns are |R||C| signed scatters, each
    into distinct rows of distinct columns. Their entries are small
    integers, so they equal those columns of the product of the two sums
    exactly."""
    nt, d = n**t, words.size
    out = np.zeros(nt * d)
    flat = np.arange(d)
    by_q = [(_shuffle_targets(q, n, t)[words] // nt, sign(q)) for q in column_group(shape)]
    for p in row_group(shape):
        r_p = _shuffle_targets(p, n, t) // nt
        for rows, sgn in by_q:
            out[r_p[rows] * d + flat] += sgn
    return out.reshape(nt, d)


def irrep_action(members: np.ndarray, basis: np.ndarray, n: int, t: int) -> np.ndarray:
    """R(U_i) = B^T U_i^(x t) B for every member, as an (s, d, d) stack, B real.

    U^(x t) B is t mode contractions on the columns of B, batched over
    members; no Kronecker power is formed. The members go a chunk at a time,
    so that the two stacked n^t x d intermediates of a contraction hold at
    most _BATCH_BYTES together.
    """
    s = members.shape[0]
    nt, d = basis.shape
    out = np.empty((s, d, d), dtype=complex)
    step = max(1, _BATCH_BYTES // (2 * 16 * nt * d))
    for lo in range(0, s, step):
        chunk = members[lo : lo + step]
        c = chunk.shape[0]
        cur = np.broadcast_to(basis, (c, nt, d))
        for mode in range(t):
            cur = np.matmul(chunk[:, None], cur.reshape(c, n**mode, n, -1))
        np.matmul(basis.T, cur.reshape(c, nt, d), out=out[lo : lo + c])
    return out


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


def irrep_actions(e: UnitaryEnsemble, t: int) -> list[np.ndarray]:
    """The (s, d_lambda, d_lambda) stack R_lambda(U_i) of every irrep lambda
    of (C^n)^(x t), in irrep_bases order. At t = 1 the one irrep is C^n with
    the basis I, so the stack is the members themselves, not a copy."""
    if t == 1:
        return [e.unitaries]
    return [irrep_action(e.unitaries, b.basis, e.dim, t) for b in irrep_bases(e.dim, t)]


def _block_norm(block: np.ndarray, hermitian: bool) -> float:
    """Spectral norm of one sector block, real or complex: max |eigenvalue|
    from eigvalsh when the block's entrywise |B - B†| is at most
    HERMITIAN_DEFECT, the top singular value otherwise."""
    if hermitian and np.max(np.abs(block - block.conj().T)) <= HERMITIAN_DEFECT:
        return float(np.max(np.abs(np.linalg.eigvalsh(block))))
    return float(np.linalg.svd(block, compute_uv=False)[0])


@dataclass
class SectorFixedSpace:
    """The fixed space of Phi on a SectorOperator's direct sum: vec(I)/sqrt(d)
    in each diagonal block, given by the (offset, d) of those blocks."""

    blocks: list[tuple[int, int]]

    @property
    def rank(self) -> int:
        return len(self.blocks)

    def project_out(self, x: np.ndarray) -> None:
        """Subtract tr(X)/d from the diagonal of each diagonal block X, in place."""
        for lo, d in self.blocks:
            diag = x[lo : lo + d * d : d + 1]
            diag -= diag.sum() / d


@dataclass
class SectorOperator(MomentOperator):
    """Phi on the direct sum of its Schur-Weyl blocks, one per unordered irrep
    pair (lambda, mu), lambda at or before mu in irrep_bases order: each
    irrep's diagonal block, then its pairs with the later ones. It holds the
    one list of those blocks. The iterative path applies it matrix-free for
    the shapes _takes_sectors admits, and the dense path (dense_lambda) and
    dense() read each block's stacks from that list.

    It is the moment operator of the same ensemble at the same t, on another
    space, so it shares MomentOperator's apply_vec and adjoint_apply_vec
    (and whatever counts or times them); `ambient` is the direct sum's
    dimension, and fixed_space() is each diagonal block's vec(I)/sqrt(d).
    The vector holds each block's d_lambda x d_mu matrix X, row-major. At
    t = 1 the one block is the whole space, in the same layout.

    Construction keeps irrep_actions' (s, d, d) stacks as they come, at
    t = 1 the ensemble's members with no copy, and lists the blocks: their
    offsets, their dims and the diagonal ones that make the fixed space. The
    first apply lays each stack out member-minor, H[a, i, b] = R(U_i)[a, b],
    with its conjugate: 2 s sum_lambda d_lambda^2 entries that every pair
    indexes, and the stack held until then becomes an (s, d, d) view of H.
    So the dense path holds no layout unless Lanczos ran first. Read as
    (d s) x d, H is [R(U_1); ...; R(U_s)] with the members interleaved row
    by row; read as d x (s d) it is [R(U_1) ... R(U_s)]. Forward, a block
    maps X -> (1/s) sum_i R_lambda(U_i) X R_mu(U_i)† in two GEMMs:
    Y = H_lambda X, whose rows read as d_lambda x (s d_mu) already hold
    [R_1 X ... R_s X], and one long-K GEMM Y conj(H_mu)^T that sums over the
    members into the block, then the division by s. The adjoint is
    Z = X H_mu and conj(H_lambda)^T Z, Z read as (d_lambda s) x d_mu.
    Either way s d_lambda d_mu (d_lambda + d_mu) multiply-adds and no
    reordering copy. The one intermediate lives in a workspace of
    s max d_lambda d_mu entries, allocated at the first apply and reused, so
    one SectorOperator must not be applied from two threads at once. The
    first apply also builds the plan: per block its offsets, its stacks'
    2-D views and two views of the workspace. An apply is then two
    matmul(out=) calls per block and one division of the result by s, and
    after the first it allocates only its result. _sector_bytes bounds what
    the operator holds once applied; building the stacks adds at most
    _BATCH_BYTES of transients (irrep_action). apply() takes no matrix over
    (C^n)^(x t): the vectors live on the direct sum.
    """

    def __post_init__(self):
        if self.t < 1:
            raise PreconditionError(f"t must be >= 1, got {self.t}")
        self._stacks = irrep_actions(self.ensemble, self.t)
        dims = [r.shape[1] for r in self._stacks]
        self._blocks = []
        diagonals = []
        lo = 0
        for i, da in enumerate(dims):
            for j, db in enumerate(dims[i:], start=i):
                if i == j:
                    diagonals.append((lo, da))
                self._blocks.append((lo, da, db, i, j))
                lo += da * db
        self._dim = lo
        self._fixed = SectorFixedSpace(diagonals)

    @property
    def ambient(self) -> int:
        return self._dim

    def fixed_space(self) -> SectorFixedSpace:
        return self._fixed

    def apply(self, m: np.ndarray) -> np.ndarray:
        raise PreconditionError("a SectorOperator acts on its direct sum of blocks (apply_vec), not on matrices")

    def dense_lambda(self, hermitian: bool) -> float:
        """Largest singular value of the moment operator minus the Haar
        projector, exactly, from the norms of the blocks, one block at a time.

        The (lambda, mu) block is sector_block(R_lambda, R_mu). The (mu,
        lambda) block equals J (lambda, mu) J with the antiunitary J: X -> X†,
        so it has the same singular values and, when both are Hermitian, the
        same (real) eigenvalues; the blocks with lambda at or before mu
        therefore carry the norm of Phi - P and, through the gate, its extreme
        eigenvalues. J maps each diagonal block to itself, so that one is real
        in Hermitian coordinates (hermitian_sector_block, which also removes
        the fixed vector vec(I)/sqrt(d_lambda)); the off-diagonal ones stay
        complex.

        `hermitian` is lambda_report's gate (U_{-i} = U_i†, to
        HERMITIAN_DEFECT): through it every block is Hermitian, the diagonal
        ones real symmetric, so its norm is max |eigenvalue|, from eigvalsh
        once the block's own Hermitian defect is checked, and from the SVD
        otherwise. No apply is needed, so the stacks are read as they are,
        laid out or not.
        """
        value = 0.0
        for _, _, _, i, j in self._blocks:
            left, right = self._stacks[i], self._stacks[j]
            block = hermitian_sector_block(left) if i == j else sector_block(left, right)
            value = max(value, _block_norm(block, hermitian))
            del block  # so that no two blocks are held at once
        return value

    def _apply(self, x: np.ndarray, adjoint: bool) -> np.ndarray:
        if self._work is None:
            s, self._plan, laid = self.ensemble.size, [], []
            for i in range(len(self._stacks)):  # each R(U_i) stack is dropped once laid out
                h = np.ascontiguousarray(self._stacks[i].transpose(1, 0, 2))
                self._stacks[i] = h.transpose(1, 0, 2)
                laid.append((h, h.conj()))
            self._work = np.empty(s * max(da * db for _, da, db, _, _ in self._blocks), dtype=complex)
            for lo, da, db, i, j in self._blocks:
                (h_left, hc_left), (h_right, hc_right) = laid[i], laid[j]
                work = self._work[: s * da * db]
                self._plan.append(
                    (lo, lo + da * db, (da, db), work.reshape(da * s, db), work.reshape(da, s * db))
                    + (h_left.reshape(da * s, da), hc_right.reshape(db, s * db).T)  # forward
                    + (hc_left.reshape(da * s, da).T, h_right.reshape(db, s * db))  # adjoint
                )
        x = np.asarray(x, dtype=complex)
        out = np.empty(self._dim, dtype=complex)
        for lo, hi, shape, tall, wide, left, right, left_adj, right_adj in self._plan:
            block, y = x[lo:hi].reshape(shape), out[lo:hi].reshape(shape)
            if adjoint:
                np.matmul(block, right_adj, out=wide)
                np.matmul(left_adj, tall, out=y)
            else:
                np.matmul(left, block, out=tall)
                np.matmul(wide, right, out=y)
        out /= self.ensemble.size
        return out

    def dense(self) -> np.ndarray:
        """The ambient x ambient matrix on the direct sum, block diagonal with
        each pair's sector_block from the stacks dense_lambda reads: the
        applies' oracle and, less each diagonal block's vec(I)vec(I)†/d, the
        dense path's."""
        if self.ambient > DENSE_LIMIT:
            raise SizeLimitError(f"direct sum {self.ambient} exceeds dense limit {DENSE_LIMIT}")
        out = np.zeros((self.ambient, self.ambient), dtype=complex)
        for lo, da, db, i, j in self._blocks:
            out[lo : lo + da * db, lo : lo + da * db] = sector_block(self._stacks[i], self._stacks[j])
        return out


def _irrep_dims(n: int, t: int) -> list[int]:
    """d_lambda(n) for each U(n) irrep of (C^n)^(x t), in irrep_bases order."""
    return [unitary_irrep_dim(shape, n) for shape in partitions(t) if len(shape) <= n]


def _sector_bytes(n: int, s: int, t: int) -> int:
    """A bound on the bytes a SectorOperator of s members holds: each irrep's
    stack and its conjugate, and twice the workspace of its largest block."""
    dims = _irrep_dims(n, t)
    return 16 * s * (2 * sum(d * d for d in dims) + 2 * max(dims) ** 2)


def _lanczos_is_cheaper(n: int, s: int, t: int, hermitian: bool) -> bool:
    """Whether Lanczos on the Schur-Weyl blocks is priced below their dense
    norms, from n, s, t, lambda_report's Hermitian gate and the irrep
    dimensions alone.

    The dense price is sum N^3 over the blocks lambda <= mu, N = d_lambda
    d_mu, a complex off-diagonal block weighted _COMPLEX_PRICE above a real
    diagonal one and everything _SVD_PRICE above eigvalsh outside the gate.
    The Lanczos price is _LANCZOS_STEPS steps of one apply (two outside the
    gate, on Phi†Phi) of s sum d_lambda d_mu (d_lambda + d_mu) multiply-adds,
    plus _STEP_PRICE per step. The work both paths share, the irrep bases
    and R(U_i) stacks, is left out.
    """
    dims = _irrep_dims(n, t)
    pairs = [(a, b, i == j) for i, a in enumerate(dims) for j, b in enumerate(dims[i:], start=i)]
    dense = _EIGVALSH_PRICE * sum((a * b) ** 3 * (1.0 if diagonal else _COMPLEX_PRICE) for a, b, diagonal in pairs)
    apply = s * sum(a * b * (a + b) for a, b, _ in pairs)
    applies, solver = (1, 1.0) if hermitian else (2, _SVD_PRICE)
    return _LANCZOS_STEPS * (applies * apply + _STEP_PRICE) < solver * dense


def _takes_sectors(e: UnitaryEnsemble, t: int) -> bool:
    """Whether the iterative path runs on the Schur-Weyl blocks (SectorOperator)
    instead of (C^n)^(x t) (MomentOperator), from shapes alone.

    Only an ensemble without stages may: a product keeps its stage kernels.
    Its blocks are taken when (a) n is at most _SECTOR_MAX_DIM[t], at the two
    t that have a limit, and (b) the operator holds at most 2 * _BATCH_BYTES
    (_sector_bytes), the bound on MomentOperator's workspace. The same
    ensembles are the ones that `auto` prices at or below the dense limit
    (lambda_report, _lanczos_is_cheaper); every other one keeps the dense
    path there.
    """
    if e.stages:
        return False
    n, s = e.dim, e.size
    return n <= _SECTOR_MAX_DIM.get(t, n) and _sector_bytes(n, s, t) <= 2 * _BATCH_BYTES


@dataclass
class SpectralReport:
    """Second-largest-singular-value report for one ensemble at one t."""

    lambda_: float
    method: str
    iterations: int
    # applies of the map Lanczos ran (MomentOperator or SectorOperator) and of
    # its adjoint; 0 on the dense path
    applies: int
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

    The one place that decides a call, each decision once: the Hermitian
    gate (the members' involution defect at most HERMITIAN_DEFECT), the
    representation (_takes_sectors) and the path; and it builds one
    operator, which every path reads: a SectorOperator when the dense path
    runs or the blocks admit the shapes, a MomentOperator otherwise.

    The dense method is exact: the norm of every Schur-Weyl block
    (SectorOperator.dense_lambda) instead of the n^2t x n^2t superoperator,
    from eigvalsh through the gate and from the SVD otherwise. The
    iterative method (named "power-iteration") is Lanczos, matrix-free,
    with fixed-space deflation: on Phi itself, one apply per step, through
    the gate, and on Phi†Phi, two applies per step, otherwise.

    `method` "auto" takes the iterative path above the dense limit on n^2t.
    At or below it, an ensemble the blocks admit takes whichever path
    _lanczos_is_cheaper prices lower, from shapes and the gate alone, so a
    rerun takes the same path; every other ensemble, products included,
    takes the dense path. Should Lanczos so taken stop unconverged, which
    only a max_iters below the direct sum's dimension allows, the dense
    report is returned instead, from the same operator. The solver settings
    are checked whichever path runs (check_solver_settings).
    Non-convergence is surfaced in the report, never silently dropped.
    """
    check_solver_settings(e.dim, t, method, tol, max_iters)
    rng = SeededRng(0, 0) if rng is None else rng
    hermitian = involution_defect(e) <= HERMITIAN_DEFECT
    sectors = _takes_sectors(e, t)
    routed = False
    if method == "auto":
        if e.dim ** (2 * t) > DENSE_LIMIT:
            method = "power-iteration"
        else:
            routed = sectors and _lanczos_is_cheaper(e.dim, e.size, t, hermitian)
            method = "power-iteration" if routed else "dense-svd"
    phi = SectorOperator(e, t) if sectors or method == "dense-svd" else MomentOperator(e, t)
    if method == "power-iteration":
        # Phi and Phi† both fix W (every U^(x t) commutes with it), so W^perp is
        # invariant under both and Phi - P is 0 on W and Phi on W^perp: the norm
        # of Phi on the deflated iterates is exactly lambda. With an involution
        # Phi† = Phi, so its norm there is its largest |eigenvalue|. On the
        # sector blocks W is each diagonal block's identity.
        est = spectral_norm(
            LinearMap(phi.ambient, phi.apply_vec, phi.adjoint_apply_vec),
            tol=tol,
            max_iters=max_iters,
            rng=rng,
            deflate=phi.fixed_space(),
            hermitian=hermitian,
        )
        applies = est.iterations * (1 if hermitian else 2)
        if routed and not est.converged:
            method = "dense-svd"
    if method == "dense-svd":
        est, applies = SpectralEstimate(value=phi.dense_lambda(hermitian), residual=0.0, iterations=0), 0
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
    iteration. Bounded by lambda^k for unit-norm monomial matrices. t and k
    are checked as design_errors checks them (check_design_powers).
    """
    check_design_powers(e.dim, t, [k])
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
    """|<E_I, (Phi^k - P_W)(M'_J)>| for every flat row tuple I, one array per
    k in ks. Phi fixes W, so (Phi^k - P_W) x = Phi^k (x - P_W x): W is
    removed from the monomial once, in place, and Phi^k read directly."""
    nt = phi.local_dim**phi.t
    y = np.zeros(nt * nt, dtype=complex)
    y[flat_j * nt + flat_j] = 1.0
    basis.project_out(y)
    reads = {}
    for k in range(1, max(ks) + 1):
        y = phi.apply_vec(y)
        if k in ks:
            reads[k] = np.abs(y.reshape(nt, nt).diagonal())
    return [reads[k] for k in ks]


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
        """Each distance against its bound, with no roundoff allowance: at t = 1
        the distances and both bounds are exactly 0, and at t >= 2
        w^2 = 1 - c/g <= t(t-1)/d, so w is at most half of bound_pair."""
        return {
            "pair_w": max(self.w_to_wprime, self.wprime_to_w) <= self.bound_pair,
            "pair_w2": self.w2prime_to_w2 <= self.bound_pair,
            "perp_w": max(self.perp_w_to_wprime, self.perp_wprime_to_w) <= self.bound_perp,
            "perp_w2": self.perp_w2prime_to_w2 <= self.bound_perp,
        }

    def to_json_dict(self) -> dict:
        """The fields and the claims checked against them."""
        return dict(asdict(self), claims=self.claims)


def subspace_closeness_report(outer_dim: int, inner_dim: int, t: int) -> ClosenessReport:
    """How close the product fixed space is to its distinct-tuple proxy, in
    closed form.

    In the grouped register layout W is spanned by alpha_sigma(D) (x)
    alpha_sigma(d), and W' the same with alpha'_sigma(d): alpha_sigma(d) on
    the columns whose index tuple has t distinct values. W_2, W_2' are the
    inner factors. The W' family is orthogonal, and its Gram matrix and the
    cross Gram with W's family are both c I, c = (d)_t/d^t; W's is G =
    perms.permutation_gram(t, N). So both directed distances are
    sqrt(1 - c/g), g the Perron root of G, prod_{j<t} (1 + j/N), with N = Dd
    for W and N = d for W_2. d >= t keeps both families of rank t!.
    """
    if min(outer_dim, inner_dim, t) < 1:
        raise PreconditionError(f"dimensions and t must be >= 1, got D={outer_dim}, d={inner_dim}, t={t}")
    if t > MAX_T_BASIS:
        raise SizeLimitError(f"t={t} exceeds basis guard {MAX_T_BASIS}")
    if inner_dim < t:
        raise PreconditionError(f"distinct tuples need t <= d, got t={t}, d={inner_dim}")
    c = falling_factorial(inner_dim, t) / inner_dim**t
    w, w2 = (math.sqrt(1.0 - c / math.prod(1.0 + j / n for j in range(t))) for n in (outer_dim * inner_dim, inner_dim))
    tt = t * (t - 1) / inner_dim
    return ClosenessReport(
        outer_dim=outer_dim,
        inner_dim=inner_dim,
        t=t,
        w_to_wprime=w,
        wprime_to_w=w,
        w2prime_to_w2=w2,
        w2_to_w2prime=w2,
        bound_pair=2.0 * math.sqrt(tt),
        bound_perp=2.0 * tt**0.25,
    )
