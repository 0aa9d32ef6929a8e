"""Permutations of {0,...,t-1} and the combinatorics behind the error terms.

Covers cycle/fixed-point statistics, unsigned Stirling numbers of the first
kind, falling factorials, the two t!-indexed matrices (cycle-weighted and
fixed-point-weighted) whose spectral norms bound the off-diagonal mass of the
permutation Gram matrices used elsewhere, and the Young-diagram data behind
the Schur-Weyl sectors: partitions of t, the row and column groups of their
canonical tableaux, the sign character, and the hook-length and hook-content
irrep dimensions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SizeLimitError

MAX_ENUM_T = 8  # t! enumeration guard
MAX_STIRLING_T = 20  # exact integer recurrence guard


@dataclass(frozen=True)
class Permutation:
    """Bijection of {0,...,t-1} in one-line notation: position a holds sigma(a)."""

    map: tuple[int, ...]

    def __post_init__(self):
        t = len(self.map)
        if t < 1 or sorted(self.map) != list(range(t)):
            raise PreconditionError(f"not a bijection of range({t}): {self.map!r}")

    @property
    def size(self) -> int:
        return len(self.map)

    def __call__(self, a: int) -> int:
        return self.map[a]

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for a, b in enumerate(self.map):
            inv[b] = a
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: a -> self(other(a))."""
        if other.size != self.size:
            raise PreconditionError("size mismatch in composition")
        return Permutation(tuple(self.map[other.map[a]] for a in range(self.size)))


def identity(t: int) -> Permutation:
    return Permutation(tuple(range(t)))


def all_permutations(t: int) -> list[Permutation]:
    """All t! permutations in lexicographic one-line order.

    This single ordering indexes every t!-sized matrix and basis in the
    package.
    """
    if not 1 <= t <= MAX_ENUM_T:
        raise SizeLimitError(f"t={t} outside enumeration guard 1..{MAX_ENUM_T}")
    return [Permutation(p) for p in itertools.permutations(range(t))]


def cycle_count(p: Permutation) -> int:
    """Number of cycles, counting fixed points as 1-cycles."""
    seen = [False] * p.size
    count = 0
    for start in range(p.size):
        if seen[start]:
            continue
        count += 1
        a = start
        while not seen[a]:
            seen[a] = True
            a = p.map[a]
    return count


def fixed_point_count(p: Permutation) -> int:
    return sum(1 for a in range(p.size) if p.map[a] == a)


def stirling_first(t: int, k: int) -> int:
    """Unsigned Stirling number of the first kind: permutations of [t] with k cycles.

    Computed by the recurrence S(t+1, k) = t*S(t, k) + S(t, k-1) with
    S(1, 1) = 1 and S(t, 0) = 0, in exact integer arithmetic.
    """
    if not (1 <= k <= t <= MAX_STIRLING_T):
        raise PreconditionError(f"need 1 <= k <= t <= {MAX_STIRLING_T}, got t={t}, k={k}")
    row = [0, 1]  # S(1, 0..1)
    for m in range(1, t):
        new = [0] * (m + 2)
        for j in range(1, m + 2):
            new[j] = m * (row[j] if j < len(row) else 0) + row[j - 1]
        row = new
    return row[k]


def falling_factorial(d: int, t: int) -> int:
    """(d)_t = d (d-1) ... (d-t+1); equals 1 at t=0 and 0 once t > d."""
    if d < 0 or t < 0:
        raise PreconditionError("falling_factorial needs nonnegative integers")
    out = 1
    for i in range(t):
        out *= d - i
        if out == 0:
            return 0
    return out


def distinct_fraction_deficit(d: int, t: int) -> tuple[float, float]:
    """Deficit 1 - (d)_t/d^t of distinct index tuples, with its t(t-1)/(2d) bound.

    Returns (exact, bound); exact <= bound always holds for d >= t.
    """
    if d < t:
        raise PreconditionError(f"need d >= t, got d={d}, t={t}")
    exact = 1.0 - falling_factorial(d, t) / float(d**t)
    bound = t * (t - 1) / (2.0 * d)
    return exact, bound


def _pair_statistic_matrix(t: int, weight) -> np.ndarray:
    perms = all_permutations(t)
    m = len(perms)
    out = np.zeros((m, m))
    for i, sigma in enumerate(perms):
        inv = sigma.inverse()
        for j, sigma_p in enumerate(perms):
            if i == j:
                continue
            out[i, j] = weight(inv.compose(sigma_p))
    return out


def cycle_gram_matrix(t: int, d: int) -> np.ndarray:
    """t! x t! matrix with entries d^(cycles(sigma^-1 sigma') - t) off the diagonal.

    Indexed by the all_permutations(t) ordering; symmetric with zero diagonal.
    Its spectral norm is at most t(t-1)/d when d > t^2.
    """
    if d <= t * t:
        raise PreconditionError(f"need d > t^2, got d={d}, t={t}")
    return _pair_statistic_matrix(t, lambda p: float(d) ** (cycle_count(p) - t))


def fixed_point_matrix(t: int, eps: float) -> np.ndarray:
    """t! x t! matrix with entries eps^(t - fixed_points(sigma^-1 sigma')) off-diagonal.

    Requires 0 < eps < 1/(2t); spectral norm is then at most 2 eps^2 t^2.
    """
    if not 0 < eps < 1.0 / (2 * t):
        raise PreconditionError(f"need 0 < eps < 1/(2t) = {1.0/(2*t)}, got {eps}")
    return _pair_statistic_matrix(t, lambda p: eps ** (t - fixed_point_count(p)))


def sign(p: Permutation) -> int:
    """Parity character: +1 for even permutations, -1 for odd ones."""
    return -1 if (p.size - cycle_count(p)) % 2 else 1


def partitions(t: int) -> list[tuple[int, ...]]:
    """Partitions of t as non-increasing tuples, in reverse lexicographic order.

    (t) comes first and (1, ..., 1) last. This single ordering indexes the
    Schur-Weyl sectors everywhere in the package.
    """
    if not 1 <= t <= MAX_ENUM_T:
        raise SizeLimitError(f"t={t} outside enumeration guard 1..{MAX_ENUM_T}")

    def below(rest: int, cap: int):
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, cap), 0, -1):
            for tail in below(rest - part, part):
                yield (part,) + tail

    return list(below(t, t))


def _check_shape(shape: tuple[int, ...]) -> int:
    if not shape or any(a < b for a, b in zip(shape, shape[1:])) or shape[-1] < 1:
        raise PreconditionError(f"not a partition: {shape!r}")
    return sum(shape)


def _tableau_rows(shape: tuple[int, ...]) -> list[list[int]]:
    """Boxes of the canonical Young tableau, filled with 0..t-1 row by row."""
    rows, start = [], 0
    for length in shape:
        rows.append(list(range(start, start + length)))
        start += length
    return rows


def _block_stabiliser(blocks: list[list[int]], t: int) -> list[Permutation]:
    """All permutations of range(t) that map every block onto itself."""
    out = []
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        m = list(range(t))
        for block, image in zip(blocks, images):
            for a, b in zip(block, image):
                m[a] = b
        out.append(Permutation(tuple(m)))
    return out


def row_group(shape: tuple[int, ...]) -> list[Permutation]:
    """Permutations preserving each row of the canonical Young tableau of `shape`."""
    t = _check_shape(shape)
    return _block_stabiliser(_tableau_rows(shape), t)


def column_group(shape: tuple[int, ...]) -> list[Permutation]:
    """Permutations preserving each column of the canonical Young tableau of `shape`."""
    t = _check_shape(shape)
    rows = _tableau_rows(shape)
    columns = [[row[c] for row in rows if c < len(row)] for c in range(shape[0])]
    return _block_stabiliser(columns, t)


def _hooks(shape: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """(row, column, hook length) of every box of the Young diagram."""
    conj = [sum(1 for length in shape if length > c) for c in range(shape[0])]
    return [(i, j, shape[i] - j + conj[j] - i - 1) for i in range(len(shape)) for j in range(shape[i])]


def symmetric_irrep_dim(shape: tuple[int, ...]) -> int:
    """f_lambda, the dimension of the S_t irrep `shape`: t! over the product of hook lengths."""
    t = _check_shape(shape)
    return math.factorial(t) // math.prod(h for _, _, h in _hooks(shape))


def unitary_irrep_dim(shape: tuple[int, ...], n: int) -> int:
    """d_lambda(n), the dimension of the U(n) irrep `shape` (hook-content formula).

    The product of (n + column - row) over the product of hook lengths; it is
    0 exactly when `shape` has more than n rows.
    """
    _check_shape(shape)
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    hooks = _hooks(shape)
    return math.prod(n + j - i for i, j, _ in hooks) // math.prod(h for _, _, h in hooks)
