"""Permutations of {0,...,t-1} and the combinatorics behind the error terms.

Covers cycle/fixed-point statistics, falling factorials, the Gram matrix
of the register shuffles with the two t!-indexed matrices (cycle-weighted
and fixed-point-weighted) whose spectral norms bound its off-diagonal mass,
and the Young-diagram data behind the Schur-Weyl sectors: partitions of t,
the row and column groups of their canonical tableaux and its semistandard
fillings, the sign character, and the hook-length and hook-content irrep
dimensions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SizeLimitError

MAX_ENUM_T = 8  # t! enumeration guard


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


def _pair_statistic_matrix(t: int, weight) -> np.ndarray:
    """t! x t! matrix of weight(sigma^-1 sigma') over the all_permutations(t)
    ordering. weight runs once per permutation; each pair's product is found
    by its one-line array read as a base-t number, accumulated one digit at a
    time into a t! x t! code, so no t! x t! x t composition array is formed:
    at t = 6 it peaks at 8.5 MB, the 4.1 MB result included. The integers stay
    intp: int8 or int32 arithmetic would page in numpy loops that nothing else
    in the package runs, 128 KB of resident memory in every lambda run."""
    perms = all_permutations(t)
    maps, digits = np.array([p.map for p in perms]), t ** np.arange(t)
    inverses = np.argsort(maps, axis=1)
    index = np.zeros(t**t, dtype=np.intp)
    index[maps @ digits] = np.arange(len(perms))
    code = np.zeros((len(perms), len(perms)), dtype=np.intp)
    for a in reversed(range(t)):  # Horner: digit a of sigma^-1 sigma' is inverses[sigma, sigma'[a]]
        code *= t
        code += inverses[:, maps[:, a]]
    code = index[code]  # rebound, so the codes are freed before the result is formed
    values = np.array([weight(p) for p in perms])
    return values[code]


def permutation_gram(t: int, n: int) -> np.ndarray:
    """t! x t! Gram matrix n^(cycles(sigma^-1 sigma') - t) of the normalised
    register shuffles on (C^n)^(x t), in the all_permutations(t) ordering.

    Symmetric with unit diagonal. Its rows all sum to its Perron root
    prod_{j<t} (1 + j/n), the eigenvalue of the all-ones vector; its inverse
    is the Weingarten matrix (Collins-Sniady, Comm. Math. Phys. 264, 2006).
    """
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    return _pair_statistic_matrix(t, lambda p: float(n) ** (cycle_count(p) - t))


def cycle_gram_matrix(t: int, d: int) -> np.ndarray:
    """t! x t! matrix with entries d^(cycles(sigma^-1 sigma') - t) off the diagonal.

    permutation_gram(t, d) minus the identity: symmetric with zero diagonal.
    Its spectral norm is at most t(t-1)/d when d > t^2.
    """
    if d <= t * t:
        raise PreconditionError(f"need d > t^2, got d={d}, t={t}")
    return permutation_gram(t, d) - np.eye(math.factorial(t))


def fixed_point_matrix(t: int, eps: float) -> np.ndarray:
    """t! x t! matrix with entries eps^(t - fixed_points(sigma^-1 sigma')) off-diagonal.

    Requires 0 < eps < 1/(2t); spectral norm is then at most 2 eps^2 t^2.
    """
    if not 0 < eps < 1.0 / (2 * t):
        raise PreconditionError(f"need 0 < eps < 1/(2t) = {1.0/(2*t)}, got {eps}")
    return _pair_statistic_matrix(t, lambda p: eps ** (t - fixed_point_count(p))) - np.eye(math.factorial(t))


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


def semistandard_words(shape: tuple[int, ...], n: int) -> np.ndarray:
    """The words w in {0..n-1}^t whose filling of the canonical Young tableau
    of `shape` (box a holds w_a) is semistandard, as ascending row-major flat
    indices sum_a w_a n^(t-1-a) into (C^n)^(x t).

    Semistandard means rows weakly increasing and columns strictly
    increasing, so the boxes are filled in order, each letter at least its
    left neighbour's and above the one over it. There are d_lambda(n) such
    words (Fulton, Young Tableaux, 1997, 8.1), none when `shape` has more
    than n rows.
    """
    t = _check_shape(shape)
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    rows = _tableau_rows(shape)
    words: list[tuple[int, ...]] = [()]
    for i, row in enumerate(rows):
        for j, box in enumerate(row):  # box - 1 is its left neighbour, rows[i - 1][j] the box over it
            words = [
                w + (c,) for w in words for c in range(max(w[box - 1] if j else 0, w[rows[i - 1][j]] + 1 if i else 0), n)
            ]
    return np.array(words, dtype=np.intp).reshape(-1, t) @ n ** np.arange(t - 1, -1, -1)


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
