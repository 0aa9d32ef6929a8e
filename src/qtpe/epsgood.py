"""Measurement-statistics goodness of unitaries on a bipartite space.

A unitary on C^d (x) C^d' is "good" for a state when measuring the first
factor of its image gives near-uniform outcome probabilities, and good for a
set when, additionally, conditioned post-measurement states of orthogonal
inputs stay nearly orthogonal. Tuples inherit goodness inductively through
conditioned states along outcome paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import PRODUCT_ENTRY_LIMIT
from .errors import PreconditionError, SizeLimitError
from .linalg import ITERATIVE_AMBIENT_LIMIT, SeededRng

# work of one tuple walk: its outcome-path steps when exhaustive, its unitary
# draws plus the path steps of its picks when sampled
EXHAUSTIVE_LIMIT = 10**5
ZERO_PROBABILITY = 1e-12


def _branch(y: np.ndarray, v: int) -> tuple[float, np.ndarray | None]:
    """Probability of outcome v of the image y (shape (d, d')) and its renormalised
    post-measurement state in the full space, or None for a dead branch."""
    p = float(np.sum(np.abs(y[v]) ** 2))
    if p <= ZERO_PROBABILITY:
        return p, None
    state = np.zeros(y.size, dtype=complex)
    state[v * y.shape[1] : (v + 1) * y.shape[1]] = y[v] / np.sqrt(p)
    return p, state


@dataclass
class GoodnessDecision:
    """Boolean decision with the worst-offender witness and sampling coverage."""

    good: bool
    witness: dict | None = None
    coverage: float = 1.0


def _probability_window(d: int, eps: float) -> tuple[float, float]:
    return (1.0 - 3.0 * eps) / d, (1.0 + 3.0 * eps) / d


def is_good_for_vector(u: np.ndarray, x: np.ndarray, d: int, dprime: int, eps: float) -> GoodnessDecision:
    """Every outcome probability must lie in [(1-3eps)/d, (1+3eps)/d]."""
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    x = np.asarray(x, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(x) - 1.0) > 1e-10:
        raise PreconditionError(f"x must be a unit vector, got norm {np.linalg.norm(x)}")
    lo, hi = _probability_window(d, eps)
    y = (np.asarray(u, dtype=complex) @ x).reshape(d, dprime)
    probs = np.sum(np.abs(y) ** 2, axis=1)
    dev = np.maximum(lo - probs, probs - hi)
    worst = int(np.argmax(dev))
    good = bool(dev[worst] <= 0.0)
    witness = {"outcome": worst, "probability": float(probs[worst]), "window": [lo, hi]}
    return GoodnessDecision(good=good, witness=witness)


def is_good_for_set(
    u: np.ndarray, xs: list[np.ndarray] | np.ndarray, d: int, dprime: int, eps: float
) -> GoodnessDecision:
    """Per-vector goodness for every member plus conditioned-overlap bounds.

    For each outcome and each orthonormal pair, the conditioned states must
    satisfy |<U x | v, U x' | v>| <= 8 eps. Zero-probability branches carry no
    conditioned state and are skipped as vacuously good.
    """
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    u = np.asarray(u, dtype=complex)
    xmat = np.stack([np.asarray(x, dtype=complex).reshape(-1) for x in xs], axis=1)
    m = xmat.shape[1]
    gram = xmat.conj().T @ xmat
    if np.max(np.abs(gram - np.eye(m))) > 1e-8:
        raise PreconditionError("input set must be pairwise orthonormal within 1e-8")
    lo, hi = _probability_window(d, eps)
    y = (u @ xmat).reshape(d, dprime, m)
    probs = np.sum(np.abs(y) ** 2, axis=1)  # (d, m)
    dev = np.maximum(lo - probs, probs - hi)
    if np.max(dev) > 0.0:
        v, col = np.unravel_index(int(np.argmax(dev)), dev.shape)
        witness = {"kind": "probability", "vector": int(col), "outcome": int(v), "probability": float(probs[v, col])}
        return GoodnessDecision(good=False, witness=witness)
    worst_pair = 0.0
    witness = {"kind": "overlap", "overlap": worst_pair}  # unless two live conditioned states overlap
    for v in range(d):
        block = y[v]  # (dprime, m)
        norms = np.sqrt(probs[v])
        live = norms > np.sqrt(ZERO_PROBABILITY)
        if np.count_nonzero(live) < 2:
            continue
        cols = block[:, live] / norms[live]
        overlaps = np.abs(cols.conj().T @ cols)
        np.fill_diagonal(overlaps, 0.0)
        peak = float(np.max(overlaps))
        if peak > worst_pair:
            worst_pair = peak
            i, j = np.unravel_index(int(np.argmax(overlaps)), overlaps.shape)
            idx = np.flatnonzero(live)
            witness = {"kind": "overlap", "outcome": v, "pair": [int(idx[i]), int(idx[j])], "overlap": peak}
    return GoodnessDecision(good=worst_pair <= 8.0 * eps, witness=witness)


def check_tuple_size(k: int, d: int, dprime: int, mode: str, budget: int | None = None) -> None:
    """The argument and size checks of is_tuple_good, which need no unitaries.

    Exhaustive mode walks all sum_{j=2..k} d*d'*d^(j-1) configurations, each
    along an outcome path of length j-1; the guard bounds the total number of
    path steps, which is quadratic in k even at d = 1. Sampled mode picks
    `budget` of the configurations, whose count must fit the int64 the
    sampler takes. Its picks can fall at any level, so the guard bounds the
    k unitary draws plus up to k-1 path steps per pick; at d = 1, where the
    count is only (k-1)*d', that bound is what keeps a long tuple from
    drawing all k unitaries for a handful of picks. In either mode the k
    unitaries of dimension n = d*d' are refused when n^2 exceeds
    ITERATIVE_AMBIENT_LIMIT or k*n^2 exceeds PRODUCT_ENTRY_LIMIT, the guards
    sample_random_qtpe puts on its draws, so a caller checks before drawing.
    """
    if mode not in ("exhaustive", "sampled"):
        raise PreconditionError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if k < 1:
        raise PreconditionError("need at least one unitary")
    if d < 1 or dprime < 1:
        raise PreconditionError(f"d and d' must be >= 1, got d={d}, d'={dprime}")
    # for d >= 2, d^64 alone exceeds either limit: the caps only keep huge k cheap
    if mode == "exhaustive":
        if _path_steps(min(k, 65) if d > 1 else k, d, d * dprime) > EXHAUSTIVE_LIMIT:
            raise SizeLimitError(
                f"exhaustive walk for k={k}, d={d}, d'={dprime} exceeds {EXHAUSTIVE_LIMIT} path steps; use sampled mode"
            )
    else:
        if budget is None or budget < 1:
            raise PreconditionError("sampled mode needs a positive budget")
        limit = np.iinfo(np.int64).max
        total = _configuration_count(min(k, 65) if d > 1 else k, d, d * dprime)
        if total > limit:
            raise SizeLimitError(
                f"sampled configuration count for k={k}, d={d}, d'={dprime} exceeds {limit}, "
                "the largest population the sampler draws from"
            )
        work = k + min(budget, total) * (k - 1)
        if work > EXHAUSTIVE_LIMIT:
            raise SizeLimitError(
                f"sampled walk for k={k}, d={d}, d'={dprime}, budget {budget} needs up to {work} "
                f"unitary draws and path steps (> {EXHAUSTIVE_LIMIT})"
            )
    n = d * dprime
    if n * n > ITERATIVE_AMBIENT_LIMIT or k * n * n > PRODUCT_ENTRY_LIMIT:
        raise SizeLimitError(
            f"k={k} unitaries of dimension d*d' = {n} exceed the sampling guards "
            f"(n^2 <= {ITERATIVE_AMBIENT_LIMIT}, k*n^2 <= PRODUCT_ENTRY_LIMIT {PRODUCT_ENTRY_LIMIT})"
        )


def _configuration_count(k: int, d: int, n: int) -> int:
    """sum_{j=2..k} n*d^(j-1): the (level, start, path) configurations of levels 2..k."""
    return (k - 1) * n if d == 1 else n * (d**k - d) // (d - 1)


def _path_steps(k: int, d: int, n: int) -> int:
    """sum_{j=2..k} (j-1)*n*d^(j-1): the outcome-path steps of the exhaustive walk."""
    return n * k * (k - 1) // 2 if d == 1 else n * sum(m * d**m for m in range(1, k))


def _configuration(flat: int, d: int, n: int) -> tuple[int, int, tuple[int, ...]]:
    """The (level j, start x0, outcome path) at position `flat` of the walk order:
    levels ascending, then starts, then paths lexicographically."""
    j = 2
    if d == 1:
        j, flat = 2 + flat // n, flat % n
    while flat >= n * d ** (j - 1):
        flat -= n * d ** (j - 1)
        j += 1
    x0, rest = divmod(flat, d ** (j - 1))
    path = [0] * (j - 1)
    for pos in range(j - 2, -1, -1):
        rest, path[pos] = divmod(rest, d)
    return j, x0, tuple(path)


def is_tuple_good(
    us: list[np.ndarray],
    d: int,
    dprime: int,
    eps: float,
    mode: str = "exhaustive",
    budget: int | None = None,
    rng: SeededRng | None = None,
) -> GoodnessDecision:
    """Inductive tuple goodness over outcome paths and basis starting states.

    Level 1 demands set-goodness on all d*d' computational basis vectors
    (including conditioned-overlap bounds). Level j >= 2 demands per-vector
    goodness of U_j on every conditioned state reachable from any basis state
    through any outcome path of length j-1. Exhaustive mode enumerates every
    (level, start, path) configuration; sampled mode draws configurations
    uniformly without replacement up to `budget` and reports the covered
    fraction. Level 1 is always evaluated exactly (it is one vectorised
    Gram computation, not an enumeration). Dead branches (probability below
    1e-12) are skipped as vacuously good.
    """
    k = len(us)
    check_tuple_size(k, d, dprime, mode, budget)
    n = d * dprime
    stacked = [np.asarray(u, dtype=complex) for u in us]
    for u in stacked:
        if u.shape != (n, n):
            raise PreconditionError(f"every unitary must be {n}x{n}, got {u.shape}")

    total = _configuration_count(k, d, n)
    flats: range | list[int] = range(total)  # every configuration, in walk order
    if mode == "sampled":
        if rng is None:
            raise PreconditionError("sampled mode needs an rng")
        if budget < total:
            flats = sorted(int(p) for p in rng.generator().choice(total, size=budget, replace=False))

    basis = np.eye(n, dtype=complex)
    level1 = is_good_for_set(stacked[0], [basis[:, i] for i in range(n)], d, dprime, eps)
    if not level1.good:
        return GoodnessDecision(good=False, witness=dict(level1.witness or {}, level=1))

    for flat in flats:
        j, x0, path = _configuration(flat, d, n)
        state: np.ndarray | None = basis[:, x0]
        for level, outcome in enumerate(path):
            _, state = _branch((stacked[level] @ state).reshape(d, dprime), outcome)
            if state is None:
                break  # dead branch: vacuously good
        if state is None:
            continue
        decision = is_good_for_vector(stacked[j - 1], state, d, dprime, eps)
        if not decision.good:
            witness = dict(decision.witness or {}, level=j, start=x0, path=list(path))
            # a witness settles the conjunction: the decision is exact
            return GoodnessDecision(good=False, witness=witness)
    coverage = 1.0 if total == 0 else len(flats) / total
    return GoodnessDecision(good=True, witness=None, coverage=coverage)
