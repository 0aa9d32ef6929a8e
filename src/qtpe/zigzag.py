"""Zigzag-style ensemble products and their closed-form spectral bounds.

Three constructions: the two-ensemble zigzag product, its derandomised
variant, and the generalised product interleaving k inner ensembles with a
control unitary. Each constructor only declares its stages (the lifted
1 (x) V factor sets, and the control unitary as a controlled stage of g's
blocks, except in the derandomised middle factors), involution and label;
ensemble.product_ensemble forms the members from the stages, guards the
degree, and attaches the stages, so the moment operator is applied stage by
stage. Bound calculators evaluate the corresponding closed-form guarantees,
flagging (never refusing) out-of-hypothesis parameters, since desk-scale
experiments intentionally run outside the guaranteed regimes. The generalised
product's guarantee also needs its inner dimension d' to reach a threshold
(bound_genzigzag), which no bound evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import Stage, UnitaryEnsemble, check_product_degree, product_ensemble
from .errors import PreconditionError


def _control_stage(g: UnitaryEnsemble) -> Stage:
    """Gdot as a controlled stage: g's blocks, relabelled by g's involution or the identity map."""
    return Stage(g.unitaries, relabel=g.involution or range(g.size))


def g_dot(g: UnitaryEnsemble) -> np.ndarray:
    """Control unitary on C^(D*d): e_a (x) e_b -> (U_b e_a) (x) e_{-b}.

    Uses g's involution for the relabelling, or the identity map when none is
    attached. For an explicitly Hermitian g the result is an involution.
    """
    return _control_stage(g).factors()[0]


def _inner_degree(g: UnitaryEnsemble, h: UnitaryEnsemble, stages: int) -> int:
    """The degree of h, after the checks a product of `stages` h-stages with g
    makes before Gdot is formed: dim(h) = degree(g), and check_product_degree."""
    if h.dim != g.size:
        raise PreconditionError(f"inner dimension must equal outer degree: dim(h) = {h.dim}, degree(g) = {g.size}")
    check_product_degree([h.size] * stages, g.dim * g.size)
    return h.size


def zigzag(g: UnitaryEnsemble, h: UnitaryEnsemble) -> UnitaryEnsemble:
    """Zigzag product: the s^2 unitaries (1 (x) V_i) Gdot (1 (x) V_j) on C^(D*d).

    Members are ordered row-major in (i, j). When both inputs are explicitly
    Hermitian the output carries the involution -(i,j) = (-j,-i). The stages
    are (lifted h, Gdot, lifted h).
    """
    s = _inner_degree(g, h, 2)
    involution = None
    if g.involution is not None and h.involution is not None:
        hinv = h.involution
        involution = tuple(hinv[j] * s + hinv[i] for i in range(s) for j in range(s))
    lifted = Stage(h.unitaries, g.dim)
    return product_ensemble([lifted, _control_stage(g), lifted], involution, f"zigzag({g.label},{h.label})")


def zigzag_derandomised(g: UnitaryEnsemble, h: UnitaryEnsemble) -> UnitaryEnsemble:
    """Derandomised zigzag: s^3 members (1xV_i)(1xV_j†) Gdot (1xV_j)(1xV_k).

    Defined for explicitly Hermitian inputs only. The inner block
    (1xV_j†) Gdot (1xV_j) is self-adjoint, so the output is closed under
    adjoints via -(i,j,k) = (-k, j, -i), attached as its involution. The
    stages are (lifted h, the s middle factors (1xV_j†) Gdot (1xV_j), lifted h).
    """
    if g.involution is None or h.involution is None:
        raise PreconditionError("derandomised zigzag needs explicitly Hermitian inputs (both involutions)")
    s = _inner_degree(g, h, 3)  # before the s middle factors are formed
    hinv = h.involution
    involution = tuple(
        (hinv[k] * s + j) * s + hinv[i] for i in range(s) for j in range(s) for k in range(s)
    )
    inner = Stage(h.unitaries, g.dim)
    lifted = inner.factors()
    middle = Stage(np.matmul(lifted[list(hinv)] @ g_dot(g), lifted))
    return product_ensemble([inner, middle, inner], involution, f"zigzag'({g.label},{h.label})")


def g_dot_general(g: UnitaryEnsemble, d: int, dprime: int) -> np.ndarray:
    """Control unitary on C^(D*d*d'): e_a (x) e_b (x) e_b' -> (U_b e_a) (x) e_b (x) e_b'.

    Acts only through the middle index: it is g_dot with the identity
    relabelling, tensored with 1_{d'}.
    """
    return _general_control_stage(g, d, dprime).factors()[0]


def _general_control_stage(g: UnitaryEnsemble, d: int, dprime: int) -> Stage:
    """g_dot_general as a controlled stage on the joint index (b, b') of
    C^d (x) C^d': block (b, b') is U_b, each of g's blocks repeated d' times,
    and the relabelling is the identity."""
    if g.size != d:
        raise PreconditionError(f"outer degree {g.size} must equal d = {d}")
    if dprime < 1:
        raise PreconditionError(f"d' must be >= 1, got {dprime}")
    return Stage(np.repeat(g.unitaries, dprime, axis=0), relabel=range(d * dprime))


def zigzag_generalised(g: UnitaryEnsemble, h_list: list[UnitaryEnsemble], d: int, dprime: int) -> UnitaryEnsemble:
    """Generalised zigzag: s^k members interleaving k inner factors with k-1
    copies of the control unitary.

    Word for index tuple (i_k, ..., i_1): (1 x V_{i_k}(k)) Gdot ... Gdot
    (1 x V_{i_1}(1)) -- no leading or trailing control factor, so k = 1 yields
    the lifted inner members alone. Output order is lexicographic in
    (i_k, ..., i_1). No involution: the inner ensembles are unrelated, so the
    product is in general not Hermitian. The stages alternate lifted inner
    ensembles (H_k first) with Gdot.
    """
    k = len(h_list)
    if k < 1:
        raise PreconditionError("need at least one inner ensemble")
    sizes = {h.size for h in h_list}
    dims = {h.dim for h in h_list}
    if len(sizes) != 1:
        raise PreconditionError(f"inner ensembles must share one degree, got {sorted(sizes)}")
    if dims != {d * dprime}:
        raise PreconditionError(f"inner dimensions must all equal d*d' = {d*dprime}, got {sorted(dims)}")
    check_product_degree((h.size for h in h_list), g.dim * d * dprime)  # before Gdot is formed
    dot = _general_control_stage(g, d, dprime)
    stages = [Stage(h_list[0].unitaries, g.dim)]
    for h in h_list[1:]:
        stages += [dot, Stage(h.unitaries, g.dim)]
    labels = ",".join(h.label for h in h_list)
    return product_ensemble(stages, None, f"genzigzag({g.label};{labels})")


@dataclass(frozen=True)
class BoundValue:
    """A closed-form bound evaluation plus any hypothesis warnings."""

    value: float
    flags: tuple[str, ...] = ()

    @property
    def vacuous(self) -> bool:
        return self.value >= 1.0


def _closeness_term(t: int, d: float) -> float:
    if t < 1 or d < 1:
        raise PreconditionError(f"need t >= 1 and a dimension >= 1, got t={t}, d={d}")
    return (t * (t - 1) / d) ** 0.25


def _hypothesis_flags(t: int, d: int) -> tuple[str, ...]:
    return () if d >= 10 * t * t else (f"hypothesis d >= 10 t^2 violated (d={d}, t={t})",)


def _mus(l1: float, l2: float, t: int, d: int) -> tuple[float, float, float]:
    """mu_1 and mu_2 of the improved and derandomised bounds, and (t(t-1)/d)^(1/4)."""
    eps4 = _closeness_term(t, d)
    return l1 + 9.0 * math.sqrt(t * (t - 1) / d), l2 + 2.0 * eps4, eps4


def bound_zigzag(l1: float, l2: float, t: int, d: int) -> BoundValue:
    """lambda_1 + lambda_2 + lambda_2^2 + 24 (t(t-1)/d)^(1/4)."""
    return BoundValue(l1 + l2 + l2 * l2 + 24.0 * _closeness_term(t, d), _hypothesis_flags(t, d))


def bound_zigzag_improved(l1: float, l2: float, t: int, d: int, variant: str = "as-printed") -> BoundValue:
    """Improved two-ensemble bound; the inner-root term differs between the
    printed form and the classical squared form, so both are exposed."""
    if variant not in ("as-printed", "squared"):
        raise PreconditionError(f"variant must be 'as-printed' or 'squared', got {variant!r}")
    mu1, mu2, eps4 = _mus(l1, l2, t, d)
    inner = (1.0 - mu2**2) * mu1**2 if variant == "as-printed" else ((1.0 - mu2**2) * mu1) ** 2
    value = 0.5 * (1.0 - mu2**2) * mu1 + 0.5 * math.sqrt(max(inner + 4.0 * mu2**2, 0.0)) + 2.0 * eps4
    return BoundValue(value, _hypothesis_flags(t, d))


def bound_zigzag_derandomised(l1: float, l2: float, t: int, d: int) -> BoundValue:
    """mu_1 + 2 mu_2^2 + 2 (t(t-1)/d)^(1/4) with the improved-bound mu's."""
    mu1, mu2, eps4 = _mus(l1, l2, t, d)
    return BoundValue(mu1 + 2.0 * mu2**2 + 2.0 * eps4, _hypothesis_flags(t, d))


def bound_genzigzag(l1: float, l2: float, k: int, t: int, d: int, dprime: int, eps: float) -> BoundValue:
    """8(lambda_1 + 7 eps) + lambda_2^(k-1) + lambda_2^k + 47 (t(t-1)/(dd'))^(1/4).

    The guarantee also needs d' >= 30 ln(s)(ln(s)+ln(d)) d^(2k+1) eps^-2,
    natural logs, s the degree of the inner ensembles. The bound does not
    evaluate that threshold, so a large k overflows only through
    lambda_2^k, when lambda_2 > 1.
    k < 1, eps <= 0 and d or d' < 1 are refused.
    """
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    flags: list[str] = []
    if k < 2:
        flags.append(f"k={k} < 2 makes the lambda_2^(k-1) term equal 1 (vacuous)")
    if d * dprime < 10 * t * t:
        flags.append(f"hypothesis dd' >= 10 t^2 violated (dd'={d*dprime}, t={t})")
    if not 0.0 < eps < 1e-2:
        flags.append(f"hypothesis 0 < eps < 1e-2 violated (eps={eps})")
    value = 8.0 * (l1 + 7.0 * eps) + l2 ** (k - 1) + l2**k + 47.0 * _closeness_term(t, d * dprime)
    # checked after the value, so an overflow or a refused t keeps its own message
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    if min(d, dprime) < 1:  # _closeness_term refused dd' < 1, so both are negative here
        raise PreconditionError(f"d and d' must be >= 1, got d={d}, d'={dprime}")
    return BoundValue(value, tuple(flags))
