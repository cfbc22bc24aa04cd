"""Verbatim evaluators for every printed bound formula.

Each function returns the formula exactly as printed; nothing is silently
corrected.  Where a printed statement is known to disagree with an
independently derived value, the evaluator exposes both (see the discrepancy
identifiers D1..D4 in :mod:`gtnbounds.verify`).

The one nuance is the piecewise (three-branch) bound for |a3 - mu*a2^2| with
real mu.  Its printed upper knot sits where the classical piecewise-linear
coefficient inequality is still in its flat middle regime, so the printed
third-branch expression is discontinuous there (it even goes negative just
above the knot, which is impossible for a modulus bound).  The verdict
therefore carries two numbers: ``value`` applies the classical inequality to
the derived argument (continuous across both printed knots, and identical to
the printed expressions everywhere except a window above the upper knot), and
``as_printed`` is the verbatim branch expression together with a
non-positivity flag.

Each ``max(x, 1.0)`` puts the computed ``x`` first so that a NaN stays NaN:
``max(1.0, nan)`` is 1.0, a wrong finite bound.  For the same reason a
piecewise verdict whose knots or ``aleph`` are NaN has NaN ``value`` and
``as_printed``: every comparison with a NaN is false, which would otherwise
read as the finite middle branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from gtnbounds.bazilevic import ClassParams
from gtnbounds.caratheodory import lemma1_bound


BRANCH_BELOW = "below-sigma1"
BRANCH_BETWEEN = "between"
BRANCH_ABOVE = "above-sigma2"


@dataclass(frozen=True)
class PiecewiseVerdict:
    value: float
    branch: str
    sigma1: float
    sigma2: float
    aleph: float
    as_printed: float
    printed_nonpositive: bool


def a2_bound(params: ClassParams) -> float:
    """|a2| <= 1/W."""
    return 1.0 / params.W


def a3_bound(params: ClassParams) -> float:
    """|a3| <= (1/L) max(1, |msq/W^2 + (1+vk)/2|)."""
    inner = params.msq / params.W**2 + (1.0 + params.varkappa) / 2.0
    return (1.0 / params.L) * max(abs(inner), 1.0)


# ---------------------------------------------------------------------------
# The five printed subclass bounds for |a3| (compared against a3_bound by the
# verify module; mismatches are reported under discrepancy id D1).

def a3_printed_subclass_kappa(kappa: float, varkappa: float) -> float:
    """vartheta = 0 family, parametrized by kappa."""
    inner = (kappa**2 + 8.0 * kappa + 3.0) / (2.0 * (1.0 + kappa) ** 2) + varkappa
    return max(abs(inner), 1.0) / (2.0 * (1.0 + 2.0 * kappa))


def a3_printed_subclass_starlike(varkappa: float) -> float:
    return 0.5 * max(abs(1.5 + varkappa), 1.0)


def a3_printed_subclass_convex(varkappa: float) -> float:
    return max(abs(0.5 + varkappa), 1.0) / 6.0


def a3_printed_subclass_theta(vartheta: float, varkappa: float) -> float:
    """kappa = 0 family, parametrized by vartheta."""
    inner = (vartheta**2 + vartheta - 2.0) / (1.0 + vartheta) ** 2 - 1.0 - varkappa
    return max(0.5 * abs(inner), 1.0) / (vartheta + 2.0)


def a3_printed_subclass_mixed(varkappa: float) -> float:
    """The vartheta = 1, kappa = 0 preset."""
    return max(0.5 * abs(1.0 + varkappa), 1.0) / 3.0


# ---------------------------------------------------------------------------
# Fekete-Szego functionals

def _piecewise(
    params: ClassParams, mu: float, wp2: float, wp3: float
) -> PiecewiseVerdict:
    L, W2, vk = params.L, params.W**2, params.varkappa
    msq2 = 2.0 * params.msq
    scale_knots = wp2 * wp2 / wp3
    sigma1 = scale_knots * ((vk - 1.0) * W2 + msq2) / (2.0 * L)
    sigma2 = scale_knots * (vk * W2 + msq2) / (2.0 * L)
    aleph = msq2 - 2.0 * mu * L * wp3 / (wp2 * wp2)
    outer = (1.0 + vk + aleph / W2) / (2.0 * L * wp3)
    mid = 1.0 / (L * wp3)
    if mu <= sigma1:
        branch, printed = BRANCH_BELOW, outer
        value = printed
    elif mu >= sigma2:
        branch, printed = BRANCH_ABOVE, -outer
        # correct application of the piecewise coefficient inequality:
        # v = (1 - vk - aleph/W2)/4, bound = lemma1(v)/(2 L wp3)
        v = 0.25 * (1.0 - vk - aleph / W2)
        value = lemma1_bound(v) / (2.0 * L * wp3)
    else:
        branch, printed = BRANCH_BETWEEN, mid
        value = printed
    if math.isnan(sigma1 + sigma2 + aleph):  # a NaN fails every comparison above
        value = printed = math.nan
    return PiecewiseVerdict(
        value=value,
        branch=branch,
        sigma1=sigma1,
        sigma2=sigma2,
        aleph=aleph,
        as_printed=printed,
        printed_nonpositive=printed < 0.0,
    )


def fs_real(params: ClassParams, mu: float) -> PiecewiseVerdict:
    """Three-branch bound for |a3 - mu a2^2| with real mu."""
    return _piecewise(params, float(mu), 1.0, 1.0)


def fs_complex(params: ClassParams, mu: complex) -> float:
    """(1/L) max(1, |1 + vk + (2 msq - 2 mu L)/W^2| / 2) for complex mu."""
    inner = 1.0 + params.varkappa + (2.0 * params.msq - 2.0 * mu * params.L) / params.W**2
    return (1.0 / params.L) * max(0.5 * abs(inner), 1.0)


def fs_complex_alternate(params: ClassParams) -> float:
    """The alternate prefactor 1/((vartheta+2)(1+2 kappa)) printed alongside
    the canonical 1/L form; the max factor is shared."""
    return 1.0 / ((params.vartheta + 2.0) * (1.0 + 2.0 * params.kappa))


# ---------------------------------------------------------------------------
# Inverse-function coefficients (f^{-1}(w) = w + d2 w^2 + d3 w^3 + ...,
# with d2 = -a2 and d3 = 2 a2^2 - a3)

def inverse_d2_bound(params: ClassParams) -> tuple[float, float]:
    """Printed |d2| <= 1/(2W) versus the oracle 1/W (d2 = -a2)."""
    return 1.0 / (2.0 * params.W), 1.0 / params.W


def inverse_d3_bound(params: ClassParams) -> tuple[float, float]:
    """The second printed inverse inequality (labeled d2 but bounding d3),
    with prefactor 1/(2L) as printed, versus the mu = 2 functional value
    (|d3| = |a3 - 2 a2^2|) which carries prefactor 1/L."""
    inner = (
        -(1.0 + params.varkappa) * params.W**2 - 2.0 * params.msq + 4.0 * params.L
    ) / (2.0 * params.W**2)
    printed = (1.0 / (2.0 * params.L)) * max(abs(inner), 1.0)
    return printed, fs_complex(params, 2.0)


def inverse_fs(params: ClassParams, hbar: complex) -> float:
    """Printed bound for |d3 - hbar d2^2|."""
    inner = (
        (1.0 + params.varkappa) * params.W**2
        + 2.0 * params.msq
        + 2.0 * params.L * (hbar - 2.0)
    ) / (2.0 * params.W**2)
    return (1.0 / params.L) * max(abs(inner), 1.0)


# ---------------------------------------------------------------------------
# Logarithmic coefficients (2 g1 = a2, 2 g2 = a3 - a2^2/2)

def log_coeff_bounds(params: ClassParams) -> tuple[float, float]:
    """Printed bounds (|g1| <= 1/(2W), |g2| <= ...); the g2 statement is the
    mu = 1/2 functional bound without the 1/2 factor that 2 g2 = a3 - a2^2/2
    implies (discrepancy D3)."""
    g1 = 1.0 / (2.0 * params.W)
    inner = 1.0 + params.varkappa + (2.0 * params.msq - params.L) / params.W**2
    g2 = (1.0 / params.L) * max(0.5 * abs(inner), 1.0)
    return g1, g2


def log_gamma2_oracle(params: ClassParams) -> float:
    """What the g2 bound should be given 2 g2 = a3 - a2^2/2."""
    return 0.5 * fs_complex(params, 0.5)


# ---------------------------------------------------------------------------
# Convolution (Hadamard-product) class bounds

def conv_fs_complex(params: ClassParams, mu: complex, wp2: float, wp3: float) -> float:
    """The printed convolution-class bound for complex mu, verbatim.

    At wp2 = wp3 = 1 this does NOT reduce to fs_complex: the printed
    prefactor is 2/(L wp3), the quadratic term enters with the opposite sign,
    and the mu multiplier mixes in (vartheta + 2).  That gap is discrepancy D4.
    """
    if wp2 <= 0 or wp3 <= 0:
        raise ValueError("wp2 and wp3 must be > 0")
    w2sq = (params.W * wp2) ** 2
    inner = (
        -1.0
        - params.varkappa
        + 2.0 * params.msq / w2sq
        + 2.0 * mu * (params.vartheta + 2.0) * (1.0 + 2.0 * params.kappa) * wp3 / w2sq
    )
    return (2.0 / (params.L * wp3)) * max(0.5 * abs(inner), 1.0)


def conv_fs_real(params: ClassParams, mu: float, wp2: float, wp3: float) -> PiecewiseVerdict:
    """Three-branch convolution-class bound; wp2 = wp3 = 1 coincides with
    fs_real branch for branch."""
    if wp2 <= 0 or wp3 <= 0:
        raise ValueError("wp2 and wp3 must be > 0")
    return _piecewise(params, float(mu), wp2, wp3)
