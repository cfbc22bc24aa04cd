"""Coefficient generators for Poisson, Borel and Pascal power series and the
Hadamard (termwise) product with a normalized series.

The n-th coefficients (n >= 2) are

    Poisson(m):    m^(n-1) e^(-m) / (n-1)!
    Borel(s):      (s(n-1))^(n-2) e^(-s(n-1)) / (n-1)!
    Pascal(q, s):  C(n+s-2, s-1) q^(n-1) (1-q)^s

Each value is built by incremental floating-point products, switching to
log-space (lgamma) once n + s > 100 so large indices cannot overflow, and for
Poisson also once e^(-m) is below the smallest normal float (m above about
708.4), where the products would start from a subnormal or from 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from gtnbounds.series import TruncatedSeries, check_normalized

_LOG_SPACE_CUTOFF = 100


@dataclass(frozen=True)
class DistributionCoeffs:
    """Positive weights wp(n) for n = 2..max_n."""

    values: tuple[float, ...]

    @property
    def max_n(self) -> int:
        return len(self.values) + 1

    def wp(self, n: int) -> float:
        return self.values[n - 2]

    @property
    def wp2(self) -> float:
        return self.wp(2)

    @property
    def wp3(self) -> float:
        return self.wp(3)


def poisson_coeff(m: float, n: int) -> float:
    if not (math.isfinite(m) and m > 0):
        raise ValueError("Poisson parameter must be finite and > 0")
    if n < 2:
        raise ValueError("coefficients are defined for n >= 2")
    value = math.exp(-m)
    if n + 1 > _LOG_SPACE_CUTOFF or value < sys.float_info.min:
        return math.exp((n - 1) * math.log(m) - m - math.lgamma(n))
    for j in range(1, n):
        value *= m / j
    return value


def borel_coeff(sigma: float, n: int) -> float:
    if not 0.0 < sigma <= 1.0:
        raise ValueError("Borel parameter must lie in (0, 1]")
    if n < 2:
        raise ValueError("coefficients are defined for n >= 2")
    if n + 1 > _LOG_SPACE_CUTOFF:
        return math.exp(
            (n - 2) * math.log(sigma * (n - 1)) - sigma * (n - 1) - math.lgamma(n)
        )
    value = math.exp(-sigma * (n - 1))
    base = sigma * (n - 1)
    for j in range(1, n - 1):
        value *= base
        value /= j
    return value / (n - 1)


def pascal_coeff(q: float, s: int, n: int) -> float:
    if not 0.0 <= q < 1.0:
        raise ValueError("Pascal q must lie in [0, 1)")
    if not (isinstance(s, (int, np.integer)) and s >= 1):
        raise ValueError("Pascal s must be an integer >= 1")
    if n < 2:
        raise ValueError("coefficients are defined for n >= 2")
    if q == 0.0:
        return 0.0
    if n + s > _LOG_SPACE_CUTOFF:
        log_binom = math.lgamma(n + s - 1) - math.lgamma(s) - math.lgamma(n)
        return math.exp(log_binom + (n - 1) * math.log(q) + s * math.log1p(-q))
    return float(math.comb(n + s - 2, s - 1)) * q ** (n - 1) * (1.0 - q) ** s


def coefficients(kind: str, param: float, max_n: int, s: int = 1) -> DistributionCoeffs:
    """Build the weight table for n = 2..max_n."""
    if max_n < 3:
        raise ValueError("need coefficients at least through n = 3")
    if kind == "poisson":
        vals = tuple(poisson_coeff(param, n) for n in range(2, max_n + 1))
    elif kind == "borel":
        vals = tuple(borel_coeff(param, n) for n in range(2, max_n + 1))
    elif kind == "pascal":
        vals = tuple(pascal_coeff(param, s, n) for n in range(2, max_n + 1))
    else:
        raise ValueError(f"unknown distribution kind {kind!r}")
    return DistributionCoeffs(vals)


def convolve(f: TruncatedSeries, d: DistributionCoeffs) -> TruncatedSeries:
    """Termwise product: coefficient n becomes wp(n) * a_n for n >= 2, and
    f(0) = 0 and f'(0) = 1 are taken as exact."""
    check_normalized(f)
    if f.order > d.max_n:
        raise ValueError(
            f"series order {f.order} exceeds coefficient table (max n {d.max_n})"
        )
    out = f.coeffs * np.array((0.0, 0.0) + d.values[: f.order - 1])
    out[:2] = 0.0, 1.0
    return TruncatedSeries(out)
