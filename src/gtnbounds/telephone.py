"""Generalized telephone numbers and the characteristic series exp(z + k*z^2/2).

The sequence T_k(n) obeys T_k(0) = T_k(1) = 1 and, for n >= 2,

    T_k(n) = T_k(n-1) + k*(n-1)*T_k(n-2),

and its exponential generating function is exp(x + k*x^2/2).  The recurrence
is computed in exact rational arithmetic so the cross-check against the
floating-point generating-function route is decisive (factorials overflow
doubles quickly).

k = 1 gives the classical involution-counting sequence 1, 1, 2, 4, 10, 26, ...
The classical interpretation assumes k >= 1; the domain is widened to k >= 0
here so k = 0 degenerates to exp(z).
"""

from __future__ import annotations

import math
from fractions import Fraction

from gtnbounds.series import TruncatedSeries, exp_series


def gtn_sequence(varkappa: Fraction | int | float | str, max_n: int) -> list[Fraction]:
    """Values for indices 0..max_n, computed by the recurrence."""
    if max_n < 0:
        raise ValueError("sequence index must be >= 0")
    k = Fraction(varkappa)
    if k < 0:
        raise ValueError("the weight parameter must be >= 0")
    values = [Fraction(1), Fraction(1)]
    for n in range(2, max_n + 1):
        values.append(values[n - 1] + k * (n - 1) * values[n - 2])
    return values[: max_n + 1]


def x_series(varkappa: float, order: int) -> TruncatedSeries:
    """Taylor series of exp(z + varkappa*z^2/2) to the given order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if varkappa < 0:
        raise ValueError("the weight parameter must be >= 0")
    arg = TruncatedSeries([0.0, 1.0, varkappa / 2.0], order=order)
    return exp_series(arg)


def gtn_via_egf(varkappa: float, n: int) -> float:
    """n! times the n-th Taylor coefficient of the generating function."""
    if n < 0:
        raise ValueError("sequence index must be >= 0")
    return float(math.factorial(n) * x_series(float(varkappa), n).coeffs[n].real)
