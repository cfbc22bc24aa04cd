"""Generalized telephone numbers and the characteristic series exp(z + k*z^2/2).

The sequence T_k(n) obeys T_k(0) = T_k(1) = 1 and, for n >= 2,

    T_k(n) = T_k(n-1) + k*(n-1)*T_k(n-2),

and its exponential generating function is exp(x + k*x^2/2).  The recurrence
is computed exactly, in integers scaled by powers of k's denominator
(factorials overflow doubles quickly).  The tests check it against the
floating-point generating-function route, n! times coefficient n of
``x_series``, which the exact values make decisive.

k = 1 gives the classical involution-counting sequence 1, 1, 2, 4, 10, 26, ...
The classical interpretation assumes k >= 1; the domain is widened to k >= 0
here so k = 0 degenerates to exp(z).
"""

from __future__ import annotations

from fractions import Fraction

from gtnbounds.series import TruncatedSeries, exp_series


def gtn_sequence(varkappa: Fraction | int | float | str, max_n: int) -> list[Fraction]:
    """Values for indices 0..max_n, computed by the recurrence."""
    if max_n < 0:
        raise ValueError("sequence index must be >= 0")
    k = Fraction(varkappa)
    if k < 0:
        raise ValueError("the weight parameter must be >= 0")
    # With k = p/q, N(n) = T(n) q^(n//2) is an integer:
    # N(n) = q N(n-1) + p (n-1) N(n-2) for even n, N(n-1) + p (n-1) N(n-2) for odd n.
    p, q = k.numerator, k.denominator
    values = [Fraction(1), Fraction(1)]
    prev, cur, power = 1, 1, 1  # N(n-2), N(n-1), q^((n-1)//2)
    for n in range(2, max_n + 1):
        if n % 2:
            prev, cur = cur, cur + p * (n - 1) * prev
        else:
            prev, cur = cur, q * cur + p * (n - 1) * prev
            power *= q
        values.append(Fraction(cur, power))
    return values[: max_n + 1]


def x_series(varkappa: float, order: int) -> TruncatedSeries:
    """Taylor series of exp(z + varkappa*z^2/2) to the given order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if varkappa < 0:
        raise ValueError("the weight parameter must be >= 0")
    arg = TruncatedSeries([0.0, 1.0, varkappa / 2.0], order=order)
    return exp_series(arg)
