"""Truncated formal power series over complex double-precision coefficients.

A series is a dense coefficient vector ``c[0..N]`` for an explicit truncation
order ``N``, read through ``coeffs`` and ``order``.  Arithmetic is done by
the module's functions (``add``, ``scale``, ``mul``, ``div``, ...); the class
defines no operators.  Binary operations truncate to the smaller of the two
orders (composition chains naturally shrink order).  Instances are immutable:
the coefficient array is read-only, so they are safe to share across threads.
An operation adopts the array it computed without a copy.  Only the public
constructor copies, so mutating the caller's input afterwards does not change
the series.  ``check_normalized`` decides, for every module, whether a series
is a normalized f with f(0) = 0 and f'(0) = 1.
"""

from __future__ import annotations

import operator
from typing import Iterable

import numpy as np

#: tolerance for the "constant term is exactly 0 / exactly 1" preconditions;
#: inputs are constructed rather than measured, so this is deliberately tight.
UNIT_TOL = 1e-12


class TruncatedSeries:
    """Coefficients ``coeffs[k]`` of ``z**k`` for ``k = 0..order``."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[complex], order: int | None = None):
        c = np.array(coeffs, dtype=complex).reshape(-1)
        if c.size == 0:
            raise ValueError("a series needs at least the constant coefficient")
        if order is not None:
            if order < 0:
                raise ValueError("truncation order must be non-negative")
            padded = np.zeros(order + 1, dtype=complex)
            keep = min(order + 1, c.size)
            padded[:keep] = c[:keep]
            c = padded
        c.setflags(write=False)
        self._c = c

    @property
    def coeffs(self) -> np.ndarray:
        return self._c

    @property
    def order(self) -> int:
        return self._c.size - 1

    def __repr__(self) -> str:
        return f"TruncatedSeries({np.array2string(self._c, precision=6)})"


def check_normalized(f: TruncatedSeries) -> None:
    """Refuse f unless f(0) = 0 and f'(0) = 1, each to within 1e-9; a NaN
    fails, and so does an order-0 f, which has no f'(0).  Past it, callers
    take the two as exactly 0 and 1."""
    c = f.coeffs
    if not (c.size > 1 and abs(c[0]) <= 1e-9 and abs(c[1] - 1.0) <= 1e-9):
        raise ValueError("f must have f(0) = 0 and f'(0) = 1")


def _wrap(c: np.ndarray) -> TruncatedSeries:
    """Adopt ``c`` as a series without copying it.

    ``c`` must be a 1-D complex array that nothing else will write: one the
    caller just computed, or a view of a read-only one.  It is made read-only.
    """
    c.setflags(write=False)
    s = object.__new__(TruncatedSeries)
    s._c = c
    return s


def one(order: int) -> TruncatedSeries:
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    return _wrap(c)


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return _wrap(a.coeffs[: n + 1] + b.coeffs[: n + 1])


def scale(a: TruncatedSeries, s: complex) -> TruncatedSeries:
    return _wrap(a.coeffs * s)


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the smaller order."""
    n = min(a.order, b.order)
    full = np.convolve(a.coeffs[: n + 1], b.coeffs[: n + 1])
    return _wrap(full[: n + 1])


def div(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Long division; requires |b[0]| above the unit tolerance."""
    if abs(b.coeffs[0]) <= UNIT_TOL:
        raise ValueError("denominator constant term is (numerically) zero")
    n = min(a.order, b.order)
    ac = a.coeffs
    bc = b.coeffs
    q = np.zeros(n + 1, dtype=complex)
    b0 = bc[0]
    for k in range(n + 1):
        acc = ac[k]
        if k:
            acc = acc - np.dot(q[:k], bc[k:0:-1])
        q[k] = acc / b0
    return _wrap(q)


def exp_series(a: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term.

    Uses the first-order recurrence E' = a' E, which is numerically stable
    and costs O(N^2).
    """
    if abs(a.coeffs[0]) > UNIT_TOL:
        raise ValueError("exp needs a zero constant term")
    n = a.order
    ka = a.coeffs * np.arange(n + 1)
    e = np.zeros(n + 1, dtype=complex)
    e[0] = 1.0
    for m in range(1, n + 1):
        e[m] = np.dot(ka[1 : m + 1], e[m - 1 :: -1]) / m
    return _wrap(e)


def log_series(a: TruncatedSeries) -> TruncatedSeries:
    """log of a series with unit constant term (principal branch)."""
    if abs(a.coeffs[0] - 1.0) > UNIT_TOL:
        raise ValueError("log needs constant term 1")
    n = a.order
    ac = a.coeffs
    k = np.arange(n + 1)
    l = np.zeros(n + 1, dtype=complex)
    for m in range(1, n + 1):
        acc = ac[m]
        if m > 1:
            kl = l[1:m] * k[1:m]
            acc = acc - np.dot(kl, ac[m - 1 : 0 : -1]) / m
        l[m] = acc
    return _wrap(l)


def pow_real(a: TruncatedSeries, e: float) -> TruncatedSeries:
    """a**e for real e via exp(e * log a); needs a unit constant term."""
    if abs(a.coeffs[0] - 1.0) > UNIT_TOL:
        raise ValueError("fractional power needs constant term 1")
    if e == 0:
        return one(a.order)
    return exp_series(scale(log_series(a), e))


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer(inner(z)); the inner series must vanish at 0.

    Horner evaluation truncated at the smaller order n: outer[k] for k > n
    cannot reach order <= n because inner vanishes at 0.
    """
    if abs(inner.coeffs[0]) > UNIT_TOL:
        raise ValueError("inner series must have zero constant term")
    n = min(outer.order, inner.order)
    oc, ic = outer.coeffs, inner.coeffs[: n + 1]
    r = np.zeros(n + 1, dtype=complex)
    r[0] = oc[n]
    for k in range(n - 1, -1, -1):
        r = np.convolve(r, ic)[: n + 1]
        r[0] += oc[k]
    return _wrap(r)


def revert(a: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse: compose(a, revert(a)) = z up to the order.

    Lagrange inversion: b[m] = [z^(m-1)] (z/a)^m / m, with z/a formed by the
    reciprocal recurrence h[k] = -(a[k+1] h[0] + ... + a[2] h[k-1]) / a[1] on
    Python complexes, and its powers by running truncated products.  The
    recurrence costs O(N^2) interpreter steps: it beats ``div``, one
    ``np.dot`` per coefficient, up to about order 30, which covers the
    orders of class members, and is slower past it.
    """
    ac = a.coeffs.tolist()
    if len(ac) < 2 or abs(ac[0]) > UNIT_TOL or abs(ac[1]) <= UNIT_TOL:
        raise ValueError("need c0 = 0 and c1 != 0 for a compositional inverse")
    n = a.order
    a1 = ac[1]
    h = [1 / a1]                                      # z/a
    for k in range(1, n):
        h.append(-sum(map(operator.mul, h, ac[k + 1 : 1 : -1])) / a1)
    b = [0j, h[0]]
    p = h = np.array(h)
    for m in range(2, n + 1):
        p = np.convolve(p, h)[:n]   # (z/a)^m
        b.append(p[m - 1] / m)
    return _wrap(np.array(b, dtype=complex))


def derive(a: TruncatedSeries) -> TruncatedSeries:
    """Termwise d/dz; drops the top coefficient (order N -> N-1)."""
    if a.order == 0:
        return TruncatedSeries([0.0])
    return _wrap(a.coeffs[1:] * np.arange(1, a.order + 1))


#: the 256 equispaced points of |z| = 0.99 that ``boundary_max`` samples
_CIRCLE = 0.99 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False))
_CIRCLE.setflags(write=False)


#: ``_POWERS[j, k] = _CIRCLE[k]**j`` for j up to the highest order
#: ``boundary_max`` has been given.  A longer series replaces it with a taller
#: table; no table is written after it is built, so a call that read one keeps
#: a whole one.
_POWERS = np.ones((1, _CIRCLE.size), dtype=complex)
_POWERS.setflags(write=False)


def boundary_max(a: TruncatedSeries) -> float:
    """Max modulus over the 256 equispaced samples of the circle |z| = 0.99.

    The samples are one vector-matrix product of the coefficients with the
    table of circle powers.  They agree with Horner's rule to rounding (2.6e-15
    relative at most on random series of order up to 80), not bit for bit.
    """
    global _POWERS
    c = a.coeffs
    p = _POWERS
    if p.shape[0] < c.size:
        p = _CIRCLE ** np.arange(c.size)[:, None]
        p.setflags(write=False)
        _POWERS = p
    return float(np.abs(c @ p[: c.size]).max())
