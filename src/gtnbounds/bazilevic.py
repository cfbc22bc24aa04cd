"""Mixed Bazilevic-type class functional, membership machinery, and the
independent coefficient-relation oracle.

For a normalized analytic f(z) = z + a2 z^2 + ... the class functional is

    W(f) = [ zf'/(f^{1-k} z^k) + zf''/f' + (k-1)(zf'/f - 1) ]^t
           * [ zf'/(f^{1-k} z^k) ]^{1-t}

with exponents t = vartheta and weight k = kappa; membership in the class
means W(f) is subordinate to exp(z + varkappa*z^2/2).  Both bracket bases
have constant term 1 for normalized f, so the fractional powers use the
principal branch.

Writing W(f) = 1 + b1 z + b2 z^2 + ..., the grading a_n -> t^{n-1} a_n forces

    b1 = A2 * a2          b2 = A3 * a3 + Aq * a2^2

for constants depending only on (vartheta, kappa).  ``derive_relation``
recovers (A2, A3, Aq) numerically from small perturbations of f = z; those
oracle constants are exact up to rounding because the dependence is exactly
linear/quadratic.

Coefficient n of W(f) depends only on a2..a_{n+1}, and a_{n+1} enters it
linearly with multiplier (n + kappa)(1 + n*vartheta): it adds
(n + kappa) a_{n+1} z^n to zf'/(f^{1-k} z^k) and (n + kappa)(n + 1) a_{n+1} z^n
to the first bracket, and the powers combine these as
t(n + kappa)(n + 1) + (1 - t)(n + kappa).  At n = 1 and 2 the multiplier is
A2 = (1+t)(1+k) and A3 = (1+2t)(2+k).  ``solve_from_schwarz`` divides by it to
build class members order by order.

Two derivations of W(f) are kept.  The series route, ``w_functional``, takes
the product bracket^t * base^{1-t} of two ``pow_real`` powers; it is the
reference that ``derive_relation`` and the tests read.  Report bytes depend on
the last bits ``derive_relation`` reads from it (the scan's witness is the
exact maximum, so rounding noise picks it among tied grid points).  The
online route, ``_w_recurrence``, serves the solver and the witness.  With
B = zf'/(f^{1-k} z^k), log B = log f' + (k-1) log(f/z); as zf''/f' =
z(log f')' and zf'/f - 1 = z(log(f/z))', the first bracket is B + z(log B)',
so log W(f) = t log(B + z(log B)') + (1-t) log B.  Online log/exp
recurrences give coefficient n of log(f/z), log f', B, the bracket's log and
the w with log W(f) = log X(w) = w + varkappa w^2/2 from lower ones and
a_{n+1}.  Neither W nor X is formed: ``solve_from_schwarz`` chooses each
a_{n+1} so that this w is the given one, and ``membership_witness`` feeds in
f's own coefficients and reads w off.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from gtnbounds import series as ps
from gtnbounds.series import TruncatedSeries


@dataclass(frozen=True)
class ClassParams:
    """Class parameters (vartheta, kappa) plus the subordination weight
    varkappa; the derived constants are recomputed on access."""

    vartheta: float
    kappa: float
    varkappa: float

    def __post_init__(self):
        values = (self.vartheta, self.kappa, self.varkappa)
        if not all(math.isfinite(x) for x in values):
            raise ValueError("vartheta, kappa and varkappa must all be finite")
        if min(values) < 0:
            raise ValueError("vartheta, kappa and varkappa must all be >= 0")

    @property
    def msq(self) -> float:
        """The quadratic combination M*kappa^2 + S*kappa + Q, with
        M = t^2 - t + 1, S = 2t^2 - 4t + 1 and Q = t^2 - 7t - 2 at t = vartheta."""
        t, k = self.vartheta, self.kappa
        return ((t * t - t + 1.0) * k * k + (2.0 * t * t - 4.0 * t + 1.0) * k
                + (t * t - 7.0 * t - 2.0))

    @property
    def W(self) -> float:
        return (1.0 + self.vartheta) * (1.0 + self.kappa)

    @property
    def L(self) -> float:
        return (1.0 + 2.0 * self.vartheta) * (1.0 + 2.0 * self.kappa)


@dataclass(frozen=True)
class CoefficientRelation:
    """b1 = linear_a2 * a2 and b2 = linear_a3 * a3 + quad_a2 * a2^2."""

    linear_a2: float
    linear_a3: float
    quad_a2: float

    def __post_init__(self):
        if self.linear_a2 <= 0 or self.linear_a3 <= 0:
            raise ValueError("the linear multipliers must be positive")


def _check_normalized(f: TruncatedSeries) -> None:
    """Order at least 3, and f normalized by ``series.check_normalized``."""
    if f.order < 3:
        raise ValueError("need at least order 3 to form the functional")
    ps.check_normalized(f)


def w_functional(f: TruncatedSeries, params: ClassParams) -> TruncatedSeries:
    """Evaluate the class functional as a series of order f.order - 1, with
    f(0) = 0 and f'(0) = 1 taken as exact."""
    _check_normalized(f)
    n = f.order - 1
    c = f.coeffs.copy()
    c[1] = 1.0                                            # f(0) is never read
    f_over_z = TruncatedSeries(c[1:])                     # f/z, constant 1
    fp = ps.derive(TruncatedSeries(c))                    # f'
    base = ps.mul(fp, ps.pow_real(f_over_z, params.kappa - 1.0))  # zf'/(f^{1-k} z^k)
    u1 = ps.add(ps.div(fp, f_over_z), ps.scale(ps.one(n), -1.0))  # zf'/f - 1
    zfpp = TruncatedSeries(np.concatenate(([0.0], ps.derive(fp).coeffs)))  # z f''
    ratio = ps.div(zfpp, fp)                              # zf''/f'
    bracket = ps.add(ps.add(base, ratio), ps.scale(u1, params.kappa - 1.0))
    return ps.mul(
        ps.pow_real(bracket, params.vartheta),
        ps.pow_real(base, 1.0 - params.vartheta),
    )


def derive_relation(params: ClassParams) -> CoefficientRelation:
    """Recover the true (linear_a2, linear_a3, quad_a2) numerically.

    The grading argument makes b1 exactly linear in a2, and b2 exactly
    linear in a3 plus quadratic in a2, so one small-parameter probe of each
    is exact up to rounding: f = z + e z^2 gives A2 and Aq, and f = z + e z^3
    gives A3, at e = 1e-3.

    The probes read only b1 and b2, which depend on a2 and a3 alone, so the
    functional is evaluated at order 2 (f at order 3): the lower coefficients
    of W(f) do not depend on the truncation order.

    A second step would add nothing: by the grading, every coefficient that
    a probe forms on the way to W(f) is a fixed power of its step times a
    number that does not depend on the step, so doubling the step scales
    each one by an exact power of two and gives the same estimates bit for
    bit.
    """
    e = 1e-3
    w_a2 = w_functional(TruncatedSeries([0.0, 1.0, e, 0.0]), params).coeffs
    w_a3 = w_functional(TruncatedSeries([0.0, 1.0, 0.0, e]), params).coeffs
    return CoefficientRelation(w_a2[1].real / e, w_a3[2].real / e, w_a2[2].real / (e * e))


def _w_recurrence(params: ClassParams, order: int, next_coeff) -> tuple[list, list]:
    """Coefficients 0..order of f and 0..order-1 of w, where
    log W(f) = w + varkappa w^2/2, one at a time.

    Step n forms coefficient n of each series below with a_{n+1} = 0, from
    lower coefficients only; a_{n+1} = next_coeff(n, rest, slope), where rest
    is coefficient n of w at a_{n+1} = 0, and each coefficient n then gains
    its own slope times a_{n+1}.  a_{n+1} reaches log W, and so w_n, through
    W's coefficient n alone, so the slope is W's.  Any numbers that support
    + - * / with each other and with ints work (complex, numpy arrays, mpmath
    intervals, sympy expressions in a symbol, Fractions), and ``params`` is
    read only by attribute.  At step 1 every sum is empty and every rest is
    the int 0, so nothing is divided there and exact entries stay exact.
    """
    t, k, vk = params.vartheta, params.kappa, params.varkappa
    fz, fp, b, br = ([1] for _ in range(4))  # f/z, f', B, bracket
    # j x_j for x = log(f/z), log f', log B, log bracket; then w
    k1, k2, kb, k3, w = ([0] for _ in range(5))
    for n in range(1, order):
        if n == 1:
            r1 = r2 = rlb = rb = rbr = r3 = rw = 0
        else:
            # sum_{j<n} j x_j y_{n-j}: what coefficient n of y = exp(x), or
            # of x = log y (negated), takes from the lower coefficients
            q1 = q2 = qb = q3 = qw = 0
            for j in range(1, n):
                m = n - j
                q1 += k1[j] * fz[m]
                q2 += k2[j] * fp[m]
                qb += kb[j] * b[m]
                q3 += k3[j] * br[m]
                qw += w[j] * w[m]
            r1 = -q1 / n
            r2 = -q2 / n
            rlb = r2 + (k - 1) * r1
            rb = rlb + qb / n
            rbr = rb + n * rlb
            r3 = rbr - q3 / n
            rw = t * r3 + (1 - t) * rlb - (vk / 2) * qw
        s1 = n + k
        s2 = s1 * (n + 1)
        slope = s1 * (1 + n * t)
        x = next_coeff(n, rw, slope)
        # coefficient n of each series is its rest plus its slope (1, n + 1,
        # s1, s2 or slope) times x.  f/z adds its rest 0, which turns -0.0
        # into 0.0, and x keeps its slope 1, whose imaginary 0 times an
        # infinite part of x is a NaN
        x1, x2, x3, x4 = 1 * x, (n + 1) * x, s1 * x, s2 * x
        fz.append(0 + x1)
        k1.append(n * (r1 + x1))
        fp.append(x2)
        k2.append(n * (r2 + x2))
        kb.append(n * (rlb + x3))
        b.append(rb + x3)
        br.append(rbr + x4)
        k3.append(n * (r3 + x4))
        w.append(rw + slope * x)
    return [0] + fz, w


def solve_from_schwarz(w: TruncatedSeries, params: ClassParams, order: int) -> TruncatedSeries:
    """Build f with W(f) = X(w(z)) coefficientwise, order by order.

    It matches log W(f) to log X(w) = w + varkappa w^2/2, which is the same
    condition: exp and log are triangular bijections between series with
    constant terms 1 and 0.  a_{n+1} enters the w_n that ``_w_recurrence``
    reads from log W(f) with slope (n + kappa)(1 + n*vartheta) >= 1, so it is
    the given w_n less that one at a_{n+1} = 0, over the slope.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    wc = w.coeffs.tolist()
    if not all(map(cmath.isfinite, wc)):
        raise ValueError("w must have finite coefficients")
    if abs(wc[0]) > 1e-9:
        raise ValueError("w(0) must be 0")
    wmax = ps.boundary_max(w)
    if wmax >= 1.0:
        raise ValueError(f"|w| reaches {wmax:.6f} >= 1 on the sampling circle")
    wc += [0] * order
    fc, _ = _w_recurrence(params, order, lambda n, rest, slope: (wc[n] - rest) / slope)
    return TruncatedSeries(fc)


def membership_witness(f: TruncatedSeries, params: ClassParams) -> tuple[TruncatedSeries, float]:
    """Recover the driving series w with X(w) = W(f) and report its maximum
    modulus over 256 samples of |z| = 0.99; callers compare that sup-norm
    against 1 to decide membership.

    w is the one ``_w_recurrence`` reads from log W(f) = w + varkappa w^2/2
    when fed f's own coefficients, with f(0) = 0 and f'(0) = 1 taken as
    exact.  Like the solver, it forms the logs of both bracket bases at every
    vartheta, so one that overflows makes the witness undefined even where
    its weight is 0.
    """
    _check_normalized(f)
    a = f.coeffs.tolist()
    _, wc = _w_recurrence(params, f.order, lambda n, rest, slope: a[n + 1])
    if not all(map(cmath.isfinite, wc)):
        raise ValueError("witness recursion produced non-finite coefficients")
    witness = TruncatedSeries(wc)
    return witness, ps.boundary_max(witness)
