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
recurrences in plain complex arithmetic give coefficient n of log(f/z),
log f', B, the bracket's log and log W from lower ones and a_{n+1}.
Neither W nor X is formed: ``solve_from_schwarz`` chooses each a_{n+1} so
that log W(f) = log X(w) = w + varkappa w^2/2, and ``membership_witness``
feeds in f's own coefficients and solves that quadratic for w.

``printed_relation`` returns the two printed variants of the
same constants, which do not always agree with the oracle (measuring that gap
is the point of this package).
"""

from __future__ import annotations

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
    def M(self) -> float:
        t = self.vartheta
        return t * t - t + 1.0

    @property
    def S(self) -> float:
        t = self.vartheta
        return 2.0 * t * t - 4.0 * t + 1.0

    @property
    def Q(self) -> float:
        t = self.vartheta
        return t * t - 7.0 * t - 2.0

    @property
    def msq(self) -> float:
        """The quadratic combination M*kappa^2 + S*kappa + Q."""
        k = self.kappa
        return self.M * k * k + self.S * k + self.Q

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
    """Order at least 3, f(0) = 0 and f'(0) = 1, each to within 1e-9."""
    if f.order < 3:
        raise ValueError("need at least order 3 to form the functional")
    if not (abs(f.coeffs[0]) <= 1e-9 and abs(f.coeffs[1] - 1.0) <= 1e-9):  # NaN fails
        raise ValueError("f must have f(0) = 0 and f'(0) = 1")


def w_functional(f: TruncatedSeries, params: ClassParams) -> TruncatedSeries:
    """Evaluate the class functional as a series of order f.order - 1."""
    _check_normalized(f)
    n = f.order - 1
    f_over_z = TruncatedSeries(f.coeffs[1:])              # f/z, constant 1
    fp = ps.derive(f)                                     # f'
    base = ps.mul(fp, ps.pow_real(f_over_z, params.kappa - 1.0))  # zf'/(f^{1-k} z^k)
    u1 = ps.add(ps.div(fp, f_over_z), ps.scale(ps.one(n), -1.0))  # zf'/f - 1
    zfpp = TruncatedSeries(np.concatenate(([0.0], ps.derive(fp).coeffs)))  # z f''
    ratio = ps.div(ps.truncate(zfpp, n), fp)              # zf''/f'
    bracket = ps.add(ps.add(base, ratio), ps.scale(u1, params.kappa - 1.0))
    if abs(base.coeffs[0] - 1.0) > 1e-9 or abs(bracket.coeffs[0] - 1.0) > 1e-9:
        raise ValueError("bracket base lost its unit constant term")
    return ps.mul(
        ps.pow_real(bracket, params.vartheta),
        ps.pow_real(base, 1.0 - params.vartheta),
    )


def _b_coeffs(params: ClassParams, extra: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of W(f) for f = z + sum(extra[j] z^(j+2))."""
    c = np.zeros(order + 2, dtype=complex)
    c[1] = 1.0
    c[2 : 2 + extra.size] = extra
    return w_functional(TruncatedSeries(c), params).coeffs


#: the two probe step sizes of ``derive_relation``
PROBE_STEPS = (1e-3, 2e-3)


def derive_relation(params: ClassParams) -> CoefficientRelation:
    """Recover the true (linear_a2, linear_a3, quad_a2) numerically.

    The grading argument makes b1 exactly linear in a2, and b2 exactly
    linear in a3 plus quadratic in a2, so single small-parameter probes are
    exact up to rounding; two step sizes plus Richardson extrapolation guard
    against an implementation that broke that exactness.

    The probes read only b1 and b2, which depend on a2 and a3 alone, so the
    functional is evaluated at order 2 (f at order 3): the lower coefficients
    of W(f) do not depend on the truncation order.
    """
    order = 2
    ests = []
    for e in PROBE_STEPS:
        w_a2 = _b_coeffs(params, np.array([e, 0.0]), order)
        w_a3 = _b_coeffs(params, np.array([0.0, e]), order)
        ests.append(
            (
                w_a2[1].real / e,
                w_a3[2].real / e,
                w_a2[2].real / (e * e),
            )
        )
    out = []
    for i in range(3):
        e1, e2 = ests[0][i], ests[1][i]
        if abs(e1 - e2) > 1e-6:
            raise ValueError(f"relation estimates disagree: {e1} vs {e2}")
        out.append(2.0 * e1 - e2)
    return CoefficientRelation(out[0], out[1], out[2])


def printed_relation(params: ClassParams, variant: str = "expansion") -> CoefficientRelation:
    """The printed coefficient relation, exactly as stated.

    variant="expansion" uses the (1+2t)(2+k) linear multiplier from the displayed
    expansion; variant="statement" uses (1+2t)(1+2k), the constant the bound
    statements divide by.  Both share quad_a2 = M k^2 + S k + Q.
    """
    t, k = params.vartheta, params.kappa
    if variant == "expansion":
        lin3 = (1.0 + 2.0 * t) * (2.0 + k)
    elif variant == "statement":
        lin3 = params.L
    else:
        raise ValueError("variant must be 'expansion' or 'statement'")
    return CoefficientRelation(params.W, lin3, params.msq)


def _w_recurrence(params: ClassParams, order: int, next_coeff) -> tuple[list, list]:
    """Coefficients 0..order of f and 0..order-1 of log W(f), one at a time.

    Step n forms coefficient n of each series below with a_{n+1} = 0, from
    lower coefficients only; a_{n+1} = next_coeff(n, rest, slope), where rest
    is coefficient n of log W at a_{n+1} = 0, and each coefficient n then
    gains its own slope times a_{n+1}.  log W = log(1 + (W - 1)) takes
    a_{n+1} through W's coefficient n alone, so the slope is W's.
    """
    t, k = params.vartheta, params.kappa
    fz, fp, b, br = ([1.0 + 0j] for _ in range(4))  # f/z, f', B, bracket
    l1, l2, lb, l3, g = ([0j] for _ in range(5))  # log(f/z), log f', log B, log bracket, log W
    for n in range(1, order):
        # sum_{j<n} j x_j y_{n-j}: what coefficient n of y = exp(x), or of
        # x = log y (negated), takes from the lower coefficients
        q1 = q2 = qb = q3 = 0j
        for j in range(1, n):
            m = n - j
            q1 += j * l1[j] * fz[m]
            q2 += j * l2[j] * fp[m]
            qb += j * lb[j] * b[m]
            q3 += j * l3[j] * br[m]
        r1 = -q1 / n
        r2 = -q2 / n
        rlb = r2 + (k - 1.0) * r1
        rb = rlb + qb / n
        rbr = rb + n * rlb
        r3 = rbr - q3 / n
        rg = t * r3 + (1.0 - t) * rlb
        s1 = n + k
        s2 = s1 * (n + 1)
        slope = s1 * (1.0 + n * t)
        x = next_coeff(n, rg, slope)
        for series, rest, dx in ((fz, 0j, 1), (l1, r1, 1), (fp, 0j, n + 1), (l2, r2, n + 1),
                                 (lb, rlb, s1), (b, rb, s1), (br, rbr, s2), (l3, r3, s2),
                                 (g, rg, slope)):
            series.append(rest + dx * x)
    return [0j] + fz, g


def solve_from_schwarz(w: TruncatedSeries, params: ClassParams, order: int) -> TruncatedSeries:
    """Build f with W(f) = X(w(z)) coefficientwise, order by order.

    It matches log W(f) to log X(w) = w + varkappa w^2/2, which is the same
    condition: exp and log are triangular bijections between series with
    constant terms 1 and 0.  a_{n+1} enters coefficient n of log W(f) with
    slope (n + kappa)(1 + n*vartheta) >= 1, so it is the target's coefficient
    n less that of log W(f) at a_{n+1} = 0, over the slope.  ``_w_recurrence``
    gives every coefficient in one pass; ``w_functional`` is not called.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    if not np.all(np.isfinite(w.coeffs.view(float))):
        raise ValueError("w must have finite coefficients")
    if abs(w.coeffs[0]) > 1e-9:
        raise ValueError("w(0) must be 0")
    wmax = ps.boundary_max(w)
    if wmax >= 1.0:
        raise ValueError(f"|w| reaches {wmax:.6f} >= 1 on the sampling circle")
    wt = ps.truncate(w, order - 1)
    target = ps.add(wt, ps.scale(ps.mul(wt, wt), params.varkappa / 2.0)).coeffs.tolist()
    fc, _ = _w_recurrence(params, order, lambda n, rest, slope: (target[n] - rest) / slope)
    return TruncatedSeries(fc)


def membership_witness(f: TruncatedSeries, params: ClassParams) -> tuple[TruncatedSeries, float]:
    """Recover the driving series w with X(w) = W(f) and report its maximum
    modulus over 256 samples of |z| = 0.99; callers compare that sup-norm
    against 1 to decide membership.

    log X(w) = w + varkappa w^2 / 2 is read from the log W(f) that
    ``_w_recurrence`` forms when fed f's own coefficients, with f(0) = 0 and
    f'(0) = 1 taken as exact.  Like the solver, it forms the logs of both
    bracket bases at every vartheta, so one that overflows makes the witness
    undefined even where its weight is 0.
    """
    _check_normalized(f)
    a = f.coeffs.tolist()
    _, g = _w_recurrence(params, f.order, lambda n, rest, slope: a[n + 1])
    vk = params.varkappa
    wc = np.zeros(len(g), dtype=complex)
    for m in range(1, len(g)):
        acc = g[m]
        if m >= 2:
            acc -= (vk / 2.0) * np.dot(wc[1:m], wc[m - 1 : 0 : -1])
        wc[m] = acc
    if not np.all(np.isfinite(wc.view(float))):
        raise ValueError("witness recursion produced non-finite coefficients")
    witness = TruncatedSeries(wc)
    return witness, ps.boundary_max(witness)
