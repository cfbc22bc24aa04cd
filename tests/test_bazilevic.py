import cmath
import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import sympy as sp

from gtnbounds import bazilevic
from gtnbounds import series as ps
from gtnbounds.bazilevic import (
    ClassParams,
    CoefficientRelation,
    _w_recurrence,
    derive_relation,
    membership_witness,
    solve_from_schwarz,
    w_functional,
)
from gtnbounds.distributions import coefficients, convolve
from gtnbounds.series import TruncatedSeries
from gtnbounds.telephone import x_series
from gtnbounds.verify import PRESETS, build_suite
from test_distributions import convolve_by_loop
from test_series import max_coeff_diff


def koebe(order):
    return TruncatedSeries([0.0] + [float(n) for n in range(1, order + 1)], order=order)


def true_linear_a3(t, k):
    return (1 + 2 * t) * (2 + k)


def true_quad_a2(t, k):
    # closed form obtained by expanding the functional by hand; serves as an
    # independent oracle for the numeric fit
    return 0.5 * ((1 + t) ** 2 * (1 + k) ** 2 - 3 * t * k**2 - 8 * t * k - 9 * t - k - 3)


# --- parameters -------------------------------------------------------------

def test_derived_constants():
    p = ClassParams(1.0, 0.0, 1.0)
    assert p.msq == -8.0  # Q = t^2 - 7t - 2 at kappa = 0
    assert p.W == 2.0 and p.L == 3.0
    # M k^2 + S k + Q, with M = t^2 - t + 1, S = 2t^2 - 4t + 1 and Q = t^2 - 7t - 2;
    # every value is exact in binary
    expected = {"starlike": -2.0, "kappa-family": -1.25, "convex": 0.0,
                "theta-family": -5.25, "r-family": -8.0}
    assert {pr.preset_id: pr.params(1.0).msq for pr in PRESETS} == expected
    q = ClassParams(0.0, 1.0, 1.0)
    assert q.msq == pytest.approx(0.0)  # M + S + Q at vartheta = 0


def test_w_and_l_at_least_one():
    for t in (0.0, 0.3, 1.0, 2.0):
        for k in (0.0, 0.5, 1.0):
            p = ClassParams(t, k, 1.0)
            assert p.W >= 1.0 and p.L >= 1.0


def test_negative_parameters_rejected():
    with pytest.raises(ValueError):
        ClassParams(-0.1, 0.0, 1.0)


@pytest.mark.parametrize(
    "values", [(math.nan, 0.0, 1.0), (0.0, math.inf, 1.0), (0.0, 0.0, -math.inf)]
)
def test_non_finite_parameters_rejected(values):
    with pytest.raises(ValueError, match="finite"):
        ClassParams(*values)


def test_relation_multipliers_must_be_positive():
    for bad in ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (-0.5, 1.0, 0.0)):
        with pytest.raises(ValueError, match="must be positive"):
            CoefficientRelation(*bad)
    assert CoefficientRelation(0.5, 0.5, -3.0).linear_a3 == 0.5


# --- the class functional ----------------------------------------------------

def test_functional_of_identity_is_one():
    out = w_functional(TruncatedSeries([0, 1], order=6), ClassParams(0.7, 0.4, 1.0))
    assert max_coeff_diff(out, ps.one(5)) <= 1e-12


def test_functional_koebe_starlike_params():
    # zf'/f for z/(1-z)^2 is (1+z)/(1-z)
    out = w_functional(koebe(6), ClassParams(0.0, 0.0, 1.0))
    assert np.max(np.abs(out.coeffs - np.array([1, 2, 2, 2, 2, 2]))) <= 1e-10


def test_functional_mixed_params_hand_expansion():
    # f = z + z^2/2 at vartheta = kappa = 1: f' + zf''/f' = 1 + 2z - z^2 + ...
    f = TruncatedSeries([0, 1, 0.5], order=5)
    out = w_functional(f, ClassParams(1.0, 1.0, 1.0))
    assert np.max(np.abs(out.coeffs[:3] - np.array([1.0, 2.0, -1.0]))) <= 1e-12


def _convolve(f, params):
    return convolve(f, coefficients("poisson", 1.0, f.order))


#: every function that takes a normalized f; they share one check
NORMALIZED_CALLEES = (w_functional, membership_witness, _convolve)


def test_functional_requires_normalization():
    for fn in NORMALIZED_CALLEES:
        for bad in ([0, 2, 0, 0], [2e-9, 1, 0, 0], [0, 1 + 2e-9, 0, 0]):
            with pytest.raises(ValueError, match=r"f must have f\(0\) = 0 and f'\(0\) = 1$"):
                fn(TruncatedSeries(bad), ClassParams(0, 0, 1))
    for fn in (w_functional, membership_witness):
        with pytest.raises(ValueError, match="need at least order 3"):
            fn(TruncatedSeries([0, 1]), ClassParams(0, 0, 1))
    # within 1e-9, f(0) and f'(0) are taken as exactly 0 and 1
    p = ClassParams(0.5, 0.5, 1)
    exact = TruncatedSeries([0, 1, 0.1, 0, 0])
    near = TruncatedSeries([5e-10, 1 + 5e-10, 0.1, 0, 0])
    for fn in NORMALIZED_CALLEES:
        got, want = fn(near, p), fn(exact, p)
        if fn is membership_witness:
            (got, got_sup), (want, want_sup) = got, want
            assert got_sup == want_sup
        assert got.coeffs.tobytes() == want.coeffs.tobytes(), fn


@pytest.mark.parametrize("coeffs", [[math.nan, 1, 0, 0], [0, math.nan, 0, 0],
                                    [0, complex(1, math.nan), 0, 0]])
def test_functional_rejects_nan_normalization_terms(coeffs):
    # abs(nan) > 1e-9 is False: the check must fail a NaN, not pass it
    for fn in NORMALIZED_CALLEES:
        with pytest.raises(ValueError, match=r"f must have f\(0\) = 0"):
            fn(TruncatedSeries(coeffs), ClassParams(0, 0, 1))


# --- relation oracle ---------------------------------------------------------

@pytest.mark.parametrize(
    "t,k,expected",
    [
        (0.0, 0.0, (1.0, 2.0, -1.0)),
        (1.0, 0.0, (2.0, 6.0, -4.0)),
        (0.0, 1.0, (2.0, 3.0, 0.0)),
    ],
)
def test_relation_known_points(t, k, expected):
    rel = derive_relation(ClassParams(t, k, 1.0))
    assert rel.linear_a2 == pytest.approx(expected[0], abs=1e-6)
    assert rel.linear_a3 == pytest.approx(expected[1], abs=1e-6)
    assert rel.quad_a2 == pytest.approx(expected[2], abs=1e-6)


def test_relation_matches_closed_forms_on_grid():
    for t in np.linspace(0, 1, 5):
        for k in np.linspace(0, 1, 5):
            p = ClassParams(float(t), float(k), 1.0)
            rel = derive_relation(p)
            assert rel.linear_a2 == pytest.approx(p.W, abs=1e-6)
            assert rel.linear_a3 == pytest.approx(true_linear_a3(t, k), abs=1e-6)
            assert rel.quad_a2 == pytest.approx(true_quad_a2(t, k), abs=1e-6)


def _b_coeffs(params: ClassParams, extra, order: int) -> np.ndarray:
    """Coefficients of W(f) for f = z + sum(extra[j] z^(j+2)), one series."""
    c = np.zeros(order + 2, dtype=complex)
    c[1] = 1.0
    c[2 : 2 + len(extra)] = extra
    return w_functional(TruncatedSeries(c), params).coeffs


def _per_probe_relation(params: ClassParams) -> tuple[float, float, float]:
    """derive_relation as first written: both probes at the steps 1e-3 and
    2e-3, one series each, then Richardson extrapolation 2 e1 - e2."""
    ests = []
    for e in (1e-3, 2e-3):
        w_a2 = _b_coeffs(params, [e, 0.0], 2)
        w_a3 = _b_coeffs(params, [0.0, e], 2)
        ests.append((w_a2[1].real / e, w_a3[2].real / e, w_a2[2].real / (e * e)))
    return tuple(2.0 * e1 - e2 for e1, e2 in zip(*ests))


def _hex(values) -> tuple[str, ...]:
    return tuple(float.hex(float(x)) for x in values)


def _probe_params():
    """Every full-suite preset plus a seeded sample of (vartheta, kappa)."""
    rng = np.random.default_rng(17)
    out = [p for _, p, _ in build_suite("full")[0]]
    out += [ClassParams(0.0, 0.0, 1.0), ClassParams(1.0, 1.0, 1.0)]
    out += [ClassParams(*rng.uniform(0.0, 3.0, 2), 1.0) for _ in range(60)]
    return out


def test_order_two_probes_equal_order_six_probes_bit_for_bit():
    # b1 and b2 depend on a2 and a3 only, so derive_relation's order-2 probes
    # read the same bits as probes at a higher order
    extras = [extra for e in (1e-3, 2e-3, 0.37) for extra in ([e, 0.0], [0.0, e], [e, -e])]
    for p in _probe_params():
        for extra in extras:
            low = _b_coeffs(p, extra, 2)[:3]
            high = _b_coeffs(p, extra, 6)[:3]
            assert np.array_equal(low.view(float), high.view(float)), (p, extra)


def test_one_step_relation_equals_the_two_step_route_bit_for_bit():
    # by the grading, each coefficient a probe forms is a fixed power of its
    # step times a step-free number, so the 2e-3 probes are the 1e-3 probes
    # scaled by exact powers of two, 2 e1 - e2 returns e1, and the one-step
    # derive_relation keeps every bit of the two-step route
    rng = np.random.default_rng(61)
    tk = [(p.vartheta, p.kappa) for p in PRESETS] + [(0.0, 0.0)]
    tk += [tuple(x) for x in rng.uniform(0.0, 3.0, (240, 2))]
    tk += [(0.0, 1e4), (0.3, 1e4), (2.0, 1e4), (1e3, 0.5), (7.0, 50.0)]
    for t, k in tk:
        p = ClassParams(t, k, 1.0)
        rel = derive_relation(p)
        want = _per_probe_relation(p)
        assert _hex((rel.linear_a2, rel.linear_a3, rel.quad_a2)) == _hex(want), (t, k)


#: float.hex of (linear_a2, linear_a3, quad_a2) at each verify preset and at
#: the lemma point.  Reports print 12 digits, but the scan's witness is the
#: exact maximum at the smallest grid index, so a last bit moved here can move
#: a witness among tied grid points in a golden report.
RELATION_BITS = {
    "starlike": ("0x1.0000000000000p+0", "0x1.0000000000000p+1", "-0x1.0000000000001p+0"),
    "kappa-family": ("0x1.8000000000000p+0", "0x1.4000000000000p+1", "-0x1.4000000000002p-1"),
    "convex": ("0x1.0000000000000p+1", "0x1.8000000000000p+1", "0x0.0p+0"),
    "theta-family": ("0x1.8000000000000p+0", "0x1.0000000000000p+2", "-0x1.5000000000001p+1"),
    "r-family": ("0x1.0000000000000p+1", "0x1.8000000000000p+2", "-0x1.0000000000001p+2"),
    "lemma": ("0x1.0000000000000p+0", "0x1.0000000000000p+1", "-0x1.0000000000001p+0"),
}


def test_relation_bits_that_reports_read():
    points = [(p.preset_id, p.vartheta, p.kappa) for p in PRESETS] + [("lemma", 0, 0)]
    got = {}
    for name, t, k in points:
        rel = derive_relation(ClassParams(t, k, 1))
        got[name] = tuple(float.hex(float(x)) for x in (rel.linear_a2, rel.linear_a3, rel.quad_a2))
    assert got == RELATION_BITS


def test_relation_discrepancies_against_paper_variants_are_recorded_not_asserted():
    # at the origin the printed quadratic coefficient M k^2 + S k + Q is -2
    # while the oracle gives -1; the printed linear multipliers of a3, the
    # expansion's (1+2t)(2+k) and the statements' L = (1+2t)(1+2k), also
    # differ from each other
    p = ClassParams(0.0, 0.0, 1.0)
    oracle = derive_relation(p)
    assert p.msq == -2.0
    assert oracle.quad_a2 == pytest.approx(-1.0, abs=1e-6)
    assert p.L == 1.0
    assert true_linear_a3(p.vartheta, p.kappa) == 2.0
    assert abs(oracle.quad_a2 - p.msq) > 0.5  # the gap is real


def test_printed_quad_a2_is_twice_the_derived_one():
    # the printed quadratic coefficient M k^2 + S k + Q is exactly twice the
    # true one for every (vartheta, kappa), not only at the origin; the
    # tolerance is relative to max(1, |printed|), as M k^2 + S k + Q cancels
    # to 0 on a curve through the square
    rng = np.random.default_rng(59)
    tk = [(p.vartheta, p.kappa) for p in PRESETS] + [(0.0, 0.0), (1.0, 1.0)]
    tk += [tuple(x) for x in rng.uniform(0.0, 3.0, (200, 2))]
    for t, k in tk:
        p = ClassParams(t, k, 1.0)
        printed = p.msq
        derived = derive_relation(p).quad_a2
        assert abs(printed - 2.0 * derived) <= 1e-12 * max(1.0, abs(printed)), (t, k)


# --- Schwarz solve and membership -------------------------------------------

def test_solve_linear_schwarz():
    # w = z given at the solve's order or at order 1, which is padded with zeros
    for w in (TruncatedSeries([0, 1], order=8), TruncatedSeries([0, 1])):
        f = solve_from_schwarz(w, ClassParams(0, 0, 1.0), 8)
        assert f.coeffs[2] == pytest.approx(1.0, abs=1e-9)
        assert f.coeffs[3] == pytest.approx(1.0, abs=1e-9)


def test_solve_zero_schwarz_gives_identity():
    f = solve_from_schwarz(TruncatedSeries([0], order=8), ClassParams(0.5, 0.5, 1.0), 8)
    assert max_coeff_diff(f, TruncatedSeries([0, 1], order=8)) <= 1e-10


def test_solve_square_schwarz():
    f = solve_from_schwarz(TruncatedSeries([0, 0, 1], order=8), ClassParams(0, 0, 2.0), 8)
    assert f.coeffs[2] == pytest.approx(0.0, abs=1e-10)
    assert f.coeffs[3] == pytest.approx(0.5, abs=1e-9)


def test_solve_rejects_non_schwarz():
    with pytest.raises(ValueError, match=r"w\(0\) must be 0"):
        solve_from_schwarz(TruncatedSeries([0.5, 0.5], order=6), ClassParams(0, 0, 1), 6)
    with pytest.raises(ValueError, match="on the sampling circle"):
        solve_from_schwarz(TruncatedSeries([0, 2.0], order=6), ClassParams(0, 0, 1), 6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan), -math.inf])
def test_solve_rejects_non_finite_schwarz_series(bad):
    for pos in (0, 1, 3):
        c = np.array([0, 0.3, 0.1, -0.1, 0.05], dtype=complex)
        c[pos] = bad
        with pytest.raises(ValueError, match="w must have finite coefficients"):
            solve_from_schwarz(TruncatedSeries(c), ClassParams(0.3, 0.7, 1.5), 6)


def _reference_solve(w, params, order):
    """The solver as first written: each slope is measured with a second
    full-order evaluation of the functional."""
    work = max(order, 3)
    target = ps.compose(x_series(params.varkappa, work - 1),
                        TruncatedSeries(w.coeffs, order=work - 1))
    fc = np.zeros(work + 1, dtype=complex)
    fc[1] = 1.0
    for n in range(1, work):
        fc[n + 1] = 0.0
        w0 = w_functional(TruncatedSeries(fc), params).coeffs[n]
        fc[n + 1] = 1.0
        w1 = w_functional(TruncatedSeries(fc), params).coeffs[n]
        fc[n + 1] = (target.coeffs[n] - w0) / (w1 - w0)
    return TruncatedSeries(fc[: order + 1])


def _schwarz(rng, kind, order):
    """A seeded Schwarz function: r e^{is} z, r e^{is} z^2, or the Blaschke
    product r z (z + a)/(1 + conj(a) z) with |a| <= 0.5, all with r <= 0.9."""
    r = rng.uniform(0.3, 0.9)
    rot = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    c = np.zeros(order + 1, dtype=complex)
    if kind == "rotation":
        c[1] = r * rot
    elif kind == "rotation-z2":
        c[2] = r * rot
    else:
        a = 0.5 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        c[1] = r * a
        for n in range(2, order + 1):
            c[n] = r * (-a.conjugate()) ** (n - 2) * (1.0 - abs(a) ** 2)
    return TruncatedSeries(c)


def _seeded_cases():
    rng = np.random.default_rng(29)
    for kind in ("rotation", "rotation-z2", "blaschke"):
        for order in [*range(4, 13), 20]:
            params = ClassParams(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0.5, 4))
            yield _schwarz(rng, kind, order), params, order
    yield _schwarz(rng, "blaschke", 9), ClassParams(0.0, 0.0, 1.0), 9
    yield _schwarz(rng, "blaschke", 9), ClassParams(1.0, 1.0, 2.0), 9


def test_solve_matches_two_evaluation_reference():
    for w, p, order in _seeded_cases():
        got = solve_from_schwarz(w, p, order).coeffs
        want = _reference_solve(w, p, order).coeffs
        assert got.size == want.size == order + 1
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (p, order)


@pytest.mark.parametrize("order", [2, 3])
def test_solve_matches_reference_at_lowest_orders(order):
    # the solver pads nothing: order 2 yields a2 alone, order 3 a2 and a3
    rng = np.random.default_rng(37)
    for kind in ("rotation", "rotation-z2", "blaschke"):
        for t, k in [(0.0, 0.0), (1.0, 1.0), (0.4, 2.5), (2.0, 0.3)]:
            p = ClassParams(t, k, rng.uniform(0.5, 4.0))
            w = _schwarz(rng, kind, order)
            got = solve_from_schwarz(w, p, order).coeffs
            want = _reference_solve(w, p, order).coeffs
            assert got.size == want.size == order + 1
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (p, kind)


def test_recurrence_equals_functional():
    # f is scaled so that sum n|a_n| = 1/2: then f' and f/z have no zero in
    # the closed disk.  Near such a zero log f' grows geometrically and both
    # derivations of W lose digits alike (about 1e-10 of the largest
    # coefficient at order 20, against 50-digit arithmetic).
    rng = np.random.default_rng(43)
    tk = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (2.5, 0.3), (0.4, 3.0), (1.7, 1.9)]
    for order in range(3, 21):
        for (t, k), vk in zip(tk, (1.0, 0.0, 4.0, 1.0, 2.0, 0.5, 3.0)):
            raw = rng.normal(size=order - 1) + 1j * rng.normal(size=order - 1)
            raw *= 0.5 / np.sum(np.arange(2, order + 1) * np.abs(raw))
            c = np.concatenate(([0.0, 1.0], raw))
            p = ClassParams(t, k, vk)
            fc, wc = _w_recurrence(p, order, lambda n, rest, slope: c[n + 1])
            w = TruncatedSeries(wc)
            got = ps.add(w, ps.scale(ps.mul(w, w), vk / 2.0)).coeffs  # log X(w)
            ref = ps.log_series(w_functional(TruncatedSeries(c), p)).coeffs
            assert np.array_equal(np.array(fc), c)
            assert len(wc) == ref.size == order
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (p, order)


def reference_recurrence(params, order, next_coeff):
    """``_w_recurrence`` as first written: the logs themselves are kept, each
    sum forms j x_j afresh, and the nine coefficients of a step are appended
    by one loop over (series, rest, slope)."""
    t, k, vk = params.vartheta, params.kappa, params.varkappa
    fz, fp, b, br = ([1] for _ in range(4))
    l1, l2, lb, l3, w = ([0] for _ in range(5))
    for n in range(1, order):
        q1 = q2 = qb = q3 = qw = 0
        for j in range(1, n):
            m = n - j
            q1 += j * l1[j] * fz[m]
            q2 += j * l2[j] * fp[m]
            qb += j * lb[j] * b[m]
            q3 += j * l3[j] * br[m]
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
        for series, rest, dx in ((fz, 0, 1), (l1, r1, 1), (fp, 0, n + 1), (l2, r2, n + 1),
                                 (lb, rlb, s1), (b, rb, s1), (br, rbr, s2), (l3, r3, s2),
                                 (w, rw, slope)):
            series.append(rest + dx * x)
    return [0] + fz, w


def test_recurrence_equals_the_reference_bit_for_bit():
    # repr tells an int from a complex and -0.0 from 0.0, and round-trips;
    # a negated driver has zeros of both signs
    rng = np.random.default_rng(67)
    for kind in ("rotation", "rotation-z2", "blaschke"):
        for order in range(2, 41):
            p = ClassParams(*rng.uniform(0.0, 2.0, 2), rng.uniform(0.5, 4.0))
            wc = _schwarz(rng, kind, order).coeffs.tolist() + [0] * order
            if order % 2:
                wc = [-c for c in wc]
            f, _ = reference_recurrence(p, order, lambda n, rest, slope: (wc[n] - rest) / slope)
            for feed in (lambda n, rest, slope: (wc[n] - rest) / slope,  # the solver
                         lambda n, rest, slope: f[n + 1]):               # the witness
                got, want = (fn(p, order, feed) for fn in (_w_recurrence, reference_recurrence))
                assert [list(map(repr, x)) for x in got] == [list(map(repr, x)) for x in want], \
                    (kind, order)
    # an infinite part: 1 * x makes inf * 0 a NaN in both
    a = [0, 1, 0.5, complex(0.25, math.inf), 0.125]
    got, want = (fn(ClassParams(0.5, 0.5, 1.0), 4, lambda n, rest, slope: a[n + 1])
                 for fn in (_w_recurrence, reference_recurrence))
    assert [list(map(repr, x)) for x in got] == [list(map(repr, x)) for x in want]


def test_recurrence_keeps_fractions_exact():
    # no step divides an int by an int, so Fraction parameters and a
    # Fraction driver give Fractions: the solver's f, and the w the witness
    # reads back from it, which is the driver itself
    order = 9
    exact = ClassParams(Fraction(1, 3), Fraction(7, 4), Fraction(5, 2))
    floats = ClassParams(1 / 3, 1.75, 2.5)
    wq = [0, Fraction(1, 2), Fraction(-1, 5), Fraction(1, 7)] + [Fraction(1, 20)] * (order - 4)
    fq, back = _w_recurrence(exact, order, lambda n, rest, slope: (wq[n] - rest) / slope)
    assert fq[:2] == [0, 1] and all(type(c) is Fraction for c in fq[2:])
    assert back == wq[:order] and all(type(c) is Fraction for c in back[1:])
    _, witness = _w_recurrence(exact, order, lambda n, rest, slope: fq[n + 1])
    assert witness == wq[:order] and all(type(c) is Fraction for c in witness[1:])
    wf = [float(c) for c in wq]
    ff, _ = _w_recurrence(floats, order, lambda n, rest, slope: (wf[n] - rest) / slope)
    scale = max(abs(float(c)) for c in fq)
    assert all(abs(x - float(c)) <= 1e-15 * scale for x, c in zip(ff, fq))


# The recurrence reads its parameters by attribute and uses only + - * / and
# int literals, so it runs unchanged on other number types.  Three rational
# (vartheta, kappa) beside the presets, each at one varkappa.
RATIONAL_CASES = [(sp.Rational(1, 3), sp.Rational(2, 5), sp.Rational(3, 2)),
                  (sp.Rational(3, 2), sp.Rational(1, 4), sp.Integer(4)),
                  (sp.Rational(5, 7), sp.Rational(9, 4), sp.Rational(1, 3))]


def test_recurrence_gives_the_relation_exactly_in_sympy():
    # the probes z + e z^2 and z + e z^3 with a symbolic step e: then
    # b1 = w1 = A2 e, b2 = w2 + (1 + varkappa) w1^2/2 = Aq e^2 for the first
    # and b2 = w2 = A3 e for the second, with no rounding at all
    e = sp.Symbol("e")
    cases = [(sp.Rational(pr.vartheta), sp.Rational(pr.kappa), sp.Integer(2)) for pr in PRESETS]
    for t, k, vk in cases + RATIONAL_CASES:
        p = SimpleNamespace(vartheta=t, kappa=k, varkappa=vk)
        _, w2 = _w_recurrence(p, 3, lambda n, rest, slope: (e, 0)[n - 1])
        _, w3 = _w_recurrence(p, 3, lambda n, rest, slope: (0, e)[n - 1])
        got = (sp.expand(w2[1] / e), sp.expand(w3[2] / e),
               sp.expand((w2[2] + (1 + vk) * w2[1] ** 2 / 2) / e**2))
        msq = (t * t - t + 1) * k * k + (2 * t * t - 4 * t + 1) * k + (t * t - 7 * t - 2)
        assert got == ((1 + t) * (1 + k), (1 + 2 * t) * (2 + k), msq / 2), (t, k)
        rel = derive_relation(ClassParams(float(t), float(k), float(vk)))
        for probed, exact in zip((rel.linear_a2, rel.linear_a3, rel.quad_a2), got):
            assert abs(probed - float(exact)) <= 1e-13 * abs(float(exact)), (t, k)


def _grid_schwarz(order):
    """A (3, 4) grid of Blaschke drivers r z (z + a)/(1 + conj(a) z), one per
    (r, beta) with a = 0.4 e^{i beta}: coefficient n is a (3, 4) array."""
    r = np.array([0.3, 0.6, 0.9])[:, None]
    a = 0.4 * np.exp(1j * np.linspace(0.0, 5.0, 4))[None, :]
    return [0 * r * a, r * a] + [r * (-a.conjugate()) ** (n - 2) * (1.0 - abs(a) ** 2)
                                 for n in range(2, order + 1)]


def test_recurrence_on_arrays_equals_per_member_calls():
    order = 12
    wc = _grid_schwarz(order)
    for t, k, vk in [(0.0, 0.0, 1.0), (0.5, 0.5, 2.0), (1.3, 0.2, 4.0)]:
        p = ClassParams(t, k, vk)
        fc, _ = _w_recurrence(p, order, lambda n, rest, slope: (wc[n] - rest) / slope)
        _, back = _w_recurrence(p, order, lambda n, rest, slope: fc[n + 1])
        for i, j in np.ndindex(3, 4):
            member = [c[i, j] for c in wc]
            f = solve_from_schwarz(TruncatedSeries(member), p, order).coeffs
            witness, _ = membership_witness(TruncatedSeries(f), p)
            for got, want in (([np.broadcast_to(c, (3, 4))[i, j] for c in fc], f),
                              ([np.broadcast_to(c, (3, 4))[i, j] for c in back], witness.coeffs)):
                ulp = np.finfo(float).eps * np.max(np.abs(want))
                assert np.max(np.abs(np.array(got) - want)) <= 4 * ulp, (p, i, j)


def test_recurrence_on_intervals_encloses_the_float_results():
    # at 53 bits each interval operation rounds outward where the float one
    # rounds to nearest, so the enclosure holds operation by operation; the
    # leading 0, 1 of f and 0 of w come back as ints
    assert mpmath.iv.prec == 53
    rng = np.random.default_rng(59)
    for t, k, vk in [(0.0, 0.0, 1.0), (0.5, 0.5, 2.0), (1.3, 0.2, 4.0)]:
        p = ClassParams(t, k, vk)
        w = _schwarz(rng, "blaschke", 10)
        f = solve_from_schwarz(w, p, 10)
        witness, _ = membership_witness(f, p)
        wi = [mpmath.iv.mpc(c.real, c.imag) for c in w.coeffs.tolist()]
        fi, _ = _w_recurrence(p, 10, lambda n, rest, slope: (wi[n] - rest) / slope)
        a = [mpmath.iv.mpc(c.real, c.imag) for c in f.coeffs.tolist()]
        _, back = _w_recurrence(p, 10, lambda n, rest, slope: a[n + 1])
        assert all(x in box for x, box in zip(f.coeffs.tolist()[2:], fi[2:])), p
        assert all(x in box for x, box in zip(witness.coeffs.tolist()[1:], back[1:])), p


def test_solve_never_evaluates_the_functional(monkeypatch):
    # nor X(w): the solve matches log W(f) to w + varkappa w^2/2, so it
    # composes nothing and exponentiates nothing
    calls = []

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(bazilevic, "w_functional")
    count(ps, "compose")
    count(ps, "exp_series")
    for w, p, order in _seeded_cases():
        solve_from_schwarz(w, p, order)
    assert calls == []
    # the counters do see the calls that are made: the relation's two probes
    bazilevic.derive_relation(ClassParams(0, 0, 1))
    assert calls.count("w_functional") == 2 and "exp_series" in calls


def test_solve_at_order_sixty_hits_the_target():
    rng = np.random.default_rng(47)
    for t, k in [(0.0, 0.0), (1.0, 1.0), (0.6, 0.2), (1.5, 2.0)]:
        w = _schwarz(rng, "blaschke", 60)
        p = ClassParams(t, k, rng.uniform(0.5, 4.0))
        f = solve_from_schwarz(w, p, 60)
        target = ps.compose(x_series(p.varkappa, 59), TruncatedSeries(w.coeffs, order=59))
        assert max_coeff_diff(w_functional(f, p), target) <= 1e-9, p


def test_slope_is_the_closed_form_multiplier():
    # coefficient n of W(f) is affine in a_{n+1} with slope (n + k)(1 + n t),
    # at f = z and at a solved member alike
    rng = np.random.default_rng(31)
    tk = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    tk += [tuple(rng.uniform(0.0, 2.0, 2)) for _ in range(4)]
    for t, k in tk:
        p = ClassParams(t, k, 1.0)
        member = solve_from_schwarz(_schwarz(rng, "blaschke", 12), p, 12).coeffs
        for base in (TruncatedSeries([0, 1], order=12).coeffs, member):
            measured = {}
            for n in range(1, 12):
                fc = base.copy()
                fc[n + 1] = 0.0
                w0 = w_functional(TruncatedSeries(fc), p).coeffs[n]
                fc[n + 1] = 1.0
                w1 = w_functional(TruncatedSeries(fc), p).coeffs[n]
                measured[n] = w1 - w0
                slope = (n + k) * (1.0 + n * t)
                assert abs(measured[n] - slope) <= 1e-12 * slope, (t, k, n)
            assert abs(measured[1] - p.W) <= 1e-12 * p.W
            a3_lin = true_linear_a3(t, k)
            assert abs(measured[2] - a3_lin) <= 1e-12 * a3_lin


def test_solve_matches_functional_target():
    w = TruncatedSeries([0, 0.4, 0.2, -0.1], order=9)
    p = ClassParams(0.3, 0.7, 1.5)
    f = solve_from_schwarz(w, p, 9)
    target = ps.compose(x_series(p.varkappa, 8), TruncatedSeries(w.coeffs, order=8))
    assert max_coeff_diff(w_functional(f, p), target) <= 1e-9


def test_membership_witness_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(5):
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        w = TruncatedSeries(np.concatenate(([0], raw)), order=8)
        w = ps.scale(w, 0.8 / max(ps.boundary_max(w), 1e-9))
        p = ClassParams(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 2))
        f = solve_from_schwarz(w, p, 9)
        back, _ = membership_witness(f, p)
        assert max_coeff_diff(back, w) <= 1e-7


def _reference_witness(f, params):
    """The witness from log W(f) itself: log_series of the functional, then
    the same recursion for w in w + varkappa w^2 / 2 = log W."""
    g = ps.log_series(w_functional(f, params)).coeffs
    wc = np.zeros(g.size, dtype=complex)
    for m in range(1, g.size):
        wc[m] = g[m] - (params.varkappa / 2.0) * np.dot(wc[1:m], wc[m - 1 : 0 : -1])
    return wc


def _noise_gain(w, varkappa):
    """Bound on how much the witness recursion grows a unit error in
    coefficient m of log W by the time it reaches w_m, to first order:
    gain_m = 1 + varkappa * sum_{j<m} |w_j| gain_{m-j}.  Where varkappa |w_1|
    exceeds 1 it grows geometrically, and both routes to the witness drift
    from the true one alike."""
    a = np.abs(w)
    gain = np.zeros(a.size)
    for m in range(1, a.size):
        gain[m] = 1.0 + varkappa * np.dot(a[1:m], gain[m - 1 : 0 : -1])
    return gain


def test_witness_equals_log_of_the_functional(monkeypatch):
    rng = np.random.default_rng(53)
    cases = []
    for t in (0.0, 0.5, 1.0, 2.0):
        for k in (0.0, 1.0, 3.0):
            for order in range(3, 14):
                p = ClassParams(t, k, rng.uniform(0.5, 4.0))
                kind = ("rotation", "rotation-z2", "blaschke")[order % 3]
                f = solve_from_schwarz(_schwarz(rng, kind, order), p, order)
                cases.append((f, p, _reference_witness(f, p)))

    def banned(*args):
        raise AssertionError("the witness must not take the series route")

    # the witness reads log W from the online recurrence, not from the series
    # route it is checked against here
    monkeypatch.setattr(bazilevic, "w_functional", banned)
    monkeypatch.setattr(ps, "log_series", banned)
    for f, p, want in cases:
        got, sup = membership_witness(f, p)
        assert got.order == want.size - 1 == f.order - 1
        tol = 1e-13 * np.max(np.abs(want)) * _noise_gain(want, p.varkappa)
        assert np.all(np.abs(got.coeffs - want) <= tol), (p, f.order)
        assert sup == ps.boundary_max(got)


def test_witness_accuracy_on_a_strong_member():
    # f is built from w = 0.9z at varkappa = 4 by the series route, not by the
    # witness's own recurrence: on a member that recurrence built, the witness
    # repeats the solver's arithmetic and is exact to rounding at any order.
    # varkappa |w1| = 3.6 > 1 makes the recursion grow the rounding of f
    # geometrically, so the same recursion in 60-digit arithmetic is off too
    # (by 4.3e-12 at order 12 and 1.2e-7 at order 20; floats: 2.2e-11, 6.1e-7)
    p = ClassParams(0.0, 0.0, 4.0)
    for order in (12, 20):
        w = TruncatedSeries([0.0, 0.9], order=order)
        f = _reference_solve(w, p, order)
        got, _ = membership_witness(f, p)
        with mpmath.workdps(60):
            a = [mpmath.mpc(c) for c in f.coeffs.tolist()]
            _, exact = _w_recurrence(p, order, lambda n, rest, slope: a[n + 1])
            err60 = float(max(abs(x - y) for x, y in zip(exact, w.coeffs.tolist())))
        assert 1e-13 < err60 < 1e-6
        assert max_coeff_diff(got, TruncatedSeries(w.coeffs, order=order - 1)) <= 8 * err60, order


def test_membership_of_identity():
    w, sup = membership_witness(TruncatedSeries([0, 1], order=6), ClassParams(0, 0, 1))
    assert max_coeff_diff(w, TruncatedSeries([0], order=5)) <= 1e-12
    assert sup <= 1e-12


def test_koebe_is_not_a_member():
    _, sup = membership_witness(koebe(8), ClassParams(0, 0, 1))
    assert sup > 1.0


def test_witness_refuses_an_overflowing_recursion():
    f = TruncatedSeries([0, 1, 1e200, 0, 0])
    with pytest.raises(ValueError, match="witness recursion produced non-finite"):
        membership_witness(f, ClassParams(0, 0, 1))


def _solve_with_array_guards(w, params, order):
    """``solve_from_schwarz`` with its guards on the numpy array, as first
    written."""
    if order < 2:
        raise ValueError("order must be >= 2")
    if not np.all(np.isfinite(w.coeffs.view(float))):
        raise ValueError("w must have finite coefficients")
    if abs(w.coeffs[0]) > 1e-9:
        raise ValueError("w(0) must be 0")
    wmax = ps.boundary_max(w)
    if wmax >= 1.0:
        raise ValueError(f"|w| reaches {wmax:.6f} >= 1 on the sampling circle")
    wc = w.coeffs.tolist() + [0] * order
    fc, _ = _w_recurrence(params, order, lambda n, rest, slope: (wc[n] - rest) / slope)
    return TruncatedSeries(fc)


def _witness_with_array_guard(f, params):
    """``membership_witness`` checking the built series, as first written."""
    bazilevic._check_normalized(f)
    a = f.coeffs.tolist()
    _, wc = _w_recurrence(params, f.order, lambda n, rest, slope: a[n + 1])
    witness = TruncatedSeries(wc)
    if not np.all(np.isfinite(witness.coeffs.view(float))):
        raise ValueError("witness recursion produced non-finite coefficients")
    return witness, ps.boundary_max(witness)


def test_member_path_equals_the_array_guarded_route_bit_for_bit():
    # tobytes tells -0.0 from 0.0; a negated driver has zeros of both signs
    rng = np.random.default_rng(71)
    dists = [("poisson", 1.7, 1), ("borel", 0.4, 1), ("pascal", 0.6, 3), ("pascal", 0.0, 2)]
    for kind in ("rotation", "rotation-z2", "blaschke"):
        for order in range(2, 41):
            p = ClassParams(*rng.uniform(0.0, 2.0, 2), rng.uniform(0.5, 4.0))
            w = _schwarz(rng, kind, order)
            # a truncated Blaschke product may leave the disk
            w = ps.scale(w, min(1.0, 0.95 / ps.boundary_max(w)))
            if order % 2:
                w = TruncatedSeries([-c for c in w.coeffs.tolist()])
            f = solve_from_schwarz(w, p, order)
            assert f.coeffs.tobytes() == _solve_with_array_guards(w, p, order).coeffs.tobytes()
            if order >= 3:
                (got, got_sup), (want, want_sup) = (
                    fn(f, p) for fn in (membership_witness, _witness_with_array_guard))
                assert got.coeffs.tobytes() == want.coeffs.tobytes() and got_sup == want_sup
            d = coefficients(*dists[order % 4][:2], max(order, 3), s=dists[order % 4][2])
            assert convolve(f, d).coeffs.tobytes() == convolve_by_loop(f, d).coeffs.tobytes()


def _message(fn, *args):
    with pytest.raises(ValueError) as err:
        fn(*args)
    return str(err.value)


@pytest.mark.parametrize("coeffs", [
    [0, complex(math.nan, 0.1), 0.2],              # NaN in a real part
    [0, complex(0.1, math.nan), 0.2],              # NaN in an imaginary part
    [0, 0.1, complex(math.inf, 0.0)],              # inf in a real part
    [0, 0.1, complex(0.2, -math.inf)],             # -inf in an imaginary part
    [complex(math.nan, 0.0), 0.1],                 # NaN at w(0): finiteness first
    [0.5, 0.5],                                    # w(0) != 0
    [2.0, 2.0],                                    # w(0) != 0 before |w| >= 1
    [0, 2.0],                                      # |w| >= 1 on the circle
    [0, 0.6, 0.45],                                # |w| >= 1 near z = 1
])
def test_solver_guards_keep_their_messages(coeffs):
    p = ClassParams(0.3, 0.7, 1.5)
    w = TruncatedSeries(coeffs)
    assert _message(solve_from_schwarz, w, p, 6) == _message(_solve_with_array_guards, w, p, 6)
    assert _message(solve_from_schwarz, w, p, 1) == "order must be >= 2"


@pytest.mark.parametrize("coeffs", [
    [0, 1, 1e200, 0, 0],                           # the recursion overflows
    [0, 1, complex(0.1, math.nan), 0, 0],          # NaN in an imaginary part
    [0, 1, 0.1, complex(math.inf, 0.0), 0],        # inf in a real part
    [0, 1, 0.1, 0.2, complex(0.0, -math.inf)],     # only the top coefficient
    [0, 2, 0, 0],                                  # not normalized
    [0, 1, 0.5],                                   # below order 3
])
def test_witness_guards_keep_their_messages(coeffs):
    p = ClassParams(0.5, 0.5, 2.0)
    f = TruncatedSeries(coeffs)
    assert _message(membership_witness, f, p) == _message(_witness_with_array_guard, f, p)


def test_a2_equals_c1_over_2w():
    # with p = (1+w)/(1-w) one has c1 = 2 w1, so a2 = c1/(2W) means a2 = w1/W
    rng = np.random.default_rng(5)
    for _ in range(5):
        w1 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        w = TruncatedSeries([0, w1, 0.1], order=8)
        p = ClassParams(rng.uniform(0, 1), rng.uniform(0, 1), 1.0)
        f = solve_from_schwarz(w, p, 8)
        assert f.coeffs[2] == pytest.approx(w1 / p.W, abs=1e-9)
