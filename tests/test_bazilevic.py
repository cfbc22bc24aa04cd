import cmath
import math

import numpy as np
import pytest

from gtnbounds import bazilevic
from gtnbounds import series as ps
from gtnbounds.bazilevic import (
    ClassParams,
    CoefficientRelation,
    _b_coeffs,
    _w_recurrence,
    derive_relation,
    membership_witness,
    printed_relation,
    solve_from_schwarz,
    w_functional,
)
from gtnbounds.series import TruncatedSeries
from gtnbounds.telephone import x_series
from gtnbounds.verify import PRESETS, build_suite


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
    assert (p.M, p.S, p.Q) == (1.0, -1.0, -8.0)
    assert p.W == 2.0 and p.L == 3.0
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
    with pytest.raises(ValueError):
        CoefficientRelation(0.0, 1.0, 0.0)


# --- the class functional ----------------------------------------------------

def test_functional_of_identity_is_one():
    out = w_functional(ps.identity(6), ClassParams(0.7, 0.4, 1.0))
    assert ps.max_coeff_diff(out, ps.one(5)) <= 1e-12


def test_functional_koebe_starlike_params():
    # zf'/f for z/(1-z)^2 is (1+z)/(1-z)
    out = w_functional(koebe(6), ClassParams(0.0, 0.0, 1.0))
    assert np.max(np.abs(out.coeffs - np.array([1, 2, 2, 2, 2, 2]))) <= 1e-10


def test_functional_mixed_params_hand_expansion():
    # f = z + z^2/2 at vartheta = kappa = 1: f' + zf''/f' = 1 + 2z - z^2 + ...
    f = TruncatedSeries([0, 1, 0.5], order=5)
    out = w_functional(f, ClassParams(1.0, 1.0, 1.0))
    assert np.max(np.abs(out.coeffs[:3] - np.array([1.0, 2.0, -1.0]))) <= 1e-12


def test_functional_requires_normalization():
    # the functional and the witness share one guard
    for fn in (w_functional, membership_witness):
        with pytest.raises(ValueError, match=r"f must have f\(0\) = 0"):
            fn(TruncatedSeries([0, 2, 0, 0]), ClassParams(0, 0, 1))
        with pytest.raises(ValueError, match="need at least order 3"):
            fn(TruncatedSeries([0, 1]), ClassParams(0, 0, 1))


@pytest.mark.parametrize("coeffs", [[math.nan, 1, 0, 0], [0, math.nan, 0, 0],
                                    [0, complex(1, math.nan), 0, 0]])
def test_functional_rejects_nan_normalization_terms(coeffs):
    # abs(nan) > 1e-9 is False: the check must fail a NaN, not pass it
    for fn in (w_functional, membership_witness):
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
    for p in _probe_params():
        for e in (1e-3, 2e-3, 0.37):
            for extra in ([e, 0.0], [0.0, e], [e, -e]):
                low = _b_coeffs(p, np.array(extra), 2)[:3]
                high = _b_coeffs(p, np.array(extra), 6)[:3]
                assert np.array_equal(low.view(float), high.view(float)), (p, extra)


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


def test_derive_relation_refuses_disagreeing_steps(monkeypatch):
    # a functional that is not linear in the probe step fails the two-step check
    real = bazilevic._b_coeffs
    monkeypatch.setattr(bazilevic, "_b_coeffs",
                        lambda p, extra, order: real(p, extra, order) + extra.sum() ** 2)
    with pytest.raises(ValueError, match="relation estimates disagree"):
        derive_relation(ClassParams(0.5, 0.5, 1.0))


def test_relation_discrepancies_against_paper_variants_are_recorded_not_asserted():
    # at the origin the printed quadratic coefficient is -2 while the oracle
    # gives -1; both printed linear variants also differ from each other
    p = ClassParams(0.0, 0.0, 1.0)
    oracle = derive_relation(p)
    expansion_form = printed_relation(p, "expansion")
    statement_form = printed_relation(p, "statement")
    assert expansion_form.quad_a2 == -2.0
    assert oracle.quad_a2 == pytest.approx(-1.0, abs=1e-6)
    assert statement_form.linear_a3 == 1.0
    assert expansion_form.linear_a3 == 2.0
    assert abs(oracle.quad_a2 - expansion_form.quad_a2) > 0.5  # the gap is real


def test_printed_relation_values():
    assert printed_relation(ClassParams(0, 0, 1), "expansion") == CoefficientRelation(1, 2, -2)
    assert printed_relation(ClassParams(1, 1, 1), "expansion").linear_a2 == 4.0
    with pytest.raises(ValueError):
        printed_relation(ClassParams(0, 0, 1), "nope")


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
        printed = printed_relation(p).quad_a2
        derived = derive_relation(p).quad_a2
        assert abs(printed - 2.0 * derived) <= 1e-12 * max(1.0, abs(printed)), (t, k)


# --- Schwarz solve and membership -------------------------------------------

def test_solve_linear_schwarz():
    f = solve_from_schwarz(ps.identity(8), ClassParams(0, 0, 1.0), 8)
    assert f.coeffs[2] == pytest.approx(1.0, abs=1e-9)
    assert f.coeffs[3] == pytest.approx(1.0, abs=1e-9)


def test_solve_zero_schwarz_gives_identity():
    f = solve_from_schwarz(ps.zero(8), ClassParams(0.5, 0.5, 1.0), 8)
    assert ps.max_coeff_diff(f, ps.identity(8)) <= 1e-10


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
    target = ps.compose(x_series(params.varkappa, work - 1), ps.truncate(w, work - 1))
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
        for t, k in tk:
            raw = rng.normal(size=order - 1) + 1j * rng.normal(size=order - 1)
            raw *= 0.5 / np.sum(np.arange(2, order + 1) * np.abs(raw))
            c = np.concatenate(([0.0, 1.0], raw))
            p = ClassParams(t, k, 1.0)
            fc, gc = _w_recurrence(p, order, lambda n, rest, slope: c[n + 1])
            ref = ps.log_series(w_functional(TruncatedSeries(c), p)).coeffs
            assert np.array_equal(np.array(fc), c)
            assert len(gc) == ref.size == order
            assert np.max(np.abs(np.array(gc) - ref)) <= 1e-13 * np.max(np.abs(ref)), (p, order)


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
    # the counters do see the calls that are made
    bazilevic.derive_relation(ClassParams(0, 0, 1))
    assert calls.count("w_functional") == 4 and "exp_series" in calls


def test_solve_at_order_sixty_hits_the_target():
    rng = np.random.default_rng(47)
    for t, k in [(0.0, 0.0), (1.0, 1.0), (0.6, 0.2), (1.5, 2.0)]:
        w = _schwarz(rng, "blaschke", 60)
        p = ClassParams(t, k, rng.uniform(0.5, 4.0))
        f = solve_from_schwarz(w, p, 60)
        target = ps.compose(x_series(p.varkappa, 59), ps.truncate(w, 59))
        assert ps.max_coeff_diff(w_functional(f, p), target) <= 1e-9, p


def test_slope_is_the_closed_form_multiplier():
    # coefficient n of W(f) is affine in a_{n+1} with slope (n + k)(1 + n t),
    # at f = z and at a solved member alike
    rng = np.random.default_rng(31)
    tk = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    tk += [tuple(rng.uniform(0.0, 2.0, 2)) for _ in range(4)]
    for t, k in tk:
        p = ClassParams(t, k, 1.0)
        member = solve_from_schwarz(_schwarz(rng, "blaschke", 12), p, 12).coeffs
        for base in (ps.identity(12).coeffs, member):
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
            a3_lin = printed_relation(p, "expansion").linear_a3
            assert abs(measured[2] - a3_lin) <= 1e-12 * a3_lin


def test_solve_matches_functional_target():
    w = TruncatedSeries([0, 0.4, 0.2, -0.1], order=9)
    p = ClassParams(0.3, 0.7, 1.5)
    f = solve_from_schwarz(w, p, 9)
    target = ps.compose(x_series(p.varkappa, 8), ps.truncate(w, 8))
    assert ps.max_coeff_diff(w_functional(f, p), target) <= 1e-9


def test_membership_witness_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(5):
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        w = TruncatedSeries(np.concatenate(([0], raw)), order=8)
        w = ps.scale(w, 0.8 / max(ps.boundary_max(w), 1e-9))
        p = ClassParams(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 2))
        f = solve_from_schwarz(w, p, 9)
        back, _ = membership_witness(f, p)
        assert ps.max_coeff_diff(back, w) <= 1e-7


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
    # f is built from w = 0.9z at varkappa = 4, where varkappa |w1| = 3.6 > 1
    # makes the witness recursion grow the rounding of f geometrically; the
    # same recursion in 60-digit arithmetic is off by 2.0e-11 and 5.5e-7
    p = ClassParams(0.0, 0.0, 4.0)
    for order, bound in ((12, 5e-11), (20, 1.5e-6)):
        w = TruncatedSeries([0.0, 0.9], order=order)
        got, _ = membership_witness(solve_from_schwarz(w, p, order), p)
        assert ps.max_coeff_diff(got, ps.truncate(w, order - 1)) <= bound, order


def test_membership_of_identity():
    w, sup = membership_witness(ps.identity(6), ClassParams(0, 0, 1))
    assert ps.max_coeff_diff(w, ps.zero(5)) <= 1e-12
    assert sup <= 1e-12


def test_koebe_is_not_a_member():
    _, sup = membership_witness(koebe(8), ClassParams(0, 0, 1))
    assert sup > 1.0


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_witness_refuses_an_overflowing_recursion():
    # the witness's quadratic recursion overflows in numpy's dot product
    f = TruncatedSeries([0, 1, 1e200, 0, 0])
    with pytest.raises(ValueError, match="witness recursion produced non-finite"):
        membership_witness(f, ClassParams(0, 0, 1))


def test_a2_equals_c1_over_2w():
    # with p = (1+w)/(1-w) one has c1 = 2 w1, so a2 = c1/(2W) means a2 = w1/W
    rng = np.random.default_rng(5)
    for _ in range(5):
        w1 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        w = TruncatedSeries([0, w1, 0.1], order=8)
        p = ClassParams(rng.uniform(0, 1), rng.uniform(0, 1), 1.0)
        f = solve_from_schwarz(w, p, 8)
        assert f.coeffs[2] == pytest.approx(w1 / p.W, abs=1e-9)
