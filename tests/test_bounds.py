import math

import numpy as np
import pytest

from gtnbounds import bounds
from gtnbounds import series as ps
from gtnbounds.bazilevic import ClassParams
from gtnbounds.series import TruncatedSeries

P000 = ClassParams(0.0, 0.0, 1.0)


def random_params(rng):
    return ClassParams(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 3))


# --- a2 / a3 -----------------------------------------------------------------

def test_a2_values():
    assert bounds.a2_bound(P000) == 1.0
    assert bounds.a2_bound(ClassParams(0, 1, 1)) == 0.5
    assert bounds.a2_bound(ClassParams(1, 1, 1)) == 0.25


def test_a3_values():
    assert bounds.a3_bound(P000) == pytest.approx(1.0)  # max(1, |-2 + 1|)
    assert bounds.a3_bound(ClassParams(0, 0, 4)) == pytest.approx(1.0)
    assert bounds.a3_bound(ClassParams(1, 0, 0)) == pytest.approx(0.5)


def test_printed_subclass_a3_formulas_at_weight_one():
    assert bounds.a3_printed_subclass_starlike(1.0) == pytest.approx(1.25)
    assert bounds.a3_printed_subclass_kappa(0.0, 1.0) == pytest.approx(1.25)
    assert bounds.a3_printed_subclass_convex(1.0) == pytest.approx(0.25)
    assert bounds.a3_printed_subclass_mixed(1.0) == pytest.approx(1.0 / 3.0)
    # the mixed preset agrees with the general statement at weight 1 but not 3
    assert bounds.a3_printed_subclass_mixed(1.0) == pytest.approx(
        bounds.a3_bound(ClassParams(1, 0, 1))
    )
    assert bounds.a3_printed_subclass_mixed(3.0) != pytest.approx(
        bounds.a3_bound(ClassParams(1, 0, 3))
    )


def test_printed_subclass_a3_floors_below_an_inner_value_of_two():
    # kappa = 1: (1 + 8 + 3) / (2 * 2^2) = 3/2, so at varkappa 1/4 the inner
    # value is 7/4, above the floor 1 and below 2; the bound is (7/4) / (2 * 3)
    assert bounds.a3_printed_subclass_kappa(1.0, 0.25) == pytest.approx(7 / 24, rel=1e-15)
    # starlike: |3/2 + 1/4| = 7/4, times 1/2
    assert bounds.a3_printed_subclass_starlike(0.25) == pytest.approx(7 / 8, rel=1e-15)


# --- real-mu piecewise bound --------------------------------------------------

def test_fs_real_above_branch():
    v = bounds.fs_real(P000, 0.0)
    assert v.sigma1 == pytest.approx(-2.0)
    assert v.sigma2 == pytest.approx(-1.5)
    assert v.branch == bounds.BRANCH_ABOVE
    assert v.aleph == pytest.approx(-4.0)
    assert v.value == pytest.approx(1.0)
    assert v.as_printed == pytest.approx(1.0)
    # at mu = 2, aleph = -4 - 4 = -8 and v = (1 - 1 + 8)/4 = 2, past Lemma 1's
    # flat middle: the value is (4 v - 2) / 2 = 3
    assert bounds.fs_real(P000, 2.0).value == pytest.approx(3.0, rel=1e-15)


def test_fs_real_boundary_and_middle():
    at_knot = bounds.fs_real(P000, -2.0)
    assert at_knot.value == pytest.approx(1.0)
    mid = bounds.fs_real(P000, -1.75)
    assert mid.branch == bounds.BRANCH_BETWEEN
    assert mid.value == pytest.approx(1.0)
    # vartheta = 1, kappa = 0, varkappa 1: W^2 = 4, L = 3 and 2 msq = -16, so
    # the knots are -16/6 and -12/6, and between them the printed value 1/3
    # is positive
    between = bounds.fs_real(ClassParams(1, 0, 1), -2.5)
    assert between.branch == bounds.BRANCH_BETWEEN
    assert between.as_printed == pytest.approx(1 / 3, rel=1e-15)
    assert not between.printed_nonpositive


def test_fs_real_printed_third_branch_goes_negative():
    # just above the printed upper knot the verbatim expression is negative;
    # the carried value stays at the flat bound
    v = bounds.fs_real(P000, -1.4)
    assert v.branch == bounds.BRANCH_ABOVE
    assert v.as_printed < 0.0
    assert v.printed_nonpositive
    assert v.value == pytest.approx(1.0)


def test_fs_real_continuity_at_both_knots():
    # at each knot the outer-branch formula must reproduce the flat middle
    # value exactly; evaluating at the knot itself selects the outer branch
    rng = np.random.default_rng(17)
    for _ in range(100):
        p = random_params(rng)
        v = bounds.fs_real(p, 0.0)
        mid = 1.0 / p.L
        assert abs(bounds.fs_real(p, v.sigma1).value - mid) <= 1e-9
        assert abs(bounds.fs_real(p, v.sigma2).value - mid) <= 1e-9


def test_fs_real_knot_spacing():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p = random_params(rng)
        v = bounds.fs_real(p, 0.0)
        assert v.sigma2 - v.sigma1 == pytest.approx(p.W**2 / (2 * p.L), abs=1e-12)


def test_fs_real_matches_complex_form_on_outer_branches():
    # fs_complex with real mu is (1/L) max(1, |1 + vk + aleph/W^2|/2); the
    # outer printed branches are (1/(2L))|...| and the two agree exactly when
    # the half-modulus exceeds 1
    rng = np.random.default_rng(29)
    for _ in range(200):
        p = random_params(rng)
        mu = rng.uniform(-6, 6)
        v = bounds.fs_real(p, mu)
        inner = abs(1 + p.varkappa + v.aleph / p.W**2)
        if 0.5 * inner >= 1.0:
            assert bounds.fs_complex(p, mu) == pytest.approx(
                inner / (2 * p.L), rel=1e-12
            )


# --- complex-mu bound ----------------------------------------------------------

def test_fs_complex_values():
    assert bounds.fs_complex(P000, 0.0) == pytest.approx(1.0)
    assert bounds.fs_complex(ClassParams(1, 1, 1), 0.0) == pytest.approx(1.0 / 9.0)


def test_fs_complex_floor_at_special_mu():
    # mu chosen so the modulus term vanishes: value is the 1/L floor
    p = ClassParams(0.7, 0.3, 2.0)
    mu = (2 * p.msq + (1 + p.varkappa) * p.W**2) / (2 * p.L)
    assert bounds.fs_complex(p, mu) == pytest.approx(1.0 / p.L)


def test_fs_complex_alternate_prefactor():
    p = ClassParams(0.0, 0.0, 1.0)
    assert bounds.fs_complex_alternate(p) == pytest.approx(0.5)
    assert bounds.fs_complex_alternate(ClassParams(1, 0, 1)) == pytest.approx(1 / 3)
    # 1 / ((vartheta + 2)(1 + 2 kappa)): 1 / (2 * 2) and 1 / (3 * 3)
    assert bounds.fs_complex_alternate(ClassParams(0, 0.5, 1)) == pytest.approx(1 / 4)
    assert bounds.fs_complex_alternate(ClassParams(1, 1, 1)) == pytest.approx(1 / 9)


# --- inverse coefficients -------------------------------------------------------

def test_inverse_d2_factor_two_gap():
    assert bounds.inverse_d2_bound(P000) == (0.5, 1.0)
    assert bounds.inverse_d2_bound(ClassParams(1, 0, 1)) == (0.25, 0.5)
    assert bounds.inverse_d2_bound(ClassParams(0, 1, 1)) == (0.25, 0.5)


def test_inverse_fs_values():
    assert bounds.inverse_fs(P000, 2.0) == pytest.approx(1.0)
    assert bounds.inverse_fs(P000, 0.0) == pytest.approx(3.0)


def test_inverse_fs_is_fs_at_shifted_mu():
    rng = np.random.default_rng(31)
    for _ in range(50):
        p = random_params(rng)
        h = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert bounds.inverse_fs(p, h) == pytest.approx(
            bounds.fs_complex(p, 2.0 - h), rel=1e-12
        )


def test_inverse_d3_bound_is_half_the_mu2_value():
    rng = np.random.default_rng(37)
    for _ in range(50):
        p = random_params(rng)
        printed, mu2 = bounds.inverse_d3_bound(p)
        assert printed == pytest.approx(0.5 * mu2, rel=1e-12)


def test_inverse_coefficients_from_series_reversion():
    # d2 = -a2 and d3 = 2 a2^2 - a3 for any coefficients
    rng = np.random.default_rng(41)
    for _ in range(10):
        a2, a3 = rng.normal(size=2)
        f = TruncatedSeries([0, 1, a2, a3], order=5)
        inv = ps.revert(f)
        assert inv.coeffs[2] == pytest.approx(-a2, abs=1e-12)
        assert inv.coeffs[3] == pytest.approx(2 * a2**2 - a3, abs=1e-12)


# --- logarithmic coefficients ----------------------------------------------------

def test_log_coeff_values():
    g1, g2 = bounds.log_coeff_bounds(P000)
    assert g1 == pytest.approx(0.5)
    assert g2 == pytest.approx(1.5)
    assert bounds.log_gamma2_oracle(P000) == pytest.approx(0.75)


def test_log_coeff_values_off_the_origin():
    # vartheta = kappa = 1: W = 4, L = 9, msq = 1 - 1 - 8 = -8.  At varkappa 4,
    # g1 = 1/(2W) = 1/8, and the g2 inner value is 1 + 4 + (-16 - 9)/16 = 55/16,
    # so g2 = (1/9)(55/32)
    g1, g2 = bounds.log_coeff_bounds(ClassParams(1, 1, 4))
    assert g1 == 1 / 8
    assert g2 == pytest.approx(55 / 288, rel=1e-15)


def test_log_coeff_relations_from_series():
    # log(f/z) = 2 sum g_n z^n gives 2 g1 = a2 and 2 g2 = a3 - a2^2/2
    rng = np.random.default_rng(43)
    for _ in range(10):
        a2, a3 = rng.normal(size=2)
        f = TruncatedSeries([0, 1, a2, a3], order=4)
        logs = ps.log_series(TruncatedSeries(f.coeffs[1:]))
        assert logs.coeffs[1] / 2 == pytest.approx(a2 / 2, abs=1e-12)
        assert logs.coeffs[2] / 2 == pytest.approx((a3 - a2**2 / 2) / 2, abs=1e-12)


# --- convolution bounds ------------------------------------------------------------

def test_conv_real_reduces_to_base_at_unit_weights():
    rng = np.random.default_rng(47)
    for _ in range(50):
        p = random_params(rng)
        mu = rng.uniform(-4, 4)
        base = bounds.fs_real(p, mu)
        conv = bounds.conv_fs_real(p, mu, 1.0, 1.0)
        assert conv == base


def test_conv_complex_printed_value_at_origin():
    # verbatim substitution: prefactor 2, inner -1 - vk + 2*msq = -6
    assert bounds.conv_fs_complex(P000, 0.0, 1.0, 1.0) == pytest.approx(6.0)
    assert bounds.fs_complex(P000, 0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("mu, want", [
    # vartheta = kappa = 1, varkappa 2: W = 4, L = 9, msq = -8.  With wp2 = 1/2,
    # (W wp2)^2 = 4 and the inner value is -1 - 2 + 2(-8)/4 + 2 mu (3)(3)(2)/4
    # = -7 + 9 mu; the prefactor is 2 / (9 * 2) = 1/9
    (1 + 1j, math.sqrt(85) / 18),  # |2 + 9i| / 2 = sqrt(85) / 2
    (0.7, 1 / 9),  # |-0.7| / 2 is below the floor 1
    (-1.0, 8 / 9),  # |-16| / 2
])
def test_conv_complex_printed_value_off_unit_weights(mu, want):
    p = ClassParams(1, 1, 2)
    assert bounds.conv_fs_complex(p, mu, 0.5, 2.0) == pytest.approx(want, rel=1e-15)


def test_conv_knots_scale_with_weight_ratio():
    # Borel at 1/2: wp2^2/wp3 = 2, so both knots double
    wp2, wp3 = math.exp(-0.5), math.exp(-1.0) / 2
    base = bounds.fs_real(P000, 0.0)
    conv = bounds.conv_fs_real(P000, 0.0, wp2, wp3)
    assert conv.sigma1 == pytest.approx(2 * base.sigma1)
    assert conv.sigma2 == pytest.approx(2 * base.sigma2)


def test_conv_value_vanishes_for_large_wp3():
    assert bounds.conv_fs_complex(P000, 0.0, 1.0, 1e9) < 1e-8


def test_conv_scaling_with_aleph_held_fixed():
    # rescaling mu by wp2^2/wp3 keeps aleph and the branch fixed and scales
    # every branch value by 1/wp3
    rng = np.random.default_rng(53)
    for _ in range(50):
        p = random_params(rng)
        mu = rng.uniform(-4, 4)
        wp2, wp3 = rng.uniform(0.2, 2), rng.uniform(0.2, 2)
        base = bounds.fs_real(p, mu)
        conv = bounds.conv_fs_real(p, mu * wp2**2 / wp3, wp2, wp3)
        assert conv.aleph == pytest.approx(base.aleph, rel=1e-12, abs=1e-12)
        assert conv.branch == base.branch
        assert conv.value == pytest.approx(base.value / wp3, rel=1e-12)
        assert conv.as_printed == pytest.approx(base.as_printed / wp3, rel=1e-12)


def test_conv_rejects_zero_weights():
    with pytest.raises(ValueError, match="wp2 and wp3 must be > 0"):
        bounds.conv_fs_complex(P000, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="wp2 and wp3 must be > 0"):
        bounds.conv_fs_real(P000, 0.0, 1.0, -1.0)


class NaNQuadratic(ClassParams):
    """Class parameters whose quadratic combination msq is NaN."""

    msq = math.nan


NAN_BOUNDS = {
    "a3_bound": lambda: bounds.a3_bound(NaNQuadratic(0.0, 0.0, 1.0)),
    "subclass_kappa": lambda: bounds.a3_printed_subclass_kappa(0.5, math.nan),
    "subclass_starlike": lambda: bounds.a3_printed_subclass_starlike(math.nan),
    "subclass_convex": lambda: bounds.a3_printed_subclass_convex(math.nan),
    "subclass_theta": lambda: bounds.a3_printed_subclass_theta(0.5, math.nan),
    "subclass_mixed": lambda: bounds.a3_printed_subclass_mixed(math.nan),
    # 2 mu L with mu = 1e308 i is (0 + inf i)(L + 0i), whose real part is inf * 0
    "fs_complex": lambda: bounds.fs_complex(P000, complex(0.0, 1e308)),
    "inverse_d3_bound": lambda: bounds.inverse_d3_bound(NaNQuadratic(0.0, 0.0, 1.0))[0],
    "inverse_fs": lambda: bounds.inverse_fs(P000, complex(math.nan, 0.0)),
    "log_coeff_bounds": lambda: bounds.log_coeff_bounds(NaNQuadratic(0.0, 0.0, 1.0))[1],
    "conv_fs_complex": lambda: bounds.conv_fs_complex(P000, complex(0.0, 1e308), 1.0, 1.0),
}


@pytest.mark.parametrize("formula", sorted(NAN_BOUNDS))
def test_bound_formulas_propagate_nan(formula):
    # max(1.0, nan) is 1.0: a NaN inside a formula must not print as a finite bound
    assert math.isnan(NAN_BOUNDS[formula]())


@pytest.mark.parametrize("params", [ClassParams(1e200, 1e200, 1.0), NaNQuadratic(0.0, 0.0, 1.0)],
                         ids=["overflowing", "nan-msq"])
def test_nan_knots_give_a_nan_verdict(params):
    # W, L and msq overflow to inf at vartheta = kappa = 1e200, so each knot
    # is inf / inf; a NaN knot fails both comparisons, which used to read as
    # the finite middle branch
    for v in (bounds.fs_real(params, 1.0), bounds.conv_fs_real(params, 1.0, 1.0, 1.0)):
        assert math.isnan(v.sigma1) and math.isnan(v.sigma2)
        assert math.isnan(v.value) and math.isnan(v.as_printed)
        assert not v.printed_nonpositive


def test_conv_real_large_mu_is_positive():
    v = bounds.conv_fs_real(P000, 50.0, 0.5, 0.7)
    assert v.branch == bounds.BRANCH_ABOVE
    assert v.value > 0
    assert v.as_printed > 0
