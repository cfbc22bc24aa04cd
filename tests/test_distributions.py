import math
import sys

import mpmath
import numpy as np
import pytest

from gtnbounds.distributions import (
    DistributionCoeffs,
    borel_coeff,
    coefficients,
    convolve,
    pascal_coeff,
    poisson_coeff,
)
from gtnbounds.series import TruncatedSeries, check_normalized


def test_poisson_closed_forms():
    assert poisson_coeff(1.0, 2) == pytest.approx(math.exp(-1), rel=1e-14)
    assert poisson_coeff(1.0, 3) == pytest.approx(math.exp(-1) / 2, rel=1e-14)
    assert poisson_coeff(2.0, 4) == pytest.approx(8 * math.exp(-2) / 6, rel=1e-14)


def test_poisson_ratio_identity():
    for m in (0.5, 1.0, 3.0):
        for n in range(2, 11):
            ratio = poisson_coeff(m, n + 1) / poisson_coeff(m, n)
            assert ratio == pytest.approx(m / n, abs=1e-12)


def test_borel_closed_forms():
    assert borel_coeff(1.0, 2) == pytest.approx(math.exp(-1), rel=1e-14)
    assert borel_coeff(0.5, 3) == pytest.approx(0.5 * math.exp(-1), rel=1e-14)
    assert borel_coeff(1.0, 4) == pytest.approx(9 * math.exp(-3) / 6, rel=1e-14)


def test_borel_positive_and_vanishing():
    # the coefficient ratio tends to s*e^(1-s), which is <= 1 exactly on the
    # admissible range, with equality only at s = 1 (subexponential decay)
    for s in (0.3, 0.7, 1.0):
        values = [borel_coeff(s, n) for n in range(2, 52)]
        assert all(v > 0 for v in values)
        assert values[-1] < values[0]
        ratio_at_50 = borel_coeff(s, 51) / borel_coeff(s, 50)
        assert ratio_at_50 == pytest.approx(s * math.exp(1 - s), rel=0.05)
        assert ratio_at_50 <= 1.0 + 1e-9


def test_pascal_closed_forms():
    assert pascal_coeff(0.5, 1, 2) == pytest.approx(0.25, rel=1e-14)
    assert pascal_coeff(0.5, 1, 3) == pytest.approx(0.125, rel=1e-14)
    assert pascal_coeff(0.0, 3, 5) == 0.0
    assert pascal_coeff(0.0, 3, 200) == 0.0   # past the log-space cutoff: no log(0)


def test_pascal_normalization_partial_sums():
    for q in (0.3, 0.5, 0.7):
        for s in (1, 2, 5):
            total = (1 - q) ** s  # the n = 1 weight
            total += sum(pascal_coeff(q, s, n) for n in range(2, 201))
            assert total == pytest.approx(1.0, abs=1e-8)


def test_coefficient_tables():
    # one weight for each n = 2..max_n; Pascal's s defaults to 1
    for kind, param, weight in (("poisson", 1.5, lambda n: poisson_coeff(1.5, n)),
                                ("borel", 0.5, lambda n: borel_coeff(0.5, n)),
                                ("pascal", 0.5, lambda n: pascal_coeff(0.5, 1, n))):
        d = coefficients(kind, param, 6)
        assert d.max_n == 6
        assert d.values == tuple(weight(n) for n in range(2, 7)), kind
    assert coefficients("pascal", 0.5, 4, s=3).values == tuple(
        pascal_coeff(0.5, 3, n) for n in range(2, 5))
    # a Poisson table is one running product up to the log-space cutoff, with
    # poisson_coeff's bits: past the cutoff, at a small m, near the largest m
    # whose e^(-m) is normal, at m 709 and 740, where e^(-m) is subnormal, and
    # at m 800, where e^(-m) is 0
    for m, max_n in ((1.5, 150), (1e-5, 150), (700.0, 150), (709.0, 150), (740.0, 12),
                     (800.0, 100)):
        assert coefficients("poisson", m, max_n).values == tuple(
            poisson_coeff(m, n) for n in range(2, max_n + 1)), m
    # the weight below the cutoff is read in log space, not as 0 * products
    assert coefficients("poisson", 800.0, 100).wp(99) > 0
    assert coefficients("borel", 0.5, 150).values == tuple(
        borel_coeff(0.5, n) for n in range(2, 151))


def test_parameter_validation():
    with pytest.raises(ValueError, match="Poisson parameter must be finite and > 0"):
        poisson_coeff(0.0, 2)
    with pytest.raises(ValueError, match="defined for n >= 2"):
        poisson_coeff(1.0, 1)
    with pytest.raises(ValueError, match="Borel parameter must lie in"):
        borel_coeff(1.5, 3)
    with pytest.raises(ValueError, match="Pascal q must lie in"):
        pascal_coeff(1.0, 1, 2)
    with pytest.raises(ValueError, match="Pascal s must be an integer >= 1"):
        pascal_coeff(0.5, 0, 2)
    with pytest.raises(ValueError, match="unknown distribution kind 'gamma'"):
        coefficients("gamma", 1.0, 5)


@pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
def test_poisson_rejects_non_finite_parameter(m):
    with pytest.raises(ValueError, match="Poisson parameter must be finite and > 0"):
        poisson_coeff(m, 2)
    with pytest.raises(ValueError, match="Poisson parameter must be finite and > 0"):
        coefficients("poisson", m, 3)


def test_log_space_fallback_agrees_with_incremental():
    # the ratio identity must hold straight across the n + s > 100 cutoff
    m = 1.3
    for n in range(95, 106):
        ratio = poisson_coeff(m, n + 1) / poisson_coeff(m, n)
        assert ratio == pytest.approx(m / n, rel=1e-10)
    b_lo = borel_coeff(0.9, 99)
    b_hi = borel_coeff(0.9, 100)
    assert b_hi < b_lo
    for s in (0.3, 0.9):
        for n in range(95, 106):
            ratio = borel_coeff(s, n + 1) / borel_coeff(s, n)
            assert ratio == pytest.approx(s * math.exp(-s) * (n / (n - 1)) ** (n - 2), rel=1e-10)
    p_lo = pascal_coeff(0.4, 60, 40)   # direct route
    p_hi = pascal_coeff(0.4, 60, 41)   # log-space route
    direct = math.comb(41 + 60 - 2, 59) * 0.4**40 * 0.6**60
    assert p_hi == pytest.approx(direct, rel=1e-10)
    assert p_lo > 0
    # C(n+s-2, s-1) = C(1098, 499) overflows a float: only log space gets here
    assert pascal_coeff(0.5, 500, 600) == pytest.approx(math.comb(1098, 499) / 2**1099, rel=1e-10)


def test_poisson_past_the_smallest_normal_exponential():
    # e^(-m) is subnormal past m = 708.4 and 0 past about 745: the products
    # would start from it, so the log-space route takes over
    with mpmath.workdps(40):
        for m in (710, 745, 800):
            normal = 0
            for n in range(2, 100):
                value = poisson_coeff(m, n)
                if value < sys.float_info.min:
                    continue
                normal += 1
                exact = mpmath.mpf(m) ** (n - 1) * mpmath.exp(-m) / mpmath.factorial(n - 1)
                assert abs(value - exact) <= 1e-12 * exact, (m, n)
            assert normal >= 78, m
    # at m = 708 e^(-m) is normal, and the weights are the products, bit for bit
    value = math.exp(-708.0)
    for n in range(2, 100):
        value *= 708.0 / (n - 1)
        assert poisson_coeff(708.0, n) == value, n


def test_convolve_identity_series():
    d = coefficients("poisson", 1.0, 6)
    out = convolve(TruncatedSeries([0, 1], order=1), d)
    assert np.allclose(out.coeffs, [0, 1])


def test_convolve_unit_weights_is_noop():
    ones = DistributionCoeffs(tuple(1.0 for _ in range(2, 9)))
    f = TruncatedSeries([0, 1, 0.5, -0.25, 0.125], order=4)
    assert np.allclose(convolve(f, ones).coeffs, f.coeffs)


def test_convolve_termwise_product():
    d = coefficients("poisson", 1.0, 3)
    f = TruncatedSeries([0, 1, 1, 1], order=3)
    out = convolve(f, d)
    assert out.coeffs[2] == pytest.approx(math.exp(-1))
    assert out.coeffs[3] == pytest.approx(math.exp(-1) / 2)


def test_convolve_linearity_and_scaling():
    d = coefficients("borel", 0.5, 6)
    rng = np.random.default_rng(2)
    a = np.concatenate(([0, 1], rng.normal(size=5)))
    b = np.concatenate(([0, 1], rng.normal(size=5)))
    f, g = TruncatedSeries(a), TruncatedSeries(b)
    fg = TruncatedSeries((a + b) - np.array([0, 1] + [0] * 5))  # keep a1 = 1
    lhs = convolve(fg, d).coeffs
    rhs = convolve(f, d).coeffs + convolve(g, d).coeffs - convolve(TruncatedSeries([0, 1], order=6), d).coeffs
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_convolve_order_mismatch():
    d = coefficients("poisson", 1.0, 3)
    with pytest.raises(ValueError, match="series order 4 exceeds coefficient table"):
        convolve(TruncatedSeries([0, 1, 1, 1, 1], order=4), d)


@pytest.mark.parametrize("coeffs", [[math.nan, 1, 0, 0], [0, math.nan, 0, 0]])
def test_convolve_rejects_nan_normalization_terms(coeffs):
    d = coefficients("poisson", 1.0, 3)
    with pytest.raises(ValueError, match=r"f must have f\(0\) = 0 and f'\(0\) = 1"):
        convolve(TruncatedSeries(coeffs), d)


def test_convolve_rejects_an_order_zero_series():
    # an order-0 f has no f'(0) to check
    d = coefficients("poisson", 1.0, 3)
    with pytest.raises(ValueError, match=r"f must have f\(0\) = 0 and f'\(0\) = 1$"):
        convolve(TruncatedSeries([0]), d)


def convolve_by_loop(f, d):
    """``convolve`` with one numpy scalar update per coefficient, as first
    written."""
    check_normalized(f)
    out = np.array(f.coeffs, dtype=complex)
    out[:2] = 0.0, 1.0
    for n in range(2, f.order + 1):
        out[n] *= d.wp(n)
    return TruncatedSeries(out)


def test_convolve_equals_the_loop_bit_for_bit_on_edge_values():
    # signed zeros in both parts, zero, subnormal and unit weights, the
    # largest and smallest normal floats, and an infinite part, whose
    # product with the weight's imaginary 0 is a NaN in both
    tail = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), -1.5 + 2j,
            complex(sys.float_info.max, -sys.float_info.min), complex(-3.0, math.inf), 1e-300j]
    f = TruncatedSeries([5e-10, 1 - 5e-10] + tail)
    for weights in ([0.0] * 7, [1.0] * 7, [5e-324, 2.0, 0.5, 1e-300, 1e300, 0.25, 3.0],
                    list(coefficients("pascal", 0.3, 8, s=2).values)):
        d = DistributionCoeffs(tuple(weights))
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            got, want = convolve(f, d), convolve_by_loop(f, d)
        assert got.coeffs.tobytes() == want.coeffs.tobytes(), weights
