import math
from fractions import Fraction

import numpy as np
import pytest

from gtnbounds import series as ps
from gtnbounds.cli import MAX_INDEX
from gtnbounds.series import TruncatedSeries
from gtnbounds.telephone import gtn_sequence, x_series
from test_series import max_coeff_diff


def reference_gtn(varkappa, max_n):
    """T_k(0..max_n) by the recurrence T(n) = T(n-1) + k (n-1) T(n-2) in Fractions."""
    k = Fraction(varkappa)
    values = [Fraction(1), Fraction(1)]
    for n in range(2, max_n + 1):
        values.append(values[n - 1] + k * (n - 1) * values[n - 2])
    return values[: max_n + 1]


@pytest.mark.parametrize("vk", [1, 2, 3])
def test_index_4_closed_form(vk):
    assert gtn_sequence(vk, 4)[4] == 1 + 6 * vk + 3 * vk**2


def test_classical_sequence():
    assert [int(v) for v in gtn_sequence(1, 5)] == [1, 1, 2, 4, 10, 26]


@pytest.mark.parametrize("vk", [1, 2, Fraction(7, 2)])
def test_index_6_closed_form(vk):
    assert gtn_sequence(vk, 6)[6] == 1 + 15 * vk + 45 * vk**2 + 15 * vk**3


@pytest.mark.parametrize(
    "vk", [0, 1, 2, Fraction(1, 2), Fraction(7, 2), Fraction(2, 3), 0.1, "5/4",
           Fraction(1000003, 999)])
def test_integer_recurrence_equals_the_fraction_recurrence(vk):
    want = reference_gtn(vk, 200)
    for n in [*range(8), 200]:
        assert gtn_sequence(vk, n) == want[: n + 1], n
    assert all(type(v) is Fraction for v in gtn_sequence(vk, 200))


@pytest.mark.parametrize("vk", [1, Fraction(1, 2), Fraction(7, 3)])
def test_integer_recurrence_equals_the_fraction_recurrence_at_the_cli_limit(vk):
    assert gtn_sequence(vk, MAX_INDEX) == reference_gtn(vk, MAX_INDEX)


def test_negative_index_rejected():
    with pytest.raises(ValueError, match="sequence index must be >= 0"):
        gtn_sequence(1, -1)


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        gtn_sequence(-1, 3)


@pytest.mark.parametrize("vk", [1.0, 2.0])
def test_x_series_closed_forms(vk):
    xs = x_series(vk, 5)
    expected = [
        1.0,
        1.0,
        (1 + vk) / 2,
        (1 + 3 * vk) / 6,
        (3 * vk**2 + 6 * vk + 1) / 24,
        (1 + 10 * vk + 15 * vk**2) / 120,
    ]
    assert np.max(np.abs(xs.coeffs - np.array(expected))) <= 1e-12


def test_x_series_weight_zero_is_exp():
    xs = x_series(0.0, 3)
    assert np.allclose(xs.coeffs, [1, 1, 0.5, 1 / 6], atol=1e-15)


def test_x_series_weight_one_order_two():
    assert np.allclose(x_series(1.0, 2).coeffs, [1, 1, 1], atol=1e-15)


def via_egf(varkappa, n):
    """n! times the n-th Taylor coefficient of the generating function."""
    return math.factorial(n) * x_series(float(varkappa), n).coeffs[n].real


def test_egf_cross_checks():
    assert via_egf(1.0, 5) == pytest.approx(26.0, rel=1e-12)
    assert via_egf(2.0, 2) == pytest.approx(3.0, rel=1e-12)
    assert via_egf(1.7, 0) == pytest.approx(1.0)


@pytest.mark.parametrize("vk", [1, 2, 3, Fraction(7, 2)])
def test_recurrence_matches_egf_to_n20(vk):
    exact = gtn_sequence(vk, 20)
    for n in range(21):
        assert math.isclose(via_egf(vk, n), float(exact[n]), rel_tol=1e-9)


@pytest.mark.parametrize("vk", [0.0, 0.5, 1.0, 2.5])
def test_first_order_ode_identity(vk):
    # d/dz exp(z + vk z^2/2) = (1 + vk z) exp(z + vk z^2/2)
    n = 10
    xs = x_series(vk, n)
    lhs = ps.derive(xs)
    rhs = ps.mul(TruncatedSeries([1.0, vk], order=n - 1), TruncatedSeries(xs.coeffs, order=n - 1))
    assert max_coeff_diff(lhs, rhs) <= 1e-12
