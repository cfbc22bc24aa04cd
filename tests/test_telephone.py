import math
from fractions import Fraction

import numpy as np
import pytest

from gtnbounds import series as ps
from gtnbounds.series import TruncatedSeries
from gtnbounds.telephone import NegativeIndex, gtn_sequence, gtn_via_egf, x_series


@pytest.mark.parametrize("vk", [1, 2, 3])
def test_index_4_closed_form(vk):
    assert gtn_sequence(vk, 4)[4] == 1 + 6 * vk + 3 * vk**2


def test_classical_sequence():
    assert [int(v) for v in gtn_sequence(1, 5)] == [1, 1, 2, 4, 10, 26]


@pytest.mark.parametrize("vk", [1, 2, Fraction(7, 2)])
def test_index_6_closed_form(vk):
    assert gtn_sequence(vk, 6)[6] == 1 + 15 * vk + 45 * vk**2 + 15 * vk**3


def test_negative_index_rejected():
    with pytest.raises(NegativeIndex):
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


def test_egf_cross_checks():
    assert gtn_via_egf(1.0, 5) == pytest.approx(26.0, rel=1e-12)
    assert gtn_via_egf(2.0, 2) == pytest.approx(3.0, rel=1e-12)
    assert gtn_via_egf(1.7, 0) == pytest.approx(1.0)


@pytest.mark.parametrize("vk", [1, 2, 3, Fraction(7, 2)])
def test_recurrence_matches_egf_to_n20(vk):
    exact = gtn_sequence(vk, 20)
    for n in range(21):
        via_egf = gtn_via_egf(float(vk), n)
        assert math.isclose(via_egf, float(exact[n]), rel_tol=1e-9)


@pytest.mark.parametrize("vk", [0.0, 0.5, 1.0, 2.5])
def test_first_order_ode_identity(vk):
    # d/dz exp(z + vk z^2/2) = (1 + vk z) exp(z + vk z^2/2)
    n = 10
    xs = x_series(vk, n)
    lhs = ps.derive(xs)
    rhs = ps.mul(TruncatedSeries([1.0, vk], order=n - 1), ps.truncate(xs, n - 1))
    assert ps.max_coeff_diff(lhs, rhs) <= 1e-12
