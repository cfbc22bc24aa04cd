import math

import numpy as np
import pytest

from gtnbounds import series as ps
from gtnbounds.bazilevic import (
    ClassParams,
    CoefficientRelation,
    NotNormalized,
    NotSchwarz,
    derive_relation,
    membership_witness,
    printed_relation,
    solve_from_schwarz,
    w_functional,
)
from gtnbounds.series import TruncatedSeries


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
    with pytest.raises(NotNormalized):
        w_functional(TruncatedSeries([0, 2, 0, 0]), ClassParams(0, 0, 1))
    with pytest.raises(NotNormalized):
        w_functional(TruncatedSeries([0, 1]), ClassParams(0, 0, 1))


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
    with pytest.raises(NotSchwarz):
        solve_from_schwarz(TruncatedSeries([0.5, 0.5], order=6), ClassParams(0, 0, 1), 6)
    with pytest.raises(NotSchwarz):
        solve_from_schwarz(TruncatedSeries([0, 2.0], order=6), ClassParams(0, 0, 1), 6)


def test_solve_matches_functional_target():
    w = TruncatedSeries([0, 0.4, 0.2, -0.1], order=9)
    p = ClassParams(0.3, 0.7, 1.5)
    f = solve_from_schwarz(w, p, 9)
    from gtnbounds.telephone import x_series

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


def test_membership_of_identity():
    w, sup = membership_witness(ps.identity(6), ClassParams(0, 0, 1))
    assert ps.max_coeff_diff(w, ps.zero(5)) <= 1e-12
    assert sup <= 1e-12


def test_koebe_is_not_a_member():
    _, sup = membership_witness(koebe(8), ClassParams(0, 0, 1))
    assert sup > 1.0


def test_a2_equals_c1_over_2w():
    # with p = (1+w)/(1-w) one has c1 = 2 w1, so a2 = c1/(2W) means a2 = w1/W
    rng = np.random.default_rng(5)
    for _ in range(5):
        w1 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        w = TruncatedSeries([0, w1, 0.1], order=8)
        p = ClassParams(rng.uniform(0, 1), rng.uniform(0, 1), 1.0)
        f = solve_from_schwarz(w, p, 8)
        assert f.coeffs[2] == pytest.approx(w1 / p.W, abs=1e-9)
