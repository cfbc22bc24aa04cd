import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtnbounds import series as ps
from gtnbounds.series import TruncatedSeries


def S(coeffs, order=None):
    return TruncatedSeries(coeffs, order=order)


def max_coeff_diff(a, b):
    """Max absolute coefficient difference up to the smaller order."""
    n = min(a.order, b.order)
    return float(np.max(np.abs(a.coeffs[: n + 1] - b.coeffs[: n + 1])))


def assert_coeffs(series, expected, tol=1e-12):
    got = series.coeffs
    want = np.asarray(expected, dtype=complex)
    assert got.size == want.size, f"order mismatch: {got.size - 1} vs {want.size - 1}"
    assert np.max(np.abs(got - want)) <= tol


# --- add -------------------------------------------------------------------

def test_add_cancellation():
    assert_coeffs(ps.add(S([1, 1]), S([1, -1])), [2, 0])


def test_add_identity():
    assert_coeffs(ps.add(S([0, 1, 1]), S([0], order=2)), [0, 1, 1])


def test_add_min_order_rule():
    for out in (ps.add(S([1, 2]), S([3, 4, 5])), ps.add(S([3, 4, 5]), S([1, 2]))):
        assert out.order == 1
        assert_coeffs(out, [4, 6])


# --- mul -------------------------------------------------------------------

def test_mul_difference_of_squares():
    assert_coeffs(ps.mul(S([1, 1], order=2), S([1, -1], order=2)), [1, 0, -1])


def test_mul_monomials():
    assert_coeffs(ps.mul(S([0, 1], order=2), S([0, 1], order=2)), [0, 0, 1])


def test_mul_hand_convolution():
    # (1 + z + z^2)^2 = 1 + 2z + 3z^2 + ...
    a = S([1, 1, 1])
    assert_coeffs(ps.mul(a, a), [1, 2, 3])


# --- div -------------------------------------------------------------------

def test_div_geometric():
    assert_coeffs(ps.div(ps.one(5), S([1, -1], order=5)), [1, 1, 1, 1, 1, 1])


def test_div_exact_factor():
    assert_coeffs(ps.div(S([0, 1, 1], order=3), S([1, 1], order=3)), [0, 1, 0, 0])


def test_div_by_non_unit():
    with pytest.raises(ValueError, match="denominator constant term"):
        ps.div(ps.one(3), S([0, 1], order=3))


# --- exp / log -------------------------------------------------------------

def test_exp_of_z():
    assert_coeffs(ps.exp_series(S([0, 1], order=3)), [1, 1, 0.5, 1 / 6])


def test_exp_characteristic_argument():
    # exp(z + z^2/2) carries the weight-1 telephone numbers over factorials
    out = ps.exp_series(S([0, 1, 0.5], order=3))
    assert_coeffs(out, [1, 1, 1, 2 / 3])


def test_exp_of_zero():
    assert_coeffs(ps.exp_series(S([0], order=4)), [1, 0, 0, 0, 0])


def test_exp_rejects_constant():
    with pytest.raises(ValueError, match="exp needs a zero constant term"):
        ps.exp_series(S([0.5, 1]))


def test_log_mercator():
    out = ps.log_series(ps.div(ps.one(3), S([1, -1], order=3)))
    assert_coeffs(out, [0, 1, 0.5, 1 / 3])


def test_log_exp_round_trip():
    a = S([0, 1, 1], order=6)
    assert max_coeff_diff(ps.log_series(ps.exp_series(a)), a) <= 1e-12


def test_log_rejects_non_unit_constant():
    with pytest.raises(ValueError, match="log needs constant term 1"):
        ps.log_series(S([2, 1]))


# --- pow -------------------------------------------------------------------

def test_pow_integer():
    assert_coeffs(ps.pow_real(S([1, 1], order=2), 2.0), [1, 2, 1], tol=1e-14)


def test_pow_binomial_half():
    assert_coeffs(ps.pow_real(S([1, 1], order=2), 0.5), [1, 0.5, -0.125], tol=1e-14)


def test_pow_zero_exponent():
    a = S([1, 0.3, -0.2, 0.7])
    assert_coeffs(ps.pow_real(a, 0.0), [1, 0, 0, 0])
    assert_coeffs(ps.pow_real(S([1]), 0.0), [1])   # one(0)


# --- compose / revert ------------------------------------------------------

def test_compose_square_substitution():
    out = ps.compose(S([1, 1, 1], order=4), S([0, 0, 1], order=4))
    assert_coeffs(out, [1, 0, 1, 0, 1])


def test_compose_identity_inner():
    from gtnbounds.telephone import x_series

    xs = x_series(1.0, 6)
    assert max_coeff_diff(ps.compose(xs, S([0, 1], order=6)), xs) <= 1e-14


def test_compose_exp_after_log():
    geom = ps.div(ps.one(6), S([1, -1], order=6))
    exp6 = ps.exp_series(S([0, 1], order=6))
    out = ps.compose(exp6, ps.log_series(geom))
    assert max_coeff_diff(out, geom) <= 1e-12


def test_compose_at_orders_zero_and_one():
    assert_coeffs(ps.compose(S([2, 3, 4]), S([0])), [2])
    assert_coeffs(ps.compose(S([2, 3, 4]), S([0, 5])), [2, 15])


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(ValueError, match="inner series must have zero constant term"):
        ps.compose(S([1, 1]), S([1, 1]))


def test_revert_identity():
    assert_coeffs(ps.revert(S([0, 1], order=4)), [0, 1, 0, 0, 0])


def test_revert_catalan_signs():
    out = ps.revert(S([0, 1, 1], order=4))
    assert_coeffs(out, [0, 1, -1, 2, -5], tol=1e-12)
    # independent check: composing back gives z
    back = ps.compose(S([0, 1, 1], order=4), out)
    assert_coeffs(back, [0, 1, 0, 0, 0], tol=1e-12)


def test_revert_rejects_zero_linear_term():
    with pytest.raises(ValueError, match="compositional inverse"):
        ps.revert(S([0, 0, 1]))


@pytest.mark.parametrize("coeffs", [[0.0], [0j], [1.0], [np.nan]])
def test_revert_refuses_an_order_zero_series(coeffs):
    # no c1 to invert: the same refusal as a zero c1, not an IndexError
    with pytest.raises(ValueError) as order_zero:
        ps.revert(S(coeffs))
    with pytest.raises(ValueError) as zero_c1:
        ps.revert(S([0, 0, 1]))
    assert str(order_zero.value) == str(zero_c1.value)


def _revert_by_division(a):
    """``revert`` with z/a formed by ``div``, one ``np.dot`` per coefficient,
    as first written."""
    n = a.order
    h = ps.div(ps.one(n - 1), S(a.coeffs[1:])).coeffs
    b = np.zeros(n + 1, dtype=complex)
    b[1] = h[0]
    p = h
    for m in range(2, n + 1):
        p = np.convolve(p, h)[:n]
        b[m] = p[m - 1] / m
    return b


@pytest.mark.parametrize("c1", [1.0, 2 - 0.5j])
def test_revert_matches_the_division_route(c1):
    # the reciprocal recurrence sums in another order than np.dot, so the
    # two agree to rounding (4.1e-15 of the largest coefficient at most
    # here), not bit for bit
    rng = np.random.default_rng(71)
    for order in range(1, 61):
        tail = rng.normal(size=order - 1) + 1j * rng.normal(size=order - 1)
        a = S(np.concatenate(([0, c1], 0.5 * abs(c1) * tail)))
        got, want = ps.revert(a).coeffs, _revert_by_division(a)
        assert got.size == want.size == order + 1
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), order
        assert got.flags.writeable is False


# --- derive -----------------------------------------------------------------

def test_derive_cubic():
    assert_coeffs(ps.derive(S([0, 0, 0, 1])), [0, 0, 3])


def test_derive_at_orders_zero_and_one():
    assert_coeffs(ps.derive(S([3])), [0])
    assert_coeffs(ps.derive(S([3, 2])), [2])


# --- immutability ----------------------------------------------------------

def _results():
    a = S([1, 0.5, -0.25j, 0.125, 2])
    z = S([0, 1, 0.5j, -0.25, 0.1])
    yield "constructor", a
    yield "zero", S([0], order=3)
    yield "one", ps.one(3)
    yield "identity", S([0, 1], order=3)
    yield "add", ps.add(a, z)
    yield "scale", ps.scale(a, 2.5j)
    yield "mul", ps.mul(a, z)
    yield "div", ps.div(z, a)
    yield "exp_series", ps.exp_series(z)
    yield "log_series", ps.log_series(a)
    yield "pow_real", ps.pow_real(a, 0.3)
    yield "pow_real 0", ps.pow_real(a, 0.0)
    yield "compose", ps.compose(a, z)
    yield "revert", ps.revert(z)
    yield "derive", ps.derive(a)
    yield "derive order 0", ps.derive(S([3]))
    yield "truncate down", S(a.coeffs, order=2)
    yield "truncate same", S(a.coeffs, order=a.order)
    yield "truncate up", S(a.coeffs, order=7)


RESULTS = dict(_results())


@pytest.mark.parametrize("name", list(RESULTS))
def test_every_result_is_read_only(name):
    coeffs = RESULTS[name].coeffs
    assert coeffs.flags.writeable is False
    with pytest.raises(ValueError):
        coeffs[0] = 7.0


def test_repr_shows_six_digits():
    assert repr(S([1 / 3, 2j])) == "TruncatedSeries([0.333333+0.j 0.      +2.j])"


def test_constructor_copies_its_input():
    arr = np.array([1.0, 2.0, 3.0], dtype=complex)
    a = TruncatedSeries(arr)
    arr[1] = -5.0
    assert_coeffs(a, [1, 2, 3], tol=0)
    assert arr.flags.writeable


def test_boundary_circle_is_cached_and_read_only():
    z = ps._CIRCLE
    assert z.flags.writeable is False
    angles = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    assert z.tobytes() == (0.99 * np.exp(1j * angles)).tobytes()


def test_boundary_max_is_horners_to_rounding(monkeypatch):
    # one product with a table of circle powers, against Horner's rule.  From
    # a one-row table the orders run down, then up, then at random, so the
    # table grows past its height and is read below it in either order
    monkeypatch.setattr(ps, "_POWERS", ps._POWERS[:1])
    rng = np.random.default_rng(61)
    orders = [*range(40, -1, -1), *range(41, 81), *rng.integers(0, 81, 40)]
    for order in orders:
        c = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        want = np.max(np.abs(np.polyval(c[::-1], ps._CIRCLE)))
        got = ps.boundary_max(S(c))
        assert abs(got - want) <= 1e-14 * want, order
    assert ps._POWERS.flags.writeable is False
    assert ps._POWERS.shape == (81, 256)


# --- property tests --------------------------------------------------------

small_complex = st.complex_numbers(
    max_magnitude=0.6, allow_nan=False, allow_infinity=False
)


@given(st.lists(small_complex, min_size=12, max_size=12))
@settings(max_examples=60, deadline=None)
def test_exp_log_round_trips_order_12(tail):
    a = S([0] + list(tail), order=12)
    assert max_coeff_diff(ps.log_series(ps.exp_series(a)), a) <= 1e-10
    b = S([1] + list(tail), order=12)
    assert max_coeff_diff(ps.exp_series(ps.log_series(b)), b) <= 1e-10


@given(
    st.lists(small_complex, min_size=9, max_size=9),
    st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=40, deadline=None)
def test_revert_is_compositional_inverse_order_10(tail, a1):
    # tail scaled by |a1| to keep the inverse well conditioned in doubles
    a = S([0, a1] + [0.5 * abs(a1) * t for t in tail], order=10)
    back = ps.compose(a, ps.revert(a))
    assert max_coeff_diff(back, S([0, 1], order=10)) <= 1e-10


@given(
    st.lists(small_complex, min_size=9, max_size=9),
    st.lists(small_complex, min_size=9, max_size=9),
    st.lists(small_complex, min_size=9, max_size=9),
)
@settings(max_examples=60, deadline=None)
def test_mul_commutative_associative_order_8(xs, ys, zs):
    a, b, c = S(xs, order=8), S(ys, order=8), S(zs, order=8)
    assert max_coeff_diff(ps.mul(a, b), ps.mul(b, a)) <= 1e-12
    assert max_coeff_diff(ps.mul(ps.mul(a, b), c), ps.mul(a, ps.mul(b, c))) <= 1e-12


@given(
    st.lists(small_complex, min_size=8, max_size=8),
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_pow_additivity(tail, p, q):
    a = S([1] + list(tail), order=8)
    lhs = ps.pow_real(a, p + q)
    rhs = ps.mul(ps.pow_real(a, p), ps.pow_real(a, q))
    assert max_coeff_diff(lhs, rhs) <= 1e-10
