import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtnbounds import verify
from gtnbounds.caratheodory import (
    GridSpec,
    ParameterOutOfRange,
    brute_force_sup,
    lemma1_bound,
    lemma3_bound,
    lemma4_bound,
    sample_point,
)
from gtnbounds.verify import LEMMA1_V_VALUES


def test_sample_boundary_collapse():
    p = sample_point(1.0, 0.0, 0.37, 2.1)
    assert p.c1 == pytest.approx(2.0)
    assert p.c2 == pytest.approx(2.0)


def test_sample_center_top():
    p = sample_point(0.0, 0.0, 1.0, 0.0)
    assert p.c1 == pytest.approx(0.0)
    assert p.c2 == pytest.approx(2.0)


def test_sample_imaginary_axis():
    p = sample_point(1.0, math.pi / 2, 0.0, 0.0)
    assert p.c1 == pytest.approx(2j)
    assert p.c2 == pytest.approx(-2.0)


def test_sample_rejects_out_of_range():
    with pytest.raises(ParameterOutOfRange):
        sample_point(1.2, 0.0, 0.0, 0.0)
    with pytest.raises(ParameterOutOfRange):
        sample_point(0.5, 0.0, -0.1, 0.0)


def test_every_sampled_point_is_admissible():
    # construction guarantee on 1e5 random parameter draws
    rng = np.random.default_rng(7)
    n = 100_000
    rho, tau = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    alpha, beta = rng.uniform(0, 2 * np.pi, n), rng.uniform(0, 2 * np.pi, n)
    c1 = 2 * rho * np.exp(1j * alpha)
    c2 = c1**2 / 2 + (2 - np.abs(c1) ** 2 / 2) * tau * np.exp(1j * beta)
    assert np.all(np.abs(c1) <= 2 + 1e-12)
    assert np.all(np.abs(c2 - c1**2 / 2) <= 2 - np.abs(c1) ** 2 / 2 + 1e-12)
    # spot-check the scalar constructor agrees with the vectorized formula
    for i in range(0, n, 9973):
        p = sample_point(rho[i], alpha[i], tau[i], beta[i])
        assert p.c1 == pytest.approx(complex(c1[i]))
        assert p.c2 == pytest.approx(complex(c2[i]))
        assert p.is_admissible()


@pytest.mark.parametrize(
    "v,expected",
    [(0.0, 2.0), (2.0, 6.0), (-1.0, 6.0), (0.5, 2.0), (1.0, 2.0)],
)
def test_lemma1_values(v, expected):
    assert lemma1_bound(v) == pytest.approx(expected)


def test_lemma3_values():
    assert lemma3_bound(0.5) == pytest.approx(2.0)
    assert lemma3_bound(0.0) == pytest.approx(2.0)
    assert lemma3_bound(1 + 1j) == pytest.approx(2 * math.sqrt(5))


def test_lemma4_values():
    assert lemma4_bound(1.0) == pytest.approx(2.0)
    assert lemma4_bound(3.0) == pytest.approx(4.0)
    assert lemma4_bound(0.0) == pytest.approx(2.0)


@given(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_lemma4_is_lemma3_at_half_argument(hbar):
    assert lemma4_bound(hbar) == pytest.approx(lemma3_bound(hbar / 2), abs=1e-12)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 10, 10, 10)
    assert GridSpec.uniform(5).beta_steps == 5


def test_sup_of_c1_modulus_hits_two():
    sup, w = brute_force_sup(lambda c1, c2: np.abs(c1), GridSpec.uniform(12))
    assert sup == pytest.approx(2.0)
    assert abs(w.c1) == pytest.approx(2.0)


@pytest.mark.parametrize("v", [-1.0, -0.3, 0.0, 0.25, 0.5, 0.75, 1.0, 1.6, 2.0])
def test_real_functional_sup_bracketed_by_piecewise_bound(v):
    sup, _ = brute_force_sup(
        lambda c1, c2: np.abs(c2 - v * c1**2), GridSpec.uniform(60)
    )
    assert sup <= lemma1_bound(v) + 1e-9
    assert sup >= lemma1_bound(v) - 0.05


def test_complex_functional_sup_bracketed_by_max_bound():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        sup, _ = brute_force_sup(
            lambda c1, c2: np.abs(c2 - v * c1**2), GridSpec.uniform(40)
        )
        assert sup <= lemma3_bound(v) + 1e-9
        assert sup >= lemma3_bound(v) - 0.05


def test_sup_is_deterministic_and_lex_tie_broken():
    grid = GridSpec.uniform(9)
    run1 = brute_force_sup(lambda c1, c2: np.abs(c1) * 0.0 + 1.0, grid)
    run2 = brute_force_sup(lambda c1, c2: np.abs(c1) * 0.0 + 1.0, grid)
    assert run1 == run2
    # a constant functional ties everywhere: the witness must be the first
    # grid point in (rho, alpha, tau, beta) order
    _, w = run1
    assert w.c1 == pytest.approx(0.0)
    assert w.c2 == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# The row-pruned scan must return exactly what the plain 4-D scan returns.

def reference_sup(functional, grid):
    """The unpruned scan: every rho row, lexicographic, strict improvement."""
    rho = np.linspace(0.0, 1.0, grid.rho_steps)
    alpha = np.linspace(0.0, 2.0 * np.pi, grid.alpha_steps, endpoint=False)
    tau = np.linspace(0.0, 1.0, grid.tau_steps)
    beta = np.linspace(0.0, 2.0 * np.pi, grid.beta_steps, endpoint=False)
    phase_b = np.exp(1j * beta)
    best, best_params = -np.inf, (0.0, 0.0, 0.0, 0.0)
    for r in rho:
        c1_row = 2.0 * r * np.exp(1j * alpha)
        radius = 2.0 - np.abs(c1_row) ** 2 / 2.0
        c1 = c1_row[:, None, None]
        c2 = c1**2 / 2.0 + radius[:, None, None] * tau[None, :, None] * phase_b[None, None, :]
        vals = np.broadcast_to(np.asarray(functional(c1, c2), dtype=float), c2.shape)
        idx = int(np.argmax(vals))
        m = float(vals.flat[idx])
        if m > best:
            ia, it, ib = np.unravel_index(idx, c2.shape)
            best = m
            best_params = (float(r), float(alpha[ia]), float(tau[it]), float(beta[ib]))
    return best, sample_point(*best_params)


def fekete(v):
    return lambda c1, c2: np.abs(c2 - v * c1**2)


def modulus_c1(c1, c2):
    return np.abs(c1)


def constant(c1, c2):
    return np.abs(c1) * 0.0 + 1.0


def weighted(v, s):
    """Invariant, with its maximum inside the rho range: which row wins depends
    on how close the beta grid comes to the optimal phase."""
    return lambda c1, c2: np.abs(c2 - v * c1**2) * (1.0 + s * np.abs(c1) * (2.0 - np.abs(c1)))


SEEDED_V = [
    complex(a, b)
    for a, b in np.random.default_rng(4321).uniform(-2.0, 2.0, size=(40, 2))
]
DEGENERATE_V = [0.0, 1.0, 0.5 + 0.5j, 0.5 - 0.5j]  # every rho row attains 2
GRIDS = [2, 3, 4, 5, 7, 8, 12, 16, 24]


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("v", list(LEMMA1_V_VALUES) + DEGENERATE_V[2:])
def test_pruned_scan_is_exact_for_lemma_functionals(v, n):
    grid = GridSpec.uniform(n)
    assert brute_force_sup(fekete(v), grid) == reference_sup(fekete(v), grid)


@pytest.mark.parametrize("v", SEEDED_V)
def test_pruned_scan_is_exact_for_seeded_complex_v(v):
    grid = GridSpec.uniform(16)
    assert brute_force_sup(fekete(v), grid) == reference_sup(fekete(v), grid)


@pytest.mark.parametrize("n", range(2, 25))
@pytest.mark.parametrize("functional", [modulus_c1, constant])
def test_pruned_scan_is_exact_for_c1_modulus_and_constant(functional, n):
    grid = GridSpec.uniform(n)
    assert brute_force_sup(functional, grid) == reference_sup(functional, grid)


@pytest.mark.parametrize(
    "grid",
    [
        # alpha and beta grids not aligned (2 * beta_steps % alpha_steps != 0)
        GridSpec(6, 5, 6, 7),
        GridSpec(6, 7, 7, 5),
        # aligned
        GridSpec(9, 3, 4, 6),
        GridSpec(7, 8, 5, 4),
        GridSpec(5, 4, 3, 6),
        GridSpec.uniform(12),
    ],
    ids=lambda g: f"{g.rho_steps}x{g.alpha_steps}x{g.tau_steps}x{g.beta_steps}",
)
@pytest.mark.parametrize(
    "functional",
    [modulus_c1, constant, fekete(0.3 - 1.1j), fekete(0.0),
     weighted(-0.5 + 0.5j, 1.5), weighted(0.5 + 1.5j, 0.5)],
    ids=["c1", "constant", "fekete-a", "fekete-b", "weighted-a", "weighted-b"],
)
def test_pruned_scan_is_exact_on_non_uniform_grids(grid, functional):
    assert brute_force_sup(functional, grid) == reference_sup(functional, grid)


def test_pruned_scan_is_exact_for_every_verify_closure(monkeypatch):
    checked = []

    def checking_sup(functional, grid):
        got = brute_force_sup(functional, grid)
        assert got == reference_sup(functional, grid)
        checked.append(got)
        return got

    monkeypatch.setattr(verify, "brute_force_sup", checking_sup)
    reports, _ = verify.run_suite("full", 1.0, GridSpec.uniform(12))
    assert len(checked) == len(reports) == 87


def _recorded_scan(functional, grid):
    """The scan's result and the shape of c2 in each call of the functional."""
    shapes = []

    def recorded(c1, c2):
        shapes.append(c2.shape)
        return functional(c1, c2)

    return brute_force_sup(recorded, grid), shapes


def _calls_per_scan(functional, grid):
    return len(_recorded_scan(functional, grid)[1])


def test_scan_skips_rows_that_cannot_hold_the_maximum():
    # |c1| peaks only at rho = 1: the reduced pass plus that one row
    assert _calls_per_scan(modulus_c1, GridSpec.uniform(12)) == 2
    # |c2 - v c1^2| reaches 2 on every row, so every row is scanned after the pass
    for v in DEGENERATE_V:
        assert _calls_per_scan(fekete(v), GridSpec.uniform(12)) == 1 + 12
    # without aligned alpha and beta grids there is no reduced pass
    assert _calls_per_scan(modulus_c1, GridSpec(6, 5, 6, 7)) == 6


def _points_per_scan(functional, grid):
    return sum(math.prod(shape) for shape in _recorded_scan(functional, grid)[1])


def test_scan_evaluates_only_candidate_rho_tau_pairs():
    # the reduced pass costs 12^3 points; the rows then keep tau = 1 only,
    # except rho = 1, where the radius vanishes and every tau ties
    for v in DEGENERATE_V:
        assert _points_per_scan(fekete(v), GridSpec.uniform(12)) == 12**3 + 23 * 12**2
    # |c1| ignores tau: the whole rho = 1 row is kept
    assert _points_per_scan(modulus_c1, GridSpec.uniform(12)) == 2 * 12**3
    # without aligned alpha and beta grids every row is scanned in full
    assert _points_per_scan(modulus_c1, GridSpec(6, 5, 6, 7)) == 6 * 5 * 6 * 7


def flat_top(distance, eps):
    """Invariant, flat at -eps where ``distance`` <= eps and peaked at
    |c1| = 1: the best rows keep only interior tau values, most rows none."""
    return lambda c1, c2: -np.maximum(distance(c1, c2), eps) - np.abs(np.abs(c1) - 1.0)


@pytest.mark.parametrize("n", [9, 12, 16, 24])
@pytest.mark.parametrize(
    "functional",
    [
        flat_top(lambda c1, c2: np.abs(np.abs(c2 - c1**2 / 2) - 0.9), 0.1),
        flat_top(lambda c1, c2: np.abs(c2 - (-0.4 + 0.9j) * c1**2), 0.15),
    ],
    ids=["modulus-band", "phase-band"],
)
def test_pruned_scan_is_exact_when_rows_keep_part_of_tau(functional, n):
    grid = GridSpec.uniform(n)
    got, shapes = _recorded_scan(functional, grid)
    assert got == reference_sup(functional, grid)
    # after the reduced pass, some row is scanned on a strict subset of tau
    assert any(0 < shape[1] < n for shape in shapes[1:])
    _, w = got
    tau_w = abs(w.c2 - w.c1**2 / 2) / (2 - abs(w.c1) ** 2 / 2)
    assert 0.0 < tau_w < 1.0
