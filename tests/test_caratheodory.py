import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtnbounds import caratheodory, verify
from gtnbounds.bazilevic import ClassParams
from gtnbounds.caratheodory import (
    MAX_SCAN_VALUES,
    FunctionalIsNaN,
    GridSpec,
    _collapsible,
    _evaluate,
    _leading,
    _near_points,
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
    with pytest.raises(ValueError, match="rho and tau must lie in"):
        sample_point(1.2, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="rho and tau must lie in"):
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


@pytest.mark.parametrize(
    "bound,v",
    [(lemma1_bound, math.nan), (lemma3_bound, math.nan), (lemma3_bound, complex(0.5, math.nan)),
     (lemma4_bound, math.nan), (lemma4_bound, complex(math.nan, 0.0))],
)
def test_lemma_bounds_propagate_nan(bound, v):
    # max(1.0, nan) is 1.0: a NaN argument must not become a finite bound
    assert math.isnan(bound(v))


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="must be >= 2"):
        GridSpec(1)
    grid = GridSpec.uniform(5)
    # one step count, read as each parameter's through read-only aliases
    assert [f.name for f in dataclasses.fields(GridSpec)] == ["steps"]
    assert (grid.rho_steps, grid.alpha_steps, grid.tau_steps, grid.beta_steps) == (5, 5, 5, 5)
    with pytest.raises(AttributeError):
        grid.beta_steps = 6


def test_grid_spec_refuses_a_pass_above_the_cap():
    # the largest pass is steps^3 points: 128^3 is 2^21
    assert GridSpec.uniform(128).steps == 128
    for n in (129, 1025):
        with pytest.raises(ValueError, match=f"cap of {MAX_SCAN_VALUES}"):
            GridSpec.uniform(n)


def test_a_uniform_grid_is_one_instance_per_size():
    assert GridSpec.uniform(7) is GridSpec.uniform(7)
    assert GridSpec.uniform(7) is not GridSpec.uniform(8)
    # equal to a grid built directly, which has axes of its own
    assert GridSpec.uniform(7) == GridSpec(7) and GridSpec(7) is not GridSpec(7)


def test_a_uniform_grid_builds_its_axes_and_phases_once(monkeypatch):
    grid = GridSpec.uniform(11)
    axes, phases = grid.axes, grid.phases
    built = []
    monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: built.append(args))
    for _ in range(3):
        again = GridSpec.uniform(11)
        assert again.axes is axes and again.phases is phases
    assert built == []


def stack_of(*functionals):
    """The stack of ``functionals``: one callable that returns their values
    as a tuple, the one call shape the scan takes."""
    return lambda c1, c2: tuple(f(c1, c2) for f in functionals)


def test_sup_of_c1_modulus_hits_two():
    sup, w = brute_force_sup(stack_of(lambda c1, c2: np.abs(c1)), GridSpec.uniform(12))[0]
    assert sup == pytest.approx(2.0)
    assert abs(w.c1) == pytest.approx(2.0)


@pytest.mark.parametrize("v", [-1.0, -0.3, 0.0, 0.25, 0.5, 0.75, 1.0, 1.6, 2.0])
def test_real_functional_sup_bracketed_by_piecewise_bound(v):
    sup, _ = brute_force_sup(
        stack_of(lambda c1, c2: np.abs(c2 - v * c1**2)), GridSpec.uniform(60)
    )[0]
    assert sup <= lemma1_bound(v) + 1e-9
    assert sup >= lemma1_bound(v) - 0.05


def test_complex_functional_sup_bracketed_by_max_bound():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        sup, _ = brute_force_sup(
            stack_of(lambda c1, c2: np.abs(c2 - v * c1**2)), GridSpec.uniform(40)
        )[0]
        assert sup <= lemma3_bound(v) + 1e-9
        assert sup >= lemma3_bound(v) - 0.05


def test_sup_is_deterministic_and_lex_tie_broken():
    grid = GridSpec.uniform(9)
    run1 = brute_force_sup(stack_of(lambda c1, c2: np.abs(c1) * 0.0 + 1.0), grid)
    run2 = brute_force_sup(stack_of(lambda c1, c2: np.abs(c1) * 0.0 + 1.0), grid)
    assert run1 == run2
    # a constant functional ties everywhere: the witness must be the first
    # grid point in (rho, alpha, tau, beta) order
    (_, w), = run1
    assert w.c1 == pytest.approx(0.0)
    assert w.c2 == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# The row-pruned scan must return exactly what the plain 4-D scan returns.

def reference_sup(stack, grid):
    """The unpruned scan of a stack: every rho row, lexicographic, strict
    improvement; the list of each member's result."""
    rho = tau = np.linspace(0.0, 1.0, grid.steps)
    alpha = beta = np.linspace(0.0, 2.0 * np.pi, grid.steps, endpoint=False)
    phase_b = np.exp(1j * beta)
    best = None
    for r in rho:
        c1_row = 2.0 * r * np.exp(1j * alpha)
        radius = 2.0 - np.abs(c1_row) ** 2 / 2.0
        c1 = c1_row[:, None, None]
        c2 = c1**2 / 2.0 + radius[:, None, None] * tau[None, :, None] * phase_b[None, None, :]
        members = stack(c1, c2)
        if best is None:
            best = [(-np.inf, (0.0, 0.0, 0.0, 0.0)) for _ in members]
        for k, member in enumerate(members):
            vals = np.broadcast_to(np.asarray(member, dtype=float), c2.shape)
            idx = int(np.argmax(vals))
            m = float(vals.flat[idx])
            if m > best[k][0]:
                ia, it, ib = np.unravel_index(idx, c2.shape)
                best[k] = m, (float(r), float(alpha[ia]), float(tau[it]), float(beta[ib]))
    return [(m, sample_point(*params)) for m, params in best]


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
    grid, stack = GridSpec.uniform(n), stack_of(fekete(v))
    assert brute_force_sup(stack, grid) == reference_sup(stack, grid)


@pytest.mark.parametrize("v", SEEDED_V)
def test_pruned_scan_is_exact_for_seeded_complex_v(v):
    grid, stack = GridSpec.uniform(16), stack_of(fekete(v))
    assert brute_force_sup(stack, grid) == reference_sup(stack, grid)


@pytest.mark.parametrize("n", range(2, 25))
@pytest.mark.parametrize("functional", [modulus_c1, constant])
def test_pruned_scan_is_exact_for_c1_modulus_and_constant(functional, n):
    grid, stack = GridSpec.uniform(n), stack_of(functional)
    assert brute_force_sup(stack, grid) == reference_sup(stack, grid)


# ---------------------------------------------------------------------------
# Named grid cases: a uniform grid and the points per block the scan uses on
# it (None: BLOCK_POINTS).  A block below BLOCK_POINTS brings the branches
# that BLOCK_POINTS reaches only from 46 steps on (slices of more than half a
# block, which take a call each and collapse; a mask over several blocks) to
# grids small enough for reference_sup.  Each case is named by the
# rho x alpha x tau x beta steps of the grid it ran on when the four counts
# could differ, and keeps that grid's alpha count, which alone decides which
# slices of the rho = 1 row collapse.

MULTI_BLOCK = "25x16x15x24"
LONG_ROWS = "25x25x15x16"
WIDE_SLICE = "3x4x70x80"
PART_COLLAPSED = "3x8x46x48"
OPEN_SLICES = "3x9x50x48"
GRID_CASES = {
    # one block holds every call
    "9x3x4x6": (3, None),
    "5x4x3x6": (4, None),
    "6x5x6x7": (5, None),
    "6x7x7x5": (7, None),
    "7x8x5x4": (8, None),
    # 256 points per slice, 4 per block: alpha splits 4 + 4 + 4 + 4
    MULTI_BLOCK: (16, 1024),
    # 625 points per slice, 6 per block: alpha splits 6 + 6 + 6 + 6 + 1
    LONG_ROWS: (25, None),
    # slices of 16 points, over half a block of 24; every rho = 1 slice has
    # radius 0.0
    WIDE_SLICE: (4, 24),
    # slices of 64 points, over half a block of 96; 7 of the 8 rho = 1 slices
    # have radius 0.0, all but alpha index 5
    PART_COLLAPSED: (8, 96),
    # slices of 81 points, over half a block of 128; 7 of the 9 rho = 1
    # slices have radius 0.0, all but alpha indices 1 and 2
    OPEN_SLICES: (9, 128),
}


def use_case(monkeypatch, name: str) -> GridSpec:
    """The grid of the case ``name``, with its block size in force."""
    n, block = GRID_CASES[name]
    if block is not None:
        monkeypatch.setattr(caratheodory, "BLOCK_POINTS", block)
    return GridSpec.uniform(n)


@pytest.fixture
def grid(request, monkeypatch):
    """A grid parameter: a GridSpec, or the name of a case of GRID_CASES."""
    param = request.param
    return param if isinstance(param, GridSpec) else use_case(monkeypatch, param)


def _grid_id(case):
    return case if isinstance(case, str) else "x".join([str(case.steps)] * 4)


@pytest.mark.parametrize(
    "grid", ["6x5x6x7", "6x7x7x5", "9x3x4x6", "7x8x5x4", "5x4x3x6", GridSpec.uniform(12)],
    indirect=True, ids=_grid_id,
)
@pytest.mark.parametrize(
    "functional",
    [modulus_c1, constant, fekete(0.3 - 1.1j), fekete(0.0),
     weighted(-0.5 + 0.5j, 1.5), weighted(0.5 + 1.5j, 0.5)],
    ids=["c1", "constant", "fekete-a", "fekete-b", "weighted-a", "weighted-b"],
)
def test_pruned_scan_is_exact_on_non_uniform_grids(grid, functional):
    stack = stack_of(functional)
    assert brute_force_sup(stack, grid) == reference_sup(stack, grid)


def member_of(stack, k):
    """Member ``k`` of a stack as a stack of its own."""
    return lambda c1, c2: (stack(c1, c2)[k],)


def test_pruned_scan_is_exact_for_every_verify_closure(monkeypatch):
    checked = []

    def checking_sup(functional, grid):
        got = brute_force_sup(functional, grid)
        assert got == reference_sup(functional, grid)
        # each member's result is that of a scan of the member alone
        assert got == [brute_force_sup(member_of(functional, k), grid)[0]
                       for k in range(len(got))]
        checked.append(got)
        return got

    monkeypatch.setattr(verify, "brute_force_sup", checking_sup)
    # at grid 12 nothing collapses; on PART_COLLAPSED part of the rho = 1 row does
    for grid in (GridSpec.uniform(12), use_case(monkeypatch, PART_COLLAPSED)):
        checked.clear()
        reports, _ = verify.run_suite("full", 1.0, grid)
        # 87 reports from 6 stacked scans: per preset, one of its 9 distinct
        # forms (a3, fs(0), inverse-fs(2) and conv-fs(unit) are one form,
        # fs(2) and inverse-fs(0) another, log-g2 and fs(1/2) a third), and
        # one of the 17 lemma functionals
        assert len(reports) == 87
        assert [len(got) for got in checked] == [9] * 5 + [17]


def _recorded_scan(stack, grid):
    """The scan's result and the shape of c2 in each call of the stack."""
    shapes = []

    def recorded(c1, c2):
        shapes.append(c2.shape)
        return stack(c1, c2)

    return brute_force_sup(recorded, grid), shapes


def _calls_per_scan(functional, grid):
    return len(_recorded_scan(stack_of(functional), grid)[1])


def test_scan_skips_rows_that_cannot_hold_the_maximum():
    # Slices of 144 points share blocks, so nothing collapses at grid 12.
    # |c1| peaks only at rho = 1: the reduced pass plus that one row
    assert _calls_per_scan(modulus_c1, GridSpec.uniform(12)) == 2
    # |c2 - v c1^2| reaches 2 on every row, at tau = 1: rho = 0 (at every
    # beta) and rho = 1 (one value) are scanned whole, and the 10 rows
    # between, each near at one beta, along their orbits in one call
    for v in DEGENERATE_V:
        assert _calls_per_scan(fekete(v), GridSpec.uniform(12)) == 1 + 2 + 1
    # The pair mask evaluates tau = 0 and 1 only, 120 points per rho: 34 rho
    # values per block, so 2 calls.  Slices of 3600 points take a call each:
    # the rho = 1 row's 38 slices of radius 0.0 in one call, then its 22 others.
    assert _calls_per_scan(modulus_c1, GridSpec.uniform(60)) == 2 + 1 + 22
    for v in DEGENERATE_V:
        # rho = 0 keeps tau = 1 only, its 60 slices of 60 points in one call;
        # the 58 rows between take one call of 58 x 60 orbit points
        assert _calls_per_scan(fekete(v), GridSpec.uniform(60)) == 2 + 1 + 1 + 1 + 22


def _points_per_scan(functional, grid):
    return sum(math.prod(shape) for shape in _recorded_scan(stack_of(functional), grid)[1])


def _near(stack, grid):
    """The scan's near points at tau = 0 and 1, (R, 2, B), and its kept
    (rho, tau) pairs, (R, T), for ``stack`` on ``grid``: the tau ends that
    hold a near point, and the scanned tau values of the rows scanned whole."""
    rho, _, _, _ = grid.axes
    near, whole = _near_points(stack, grid, *_leading(rho, grid.phases[0][0]))
    keep = np.zeros((grid.steps, grid.steps), dtype=bool)
    keep[:, ::grid.steps - 1] = near.any(axis=2)
    for i, tau_at in whole:
        keep[i, tau_at] = True
    return near, keep


def _mask(stack, grid):
    """The scan's kept (rho, tau) pairs of ``stack`` on ``grid``."""
    return _near(stack, grid)[1]


def full_pass_near(stack, grid):
    """The near points at tau = 0 and 1, (R, 2, B), and the kept pairs,
    (R, T), from every point of the alpha = 0 slices, with no convexity
    bound: each member's points and pairs within ``2 * delta`` of its top."""
    rho, _, tau, _ = grid.axes
    phase_a, phase_b = grid.phases
    c1_col, radius_col = _leading(rho, phase_a[0])
    ends, pair_max = None, None
    for r in range(len(rho)):
        block = _evaluate(stack, c1_col[r], radius_col[r], tau[:, None], phase_b)
        if ends is None:
            ends = np.empty((len(block), len(rho), 2, len(phase_b)))
            pair_max = np.empty((len(block), len(rho), len(tau)))
        for k, vals in enumerate(block):
            ends[k, r] = vals[::len(tau) - 1]
            pair_max[k, r] = vals.max(axis=1)
    near = np.zeros(ends.shape[1:], dtype=bool)
    keep = np.zeros(pair_max.shape[1:], dtype=bool)
    for member_ends, member_max in zip(ends, pair_max):
        top = float(member_max.max())
        below = top - 2.0 * 1e-9 * max(1.0, abs(top))
        near |= ~(member_ends < below)
        keep |= ~(member_max < below)
    return near, keep


def assert_mask_of_every_point(stack, grid):
    """The scan's near points are those of every point.  So are its kept
    pairs, but on a tied row, which keeps every tau: a superset there."""
    near, keep = _near(stack, grid)
    want_near, want_keep = full_pass_near(stack, grid)
    assert np.array_equal(near, want_near)
    grown = (keep != want_keep).any(axis=1)
    assert (keep >= want_keep).all() and keep[grown].all()


def test_scan_evaluates_only_candidate_rho_tau_pairs(monkeypatch):
    # the mask costs 12 x 2 x 12 points (tau = 0 and 1; no interior pair
    # comes within reach of the maximum).  rho = 0 keeps tau = 1, where every
    # beta ties; the 10 rows between are near at one beta of tau = 1, an
    # orbit of 12 points; at rho = 1 the radius vanishes and every tau ties
    # (its slices of 144 points do not collapse)
    for v in DEGENERATE_V:
        assert _points_per_scan(fekete(v), GridSpec.uniform(12)) == (
            12 * 2 * 12 + 12**2 + 10 * 12 + 12**3
        )
    # |c1| ignores tau: the whole rho = 1 row is kept
    assert _points_per_scan(modulus_c1, GridSpec.uniform(12)) == 12 * 2 * 12 + 12**3
    # a constant ties at every pair: every row is tied, and scanned at every tau
    assert _points_per_scan(constant, GridSpec.uniform(12)) == 12 * 2 * 12 + 12**4
    # slices over half a block: the pair mask, then the rho = 1 row, all 4 of
    # whose slices collapse
    assert _points_per_scan(modulus_c1, use_case(monkeypatch, WIDE_SLICE)) == 4 * 2 * 4 + 4


def tilted(distance):
    """Invariant and convex in c2, peaked at |c1| = 1 and rising along tau
    by a few ``delta`` there: the best rows are tied, and of their pairs
    only those near tau = 1 are within ``2 * delta`` of the maximum."""
    return lambda c1, c2: 3e-9 * distance(c1, c2) - np.abs(np.abs(c1) - 1.0)


BANDS = [tilted(lambda c1, c2: np.abs(c2 - c1**2 / 2)),
         tilted(lambda c1, c2: np.abs(c2 - (-0.4 + 0.9j) * c1**2))]


@pytest.mark.parametrize("n", [9, 12, 16, 24])
@pytest.mark.parametrize("functional", BANDS, ids=["modulus-band", "phase-band"])
def test_pruned_scan_is_exact_when_rows_keep_part_of_tau(functional, n):
    grid, stack = GridSpec.uniform(n), stack_of(functional)
    got, shapes = _recorded_scan(stack, grid)
    assert got == reference_sup(stack, grid)
    assert_mask_of_every_point(stack, grid)
    # evaluating every pair keeps part of tau on some rows, interior values
    # among them; those rows are tied, and the scan keeps every tau of them
    want_keep, keep = full_pass_near(stack, grid)[1], _mask(stack, grid)
    part = [i for i in range(n) if want_keep[i, 1:-1].any() and not want_keep[i].all()]
    assert part and keep[part].all()
    # the mask is one call at tau = 0 and 1; the tied rows take every tau
    assert shapes[0] == (n, 2, n) and any(shape[1:] == (n, n) for shape in shapes)
    # by convexity the maximum lies on tau = 1
    (_, w), = got
    assert abs(w.c2 - w.c1**2 / 2) == pytest.approx(2 - abs(w.c1) ** 2 / 2)


# ---------------------------------------------------------------------------
# The scan calls the functional on blocks of at most BLOCK_POINTS points.

BLOCKED_GRIDS = [GridSpec.uniform(12), GridSpec.uniform(60), MULTI_BLOCK, LONG_ROWS, WIDE_SLICE,
                 OPEN_SLICES]


@pytest.mark.parametrize("grid", BLOCKED_GRIDS, indirect=True, ids=_grid_id)
@pytest.mark.parametrize(
    "functional", [modulus_c1, constant, fekete(0.0), fekete(0.3 - 1.1j)],
    ids=["c1", "constant", "fekete-0", "fekete-a"],
)
def test_no_functional_call_exceeds_a_block(functional, grid):
    _, shapes = _recorded_scan(stack_of(functional), grid)
    slice_points = grid.steps**2
    assert max(math.prod(shape) for shape in shapes) <= max(caratheodory.BLOCK_POINTS,
                                                            slice_points)


def test_blocking_keeps_the_points_per_scan(monkeypatch):
    # At grid 60 every block holds one slice, so each slice of the scan with
    # radius 0.0 collapses to one point: 38 of the 60 slices of the rho = 1
    # row.  The pair mask evaluates every point of its slices at tau = 0 and 1.
    n, z = 60, 38
    reduced = n * 2 * n
    rho_one = (n - z) * n**2 + z
    for v in DEGENERATE_V:
        # tau = 1 on rho = 0, one orbit of n points on each of the 58 rows
        # between, every tau on rho = 1
        assert _points_per_scan(fekete(v), GridSpec.uniform(n)) == (
            reduced + n**2 + (n - 2) * n + rho_one
        )
    assert _points_per_scan(modulus_c1, GridSpec.uniform(n)) == reduced + rho_one
    # slices of 256 points share blocks and do not collapse
    n = 16
    assert _points_per_scan(modulus_c1, use_case(monkeypatch, MULTI_BLOCK)) == n * 2 * n + n**3


def test_blocks_split_the_leading_axis_only(monkeypatch):
    # 32 points per rho at tau = 0 and 1, 12 per block of 384: the pair mask
    # splits rho 12 + 4.  Slices of 256 points are over half a block: the
    # rho = 1 row's 14 slices of radius 0.0 take one call, then alpha
    # indices 10 and 13 one each
    monkeypatch.setattr(caratheodory, "BLOCK_POINTS", 384)
    _, shapes = _recorded_scan(stack_of(modulus_c1), GridSpec.uniform(16))
    assert shapes == [(12, 2, 16), (4, 2, 16), (14, 1, 1)] + [(1, 16, 16)] * 2
    # 256 points per slice, 4 per block: the mask in one call, then alpha
    # splits 4 + 4 + 4 + 4
    _, shapes = _recorded_scan(stack_of(modulus_c1), use_case(monkeypatch, MULTI_BLOCK))
    assert shapes == [(16, 2, 16)] + [(4, 16, 16)] * 4
    # the pair mask, 3 + 1 rho values, then the rho = 1 row, all 4 of its
    # slices collapsed into one call
    _, shapes = _recorded_scan(stack_of(modulus_c1), use_case(monkeypatch, WIDE_SLICE))
    assert shapes == [(3, 2, 4), (1, 2, 4), (4, 1, 1)]


def test_blocks_visit_the_points_in_scan_order(monkeypatch):
    for name in (LONG_ROWS, OPEN_SLICES):
        _check_scan_order(use_case(monkeypatch, name))


def _check_scan_order(grid):
    # A constant ties everywhere: after the pair mask (the slices at tau = 0
    # and 1) every row is tied and scanned whole, in scan order.  Where
    # slices collapse (over half a block), the rho = 1 row starts with its
    # slices of radius 0.0, in one call, each as its first point, in alpha
    # order; its other slices follow in scan order.
    seen = []

    def recorded(c1, c2):
        seen.append(c2.ravel().copy())
        return (constant(c1, c2),)

    brute_force_sup(recorded, grid)
    n = grid.steps
    rho = tau = np.linspace(0.0, 1.0, n)
    alpha = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    phase_b = np.exp(1j * alpha)
    collapses = 2 * n * n > caratheodory.BLOCK_POINTS
    slabs = []
    for r in rho:
        c1 = (2.0 * r * np.exp(1j * alpha))[:, None, None]
        radius = 2.0 - np.abs(c1) ** 2 / 2.0
        slab = c1**2 / 2.0 + radius * tau[None, :, None] * phase_b
        zero = radius.ravel() == 0.0
        assert zero.any() == (r == 1.0)
        if collapses and r == 1.0:
            slabs += [slab[zero, 0, 0], slab[~zero].ravel()]
        else:
            slabs.append(slab.ravel())
    mask_points = 2 * n**2
    got, want = np.concatenate(seen)[mask_points:], np.concatenate(slabs)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize(
    "grid", [MULTI_BLOCK, LONG_ROWS, WIDE_SLICE, PART_COLLAPSED], indirect=True, ids=_grid_id
)
@pytest.mark.parametrize(
    "functional",
    [fekete(v) for v in DEGENERATE_V]
    + [modulus_c1, constant, *BANDS],
    ids=[f"fekete-{v}" for v in DEGENERATE_V]
    + ["c1", "constant", "modulus-band", "phase-band"],
)
def test_blocked_scan_is_exact_across_block_boundaries(functional, grid):
    stack = stack_of(functional)
    assert brute_force_sup(stack, grid) == reference_sup(stack, grid)


def test_witness_may_lie_in_a_later_block(monkeypatch):
    # |c1| on the rho = 1 row first rounds one ulp above 2 at alpha index
    # 10, in the third block of that row (4 slices per block)
    grid, stack = use_case(monkeypatch, MULTI_BLOCK), stack_of(modulus_c1)
    got = brute_force_sup(stack, grid)
    assert got == reference_sup(stack, grid)
    (value, w), = got
    assert value == np.nextafter(2.0, 3.0)
    assert np.angle(w.c1) % (2 * np.pi) == pytest.approx(10 * 2 * np.pi / 16)


@pytest.mark.parametrize(
    "grid, a",
    [
        (MULTI_BLOCK, 0),
        (LONG_ROWS, 24),
        # collapsed slices of the rho = 1 row
        (OPEN_SLICES, 0),
        (OPEN_SLICES, 8),
        # slices of that row that do not collapse
        (OPEN_SLICES, 1),
        (OPEN_SLICES, 2),
        # NaN at alpha = 0 in the reduced pass keeps the rho = 1 row, whose
        # slices all collapse into the call that meets the NaN
        (WIDE_SLICE, 0),
    ],
    indirect=["grid"],
    ids=["first-block", "last-block", "collapsed-first", "collapsed-last",
         "open-first", "open-last", "all-collapsed"],
)
def test_a_nan_skips_its_whole_row_wherever_the_blocks_fall(grid, a):
    # A NaN at alpha index a of the rho = 1 row, whose other slices attain
    # |c1| = 2, raises wherever the blocks fall: no row is skipped.
    point = 2.0 * np.exp(2j * np.pi * a / grid.steps)

    def nan_at_point(c1, c2):
        return np.where(np.abs(c1 - point) < 1e-9, np.nan, np.abs(c1))

    with pytest.raises(ValueError, match=r"NaN at \(rho, alpha, tau, beta\) = \(1, "):
        brute_force_sup(stack_of(nan_at_point), grid)


def test_a_nan_at_an_interior_rho_raises():
    # NaN on the whole ring |c1| = 2 rho_5 at grid 12.  Only rho = 1 can hold
    # the maximum of |c1|, but the NaN in the reduced pass keeps row 5, and
    # its first point in scan order is named.
    grid = GridSpec.uniform(12)
    ring = 2.0 * grid.axes[0][5]

    def nan_on_ring(c1, c2):
        return np.where(np.abs(np.abs(c1) - ring) < 1e-9, np.nan, np.abs(c1))

    with pytest.raises(ValueError, match=r"= \(0\.454545, 0, 0, 0\)"):
        brute_force_sup(stack_of(nan_on_ring), grid)


def inf_on_rim(c1, c2):
    return np.where(np.abs(c1) > 2.0 - 1e-9, np.inf, np.abs(c2 - c1**2))


def inf_in_band(c1, c2):
    """+inf for rho in (0.4, 0.6): every point of those rows ties."""
    return np.where(np.abs(np.abs(c1) - 1.0) < 0.2, np.inf, np.abs(c2))


def minus_inf(c1, c2):
    return np.abs(c1) * 0.0 - np.inf


@pytest.mark.parametrize(
    "grid", [GridSpec.uniform(12), GridSpec.uniform(60), MULTI_BLOCK, OPEN_SLICES],
    indirect=True, ids=_grid_id,
)
@pytest.mark.parametrize("functional", [inf_on_rim, inf_in_band, minus_inf],
                         ids=["inf-on-rim", "inf-in-band", "minus-inf"])
def test_an_infinite_maximum_is_exact(functional, grid):
    # an infinite top keeps every (rho, tau) pair: x < NaN and x < -inf are False
    stack = stack_of(functional)
    assert brute_force_sup(stack, grid) == reference_sup(stack, grid)


# ---------------------------------------------------------------------------
# Slices with perturbation radius 0.0 are evaluated at their first point.

PREMISE_GRIDS = [GridSpec.uniform(n) for n in range(2, 129)]


def _c2_of(c1_vec, radius, tau, phase_b):
    """c2 over every (tau, beta) as the scan builds it, shape (N, T, B)."""
    seen = []
    _evaluate(lambda c1, c2: seen.append(c2) or (0.0,),
              c1_vec[:, None, None], radius[:, None, None], tau[:, None], phase_b)
    return seen[0]


def test_collapsible_slices_hold_one_c2_bit_pattern():
    collapsible = {}
    for grid in PREMISE_GRIDS:
        rho, alpha, tau, beta = grid.axes
        # every (rho, alpha) slice, one row per rho, as the scan builds them
        c1, radius = _leading(rho[:, None], np.exp(1j * alpha))
        phase_b = np.exp(1j * beta)
        # the pair mask takes the rho = 1 slice at alpha = 0 to have one value
        assert _collapsible(*_leading(rho[-1:], grid.phases[0][0])).tolist() == [True]
        # every slice the scan may collapse, if its slices are large enough
        zero = _collapsible(c1, radius)
        if not zero.any():
            continue
        collapsible[grid] = int(zero.sum())
        assert (rho[zero.any(axis=1)] == 1.0).all()
        # bytes tell -0.0 from +0.0, which == does not
        for c2 in _c2_of(c1[zero], radius[zero], tau, phase_b):
            assert c2.tobytes() == c2[0, 0].tobytes() * c2.size
    assert collapsible[GridSpec.uniform(60)] == 38
    assert collapsible[GridSpec.uniform(12)] == 12
    assert len(collapsible) > 100


@pytest.mark.parametrize(
    "grid, rows",
    [(GridSpec.uniform(12), slice(None)), (GridSpec.uniform(24), slice(None)),
     (GridSpec.uniform(60), slice(-3, None)), (GridSpec.uniform(9), slice(None)),
     (GridSpec.uniform(25), slice(None))],
)
def test_c2_is_built_as_the_reference_scan_builds_it(grid, rows):
    # c1^2 / 2 plus radius * tau * e^{i beta}, multiplied left to right, as
    # reference_sup builds it: every point has the same bits
    rho, _, tau, _ = grid.axes
    phase_a, phase_b = grid.phases
    c1, radius = (a.ravel() for a in _leading(rho[rows, None], phase_a))
    reference = (c1[:, None, None] ** 2 / 2.0
                 + radius[:, None, None] * tau[None, :, None] * phase_b[None, None, :])
    assert _c2_of(c1, radius, tau, phase_b).tobytes() == reference.tobytes()


def test_grid_axes_and_phases_are_built_once_and_read_only():
    grid = GridSpec(6)
    assert grid.axes is grid.axes and grid.phases is grid.phases
    rho, alpha, tau, beta = grid.axes
    # rho and tau share one array, alpha and beta another
    assert rho is tau and alpha is beta and grid.phases[0] is grid.phases[1]
    assert [len(a) for a in grid.axes] == [6, 6, 6, 6]
    assert (rho[-1], tau[-1]) == (1.0, 1.0)
    assert alpha[-1] == pytest.approx(2 * np.pi * 5 / 6)
    assert grid.phases[1].tobytes() == np.exp(1j * beta).tobytes()
    for a in (*grid.axes, *grid.phases):
        with pytest.raises(ValueError):
            a[0] = 0.0
    # equal grids still compare and hash equal once one has its axes built
    assert grid == GridSpec(6) and hash(grid) == hash(GridSpec(6))


def test_a_negative_zero_part_of_c1_squared_blocks_the_collapse():
    # radius 0.0, but c1^2 / 2 = 2 - 0.0j: the sign of c2's imaginary zero
    # then follows the quadrant of beta, so the slice is not one bit pattern
    c1 = np.array([complex(2.0, -0.0)])
    radius = 2.0 - np.abs(c1) ** 2 / 2.0
    assert radius[0] == 0.0 and np.signbit((c1**2 / 2.0).imag[0])
    tau, beta = np.linspace(0.0, 1.0, 3), np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    c2 = _c2_of(c1, radius, tau, np.exp(1j * beta))
    assert set(np.signbit(c2.imag).ravel()) == {False, True}
    assert _collapsible(c1, radius).tolist() == [False]
    # with a +0.0 imaginary part it collapses
    assert _collapsible(c1.conj(), radius).tolist() == [True]
    # and only with radius 0.0
    c1, radius = np.full(3, 2.0 + 0.0j), np.array([0.0, 0.5, 0.0])
    assert _collapsible(c1, radius).tolist() == [True, False, True]


@pytest.mark.parametrize(
    "n, collapses",
    # 2025 points per slice: two share a block; 2116 points: one per call
    [(45, False), (46, True)],
    ids=["shared-blocks", "one-slice-per-call"],
)
def test_only_slices_over_half_a_block_collapse(n, collapses):
    grid, stack = GridSpec.uniform(n), stack_of(modulus_c1)
    got, shapes = _recorded_scan(stack, grid)
    assert got == reference_sup(stack, grid)
    # the pair mask, then the rho = 1 row: at grid 46, its 31 slices of
    # radius 0.0 in one call and its 15 others one each
    rho_one = ([(31, 1, 1)] + [(1, n, n)] * 15 if collapses
               else [(2, n, n)] * (n // 2) + [(1, n, n)])
    assert shapes[-len(rho_one):] == rho_one
    assert _points_per_scan(modulus_c1, grid) == 2 * n**2 + (
        31 + 15 * n**2 if collapses else n**3
    )


def sign_of_zero(c1, c2):
    """Reads the sign of zero: arctan2 of -0.0 and +0.0 differ by 2 pi.  The
    |c1| term puts its maximum on the rho = 1 row."""
    return np.arctan2(c2.imag, c2.real) + 64.0 * np.abs(c1)


def rounded_modulus(c1, c2):
    """|c1| rounded: every slice of the rho = 1 row ties at 2."""
    return np.round(np.abs(c1), 6)


def rounded_modulus_off_axis(c1, c2):
    """As rounded_modulus, but lower on alpha = 0, where its maximum is still
    on the rho = 1 row.  On OPEN_SLICES the first maximum of that row is then
    alpha index 1, a slice that does not collapse, before index 3, the first
    collapsed slice that ties it."""
    return np.round(np.abs(c1), 6) - (np.abs(c1.imag) < 1e-12)


@pytest.mark.parametrize("grid", [LONG_ROWS, OPEN_SLICES], indirect=True, ids=_grid_id)
@pytest.mark.parametrize(
    "functional",
    [sign_of_zero, rounded_modulus, rounded_modulus_off_axis, modulus_c1, constant],
    ids=["sign-of-zero", "rounded", "rounded-off-axis", "c1", "constant"],
)
def test_scan_is_exact_for_any_elementwise_functional(functional, grid):
    # On the alpha = 0 slices each functional is largest on the rho = 1 row,
    # which has one value there, so the row is scanned whole: rotation
    # invariance and convexity are not needed.  On OPEN_SLICES the row
    # collapses in part.
    stack = stack_of(functional)
    got, shapes = _recorded_scan(stack, grid)
    assert got == reference_sup(stack, grid)
    collapses = 2 * grid.steps**2 > caratheodory.BLOCK_POINTS
    assert any(shape[1:] == (1, 1) for shape in shapes) == collapses


def test_a_tie_goes_to_the_smaller_alpha_across_collapsed_and_other_slices(monkeypatch):
    grid = use_case(monkeypatch, OPEN_SLICES)
    # the collapsed slice at alpha index 0 comes first
    (_, w), = brute_force_sup(stack_of(rounded_modulus), grid)
    assert w.c1 == 2.0
    # the slice at alpha index 1 beats the collapsed one at index 3
    (_, w), = brute_force_sup(stack_of(rounded_modulus_off_axis), grid)
    assert np.angle(w.c1) == pytest.approx(2 * np.pi / 9)


def test_functional_may_return_a_scalar():
    grid = GridSpec.uniform(5)
    assert brute_force_sup(lambda c1, c2: (1.0,), grid) == reference_sup(stack_of(constant), grid)


# ---------------------------------------------------------------------------
# A stack: one scan for K functionals, each with its own result.

def class_stack():
    """Class forms (mu_eff, wp2, wp3) of verify's closure, |a2| among them."""
    forms = [(None, 1.0, 1.0), (0.0, 1.0, 1.0), (-2.0, 1.0, 1.0), (0.5 + 1.5j, 1.0, 1.0),
             (0.0, 0.37, 0.21), (1.0, 0.37, 0.21), (None, 2.5, 0.5)]
    return verify._stack_functional(ClassParams(0.5, 0.25, 2.5), forms)


STACK_GRIDS = [GridSpec.uniform(12), GridSpec.uniform(60), MULTI_BLOCK, OPEN_SLICES]

# Each member reaches 2 on every row at tau = 1, at alpha = 0 at beta = 0,
# pi and 3 pi / 2: rho = 0 (every beta ties) and rho = 1 (one value) are
# scanned whole, and each row between along three orbits, one per member.
ORBITS = stack_of(fekete(0.0), fekete(1.0), fekete(0.5 + 0.5j))


@pytest.mark.parametrize("grid", STACK_GRIDS, indirect=True, ids=_grid_id)
@pytest.mark.parametrize(
    "stack",
    [stack_of(*(fekete(v) for v in SEEDED_V[:6])),
     stack_of(modulus_c1, fekete(SEEDED_V[6]), constant, fekete(0.0), modulus_c1),
     class_stack(), ORBITS],
    ids=["fekete", "mixed", "class", "orbits"],
)
def test_each_member_of_a_stack_gets_its_own_scan(stack, grid):
    got = brute_force_sup(stack, grid)
    assert isinstance(got, list)
    assert got == [brute_force_sup(member_of(stack, k), grid)[0] for k in range(len(got))]
    assert got == reference_sup(stack, grid)


@pytest.mark.parametrize("grid", [GridSpec.uniform(12), MULTI_BLOCK], indirect=True,
                         ids=_grid_id)
def test_one_scan_has_whole_rows_and_rows_along_member_orbits(grid):
    n = grid.steps
    rho = grid.axes[0]
    near, whole = _near_points(ORBITS, grid, *_leading(rho, grid.phases[0][0]))
    # rho = 0 (every beta ties at tau = 1) and rho = 1 (one value) are whole
    assert whole == [(0, [n - 1]), (n - 1, list(range(n)))]
    # alone, each member is near at one beta of tau = 1 on each row between,
    # its own; the stack is near at the union
    alone = [_near(member_of(ORBITS, k), grid)[0][1:-1] for k in range(3)]
    for k, beta_at in enumerate([0, n // 2, 3 * n // 4]):
        assert np.flatnonzero(alone[k]).tolist() == [
            (i * 2 + 1) * n + beta_at for i in range(n - 2)]
    assert np.array_equal(near[1:-1], alone[0] | alone[1] | alone[2])
    # the rows between take one orbit call, of three orbits each
    got, shapes = _recorded_scan(ORBITS, grid)
    assert shapes[-1] == ((n - 2) * 3 * n,)
    assert got == reference_sup(ORBITS, grid)
    assert got == [brute_force_sup(member_of(ORBITS, k), grid)[0] for k in range(3)]


def peak(row, b, n=12):
    """Invariant and convex in c2, 2 at (rho, alpha, tau, beta) indices
    (row, 0, n - 1, b) of a grid of n steps and on their orbit, and lower
    elsewhere: |c2 - v c1^2| is at most 2 on the body, and 2 on every row at
    tau = 1 at one beta."""
    rho = np.linspace(0.0, 1.0, n)[row]
    v = 0.5 - 0.5 * np.exp(2j * np.pi * b / n)
    return lambda c1, c2: np.abs(c2 - v * c1**2) - 2.0 * np.abs(np.abs(c1) - 2.0 * rho)


# At grid 12, near at beta indices 0-4 of row 3 and 0 and 6 of row 4, at tau = 1
PEAKS = stack_of(*(peak(3, b) for b in range(5)), peak(4, 0), peak(4, 6))


@pytest.mark.parametrize(
    "block, calls",
    # The pair mask evaluates 24 points per rho, 2 rho values per call.  Row
    # 3 has 60 orbit points and row 4 24, and no row is scanned whole: the
    # 84 orbit points, in scan order, are cut into calls of one block and
    # the rest.
    [(48, [(48,), (36,)]), (64, [(64,), (20,)])],
    ids=["block-48", "block-64"],
)
def test_orbit_calls_hold_at_most_a_block(monkeypatch, block, calls):
    monkeypatch.setattr(caratheodory, "BLOCK_POINTS", block)
    grid = GridSpec.uniform(12)
    got, shapes = _recorded_scan(PEAKS, grid)
    assert shapes == [(2, 2, 12)] * 6 + calls
    assert got == reference_sup(PEAKS, grid)


def _sorted_points(c1, c2):
    """The points (c1, c2) as rows (Re c1, Im c1, Re c2, Im c2), sorted."""
    rows = np.stack([c1.real, c1.imag, c2.real, c2.imag], axis=1)
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("stack", [PEAKS, ORBITS], ids=["peaks", "orbits"])
def test_the_block_size_sets_the_calls_and_not_the_points(monkeypatch, stack):
    # The orbit points of the rows between rho = 0 and rho = 1 (0 < |c1| < 2)
    # are the same at every block size; only the calls they are cut into
    # change.  At grid 12 no other call holds more than 24 points.
    grid = GridSpec.uniform(12)
    between = []
    for block in (24, 48, 64, 4096):
        monkeypatch.setattr(caratheodory, "BLOCK_POINTS", block)
        seen = []

        def recorded(c1, c2):
            seen.append((np.broadcast_to(c1, c2.shape).ravel(), c2.ravel()))
            return stack(c1, c2)

        assert brute_force_sup(recorded, grid) == reference_sup(stack, grid)
        assert max(c2.size for _, c2 in seen) <= block
        c1, c2 = (np.concatenate(parts) for parts in zip(*seen))
        inside = (np.abs(c1) > 0.0) & (np.abs(c1) < 2.0)
        between.append(_sorted_points(c1[inside], c2[inside]))
    assert len(between[0]) > 0
    for points in between[1:]:
        assert np.array_equal(points, between[0])


def test_a_tie_between_orbits_goes_to_the_smaller_grid_index():
    # |c2 + c1^2| capped at 3: row 7 of grid 12 is near at beta indices 10,
    # 11, 0, 1 and 2 of tau = 1, and scanned along their orbits.  Two of its
    # points rise by 1e-12, far below delta, to one tied maximum: (alpha,
    # beta) indices (2, 4), on the orbit of beta index 0, and (1, 3), on
    # that of beta index 1.  The second comes first in scan order.
    grid = GridSpec.uniform(12)
    rho, alpha, tau, beta = grid.axes
    risen = [sample_point(rho[7], alpha[a], tau[-1], beta[b]) for a, b in ((2, 4), (1, 3))]

    def bumped(c1, c2):
        at = sum((np.abs(c1 - p.c1) < 1e-9) & (np.abs(c2 - p.c2) < 1e-9) for p in risen)
        return np.minimum(np.abs(c2 + c1**2), 3.0) + 1e-12 * at

    stack = stack_of(bumped)
    near, whole = _near_points(stack, grid, *_leading(rho, grid.phases[0][0]))
    assert 7 not in [i for i, _ in whole]
    assert not near[7, 0].any() and np.flatnonzero(near[7, 1]).tolist() == [0, 1, 2, 10, 11]
    got = brute_force_sup(stack, grid)
    assert got == reference_sup(stack, grid)
    assert got[0][1] == risen[1]


def test_a_nan_on_a_near_orbit_raises_and_one_off_every_orbit_goes_unseen():
    # At grid 12, row 5 of ORBITS is scanned along its orbits.  Member 1,
    # |c2 - c1^2|, is near at alpha = 0 at beta = pi (index 6); at alpha
    # index 3 its orbit is at beta index (6 + 3 * 2) % 12 = 0.
    grid = GridSpec.uniform(12)
    rho, alpha, tau, beta = grid.axes

    def nan_at(b):
        point = sample_point(rho[5], alpha[3], tau[-1], beta[b])

        def member(c1, c2):
            at = (np.abs(c1 - point.c1) < 1e-9) & (np.abs(c2 - point.c2) < 1e-9)
            return np.where(at, np.nan, fekete(1.0)(c1, c2))
        return stack_of(fekete(0.0), member, fekete(0.5 + 0.5j))

    with pytest.raises(FunctionalIsNaN,
                       match=r"= \(0\.454545, 1\.5708, 1, 0\)") as exc:
        brute_force_sup(nan_at(0), grid)
    assert exc.value.member == 1
    # beta index 1 is on no near orbit of row 5: the scan never evaluates it
    assert brute_force_sup(nan_at(1), grid) == brute_force_sup(ORBITS, grid)


def one_pair(rho):
    """Invariant and convex in c2, peaked at one (rho, tau = 1) pair of a
    uniform grid."""
    return lambda c1, c2: np.abs(c2 - c1**2 / 2) - 2.0 * np.abs(np.abs(c1) - 2.0 * rho)


def test_a_member_with_one_kept_pair_keeps_its_own_witness():
    grid = GridSpec.uniform(12)
    rho = grid.axes[0]
    peaked = one_pair(rho[5])
    # alone, it keeps one (rho, tau) pair; the constant keeps every pair
    assert np.flatnonzero(_mask(stack_of(peaked), grid)).tolist() == [5 * 12 + 11]
    assert _mask(stack_of(peaked, constant), grid).all()
    alone, = brute_force_sup(stack_of(peaked), grid)
    for stack in (stack_of(peaked, constant), stack_of(constant, peaked)):
        got = brute_force_sup(stack, grid)
        assert got == reference_sup(stack, grid)
        assert alone in got and brute_force_sup(stack_of(constant), grid)[0] in got
    _, w = alone
    assert abs(w.c1) == pytest.approx(2.0 * rho[5])


@pytest.mark.parametrize("k", [0, 1, 2])
def test_a_nan_in_a_member_names_it(monkeypatch, k):
    grid = use_case(monkeypatch, OPEN_SLICES)

    def nan_at_rim(c1, c2):
        return np.where(np.abs(c1) > 2.0 - 1e-9, np.nan, np.abs(c1))

    members = [modulus_c1, constant, fekete(0.3 - 1.1j)]
    members[k] = nan_at_rim
    with pytest.raises(FunctionalIsNaN, match=r"NaN at \(rho, alpha, tau, beta\) = \(1, ") as exc:
        brute_force_sup(stack_of(*members), grid)
    assert exc.value.member == k


def test_a_stack_of_one_returns_a_list_of_one():
    grid, stack = GridSpec.uniform(8), stack_of(fekete(0.5))
    got = brute_force_sup(stack, grid)
    assert isinstance(got, list) and len(got) == 1
    assert got == reference_sup(stack, grid)


def test_a_functional_that_returns_one_array_is_refused():
    # an array would be read as a stack of its rows
    with pytest.raises(TypeError, match="must return a tuple"):
        brute_force_sup(fekete(0.5), GridSpec.uniform(8))


# ---------------------------------------------------------------------------
# The pair mask evaluates tau = 0 and 1 only: by convexity in c2, an interior
# pair is within reach of the maximum only on a tied row.

def assert_convex_along_tau(stack, seed, n=2000):
    """Each member of ``stack`` is convex along tau on ``n`` seeded segments
    (rho, alpha, beta, tau_a, tau_b) of the body, at a seeded fraction."""
    rng = np.random.default_rng(seed)
    rho, tau_a, tau_b, lam = rng.uniform(0.0, 1.0, (4, n))
    alpha, beta = rng.uniform(0.0, 2.0 * np.pi, (2, n))
    c1 = 2.0 * rho * np.exp(1j * alpha)
    step = (2.0 - 2.0 * rho**2) * np.exp(1j * beta)

    def values(tau):
        return np.array(stack(c1, c1**2 / 2.0 + tau * step), ndmin=2)

    chord = (1.0 - lam) * values(tau_a) + lam * values(tau_b)
    inside = values((1.0 - lam) * tau_a + lam * tau_b)
    assert np.all(inside <= chord + 1e-12 * (1.0 + np.abs(chord)))


def verify_stacks(monkeypatch, entries, functionals):
    """The closures that ``verify.sweep`` hands the scan, one per stack."""
    seen = []
    real = verify.brute_force_sup

    def recording(functional, grid):
        seen.append(functional)
        return real(functional, grid)

    with monkeypatch.context() as m:
        m.setattr(verify, "brute_force_sup", recording)
        verify.sweep(entries, functionals, GridSpec.uniform(2))
    return seen


def suite_stacks(monkeypatch, varkappa):
    """The 6 stacks of a full suite: 5 presets of 9 forms, 17 lemma functionals."""
    return (verify_stacks(monkeypatch, verify.preset_entries(varkappa),
                          verify.extended_functionals())
            + verify_stacks(monkeypatch, *verify.build_suite("lemmas", varkappa)))


SEEDED_PARAMS = [ClassParams(*p) for p in np.random.default_rng(2718).uniform(
    (0.0, 0.0, 0.1), (2.0, 2.0, 5.0), size=(20, 3))]


def test_every_verify_closure_is_convex_along_tau(monkeypatch):
    # the premise of the pair mask: each form is |affine in c2| or |a2|
    stacks = [stack for vk in (0.5, 1.0, 2.0, 4.0) for stack in suite_stacks(monkeypatch, vk)]
    stacks += verify_stacks(monkeypatch, [("", p, None) for p in SEEDED_PARAMS],
                            verify.extended_functionals())
    # 4 x (5 presets + the 17-member lemma stack), then the seeded parameters
    assert len(stacks) == 4 * 6 + 20
    assert [len(stacks[k](np.zeros(1), np.zeros(1))) for k in (4, 5)] == [9, 17]
    for seed, stack in enumerate(stacks):
        assert_convex_along_tau(stack, seed)


def test_the_test_functionals_that_prune_are_convex_along_tau():
    for seed, functional in enumerate([*BANDS, one_pair(0.4), class_stack(),
                                       stack_of(*(fekete(v) for v in SEEDED_V))]):
        assert_convex_along_tau(functional, seed)


@pytest.mark.parametrize("n", [8, 12, 16, 24, 60])
def test_the_mask_is_that_of_every_pair_on_every_verify_stack(monkeypatch, n):
    grid = GridSpec.uniform(n)
    for stack in suite_stacks(monkeypatch, 1.0):
        assert_mask_of_every_point(stack, grid)


@pytest.mark.parametrize("grid", [*(GridSpec.uniform(n) for n in (8, 12, 16, 24, 60)),
                                  MULTI_BLOCK, PART_COLLAPSED], indirect=True, ids=_grid_id)
@pytest.mark.parametrize(
    "stack", [stack_of(*(fekete(v) for v in SEEDED_V)), class_stack(), stack_of(*BANDS)],
    ids=["fekete", "class", "bands"],
)
def test_the_mask_is_that_of_every_pair_on_seeded_stacks(stack, grid):
    assert_mask_of_every_point(stack, grid)


def _suite_work(monkeypatch, suite, n, varkappa=1.0):
    """The calls of the functional and the points they hold in one pass of
    ``suite`` at ``varkappa`` on the grid of ``n`` steps."""
    counts = {"calls": 0, "points": 0}
    real = verify.brute_force_sup

    def counting(functional, grid):
        def counted(c1, c2):
            counts["calls"] += 1
            counts["points"] += c2.size
            return functional(c1, c2)
        return real(counted, grid)

    monkeypatch.setattr(verify, "brute_force_sup", counting)
    verify.run_suite(suite, varkappa, GridSpec.uniform(n))
    return counts


def test_a_grid_60_full_pass_evaluates_each_mask_at_tau_0_and_1_only(monkeypatch):
    # 6 stacks.  Each mask takes 60 x 2 x 60 points in 2 calls and evaluates
    # no interior pair.  Each stack scans rho = 0 (at tau = 1) and rho = 1
    # whole, in 1 + 23 calls; the rows between of three class stacks take
    # one call of 3,480 orbit points each, and those of the lemma stack,
    # 6,960 orbit points in scan order, two calls of 4,096 and 2,864.
    # Every row with a kept pair scanned over every (alpha, beta) made 388
    # calls and 1,375,428 points; every point of the alpha = 0 slices, 6 x 60
    # calls and 6 x 60^3 points, made 736 calls and 2,628,228 points.
    assert _suite_work(monkeypatch, "full", 60) == {"calls": 6 * (2 + 24) + 3 + 2,
                                                    "points": 6 * 60 * 2 * 60 + 514_428}


@pytest.mark.parametrize(
    "suite, n, varkappa, calls, points",
    # the full suite of the grid-12 golden, the lemma suite at the grids of
    # the benchmark's lemma requests (8, 12 and 16) and the remarks suite at
    # grid 8, as the benchmark's cli-mix workload runs them; and the full
    # suite at grid 60 off varkappa 1 (at varkappa 1, see the test above)
    [("full", 12, 1.0, 22, 13_560), ("lemmas", 8, 1.0, 4, 800), ("lemmas", 12, 1.0, 4, 2_400),
     ("lemmas", 16, 1.0, 4, 5_312), ("remarks", 8, 1.0, 18, 3_664),
     ("full", 60, 0.75, 158, 547_188), ("full", 60, 2.0, 159, 550_668),
     ("full", 60, 2.5, 159, 550_668), ("full", 60, 3.5, 158, 547_188)],
    ids=["full-g12", "lemmas-g8", "lemmas-g12", "lemmas-g16", "remarks-g8",
         "full-g60-vk0.75", "full-g60-vk2", "full-g60-vk2.5", "full-g60-vk3.5"],
)
def test_a_small_suite_keeps_its_calls_and_points(monkeypatch, suite, n, varkappa, calls,
                                                  points):
    # a change to the scan that changes its work changes these counts
    assert _suite_work(monkeypatch, suite, n, varkappa) == {"calls": calls, "points": points}


def test_an_evaluated_interior_pair_can_raise_the_top():
    # Flat in tau but for a rise of 10 delta at tau index 5 below rho = 1: not
    # convex, so the mask, which reads tau = 0 and 1 only, does not see the
    # rise.  But every row's ends tie at the top, so every row is tied and
    # scanned at every tau, and the row pass finds the risen pairs.
    grid = GridSpec.uniform(12)
    rho, _, tau, _ = grid.axes

    def risen(c1, c2):
        radius = 2.0 - np.abs(c1) ** 2 / 2.0
        at = (np.abs(np.abs(c2 - c1**2 / 2) - radius * tau[5]) < 1e-12) & (radius > 0.0)
        return 1.0 + 1e-8 * at

    stack = stack_of(risen)
    near, whole = _near_points(stack, grid, *_leading(rho, grid.phases[0][0]))
    assert near.all() and whole == [(i, list(range(12))) for i in range(12)]
    got = brute_force_sup(stack, grid)
    assert got == reference_sup(stack, grid)
    # the first risen point in scan order: rho = 0, tau index 5
    (value, w), = got
    assert value == 1.0 + 1e-8 and w == sample_point(0.0, 0.0, tau[5], 0.0)


@pytest.mark.parametrize("varkappa", [0.5, 1.0, 2.0, 3.5])
def test_no_row_of_a_suite_stack_is_tied_but_rho_1(monkeypatch, varkappa):
    # The tied rule costs nothing on the suites: the rho = 1 row, which has
    # one value at alpha = 0, is the only row any suite stack scans at every
    # tau, so no other row is scanned at an interior tau.  The lemma stack
    # is also taken at grid 128, where that row is widest.
    stacks = suite_stacks(monkeypatch, varkappa)
    cases = [(stack, n) for stack in stacks for n in [*range(3, 25), 60]] + [(stacks[5], 128)]
    for stack, n in cases:
        grid = GridSpec.uniform(n)
        _, whole = _near_points(stack, grid, *_leading(grid.axes[0], grid.phases[0][0]))
        assert {i for i, tau_at in whole if len(tau_at) == n} <= {n - 1}
