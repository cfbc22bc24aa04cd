import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtnbounds import verify
from gtnbounds.bazilevic import ClassParams
from gtnbounds.caratheodory import (
    BLOCK_POINTS,
    FunctionalIsNaN,
    GridSpec,
    _candidate_pairs,
    _collapsible,
    _evaluate,
    _leading,
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


@pytest.mark.parametrize(
    "bound,v",
    [(lemma1_bound, math.nan), (lemma3_bound, math.nan), (lemma3_bound, complex(0.5, math.nan)),
     (lemma4_bound, math.nan), (lemma4_bound, complex(math.nan, 0.0))],
)
def test_lemma_bounds_propagate_nan(bound, v):
    # max(1.0, nan) is 1.0: a NaN argument must not become a finite bound
    assert math.isnan(bound(v))


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
    """The unpruned scan: every rho row, lexicographic, strict improvement.
    For a stack (a functional that returns a tuple), the list of each
    member's result."""
    rho = np.linspace(0.0, 1.0, grid.rho_steps)
    alpha = np.linspace(0.0, 2.0 * np.pi, grid.alpha_steps, endpoint=False)
    tau = np.linspace(0.0, 1.0, grid.tau_steps)
    beta = np.linspace(0.0, 2.0 * np.pi, grid.beta_steps, endpoint=False)
    phase_b = np.exp(1j * beta)
    best = None
    for r in rho:
        c1_row = 2.0 * r * np.exp(1j * alpha)
        radius = 2.0 - np.abs(c1_row) ** 2 / 2.0
        c1 = c1_row[:, None, None]
        c2 = c1**2 / 2.0 + radius[:, None, None] * tau[None, :, None] * phase_b[None, None, :]
        out = functional(c1, c2)
        stacked = isinstance(out, tuple)
        members = out if stacked else (out,)
        if best is None:
            best = [(-np.inf, (0.0, 0.0, 0.0, 0.0)) for _ in members]
        for k, member in enumerate(members):
            vals = np.broadcast_to(np.asarray(member, dtype=float), c2.shape)
            idx = int(np.argmax(vals))
            m = float(vals.flat[idx])
            if m > best[k][0]:
                ia, it, ib = np.unravel_index(idx, c2.shape)
                best[k] = m, (float(r), float(alpha[ia]), float(tau[it]), float(beta[ib]))
    found = [(m, sample_point(*params)) for m, params in best]
    return found if stacked else found[0]


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


def member_of(stack, k):
    """Member ``k`` of a stack as a functional of its own."""
    return lambda c1, c2: stack(c1, c2)[k]


def test_pruned_scan_is_exact_for_every_verify_closure(monkeypatch):
    checked = []

    def checking_sup(functional, grid):
        got = brute_force_sup(functional, grid)
        assert got == reference_sup(functional, grid)
        # each member's result is that of a scan of the member alone
        assert got == [brute_force_sup(member_of(functional, k), grid)
                       for k in range(len(got))]
        checked.append(got)
        return got

    monkeypatch.setattr(verify, "brute_force_sup", checking_sup)
    # at grid 12 nothing collapses; on WIDE_ALIGNED part of the rho = 1 row does
    for grid in (GridSpec.uniform(12), WIDE_ALIGNED):
        checked.clear()
        reports, _ = verify.run_suite("full", 1.0, grid)
        # 87 reports from 6 stacked scans: per preset, one of its 9 distinct
        # forms (a3, fs(0), inverse-fs(2) and conv-fs(unit) are one form,
        # fs(2) and inverse-fs(0) another, log-g2 and fs(1/2) a third), and
        # one of the 17 lemma functionals
        assert len(reports) == 87
        assert [len(got) for got in checked] == [9] * 5 + [17]


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
    # Slices of 144 points share blocks, so nothing collapses at grid 12.
    # |c1| peaks only at rho = 1: the reduced pass plus that one row
    assert _calls_per_scan(modulus_c1, GridSpec.uniform(12)) == 2
    # |c2 - v c1^2| reaches 2 on every row, so every row is scanned after the pass
    for v in DEGENERATE_V:
        assert _calls_per_scan(fekete(v), GridSpec.uniform(12)) == 1 + 12
    # without aligned alpha and beta grids there is no reduced pass
    assert _calls_per_scan(modulus_c1, GridSpec(6, 5, 6, 7)) == 6
    # Slices of 3600 points take a call each: 60 in the reduced pass.  The
    # rho = 1 row: its 38 slices of radius 0.0 in one call, then its 22 others.
    assert _calls_per_scan(modulus_c1, GridSpec.uniform(60)) == 60 + 1 + 22
    for v in DEGENERATE_V:
        # the 59 rows below rho = 1 keep tau = 1 only, one call each
        assert _calls_per_scan(fekete(v), GridSpec.uniform(60)) == 60 + 59 + 1 + 22


def _points_per_scan(functional, grid):
    return sum(math.prod(shape) for shape in _recorded_scan(functional, grid)[1])


def test_scan_evaluates_only_candidate_rho_tau_pairs():
    # the reduced pass costs 12^3 points; the rows then keep tau = 1 only,
    # except rho = 1, where the radius vanishes and every tau ties (its
    # slices of 144 points do not collapse)
    for v in DEGENERATE_V:
        assert _points_per_scan(fekete(v), GridSpec.uniform(12)) == 12**3 + 23 * 12**2
    # |c1| ignores tau: the whole rho = 1 row is kept
    assert _points_per_scan(modulus_c1, GridSpec.uniform(12)) == 2 * 12**3
    # without aligned alpha and beta grids every row is scanned in full
    assert _points_per_scan(modulus_c1, GridSpec(6, 5, 6, 7)) == 6 * 5 * 6 * 7
    # slices of 5600 points: the reduced pass, then the rho = 1 row, all 4 of
    # whose slices collapse
    assert _points_per_scan(modulus_c1, WIDE_SLICE) == 3 * 70 * 80 + 4


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


# ---------------------------------------------------------------------------
# The scan calls the functional on blocks of at most BLOCK_POINTS points.

# 360 points per (tau, beta) slice, 11 slices per block: rho splits 11 + 11 + 3
# and alpha 11 + 5
MULTI_BLOCK = GridSpec(25, 16, 15, 24)
# 240 points per slice, 17 per block; alpha and beta grids not aligned, so
# every row keeps every tau
MULTI_BLOCK_UNALIGNED = GridSpec(25, 25, 15, 16)
# Slices of more than half a block take a call each, and those of radius 0.0
# collapse.  5600 points per slice; all 4 rho = 1 slices have radius 0.0.
WIDE_SLICE = GridSpec(3, 4, 70, 80)
# 2208 points per slice; 7 of the 8 rho = 1 slices have radius 0.0, all but
# alpha index 5
WIDE_ALIGNED = GridSpec(3, 8, 46, 48)
# 2400 points per slice; alpha and beta grids not aligned, so nothing is
# pruned; 7 of the 9 rho = 1 slices have radius 0.0, all but alpha indices 1, 2
WIDE_UNALIGNED = GridSpec(3, 9, 50, 48)
BLOCKED_GRIDS = [GridSpec.uniform(12), GridSpec.uniform(60), MULTI_BLOCK,
                 MULTI_BLOCK_UNALIGNED, WIDE_SLICE, WIDE_UNALIGNED]


def _grid_id(g):
    return f"{g.rho_steps}x{g.alpha_steps}x{g.tau_steps}x{g.beta_steps}"


@pytest.mark.parametrize("grid", BLOCKED_GRIDS, ids=_grid_id)
@pytest.mark.parametrize(
    "functional", [modulus_c1, constant, fekete(0.0), fekete(0.3 - 1.1j)],
    ids=["c1", "constant", "fekete-0", "fekete-a"],
)
def test_no_functional_call_exceeds_a_block(functional, grid):
    _, shapes = _recorded_scan(functional, grid)
    slice_points = grid.tau_steps * grid.beta_steps
    assert max(math.prod(shape) for shape in shapes) <= max(BLOCK_POINTS, slice_points)


def test_blocking_keeps_the_points_per_scan():
    # At grid 60 every block holds one slice, so each slice of the scan with
    # radius 0.0 collapses to one point: 38 of the 60 slices of the rho = 1
    # row.  The reduced pass evaluates every point of its slices.
    n, z = 60, 38
    reduced = n**3
    rho_one = (n - z) * n**2 + z
    for v in DEGENERATE_V:
        # tau = 1 on the 59 rows below rho = 1, every tau on rho = 1
        assert _points_per_scan(fekete(v), GridSpec.uniform(n)) == (
            reduced + (n - 1) * n**2 + rho_one
        )
    assert _points_per_scan(modulus_c1, GridSpec.uniform(n)) == reduced + rho_one
    # slices of 360 points share blocks and do not collapse
    r, a, t, b = 25, 16, 15, 24
    assert _points_per_scan(modulus_c1, MULTI_BLOCK) == r * t * b + a * t * b


def test_blocks_split_the_leading_axis_only():
    # the reduced pass over rho, then the rho = 1 row over alpha
    _, shapes = _recorded_scan(modulus_c1, MULTI_BLOCK)
    assert [shape[0] for shape in shapes] == [11, 11, 3, 11, 5]
    assert all(shape[1:] == (15, 24) for shape in shapes)
    # one slice per block in the reduced pass, then the rho = 1 row, all 4
    # of its slices collapsed into one call
    _, shapes = _recorded_scan(modulus_c1, WIDE_SLICE)
    assert shapes == [(1, 70, 80)] * 3 + [(4, 1, 1)]


def test_blocks_visit_the_points_in_scan_order():
    for grid in (MULTI_BLOCK_UNALIGNED, WIDE_UNALIGNED):
        _check_scan_order(grid)


def _check_scan_order(grid):
    # Every row is scanned (the grids are unaligned), in scan order.  Where
    # slices collapse (over half a block), the rho = 1 row starts with its
    # slices of radius 0.0, in one call, each as its first point, in alpha
    # order; its other slices follow in scan order.
    seen = []

    def recorded(c1, c2):
        seen.append(c2.ravel().copy())
        return modulus_c1(c1, c2)

    brute_force_sup(recorded, grid)
    rho = np.linspace(0.0, 1.0, grid.rho_steps)
    alpha = np.linspace(0.0, 2.0 * np.pi, grid.alpha_steps, endpoint=False)
    tau = np.linspace(0.0, 1.0, grid.tau_steps)
    phase_b = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, grid.beta_steps, endpoint=False))
    collapses = 2 * grid.tau_steps * grid.beta_steps > BLOCK_POINTS
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
    got, want = np.concatenate(seen), np.concatenate(slabs)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize(
    "grid", [MULTI_BLOCK, MULTI_BLOCK_UNALIGNED, WIDE_SLICE, WIDE_ALIGNED], ids=_grid_id
)
@pytest.mark.parametrize(
    "functional",
    [fekete(v) for v in DEGENERATE_V]
    + [
        modulus_c1,
        constant,
        flat_top(lambda c1, c2: np.abs(np.abs(c2 - c1**2 / 2) - 0.9), 0.1),
        flat_top(lambda c1, c2: np.abs(c2 - (-0.4 + 0.9j) * c1**2), 0.15),
    ],
    ids=[f"fekete-{v}" for v in DEGENERATE_V]
    + ["c1", "constant", "modulus-band", "phase-band"],
)
def test_blocked_scan_is_exact_across_block_boundaries(functional, grid):
    assert brute_force_sup(functional, grid) == reference_sup(functional, grid)


def test_witness_may_lie_in_a_later_block():
    # not rotation invariant, but the unaligned grid is not pruned; the
    # maximum lies at alpha index 18, in the second alpha block
    def toward(c1, c2):
        return np.real(c1 * np.exp(-4.5j))

    value, w = got = brute_force_sup(toward, MULTI_BLOCK_UNALIGNED)
    assert got == reference_sup(toward, MULTI_BLOCK_UNALIGNED)
    assert np.angle(w.c1) % (2 * np.pi) == pytest.approx(18 * 2 * np.pi / 25)


def _on_circle(grid, a):
    return 2.0 * np.exp(2j * np.pi * a / grid.alpha_steps)


@pytest.mark.parametrize(
    "grid, point",
    [
        (MULTI_BLOCK, 2.0),
        (MULTI_BLOCK_UNALIGNED, _on_circle(MULTI_BLOCK_UNALIGNED, 24)),
        # collapsed slices of the rho = 1 row
        (WIDE_UNALIGNED, 2.0),
        (WIDE_UNALIGNED, _on_circle(WIDE_UNALIGNED, 8)),
        # slices of that row that do not collapse
        (WIDE_UNALIGNED, _on_circle(WIDE_UNALIGNED, 1)),
        (WIDE_UNALIGNED, _on_circle(WIDE_UNALIGNED, 2)),
        # NaN at alpha = 0 in the reduced pass keeps the rho = 1 row, whose
        # slices all collapse into the call that meets the NaN
        (WIDE_SLICE, 2.0),
    ],
    ids=["first-block", "last-block", "collapsed-first", "collapsed-last",
         "open-first", "open-last", "all-collapsed"],
)
def test_a_nan_skips_its_whole_row_wherever_the_blocks_fall(grid, point):
    # A NaN at one point of the rho = 1 row, whose other slices attain
    # |c1| = 2, raises wherever the blocks fall: no row is skipped.
    def nan_at_point(c1, c2):
        return np.where(np.abs(c1 - point) < 1e-9, np.nan, np.abs(c1))

    with pytest.raises(ValueError, match=r"NaN at \(rho, alpha, tau, beta\) = \(1, "):
        brute_force_sup(nan_at_point, grid)


def test_a_nan_at_an_interior_rho_raises():
    # NaN on the whole ring |c1| = 2 rho_5 at grid 12.  Only rho = 1 can hold
    # the maximum of |c1|, but the NaN in the reduced pass keeps row 5, and
    # its first point in scan order is named.
    grid = GridSpec.uniform(12)
    ring = 2.0 * grid.axes[0][5]

    def nan_on_ring(c1, c2):
        return np.where(np.abs(np.abs(c1) - ring) < 1e-9, np.nan, np.abs(c1))

    with pytest.raises(ValueError, match=r"= \(0\.454545, 0, 0, 0\)"):
        brute_force_sup(nan_on_ring, grid)


def inf_on_rim(c1, c2):
    return np.where(np.abs(c1) > 2.0 - 1e-9, np.inf, np.abs(c2 - c1**2))


def inf_in_band(c1, c2):
    """+inf for rho in (0.4, 0.6): every point of those rows ties."""
    return np.where(np.abs(np.abs(c1) - 1.0) < 0.2, np.inf, np.abs(c2))


def minus_inf(c1, c2):
    return np.abs(c1) * 0.0 - np.inf


@pytest.mark.parametrize(
    "grid", [GridSpec.uniform(12), GridSpec.uniform(60), MULTI_BLOCK, WIDE_UNALIGNED],
    ids=_grid_id,
)
@pytest.mark.parametrize("functional", [inf_on_rim, inf_in_band, minus_inf],
                         ids=["inf-on-rim", "inf-in-band", "minus-inf"])
def test_an_infinite_maximum_is_exact(functional, grid):
    # an infinite top keeps every (rho, tau) pair: x < NaN and x < -inf are False
    assert brute_force_sup(functional, grid) == reference_sup(functional, grid)


# ---------------------------------------------------------------------------
# Slices with perturbation radius 0.0 are evaluated at their first point.

PREMISE_GRIDS = [GridSpec.uniform(n) for n in range(2, 129)] + [
    GridSpec(6, 5, 6, 7), GridSpec(6, 7, 7, 5), GridSpec(9, 3, 4, 6), GridSpec(7, 8, 5, 4),
    GridSpec(5, 4, 3, 6), MULTI_BLOCK, MULTI_BLOCK_UNALIGNED, WIDE_SLICE, WIDE_ALIGNED,
    WIDE_UNALIGNED,
]


def _c2_of(c1_vec, radius, tau, phase_b):
    """c2 over every (tau, beta) as the scan builds it, shape (N, T, B)."""
    seen = []
    _evaluate(lambda c1, c2: seen.append(c2) or 0.0, c1_vec, radius, tau, phase_b)
    return seen[0]


def test_collapsible_slices_hold_one_c2_bit_pattern():
    collapsible = {}
    for grid in PREMISE_GRIDS:
        rho, alpha, tau, beta = grid.axes
        # every (rho, alpha) slice, one row per rho, as the scan builds them
        c1, radius = _leading(rho[:, None], np.exp(1j * alpha))
        phase_b = np.exp(1j * beta)
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
     (GridSpec.uniform(60), slice(-3, None)), (WIDE_UNALIGNED, slice(None)),
     (MULTI_BLOCK_UNALIGNED, slice(None))],
)
def test_c2_is_the_product_whether_or_not_its_real_factor_is_cast_first(grid, rows):
    # the scan casts radius * tau to complex before multiplying by e^{i beta};
    # left to numpy, the cast happens per element of the product instead
    rho, _, tau, _ = grid.axes
    phase_a, phase_b = grid.phases
    c1, radius = (a.ravel() for a in _leading(rho[rows, None], phase_a))
    uncast = (c1[:, None, None] ** 2 / 2.0
              + radius[:, None, None] * tau[None, :, None] * phase_b[None, None, :])
    assert _c2_of(c1, radius, tau, phase_b).tobytes() == uncast.tobytes()


def test_grid_axes_and_phases_are_built_once_and_read_only():
    grid = GridSpec(5, 6, 7, 8)
    assert grid.axes is grid.axes and grid.phases is grid.phases
    rho, alpha, tau, beta = grid.axes
    assert [len(a) for a in grid.axes] == [5, 6, 7, 8]
    assert (rho[-1], tau[-1]) == (1.0, 1.0)
    assert alpha[-1] == pytest.approx(2 * np.pi * 5 / 6)
    assert grid.phases[1].tobytes() == np.exp(1j * beta).tobytes()
    for a in (*grid.axes, *grid.phases):
        with pytest.raises(ValueError):
            a[0] = 0.0
    # equal grids still compare and hash equal once one has its axes built
    assert grid == GridSpec(5, 6, 7, 8) and hash(grid) == hash(GridSpec(5, 6, 7, 8))


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
    "grid, collapses",
    # 2048 points per slice: two share a block; 2050 points: one per call
    [(GridSpec(3, 4, 32, 64), False), (GridSpec(3, 4, 25, 82), True)],
    ids=["shared-blocks", "one-slice-per-call"],
)
def test_only_slices_over_half_a_block_collapse(grid, collapses):
    got, shapes = _recorded_scan(modulus_c1, grid)
    assert got == reference_sup(modulus_c1, grid)
    slice_points = grid.tau_steps * grid.beta_steps
    rho_one = [(4, 1, 1)] if collapses else [(2, grid.tau_steps, grid.beta_steps)] * 2
    # the reduced pass, then the rho = 1 row
    assert shapes[-len(rho_one):] == rho_one
    assert _points_per_scan(modulus_c1, grid) == 3 * slice_points + (
        4 if collapses else 4 * slice_points
    )


def sign_of_zero(c1, c2):
    """Reads the sign of zero: arctan2 of -0.0 and +0.0 differ by 2 pi."""
    return np.arctan2(c2.imag, c2.real) + np.abs(c1)


def rounded_modulus(c1, c2):
    """|c1| rounded: every slice of the rho = 1 row ties at 2."""
    return np.round(np.abs(c1), 6)


def rounded_modulus_off_axis(c1, c2):
    """As rounded_modulus, but lower on alpha = 0.  On WIDE_UNALIGNED the
    first maximum of the rho = 1 row is then alpha index 1, a slice that does
    not collapse, before index 3, the first collapsed slice that ties it."""
    return np.round(np.abs(c1), 6) - (np.abs(c1.imag) < 1e-12)


@pytest.mark.parametrize("grid", [MULTI_BLOCK_UNALIGNED, WIDE_UNALIGNED], ids=_grid_id)
@pytest.mark.parametrize(
    "functional",
    [sign_of_zero, rounded_modulus, rounded_modulus_off_axis, modulus_c1, constant],
    ids=["sign-of-zero", "rounded", "rounded-off-axis", "c1", "constant"],
)
def test_scan_is_exact_for_any_elementwise_functional(functional, grid):
    # the grids are unaligned, so nothing is pruned and rotation invariance
    # is not needed; on WIDE_UNALIGNED the rho = 1 row collapses in part
    got, shapes = _recorded_scan(functional, grid)
    assert got == reference_sup(functional, grid)
    assert any(shape[1:] == (1, 1) for shape in shapes) == (grid == WIDE_UNALIGNED)


def test_a_tie_goes_to_the_smaller_alpha_across_collapsed_and_other_slices():
    grid = WIDE_UNALIGNED
    # the collapsed slice at alpha index 0 comes first
    _, w = brute_force_sup(rounded_modulus, grid)
    assert w.c1 == 2.0
    # the slice at alpha index 1 beats the collapsed one at index 3
    _, w = brute_force_sup(rounded_modulus_off_axis, grid)
    assert np.angle(w.c1) == pytest.approx(2 * np.pi / 9)


def test_functional_may_return_a_scalar():
    grid = GridSpec.uniform(5)
    assert brute_force_sup(lambda c1, c2: 1.0, grid) == reference_sup(constant, grid)


# ---------------------------------------------------------------------------
# A stack: one scan for K functionals, each with its own result.

def stack_of(*functionals):
    return lambda c1, c2: tuple(f(c1, c2) for f in functionals)


def class_stack():
    """Class forms (mu_eff, wp2, wp3) of verify's closure, |a2| among them."""
    forms = [(None, 1.0, 1.0), (0.0, 1.0, 1.0), (-2.0, 1.0, 1.0), (0.5 + 1.5j, 1.0, 1.0),
             (0.0, 0.37, 0.21), (1.0, 0.37, 0.21), (None, 2.5, 0.5)]
    return verify._stack_functional(ClassParams(0.5, 0.25, 2.5), forms)


STACK_GRIDS = [GridSpec.uniform(12), GridSpec.uniform(60), MULTI_BLOCK, WIDE_UNALIGNED]


@pytest.mark.parametrize("grid", STACK_GRIDS, ids=_grid_id)
@pytest.mark.parametrize(
    "stack",
    [stack_of(*(fekete(v) for v in SEEDED_V[:6])),
     stack_of(modulus_c1, fekete(SEEDED_V[6]), constant, fekete(0.0), modulus_c1),
     class_stack()],
    ids=["fekete", "mixed", "class"],
)
def test_each_member_of_a_stack_gets_its_own_scan(stack, grid):
    got = brute_force_sup(stack, grid)
    assert isinstance(got, list)
    assert got == [brute_force_sup(member_of(stack, k), grid) for k in range(len(got))]
    assert got == reference_sup(stack, grid)


def one_pair(rho, tau):
    """Invariant, peaked at one (rho, tau) pair of a uniform grid."""
    def f(c1, c2):
        radius = 2.0 - np.abs(c1) ** 2 / 2.0
        return -np.abs(np.abs(c1) - 2.0 * rho) - np.abs(np.abs(c2 - c1**2 / 2) - radius * tau)
    return f


def test_a_member_with_one_kept_pair_keeps_its_own_witness():
    grid = GridSpec.uniform(12)
    rho, _, tau, _ = grid.axes
    peaked = one_pair(rho[5], tau[7])
    c1_col, radius_col = _leading(rho, grid.phases[0][0])
    # alone, it keeps one (rho, tau) pair; the constant keeps every pair
    keep = _candidate_pairs(peaked, grid, c1_col, radius_col, tau, grid.phases[1])
    assert np.flatnonzero(keep).tolist() == [5 * 12 + 7]
    assert _candidate_pairs(stack_of(peaked, constant), grid, c1_col, radius_col, tau,
                            grid.phases[1]).all()
    alone = brute_force_sup(peaked, grid)
    for stack in (stack_of(peaked, constant), stack_of(constant, peaked)):
        got = brute_force_sup(stack, grid)
        assert got == reference_sup(stack, grid)
        assert alone in got and brute_force_sup(constant, grid) in got
    _, w = alone
    assert abs(w.c1) == pytest.approx(2.0 * rho[5])


@pytest.mark.parametrize("k", [0, 1, 2])
def test_a_nan_in_a_member_names_it(k):
    grid = WIDE_UNALIGNED

    def nan_at_rim(c1, c2):
        return np.where(np.abs(c1) > 2.0 - 1e-9, np.nan, np.abs(c1))

    members = [modulus_c1, constant, fekete(0.3 - 1.1j)]
    members[k] = nan_at_rim
    with pytest.raises(FunctionalIsNaN, match=r"NaN at \(rho, alpha, tau, beta\) = \(1, ") as exc:
        brute_force_sup(stack_of(*members), grid)
    assert exc.value.member == k
    # a single functional is member 0
    with pytest.raises(FunctionalIsNaN) as exc:
        brute_force_sup(nan_at_rim, grid)
    assert exc.value.member == 0


def test_a_stack_of_one_returns_a_list_of_one():
    grid = GridSpec.uniform(8)
    assert brute_force_sup(stack_of(fekete(0.5)), grid) == [brute_force_sup(fekete(0.5), grid)]
