"""Exact parametrization of the first two Caratheodory coefficients and
brute-force suprema of functionals over that body.

For p(z) = 1 + c1 z + c2 z^2 + ... with positive real part on the unit disk,
the admissible pairs are exactly

    |c1| <= 2   and   |c2 - c1^2/2| <= 2 - |c1|^2/2,

so (c1, c2) = (2 rho e^{i alpha},  c1^2/2 + (2 - |c1|^2/2) tau e^{i beta})
with rho, tau in [0, 1] covers the body exactly and saturates the boundary.
All four classical sharp bounds used downstream are attained on that boundary,
so grid search with endpoints included approaches them from below.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np


class FunctionalIsNaN(ValueError):
    """The functional is NaN at a point the scan evaluates; ``member`` is the
    index of the member of the stack that is."""

    def __init__(self, message: str, member: int):
        super().__init__(message)
        self.member = member


@dataclass(frozen=True)
class CaratheodoryPoint:
    c1: complex
    c2: complex


# Points in one row of the scan, over (alpha, tau, beta).  The scan works on
# small blocks (the orbit calls too), so this bounds its work rather than its
# memory: a grid may have at most 128 steps.
MAX_SCAN_VALUES = 2**21


@dataclass(frozen=True)
class GridSpec:
    """``steps`` sampled values of each of rho, alpha, tau and beta.  A grid
    whose largest scan pass, ``steps**3`` points, would pass
    ``MAX_SCAN_VALUES`` is refused."""

    steps: int = 60

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("grid steps must be >= 2")
        if self.steps**3 > MAX_SCAN_VALUES:
            raise ValueError(f"grid {self.steps} needs {self.steps**3} points per scan pass, "
                             f"more than the cap of {MAX_SCAN_VALUES}")

    @classmethod
    @functools.cache
    def uniform(cls, n: int) -> "GridSpec":
        """The grid of ``n`` steps, one instance per size, so that its axes
        and phases are built once per process."""
        return cls(n)

    # the step count of each parameter, read-only
    rho_steps = alpha_steps = tau_steps = beta_steps = property(lambda self: self.steps)

    @functools.cached_property
    def axes(self) -> Tuple[np.ndarray, ...]:
        """The sampled (rho, alpha, tau, beta) values, built once per grid
        and read-only, since every scan of the grid shares them."""
        radial, angle = _frozen(np.linspace(0.0, 1.0, self.steps),
                                np.linspace(0.0, 2.0 * np.pi, self.steps, endpoint=False))
        return radial, angle, radial, angle

    @functools.cached_property
    def phases(self) -> Tuple[np.ndarray, np.ndarray]:
        """``e^{i alpha}`` and ``e^{i beta}`` on the grid, read-only."""
        phase, = _frozen(np.exp(1j * self.axes[1]))
        return phase, phase


def _frozen(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def sample_point(rho: float, alpha: float, tau: float, beta: float) -> CaratheodoryPoint:
    """Admissible point from sampler parameters; saturates the body boundary
    at rho = 1 or tau = 1."""
    if not (0.0 <= rho <= 1.0 and 0.0 <= tau <= 1.0):
        raise ValueError("rho and tau must lie in [0, 1]")
    c1 = 2.0 * rho * np.exp(1j * alpha)
    c2 = c1**2 / 2.0 + (2.0 - abs(c1) ** 2 / 2.0) * tau * np.exp(1j * beta)
    return CaratheodoryPoint(complex(c1), complex(c2))


def lemma1_bound(v: float) -> float:
    """Sharp bound for |c2 - v c1^2| with real v: piecewise linear in v."""
    if v <= 0.0:
        return 2.0 - 4.0 * v
    if v <= 1.0:
        return 2.0
    return 4.0 * v - 2.0


def lemma3_bound(v: complex) -> float:
    """Sharp bound for |c2 - v c1^2| with complex v: 2*max(1, |2v - 1|).
    Here and in lemma4_bound the computed value comes first, so NaN stays NaN."""
    return 2.0 * max(abs(2.0 * v - 1.0), 1.0)


def lemma4_bound(hbar: complex) -> float:
    """Sharp bound for |c2 - hbar*c1^2/2|: max(2, 2|hbar - 1|)."""
    return max(2.0 * abs(hbar - 1.0), 2.0)


# A stack of functionals: a tuple of value arrays, one per member
Functional = Callable[[np.ndarray, np.ndarray], "tuple[np.ndarray, ...]"]

# Points per call of the functional: 64 KiB per complex128 array, below
# glibc's 128 KiB mmap threshold, so temporaries are reused from the heap
# instead of being mapped and zero-filled by the kernel on every call.
BLOCK_POINTS = 4096


def _leading(r, phase_a):
    """c1 = 2 r e^{i alpha} and the perturbation radius 2 - |c1|^2 / 2 of the
    (rho, alpha) slices that ``r`` and ``phase_a = e^{i alpha}`` give when
    broadcast together."""
    c1 = 2.0 * r * phase_a
    return c1, 2.0 - np.abs(c1) ** 2 / 2.0


def _evaluate(functional: Functional, c1, radius, tau, phase_b) -> list:
    """The values of each member of the stack at the points that c1, its
    perturbation radius, tau and ``e^{i beta}`` give when broadcast together,
    each of that shape: (N, 1, 1), (N, 1, 1), (T, 1) and (B,) for every
    (tau, beta) of N slices, or P values each for P points."""
    c2 = c1**2 / 2.0 + radius * tau * phase_b
    out = functional(c1, c2)
    if not isinstance(out, tuple):
        raise TypeError("the functional must return a tuple of value arrays, one per member")
    values = [np.asarray(vals, dtype=float) for vals in out]
    return [v if v.shape == c2.shape else np.broadcast_to(v, c2.shape) for v in values]


def _collapsible(c1, radius) -> np.ndarray:
    """Mask of the slices whose c2 is one bit pattern over every (tau, beta).

    That holds when the radius is exactly 0.0: the perturbation
    ``0 * tau * e^{i beta}`` then has parts +0.0 or -0.0, and adding either
    leaves a part of ``c1^2 / 2`` unchanged unless that part is -0.0
    (``-0.0 + 0.0`` is +0.0).
    """
    # the bits of the real and imaginary parts; -0.0 is the sign bit alone
    half = (c1**2 / 2.0).view(np.int64).reshape(*np.shape(c1), 2)
    return (radius == 0.0) & ~(half == np.iinfo(np.int64).min).any(axis=-1)


def _blocks(n_lead: int, slice_points: int):
    """Leading-axis slices that cover an (N, T, B) scan in order: as many
    whole (tau, beta) slices of ``slice_points`` points as fit in
    ``BLOCK_POINTS``, and always at least one."""
    step = max(1, BLOCK_POINTS // slice_points)
    for i in range(0, n_lead, step):
        yield slice(i, i + step)


def _near_points(functional: Functional, grid: GridSpec, c1_col, radius_col):
    """``(near, whole)``: which points of the alpha = 0 slices at tau = 0
    and 1 are near, a mask of shape (R, 2, B), and the rows scanned over
    every (alpha, beta), as ``(row, tau)``: the row's scanned tau indices.

    A point is near when its rotation orbit can hold the maximum of some
    member of the functional.  The alpha grid maps the beta grid onto itself
    under c2 -> e^{2it} c2: rotation takes (rho, alpha_a, tau, beta_b) to
    (rho, 0, tau, beta_{b - 2a}) up to rounding, so the orbit of a point of
    the alpha = 0 slice of its rho (``c1_col`` and ``radius_col``) has its
    value at every alpha.  A point more than ``2 * delta`` below a member's
    overall maximum cannot hold it; ``delta`` is 1e-9 relative to that
    maximum, and rounding moves values by about 1e-15 relative.  The mask is
    the union of the members' masks.

    Only tau = 0 and 1 are evaluated.  c2 is affine in tau, so by convexity
    in c2 an interior point is at most ``(1 - tau) m0 + tau m1`` from its
    row's end maxima, both weights at least ``1 / (T - 1)``: more than ``3 *
    delta`` below ``top``, the largest end maximum, unless the row is
    *tied*, with both end maxima within ``3 * (T - 1) * delta`` of ``top``
    for some member.  A row with a near point is scanned whole at every tau
    when tied (as the rho = 1 row, one value, then is), at its near ends
    when each end is near at every beta or none, else along its near orbits.
    """
    n = grid.steps
    tau, phase_b = grid.axes[2], grid.phases[1]
    c1_col, radius_col = c1_col[:, None, None], radius_col[:, None, None]
    ends = slice(None, None, n - 1)  # tau = 0 and tau = 1
    values = None  # (K, R, 2, B): each member at the ends
    for lead in _blocks(n, 2 * n):
        block = _evaluate(functional, c1_col[lead], radius_col[lead], tau[ends, None], phase_b)
        if values is None:
            values = np.empty((len(block), n, 2, n))
        values[:, lead] = block
    end_max = values.max(axis=3)
    tops = end_max.max(axis=(1, 2))
    # x < NaN is False: a NaN or infinite top ties every row and makes every
    # point near, and a NaN is near, so the scan meets every NaN seen here
    tied = ~(end_max < _below(tops, 3.0 * (n - 1))).any(axis=2).all(axis=0)
    near = ~(values < _below(tops, 2.0)[..., None]).all(axis=0)
    whole = []
    for i, (c0, c1) in enumerate(near.sum(axis=2).tolist()):  # near points at the ends
        if (c0 or c1) and tied[i]:
            whole.append((i, list(range(n))))
        elif (c0 or c1) and c0 in (0, n) and c1 in (0, n):
            whole.append((i, [0] * bool(c0) + [n - 1] * bool(c1)))
    return near, whole


def _below(tops, k: float) -> np.ndarray:
    """Each member's ``top - k * delta``, shaped (K, 1, 1)."""
    return np.array([t - k * (1e-9 * max(1.0, abs(t))) for t in tops.tolist()])[:, None, None]


def _orbits(near: np.ndarray):
    """The grid indices (rho, alpha, tau, beta), in scan order, of the
    orbits of ``near``, the near points at tau = 0 and 1 of the alpha = 0
    slice of every rho (shape (n, 2, n)) on a grid of n steps: the orbit of
    (rho, 0, tau, beta_b) is (rho, alpha_a, tau, beta_{(b + 2a) mod n}) for
    every alpha index a."""
    n = near.shape[2]
    rho_end, beta = np.divmod(np.flatnonzero(near), n)
    rho, end = np.divmod(rho_end, 2)
    alpha = np.arange(n)
    at = ((rho[:, None] * n + alpha) * n + end[:, None] * (n - 1)) * n
    return np.unravel_index(np.sort(at + (beta[:, None] + 2 * alpha) % n, axis=None), (n,) * 4)


def _pieces(c1_row, radius_row, slice_points: int):
    """The calls that cover one row, as ``(lead, points)``: the alpha slices
    ``lead`` over the kept (tau, beta) values ``points``, all of them
    (``slice(None)``) or the first (``slice(1)``).

    Slices of at most half a block share the :func:`_blocks` of the row.
    Larger ones take a call each, except the :func:`_collapsible` slices,
    which take one call together at their first points; where slices share
    blocks, that call would cost more than the points it saves.
    """
    if 2 * slice_points <= BLOCK_POINTS:
        for lead in _blocks(len(c1_row), slice_points):
            yield lead, slice(None)
        return
    zero = _collapsible(c1_row, radius_row)
    if zero.any():
        yield np.flatnonzero(zero), slice(1)
    for k in np.flatnonzero(~zero):
        yield slice(k, k + 1), slice(None)


Sup = Tuple[float, CaratheodoryPoint]


def brute_force_sup(functional: Functional, grid: GridSpec = GridSpec()) -> list[Sup]:
    """Maximum of each member of a stack over the sampled body, with its argmax.

    ``functional`` is a *stack* of K functionals scanned in one pass: it
    must accept numpy arrays of c1 and c2 (broadcast together) and return a
    tuple of K arrays of real values, elementwise: each value at a point
    depends only on that point's (c1, c2).  Each member must also be
    invariant under the rotation ``(c1, c2) -> (e^{it} c1, e^{2it} c2)`` and
    convex in c2 for fixed c1, as ``|c1|`` and every ``|c2 - v c1^2|`` are.
    The result is a list of K ``(value, witness)`` pairs, each bit for bit
    what the full 4-D scan of that member alone gives: the largest value, at
    the smallest (rho, alpha, tau, beta) grid index that attains it.

    The mask (:func:`_near_points`) comes first: from the alpha = 0 slice of
    every rho at tau = 0 and 1 it finds the near points, those within
    rounding of some member's overall maximum; by rotation invariance no
    point off their orbits can attain it, nor, by convexity, an interior tau
    of a row that is not tied.  Its rows are scanned over every (alpha,
    beta), a tied row at every tau and the others at their near ends, in
    the pieces of :func:`_pieces`.  Every other near point's orbit comes
    from one pass (:func:`_orbits`), sorted by grid index and cut into
    blocks, so the block size sets the size of the calls and not which
    points are evaluated.  Every member sees every point the row pass
    evaluates; a point off the member's own near orbits lies more than
    ``2 * delta`` below its maximum, so it cannot become its result.  Each
    call holds at most ``BLOCK_POINTS`` points (whole (tau, beta) slices of
    several rho or alpha values, one slice when a slice is larger, or a
    block of orbit points), with the per-point arithmetic of the full scan.

    A slice whose perturbation radius ``2 - |c1|^2 / 2`` rounds to exactly
    0.0 (only on the ``rho = 1`` row) has one c1 and, bit for bit, one c2
    (see :func:`_collapsible`), so by the elementwise contract one value; in
    rows whose slices take a call each it is evaluated at its first point.

    Each call gives each member's first maximum, and the points of a call
    are in scan order; of equal maxima the loop keeps the one at the
    smallest grid index, so the order of the calls does not matter.  A NaN
    in a member at any point the scan evaluates raises
    :class:`FunctionalIsNaN`, which names the member.  A NaN at a point the
    scan skips (at an interior tau of a row that is not tied, or off every
    near orbit) goes unseen.
    """
    n, (rho, _, tau, _), (phase_a, phase_b) = grid.steps, grid.axes, grid.phases
    near, whole = _near_points(functional, grid, *_leading(rho, phase_a[0]))
    best = []  # per member: [value, grid index]

    def take(values, locate):
        """Keep each member's first maximum among ``values``; ``locate``
        gives the grid index of a flat index into them."""
        if not best:
            best.extend([-np.inf, (0, 0, 0, 0)] for _ in values)
        for k, (vals, member) in enumerate(zip(values, best)):
            idx = int(vals.argmax())  # the first NaN if any, which m < best lets through
            m = float(vals.flat[idx])
            if m < member[0]:
                continue
            at = locate(idx)
            if math.isnan(m):
                where = ", ".join(f"{x:.6g}" for x in _params(grid, at))
                raise FunctionalIsNaN(
                    f"the functional is NaN at (rho, alpha, tau, beta) = ({where})", k)
            if m > member[0] or at < member[1]:
                member[:] = m, at

    alpha_at = np.arange(n)
    for i, tau_at in whole:
        near[i] = False  # scanned here, not along its near orbits
        c1_row, radius_row = _leading(rho[i], phase_a)
        tau_kept = tau[tau_at]
        for lead, points in _pieces(c1_row, radius_row, len(tau_at) * n):
            values = _evaluate(functional, c1_row[lead, None, None], radius_row[lead, None, None],
                               tau_kept[points, None], phase_b[points])
            _, n_t, n_b = values[0].shape
            take(values, lambda idx: (i, int(alpha_at[lead][idx // (n_t * n_b)]),
                                      tau_at[idx // n_b % n_t], idx % n_b))
    orbits = _orbits(near) if near.any() else [()]  # no numpy calls for an empty pass
    for start in range(0, len(orbits[0]), BLOCK_POINTS):
        at = [x[start:start + BLOCK_POINTS] for x in orbits]
        values = _evaluate(functional, *_leading(rho[at[0]], phase_a[at[1]]), tau[at[2]],
                           phase_b[at[3]])
        take(values, lambda idx: tuple([int(x[idx]) for x in at]))
    return [(m, sample_point(*_params(grid, at))) for m, at in best]


def _params(grid: GridSpec, at) -> Tuple[float, ...]:
    """The (rho, alpha, tau, beta) values at the grid index ``at``."""
    return tuple([float(axis[k]) for axis, k in zip(grid.axes, at)])
