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


class ParameterOutOfRange(ValueError):
    """Sampler parameters rho, tau must lie in [0, 1]."""


@dataclass(frozen=True)
class CaratheodoryPoint:
    c1: complex
    c2: complex

    def is_admissible(self, tol: float = 1e-12) -> bool:
        return (
            abs(self.c1) <= 2.0 + tol
            and abs(self.c2 - self.c1**2 / 2.0) <= 2.0 - abs(self.c1) ** 2 / 2.0 + tol
        )


@dataclass(frozen=True)
class GridSpec:
    """Steps per sampler parameter (rho, alpha, tau, beta)."""

    rho_steps: int = 60
    alpha_steps: int = 60
    tau_steps: int = 60
    beta_steps: int = 60

    def __post_init__(self):
        for name in ("rho_steps", "alpha_steps", "tau_steps", "beta_steps"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2")

    @classmethod
    def uniform(cls, n: int) -> "GridSpec":
        return cls(n, n, n, n)

    @functools.cached_property
    def axes(self) -> Tuple[np.ndarray, ...]:
        """The sampled (rho, alpha, tau, beta) values, built once per grid
        and read-only, since every scan of the grid shares them."""
        return _frozen(
            np.linspace(0.0, 1.0, self.rho_steps),
            np.linspace(0.0, 2.0 * np.pi, self.alpha_steps, endpoint=False),
            np.linspace(0.0, 1.0, self.tau_steps),
            np.linspace(0.0, 2.0 * np.pi, self.beta_steps, endpoint=False),
        )

    @functools.cached_property
    def phases(self) -> Tuple[np.ndarray, np.ndarray]:
        """``e^{i alpha}`` and ``e^{i beta}`` on the grid, read-only."""
        _, alpha, _, beta = self.axes
        return _frozen(np.exp(1j * alpha), np.exp(1j * beta))


def _frozen(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def sample_point(rho: float, alpha: float, tau: float, beta: float) -> CaratheodoryPoint:
    """Admissible point from sampler parameters; saturates the body boundary
    at rho = 1 or tau = 1."""
    if not (0.0 <= rho <= 1.0 and 0.0 <= tau <= 1.0):
        raise ParameterOutOfRange("rho and tau must lie in [0, 1]")
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
    """Sharp bound for |c2 - v c1^2| with complex v: 2*max(1, |2v - 1|)."""
    return 2.0 * max(1.0, abs(2.0 * v - 1.0))


def lemma4_bound(hbar: complex) -> float:
    """Sharp bound for |c2 - hbar*c1^2/2|: max(2, 2|hbar - 1|)."""
    return max(2.0, 2.0 * abs(hbar - 1.0))


Functional = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Points per call of the functional: 64 KiB per complex128 array, below
# glibc's 128 KiB mmap threshold, so temporaries are reused from the heap
# instead of being mapped and zero-filled by the kernel on every call.
BLOCK_POINTS = 4096


def _leading(r, phase_a):
    """c1 = 2 r e^{i alpha} and the perturbation radius 2 - |c1|^2 / 2 of N
    (rho, alpha) slices, where one of ``r`` and ``phase_a = e^{i alpha}``
    holds N values: a column of rho values or a row of alpha values."""
    c1 = 2.0 * r * phase_a
    return c1, 2.0 - np.abs(c1) ** 2 / 2.0


def _evaluate(functional: Functional, c1_vec, radius, tau, phase_b) -> np.ndarray:
    """Functional values of shape (N, T, B) on N values of c1 with their
    perturbation radii, and every (tau, beta)."""
    c1 = c1_vec[:, None, None]
    # numpy would cast the real (N, T, 1) factor to complex once per element
    # of the (N, T, B) product; casting it first does that N * T times, and
    # the complex multiply that follows is the same, so the bits are too
    perturbation = (radius[:, None, None] * tau[None, :, None]).astype(complex)
    c2 = c1**2 / 2.0 + perturbation * phase_b[None, None, :]
    vals = np.asarray(functional(c1, c2), dtype=float)
    return vals if vals.shape == c2.shape else np.broadcast_to(vals, c2.shape)


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


def _candidate_pairs(functional: Functional, grid: GridSpec, c1_col, radius_col, tau, phase_b):
    """Mask of shape (R, T) of the (rho, tau) pairs that can hold the maximum.

    The functional is evaluated once on the alpha = 0 slice of every rho
    (``c1_col`` and ``radius_col``) and reduced over beta.  When the alpha
    grid maps the beta grid onto itself under c2 -> e^{2it} c2
    (``2 * beta_steps % alpha_steps == 0``), rotation takes
    (rho, alpha_a, tau, beta_b) to (rho, 0, tau, beta_{b - 2aB/A}) up to
    rounding, so that slice's maximum over beta is the maximum of the pair
    over (alpha, beta), and a pair whose reduced maximum lies more than
    ``2 * delta`` below the overall one cannot win.  Rounding moves values by
    about 1e-15 relative; ``delta`` is 1e-9 relative.
    """
    if (2 * grid.beta_steps) % grid.alpha_steps != 0:
        return np.ones((len(c1_col), len(tau)), dtype=bool)
    pair_max = np.empty((len(c1_col), len(tau)))
    for lead in _blocks(len(c1_col), len(tau) * len(phase_b)):
        vals = _evaluate(functional, c1_col[lead], radius_col[lead], tau, phase_b)
        pair_max[lead] = vals.max(axis=2)
    top = float(pair_max.max())
    if not math.isfinite(top):
        return np.ones(pair_max.shape, dtype=bool)
    delta = 1e-9 * max(1.0, abs(top))
    # NaN pair maxima compare False and keep their pair, as the full scan would
    return ~(pair_max < top - 2.0 * delta)


def _row_max(functional: Functional, floor, leads, c1_row, radius_row, alpha, tau, beta, phase_b):
    """First maximum above ``floor`` over the blocks ``leads`` (alpha
    slices) of one row, as (value, (alpha, tau, beta)).  ``(floor, None)``
    when no point exceeds ``floor``, and ``(nan, None)`` when the functional
    returns NaN at a point: the argmax of the whole row would be NaN.

    The first maximum within each block plus strict improvement across
    blocks, visited in scan order, give the first maximum of the blocks.
    """
    top, at = floor, None
    for lead in leads:
        vals = _evaluate(functional, c1_row[lead], radius_row[lead], tau, phase_b)
        idx = int(vals.argmax())
        m = float(vals.flat[idx])
        if math.isnan(m):
            return m, None
        if m > top:
            ia, it, ib = np.unravel_index(idx, vals.shape)
            top = m
            at = (float(alpha[lead.start + ia]), float(tau[it]), float(beta[ib]))
    return top, at


def _collapsed_row_max(
    functional: Functional, floor, zero, c1_row, radius_row, alpha, tau, beta, phase_b
):
    """As :func:`_row_max`, for a row whose ``zero`` slices collapse.

    Those slices are evaluated in one call, each at its first point
    (tau[0], beta[0]).  The others take a call each, as slices of more than
    half a block do in :func:`_blocks`.  Of equal maxima the one at the
    smaller alpha comes first in scan order.
    """
    first = np.flatnonzero(zero)
    vals = _evaluate(functional, c1_row[first], radius_row[first], tau[:1], phase_b[:1]).ravel()
    j = int(vals.argmax())
    m = float(vals[j])
    if math.isnan(m):
        return m, None
    leads = (slice(k, k + 1) for k in np.flatnonzero(~zero))
    top, at = _row_max(functional, floor, leads, c1_row, radius_row, alpha, tau, beta, phase_b)
    if math.isnan(top) or not m > floor:
        return top, at
    a = float(alpha[first[j]])
    if at is None or m > top or (m == top and a < at[0]):
        return m, (a, float(tau[0]), float(beta[0]))
    return top, at


def brute_force_sup(
    functional: Functional,
    grid: GridSpec = GridSpec(),
) -> Tuple[float, CaratheodoryPoint]:
    """Maximum of the functional over the sampled body with its argmax.

    ``functional`` must accept numpy arrays of c1 and c2 (broadcast together)
    and return real values elementwise: the value at a point depends only on
    that point's (c1, c2).  It must also be invariant under the rotation
    ``(c1, c2) -> (e^{it} c1, e^{2it} c2)``, as every functional of the form
    ``F(|c1|, |c2 - v c1^2|)`` is.

    The scan order is lexicographic in (rho, alpha, tau, beta) with strict
    improvement, so ties break toward the smallest parameter tuple.  Before
    the scan, one pass over the alpha = 0 slice of every rho row (see
    :func:`_candidate_pairs`) marks the (rho, tau) pairs whose maximum over
    beta is, by rotation invariance, within rounding of the overall maximum;
    no point of an unmarked pair can attain it.  Each row with a marked pair
    is then scanned over every (alpha, beta) but only its marked tau values,
    in the same order and with the same arithmetic as the full row.  Every
    point that attains the maximum is scanned, and the first of them in scan
    order is the first of the full scan, so the value and the witness equal
    those of the unpruned scan bit for bit.

    Where the perturbation radius ``2 - |c1|^2 / 2`` rounds to exactly 0.0
    (only on the ``rho = 1`` row, for about 60% of the alpha values), every
    point of the (rho, alpha) slice has the same c1 and, bit for bit, the
    same c2 (see :func:`_collapsible`).  By the elementwise contract the
    slice holds one value, and its first maximum in scan order is its first
    point (tau[0], beta[0]); no rotation or tie argument is needed.  In a
    row whose slices are large enough to take a call each (more than half a
    block), such slices are evaluated at that point only, all in one call
    (see :func:`_collapsed_row_max`).  Smaller slices share blocks, where
    the extra call would cost more than the points it saves.

    Both passes call the functional on blocks of at most ``BLOCK_POINTS``
    points: whole (tau, beta) slices of several rho or alpha values, or one
    slice when a slice is larger.  The arithmetic is per point, so every
    value equals the whole slab's, and the reduced pass still takes each
    pair's maximum over all of beta.  A row in which the functional returns
    NaN at a scanned point is skipped, as the whole-row argmax would skip
    it, wherever the block boundaries fall and whether or not the slice
    holding the NaN collapsed.
    """
    rho, alpha, tau, beta = grid.axes
    phase_a, phase_b = grid.phases
    keep = _candidate_pairs(functional, grid, *_leading(rho, phase_a[0]), tau, phase_b)
    best = -np.inf
    best_params = (0.0, 0.0, 0.0, 0.0)
    for i in np.flatnonzero(keep.any(axis=1)):
        tau_kept = tau[keep[i]]
        slice_points = len(tau_kept) * len(beta)
        c1_row, radius_row = _leading(rho[i], phase_a)
        # only slices of more than half a block collapse: none at small grids
        zero = _collapsible(c1_row, radius_row) if 2 * slice_points > BLOCK_POINTS else None
        if zero is not None and zero.any():
            m, at = _collapsed_row_max(
                functional, best, zero, c1_row, radius_row, alpha, tau_kept, beta, phase_b
            )
        else:
            leads = _blocks(len(alpha), slice_points)
            m, at = _row_max(
                functional, best, leads, c1_row, radius_row, alpha, tau_kept, beta, phase_b
            )
        if at is not None:
            best, best_params = m, (float(rho[i]), *at)
    p = sample_point(*best_params)
    return best, p
