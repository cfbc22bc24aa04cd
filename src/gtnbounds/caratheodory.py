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
    index of the member of a stack that is (0 for a single functional)."""

    def __init__(self, message: str, member: int):
        super().__init__(message)
        self.member = member


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


# One array of values, or a stack: a tuple of arrays, one per member
Functional = Callable[[np.ndarray, np.ndarray], "np.ndarray | tuple[np.ndarray, ...]"]

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


def _evaluate(functional: Functional, c1_vec, radius, tau, phase_b):
    """``(stacked, values)``: the values of shape (N, T, B) of each member of
    the functional on N values of c1 with their perturbation radii, and
    every (tau, beta); ``stacked`` tells a tuple of members from one array."""
    c1 = c1_vec[:, None, None]
    # numpy would cast the real (N, T, 1) factor to complex once per element
    # of the (N, T, B) product; casting it first does that N * T times, and
    # the complex multiply that follows is the same, so the bits are too
    perturbation = (radius[:, None, None] * tau[None, :, None]).astype(complex)
    c2 = c1**2 / 2.0 + perturbation * phase_b[None, None, :]
    out = functional(c1, c2)
    stacked = isinstance(out, tuple)
    values = []
    for vals in out if stacked else (out,):
        vals = np.asarray(vals, dtype=float)
        values.append(vals if vals.shape == c2.shape else np.broadcast_to(vals, c2.shape))
    return stacked, values


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
    """Mask of shape (R, T) of the (rho, tau) pairs that can hold the maximum
    of some member of the functional.

    The functional is evaluated once on the alpha = 0 slice of every rho
    (``c1_col`` and ``radius_col``) and each member is reduced over beta.
    When the alpha grid maps the beta grid onto itself under
    c2 -> e^{2it} c2 (``2 * beta_steps % alpha_steps == 0``), rotation takes
    (rho, alpha_a, tau, beta_b) to (rho, 0, tau, beta_{b - 2aB/A}) up to
    rounding, so that slice's maximum over beta is the maximum of the pair
    over (alpha, beta), and a pair whose reduced maximum lies more than
    ``2 * delta`` below the member's overall one cannot win for that member.
    Rounding moves values by about 1e-15 relative; ``delta`` is 1e-9
    relative to each member's own maximum.  The mask is the union of the
    members' masks.
    """
    if (2 * grid.beta_steps) % grid.alpha_steps != 0:
        return np.ones((len(c1_col), len(tau)), dtype=bool)
    pair_max: list = []  # per member, each (R, T) array within the block rule
    for lead in _blocks(len(c1_col), len(tau) * len(phase_b)):
        _, values = _evaluate(functional, c1_col[lead], radius_col[lead], tau, phase_b)
        if not pair_max:
            pair_max = [np.empty((len(c1_col), len(tau))) for _ in values]
        for member_max, vals in zip(pair_max, values):
            vals.max(axis=2, out=member_max[lead])
    keep = np.zeros((len(c1_col), len(tau)), dtype=bool)
    for member_max in pair_max:
        top = float(member_max.max())
        delta = 1e-9 * max(1.0, abs(top))
        # x < NaN is False: a NaN or infinite top keeps every pair and a NaN
        # pair maximum keeps its pair, so the row scan meets every NaN seen here
        keep |= ~(member_max < top - 2.0 * delta)
    return keep


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


def brute_force_sup(functional: Functional, grid: GridSpec = GridSpec()) -> Sup | list[Sup]:
    """Maximum of the functional over the sampled body with its argmax.

    ``functional`` must accept numpy arrays of c1 and c2 (broadcast together)
    and return real values elementwise: the value at a point depends only on
    that point's (c1, c2).  It must also be invariant under the rotation
    ``(c1, c2) -> (e^{it} c1, e^{2it} c2)``, as every functional of the form
    ``F(|c1|, |c2 - v c1^2|)`` is.  The result, value and witness, is bit for
    bit that of the full 4-D scan: the largest value, at the smallest
    (rho, alpha, tau, beta) grid index that attains it.

    A functional that returns a tuple of K value arrays is a *stack* of K
    functionals scanned in one pass, and the result is a list of K
    ``(value, witness)`` pairs, each bit for bit what a scan of that member
    alone gives.  One array is the stack of one, and returns its pair.

    The pair mask (:func:`_candidate_pairs`) comes first: one pass over the
    alpha = 0 slice of every rho keeps the (rho, tau) pairs whose maximum
    over beta is, by rotation invariance, within rounding of some member's
    overall maximum; no point of another pair can attain it.  Each row with a
    kept pair is then scanned over every (alpha, beta) and its kept tau
    values, in the pieces of :func:`_pieces`.  Every member sees every point
    the row scan evaluates; a point outside the member's own kept pairs lies
    more than ``2 * delta`` below its maximum, so it cannot become its result.
    Both passes call the functional on blocks of at most ``BLOCK_POINTS``
    points (whole (tau, beta) slices of several rho or alpha values, or one
    slice when a slice is larger), with the same per-point arithmetic as the
    full scan.

    A slice whose perturbation radius ``2 - |c1|^2 / 2`` rounds to exactly
    0.0 (only on the ``rho = 1`` row) has one c1 and, bit for bit, one c2
    (see :func:`_collapsible`), so by the elementwise contract one value; in
    rows whose slices take a call each it is evaluated at its first point.

    Each piece gives each member's first maximum; of equal maxima the loop
    keeps the one at the smallest grid index, so the order of the pieces does
    not matter.  A NaN in a member at any point the scan evaluates raises
    :class:`FunctionalIsNaN`, which names the member.
    """
    rho, alpha, tau, beta = grid.axes
    phase_a, phase_b = grid.phases
    keep = _candidate_pairs(functional, grid, *_leading(rho, phase_a[0]), tau, phase_b)
    alpha_at = np.arange(len(alpha))
    stacked, best = False, []  # per member: [value, grid index]
    for i in np.flatnonzero(keep.any(axis=1)):
        tau_at = np.flatnonzero(keep[i])
        tau_kept = tau[tau_at]
        c1_row, radius_row = _leading(rho[i], phase_a)
        for lead, points in _pieces(c1_row, radius_row, len(tau_kept) * len(beta)):
            stacked, values = _evaluate(functional, c1_row[lead], radius_row[lead],
                                        tau_kept[points], phase_b[points])
            if not best:
                best = [[-np.inf, (0, 0, 0, 0)] for _ in values]
            for k, (vals, member) in enumerate(zip(values, best)):
                idx = int(vals.argmax())  # the first NaN if any, which m < best lets through
                m = float(vals.flat[idx])
                if m < member[0]:
                    continue
                ia, it, ib = np.unravel_index(idx, vals.shape)
                at = (int(i), int(alpha_at[lead][ia]), int(tau_at[it]), int(ib))
                if math.isnan(m):
                    where = ", ".join(f"{x:.6g}" for x in _params(grid, at))
                    raise FunctionalIsNaN(
                        f"the functional is NaN at (rho, alpha, tau, beta) = ({where})", k)
                if m > member[0] or at < member[1]:
                    member[:] = m, at
    found = [(m, sample_point(*_params(grid, at))) for m, at in best]
    return found if stacked else found[0]


def _params(grid: GridSpec, at) -> Tuple[float, ...]:
    """The (rho, alpha, tau, beta) values at the grid index ``at``."""
    return tuple(float(axis[k]) for axis, k in zip(grid.axes, at))
