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


def _axes(grid: GridSpec):
    rho = np.linspace(0.0, 1.0, grid.rho_steps)
    alpha = np.linspace(0.0, 2.0 * np.pi, grid.alpha_steps, endpoint=False)
    tau = np.linspace(0.0, 1.0, grid.tau_steps)
    beta = np.linspace(0.0, 2.0 * np.pi, grid.beta_steps, endpoint=False)
    return rho, alpha, tau, beta


def _evaluate(functional: Functional, r, a, tau, phase_b) -> np.ndarray:
    """Functional values of shape (N, T, B) on c1 = 2 r e^{i a}, where one of
    ``r`` and ``a`` holds N values, and every (tau, beta)."""
    c1_vec = 2.0 * r * np.exp(1j * a)  # (N,)
    radius = 2.0 - np.abs(c1_vec) ** 2 / 2.0
    c1 = c1_vec[:, None, None]
    c2 = c1**2 / 2.0 + radius[:, None, None] * tau[None, :, None] * phase_b[None, None, :]
    vals = np.asarray(functional(c1, c2), dtype=float)
    return np.broadcast_to(vals, c2.shape)


def _candidate_pairs(functional: Functional, grid: GridSpec, rho, alpha, tau, phase_b):
    """Mask of shape (R, T) of the (rho, tau) pairs that can hold the maximum.

    The functional is evaluated once on the alpha = 0 slice of every rho and
    reduced over beta.  When the alpha grid maps the beta grid onto itself
    under c2 -> e^{2it} c2 (``2 * beta_steps % alpha_steps == 0``), rotation
    takes (rho, alpha_a, tau, beta_b) to (rho, 0, tau, beta_{b - 2aB/A}) up to
    rounding, so that slice's maximum over beta is the maximum of the pair
    over (alpha, beta), and a pair whose reduced maximum lies more than
    ``2 * delta`` below the overall one cannot win.  Rounding moves values by
    about 1e-15 relative; ``delta`` is 1e-9 relative.
    """
    keep_all = np.ones((len(rho), len(tau)), dtype=bool)
    if (2 * grid.beta_steps) % grid.alpha_steps != 0:
        return keep_all
    pair_max = _evaluate(functional, rho, alpha[0], tau, phase_b).max(axis=2)
    top = float(pair_max.max())
    if not np.isfinite(top):
        return keep_all
    delta = 1e-9 * max(1.0, abs(top))
    # NaN pair maxima compare False and keep their pair, as the full scan would
    return ~(pair_max < top - 2.0 * delta)


def brute_force_sup(
    functional: Functional,
    grid: GridSpec = GridSpec(),
) -> Tuple[float, CaratheodoryPoint]:
    """Maximum of the functional over the sampled body with its argmax.

    ``functional`` must accept numpy arrays of c1 and c2 (broadcast together)
    and return real values elementwise.  It must also be invariant under the
    rotation ``(c1, c2) -> (e^{it} c1, e^{2it} c2)``, as every functional of
    the form ``F(|c1|, |c2 - v c1^2|)`` is.

    The scan order is lexicographic in (rho, alpha, tau, beta) with strict
    improvement, so ties break toward the smallest parameter tuple and the
    result does not depend on chunking.  Before the scan, one pass over the
    alpha = 0 slice of every rho row (see :func:`_candidate_pairs`) marks the
    (rho, tau) pairs whose maximum over beta is, by rotation invariance,
    within rounding of the overall maximum; no point of an unmarked pair can
    attain it.  Each row with a marked pair is then scanned over every
    (alpha, beta) but only its marked tau values, in the same order and with
    the same arithmetic as the full row.  Every point that attains the
    maximum is scanned, and the first of them in scan order is the first of
    the full scan, so the value and the witness equal those of the unpruned
    scan bit for bit.
    """
    rho, alpha, tau, beta = _axes(grid)
    phase_b = np.exp(1j * beta)
    keep = _candidate_pairs(functional, grid, rho, alpha, tau, phase_b)
    best = -np.inf
    best_params = (0.0, 0.0, 0.0, 0.0)
    for i in np.flatnonzero(keep.any(axis=1)):
        r, tau_kept = rho[i], tau[keep[i]]
        vals = _evaluate(functional, r, alpha, tau_kept, phase_b)
        idx = int(np.argmax(vals))
        m = float(vals.flat[idx])
        if m > best:
            ia, it, ib = np.unravel_index(idx, vals.shape)
            best = m
            best_params = (float(r), float(alpha[ia]), float(tau_kept[it]), float(beta[ib]))
    p = sample_point(*best_params)
    return best, p
