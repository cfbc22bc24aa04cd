"""End-to-end verification experiments.

For a functional (|a2|, |a3|, |a3 - mu a2^2|, ...) and class parameters, an
experiment compares three numbers:

* ``as_stated``  -- the printed bound formula, verbatim;
* ``oracle``     -- a certified upper bound: the sharp Caratheodory-class
  inequality applied to the coefficient relation recovered numerically by
  :func:`gtnbounds.bazilevic.derive_relation`;
* ``empirical_sup`` -- a brute-force supremum of the functional over the
  exactly parametrized (c1, c2) body, mapped to (a2, a3) with the same
  oracle relation.

Soundness (the master property) is ``empirical_sup <= oracle + 1e-9`` in
every report.  Mismatches between printed statements and oracle values are
recorded as discrepancies, never as failures:

* D1 -- subclass-preset |a3| bound differs from the general statement;
* D2 -- the printed |d2| bound is half the value the relation d2 = -a2 gives;
* D3 -- the printed |g2| bound misses the 1/2 factor from 2 g2 = a3 - a2^2/2;
* D4 -- the printed convolution bound does not reduce to the base bound at
  unit weights;
* D5 -- the empirical supremum exceeded the as-stated bound.

Every class functional is ``scale * |a3 - mu_eff a2^2|``, or ``|a2|``:
``(scale, mu_eff)`` is ``(1, 0)`` for ``a3``, ``(1, mu)`` for ``fs`` and
``conv-fs``, ``(1, 2 - hbar)`` for ``inverse-fs`` and ``(1/2, 1/2)`` for
``log-g2``.  :func:`_describe` gives that form, the printed bound and the
extra discrepancy of each kind; one closure scans the form and
:func:`oracle` bounds it.  Within one :func:`sweep` call the experiments with
the same class parameters, ``mu_eff``, weights and grid share one scan (so
``log-g2`` takes half of the ``fs(1/2)`` scan); nothing is kept once the
call returns.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from gtnbounds import bounds
from gtnbounds.bazilevic import ClassParams, CoefficientRelation, derive_relation
from gtnbounds.caratheodory import (
    CaratheodoryPoint,
    GridSpec,
    brute_force_sup,
    lemma1_bound,
    lemma3_bound,
)
from gtnbounds.distributions import coefficients

SOUNDNESS_TOL = 1e-9

DISCREPANCY_IDS = ("D1", "D2", "D3", "D4", "D5")


class EmptySweep(ValueError):
    """A sweep needs at least one parameter set and one functional."""


@dataclass(frozen=True)
class Functional:
    """Descriptor of one verified functional."""

    kind: str  # a2 | a3 | fs | inverse-fs | log-g2 | conv-fs | lemma1 | lemma3
    mu: complex = 0.0
    hbar: complex = 0.0
    wp2: float = 1.0
    wp3: float = 1.0
    dist_label: str = ""
    v: complex = 0.0

    def label(self) -> str:
        if self.kind == "fs":
            return f"fs(mu={_cnum(self.mu)})"
        if self.kind == "inverse-fs":
            return f"inverse-fs(hbar={_cnum(self.hbar)})"
        if self.kind == "conv-fs":
            return f"conv-fs(mu={_cnum(self.mu)},dist={self.dist_label})"
        if self.kind in ("lemma1", "lemma3"):
            return f"{self.kind}(v={_cnum(self.v)})"
        return self.kind


def _cnum(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}i"


@dataclass
class BoundReport:
    experiment_id: str
    vartheta: float
    kappa: float
    varkappa: float
    functional: str
    as_stated: float
    oracle: float
    empirical_sup: float
    witness: CaratheodoryPoint
    discrepancies: list[dict] = field(default_factory=list)

    @property
    def gap(self) -> float:
        return self.oracle - self.empirical_sup

    @property
    def discrepancy_ids(self) -> list[str]:
        return [d["id"] for d in self.discrepancies]

    @property
    def sound(self) -> bool:
        return self.empirical_sup <= self.oracle + SOUNDNESS_TOL


# ---------------------------------------------------------------------------
# Subclass parameter presets.  The two one-parameter families get representative
# midpoints; the three fully pinned presets are as printed.

@dataclass(frozen=True)
class Preset:
    preset_id: str
    vartheta: float
    kappa: float
    subclass_a3: Callable[[float], float] | None

    def params(self, varkappa: float) -> ClassParams:
        return ClassParams(self.vartheta, self.kappa, varkappa)


PRESETS: tuple[Preset, ...] = (
    Preset("starlike", 0.0, 0.0, bounds.a3_printed_subclass_starlike),
    Preset("kappa-family", 0.0, 0.5, lambda vk: bounds.a3_printed_subclass_kappa(0.5, vk)),
    Preset("convex", 0.0, 1.0, bounds.a3_printed_subclass_convex),
    Preset("theta-family", 0.5, 0.0, lambda vk: bounds.a3_printed_subclass_theta(0.5, vk)),
    Preset("r-family", 1.0, 0.0, bounds.a3_printed_subclass_mixed),
)


@functools.lru_cache(maxsize=64)
def _relation(params: ClassParams) -> CoefficientRelation:
    return derive_relation(params)


def oracle(rel: CoefficientRelation, varkappa: float, mu_eff: complex | None,
           wp2: float = 1.0, wp3: float = 1.0) -> float:
    """Certified bound for |a3 - mu_eff a2^2| (|a2| when ``mu_eff`` is None):
    the sharp inequalities |c1| <= 2 and |c2 - v c1^2| <= 2 max(1, |2v - 1|)
    applied to the oracle relation ``rel``."""
    a2l, a3l = rel.linear_a2, rel.linear_a3
    if mu_eff is None:
        return 1.0 / (a2l * wp2)
    v = (
        (1.0 - varkappa) / 4.0
        + rel.quad_a2 / (2.0 * a2l**2)
        + mu_eff * a3l * wp3 / (2.0 * a2l**2 * wp2**2)
    )
    return lemma3_bound(v) / (2.0 * a3l * wp3)


def _describe(fn: Functional, params: ClassParams,
              subclass_a3: Callable[[float], float] | None) -> tuple:
    """A class functional as ``(scale, mu_eff, printed bound, extra
    discrepancies)``: it is ``scale * |a3 - mu_eff a2^2|``, or ``|a2|`` when
    ``mu_eff`` is None."""
    kind, mu = fn.kind, fn.mu
    if kind == "a2":
        return 1.0, None, bounds.a2_bound(params), []
    if kind == "a3":
        stated = bounds.a3_bound(params)
        subclass = stated if subclass_a3 is None else subclass_a3(params.varkappa)
        return 1.0, 0.0, stated, _differ("D1", subclass=subclass, general=stated)
    if kind == "fs":
        if complex(mu).imag == 0.0:
            return 1.0, mu, bounds.fs_real(params, complex(mu).real).as_printed, []
        return 1.0, mu, bounds.fs_complex(params, mu), []
    if kind == "inverse-fs":  # |d3 - hbar d2^2| = |a3 - (2 - hbar) a2^2|
        d2_stated, d2_oracle = bounds.inverse_d2_bound(params)
        return (1.0, 2.0 - fn.hbar, bounds.inverse_fs(params, fn.hbar),
                [{"id": "D2", "stated": d2_stated, "oracle": d2_oracle}])
    if kind == "log-g2":  # 2 g2 = a3 - a2^2 / 2
        stated = bounds.log_coeff_bounds(params)[1]
        return 0.5, 0.5, stated, _differ(
            "D3", stated=stated, half_fs=bounds.log_gamma2_oracle(params))
    if kind == "conv-fs":
        return 1.0, mu, bounds.conv_fs_complex(params, mu, fn.wp2, fn.wp3), _differ(
            "D4", unit_weight_value=bounds.conv_fs_complex(params, mu, 1.0, 1.0),
            base_value=bounds.fs_complex(params, mu))
    raise ValueError(f"unknown functional kind {kind!r}")


def _differ(did: str, **pair: float) -> list[dict]:
    """The discrepancy ``did`` when the two values differ by more than 1e-9."""
    a, b = pair.values()
    return [{"id": did, **pair}] if abs(a - b) > 1e-9 else []


def run_experiment(
    functional: Functional,
    params: ClassParams,
    grid: GridSpec = GridSpec(),
    preset_id: str = "",
    subclass_a3: Callable[[float], float] | None = None,
    *,
    _scans: dict | None = None,
) -> BoundReport:
    """Run one functional at one parameter point and assemble the report.

    ``_scans`` is the per-sweep store of :func:`sweep`: a scan found there
    under its key is reused instead of repeated."""
    vk = params.varkappa
    if functional.kind in ("lemma1", "lemma3"):
        v = functional.v
        scale, key, discrepancies = 1.0, (v, grid), []
        stated = lemma1_bound(v.real) if functional.kind == "lemma1" else lemma3_bound(v)
        oracle_value = lemma3_bound(v)

        def func(c1, c2):
            return np.abs(c2 - v * c1**2)
    else:
        rel = _relation(params)
        scale, mu_eff, stated, discrepancies = _describe(functional, params, subclass_a3)
        wp2, wp3 = functional.wp2, functional.wp3
        oracle_value = scale * oracle(rel, vk, mu_eff, wp2, wp3)
        key = (params, mu_eff, wp2, wp3, grid)
        a2l, aq = rel.linear_a2, rel.quad_a2
        # numpy divides a complex x by a real d as (re + im*0) * (1/d) (Smith's
        # algorithm with a zero imaginary part), so x * (1/d) has the same bits
        # up to the sign of an exact zero; such a sign stays on a zero through
        # the sums and products below and np.abs drops it.  A multiply costs
        # about a quarter of a division.
        inv3 = 1.0 / (rel.linear_a3 * wp3)

        def func(c1, c2):
            a2 = c1 / (2.0 * a2l * wp2)
            if mu_eff is None:
                return np.abs(a2)
            b2 = c2 * 0.5 + (vk - 1.0) * c1**2 / 8.0
            a3 = (b2 - aq * (wp2 * a2) ** 2) * inv3
            return np.abs(a3 - mu_eff * a2**2)

    scans = {} if _scans is None else _scans
    if key not in scans:
        scans[key] = brute_force_sup(func, grid)
    sup, witness = scans[key]
    sup = scale * sup
    if sup > stated + SOUNDNESS_TOL:
        discrepancies.append({"id": "D5", "stated": stated, "empirical": sup})

    slug = preset_id or f"vt{params.vartheta:g}-kp{params.kappa:g}"
    return BoundReport(
        experiment_id=f"{slug}|vk{vk:g}|{functional.label()}",
        vartheta=params.vartheta,
        kappa=params.kappa,
        varkappa=vk,
        functional=functional.label(),
        as_stated=float(stated),
        oracle=float(oracle_value),
        empirical_sup=float(sup),
        witness=witness,
        discrepancies=discrepancies,
    )


def sweep(
    param_entries: Sequence[tuple[str, ClassParams, Callable[[float], float] | None]],
    functionals: Sequence[Functional],
    grid: GridSpec = GridSpec(),
) -> tuple[list[BoundReport], dict]:
    """One report per (parameter entry, functional), in deterministic order.

    Experiments that scan the same ``|a3 - mu_eff a2^2|`` (same parameters,
    ``mu_eff``, weights and grid) share one scan, kept only for this call;
    their ``scale`` applies to the scan's result, so ``log-g2``
    (``|a3 - a2^2/2| / 2``) shares the scan of ``fs(1/2)``."""
    if not param_entries or not functionals:
        raise EmptySweep("need at least one parameter set and one functional")
    scans: dict = {}
    reports = [
        run_experiment(fn, params, grid, preset_id=pid, subclass_a3=subclass, _scans=scans)
        for pid, params, subclass in param_entries
        for fn in functionals
    ]
    return reports, summarize(reports)


def summarize(reports: Sequence[BoundReport]) -> dict:
    counts: dict[str, int] = {}
    for r in reports:
        for did in r.discrepancy_ids:
            counts[did] = counts.get(did, 0) + 1
    worst = max((r.empirical_sup - r.oracle for r in reports), default=-math.inf)
    return {
        "reports": len(reports),
        "discrepancy_counts": dict(sorted(counts.items())),
        "soundness": all(r.sound for r in reports),
        "max_sup_minus_oracle": worst,
    }


# ---------------------------------------------------------------------------
# Suites

FS_MU_VALUES = (-2.0, 0.0, 0.5, 1.0, 2.0)
LEMMA1_V_VALUES = (-1.0, -0.3, 0.0, 0.25, 0.5, 0.75, 1.0, 1.6, 2.0)


def preset_entries(varkappa: float) -> list[tuple[str, ClassParams, Callable | None]]:
    return [(p.preset_id, p.params(varkappa), p.subclass_a3) for p in PRESETS]


def remarks_functionals() -> list[Functional]:
    out = [Functional("a2"), Functional("a3")]
    out += [Functional("fs", mu=mu) for mu in FS_MU_VALUES]
    return out


def extended_functionals() -> list[Functional]:
    out = remarks_functionals()
    out += [Functional("inverse-fs", hbar=h) for h in (0.0, 2.0)]
    out.append(Functional("log-g2"))
    out.append(Functional("conv-fs", mu=0.0, wp2=1.0, wp3=1.0, dist_label="unit"))
    for kind, param, s in (("poisson", 1.0, 1), ("borel", 0.5, 1), ("pascal", 0.5, 2)):
        d = coefficients(kind, param, max_n=3, s=s)
        label = f"{kind}({param:g})" if kind != "pascal" else f"pascal({param:g},s={s})"
        out.append(
            Functional("conv-fs", mu=0.0, wp2=d.wp2, wp3=d.wp3, dist_label=label)
        )
    return out


def lemma_functionals(rng_seed: int = 20240817, n_complex: int = 8) -> list[Functional]:
    out = [Functional("lemma1", v=v) for v in LEMMA1_V_VALUES]
    rng = np.random.default_rng(rng_seed)
    for _ in range(n_complex):
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        out.append(Functional("lemma3", v=v))
    return out


def build_suite(name: str, varkappa: float = 1.0) -> tuple[list, list[Functional]]:
    """Parameter entries and functionals for a named suite.  For ``full``
    these are its class experiments; :func:`run_suite` adds the lemma suite."""
    if name == "remarks":
        return preset_entries(varkappa), remarks_functionals()
    if name == "lemmas":
        return [("caratheodory", ClassParams(0.0, 0.0, varkappa), None)], lemma_functionals()
    if name == "full":
        return preset_entries(varkappa), extended_functionals()
    raise ValueError(f"unknown suite {name!r}")


def run_suite(
    name: str, varkappa: float = 1.0, grid: GridSpec = GridSpec()
) -> tuple[list[BoundReport], dict]:
    reports, summary = sweep(*build_suite(name, varkappa), grid)
    if name == "full":
        reports += sweep(*build_suite("lemmas", varkappa), grid)[0]
        summary = summarize(reports)
    return reports, summary


# ---------------------------------------------------------------------------
# Deterministic JSON-lines serialization (12 significant digits everywhere)

def _f12(x: float) -> float:
    return float(f"{x:.12g}")


def _c12(z: complex) -> list[float]:
    return [_f12(z.real), _f12(z.imag)]


def report_to_dict(r: BoundReport) -> dict:
    return {
        "experiment_id": r.experiment_id,
        "vartheta": _f12(r.vartheta),
        "kappa": _f12(r.kappa),
        "varkappa": _f12(r.varkappa),
        "functional": r.functional,
        "as_stated": _f12(r.as_stated),
        "oracle": _f12(r.oracle),
        "empirical_sup": _f12(r.empirical_sup),
        "witness": {"c1": _c12(r.witness.c1), "c2": _c12(r.witness.c2)},
        "discrepancy_ids": r.discrepancy_ids,
        "discrepancies": [
            {k: (v if isinstance(v, str) else _f12(v)) for k, v in d.items()}
            for d in r.discrepancies
        ],
        "gap": _f12(r.gap),
    }


def reports_to_lines(reports: Sequence[BoundReport], summary: dict) -> list[str]:
    lines = [
        json.dumps(report_to_dict(r), separators=(",", ":"), allow_nan=False)
        for r in reports
    ]
    clean = dict(summary)
    if isinstance(clean.get("max_sup_minus_oracle"), float) and math.isfinite(
        clean["max_sup_minus_oracle"]
    ):
        clean["max_sup_minus_oracle"] = _f12(clean["max_sup_minus_oracle"])
    lines.append(json.dumps({"summary": clean}, separators=(",", ":"), allow_nan=False))
    return lines


def write_reports(path: str | Path, reports: Sequence[BoundReport], summary: dict) -> Path:
    """Append report lines; runs never overwrite earlier output.  Nothing is
    written when a report does not serialize (a non-finite value)."""
    lines = reports_to_lines(reports, summary)
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("a", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return p


def default_report_path(base_dir: str | Path = "reports") -> Path:
    stamp = datetime.now(tz=timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return Path(base_dir) / f"verify-{stamp}.jsonl"
