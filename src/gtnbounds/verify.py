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
``log-g2``.  :func:`_form` gives that form, :func:`_describe` the printed
bound and the extra discrepancy of each kind, and :func:`oracle` bounds the
form.  The lemma functionals are ``|c2 - v c1^2|``, and ``|c2 - v c1^2 / 2|``
for ``lemma4``: :data:`LEMMA_BOUNDS` gives each one's printed bound.

Experiments that scan the same (c1, c2) body share one scan: within one
:func:`sweep` call, the class experiments with the same parameters and grid
are one *stack*, and so are the lemma experiments with the same grid.  One
closure evaluates every distinct form of a stack on each block of points,
sharing ``c1^2``, or ``b2`` and each ``(a2, a2^2, a3)``, and
:func:`gtnbounds.caratheodory.brute_force_sup` returns each form's supremum
and witness, bit for bit those of a scan of that form alone.  Experiments
with the same form read the same result (so ``log-g2`` takes half of the
``fs(1/2)`` result); nothing is kept once the call returns.
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
    FunctionalIsNaN,
    GridSpec,
    brute_force_sup,
    lemma1_bound,
    lemma3_bound,
    lemma4_bound,
)
from gtnbounds.distributions import coefficients

SOUNDNESS_TOL = 1e-9

# The printed bound of each lemma kind, by its ``v``
LEMMA_BOUNDS: dict[str, Callable[[complex], float]] = {
    "lemma1": lambda v: lemma1_bound(v.real),
    "lemma3": lemma3_bound,
    "lemma4": lemma4_bound,
}


@dataclass(frozen=True)
class Functional:
    """Descriptor of one verified functional."""

    kind: str  # a2 | a3 | fs | inverse-fs | log-g2 | conv-fs | lemma1 | lemma3 | lemma4
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
        if self.kind in LEMMA_BOUNDS:
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


def _form(fn: Functional) -> tuple[float, complex | None]:
    """``(scale, mu_eff)`` of a class functional: it is
    ``scale * |a3 - mu_eff a2^2|``, or ``|a2|`` when ``mu_eff`` is None."""
    kind = fn.kind
    if kind == "a2":
        return 1.0, None
    if kind == "a3":
        return 1.0, 0.0
    if kind in ("fs", "conv-fs"):
        return 1.0, fn.mu
    if kind == "inverse-fs":  # |d3 - hbar d2^2| = |a3 - (2 - hbar) a2^2|
        return 1.0, 2.0 - fn.hbar
    if kind == "log-g2":  # 2 g2 = a3 - a2^2 / 2
        return 0.5, 0.5
    raise ValueError(f"unknown functional kind {kind!r}")


def _describe(fn: Functional, params: ClassParams,
              subclass_a3: Callable[[float], float] | None) -> tuple[float, list[dict]]:
    """The printed bound of a class functional of a kind :func:`_form`
    accepts, and its extra discrepancies."""
    kind, mu = fn.kind, fn.mu
    if kind == "a2":
        return bounds.a2_bound(params), []
    if kind == "a3":
        stated = bounds.a3_bound(params)
        subclass = stated if subclass_a3 is None else subclass_a3(params.varkappa)
        return stated, _differ("D1", subclass=subclass, general=stated)
    if kind == "fs":
        if complex(mu).imag == 0.0:
            return bounds.fs_real(params, complex(mu).real).as_printed, []
        return bounds.fs_complex(params, mu), []
    if kind == "inverse-fs":
        d2_stated, d2_oracle = bounds.inverse_d2_bound(params)
        return (bounds.inverse_fs(params, fn.hbar),
                [{"id": "D2", "stated": d2_stated, "oracle": d2_oracle}])
    if kind == "log-g2":
        stated = bounds.log_coeff_bounds(params)[1]
        return stated, _differ("D3", stated=stated, half_fs=bounds.log_gamma2_oracle(params))
    return bounds.conv_fs_complex(params, mu, fn.wp2, fn.wp3), _differ(
        "D4", unit_weight_value=bounds.conv_fs_complex(params, mu, 1.0, 1.0),
        base_value=bounds.fs_complex(params, mu))


def _differ(did: str, **pair: float) -> list[dict]:
    """The discrepancy ``did`` when the two values differ by more than 1e-9."""
    a, b = pair.values()
    return [{"id": did, **pair}] if abs(a - b) > 1e-9 else []


def _member(fn: Functional, params: ClassParams, grid: GridSpec) -> tuple:
    """Where an experiment's supremum comes from, as ``(body, form, scale)``:
    the body it scans, the form of its member in that body's stack and the
    scale of the result.  Class experiments scan ``(params, grid)`` with
    the form ``(mu_eff, wp2, wp3)``; lemma experiments scan ``(None, grid)``
    with the form ``v``, or ``v / 2`` for ``lemma4``."""
    if fn.kind in LEMMA_BOUNDS:
        return (None, grid), fn.v / 2.0 if fn.kind == "lemma4" else fn.v, 1.0
    scale, mu_eff = _form(fn)
    return (params, grid), (mu_eff, fn.wp2, fn.wp3), scale


def _experiment_id(fn: Functional, params: ClassParams, preset_id: str) -> str:
    slug = preset_id or f"vt{params.vartheta:g}-kp{params.kappa:g}"
    return f"{slug}|vk{params.varkappa:g}|{fn.label()}"


@dataclass
class _Stack:
    """The experiments that scan one body: each distinct form, in order of
    first use, with the ids of the experiments that read it, and each form's
    ``(sup, witness)`` once the body is scanned."""

    ids: dict
    results: dict | None = None


def _value_rows(count: int) -> Callable:
    """``rows(shape)``: ``count`` value arrays of ``shape``, as views of one
    buffer that every call reuses (it grows to the largest shape asked for).

    A stack's closure writes its values there, so a call allocates only the
    temporaries a single form needs.  Fresh arrays for K forms per call grow
    the heap by K blocks, which glibc's malloc then trims and faults in again
    (about 2.5k minor page faults per grid-60 full pass, against about 2).
    The scan reads the values of a call before it makes the next."""
    buf = np.empty(0)

    def rows(shape):
        nonlocal buf
        size = count * math.prod(shape)
        if buf.size < size:
            buf = np.empty(size)
        return buf[:size].reshape(count, *shape)

    return rows


def _stack_functional(params: ClassParams | None, forms: Sequence) -> Callable:
    """The closure that evaluates every form of a stack, in order, as a tuple.

    Lemma forms ``v`` give ``|c2 - v c1^2|`` from one ``c1^2``.  Class forms
    ``(mu_eff, wp2, wp3)`` of ``params`` share one ``b2``, and ``a2``,
    ``a2^2`` and ``a3`` once per ``(wp2, wp3)``; each value then takes one
    ``abs``.  Every array goes through the same operations as in a stack of
    one, so the values are the same bits."""
    if params is None:
        lemma_rows = _value_rows(len(forms))

        def lemmas(c1, c2):
            c1_sq, out = c1**2, lemma_rows(c2.shape)
            for v, row in zip(forms, out):
                np.abs(c2 - v * c1_sq, out=row)
            return tuple(out)

        return lemmas
    rel, vk = _relation(params), params.varkappa
    a2l, aq = rel.linear_a2, rel.quad_a2
    # numpy divides a complex x by a real d as (re + im*0) * (1/d) (Smith's
    # algorithm with a zero imaginary part), so x * (1/d) has the same bits
    # up to the sign of an exact zero; such a sign stays on a zero through
    # the sums and products below and np.abs drops it.  A multiply costs
    # about a quarter of a division.
    weights: dict = {}  # (wp2, wp3) -> (1 / (A3 wp3), its forms as (index, mu_eff))
    for k, (mu_eff, wp2, wp3) in enumerate(forms):
        weights.setdefault((wp2, wp3), (1.0 / (rel.linear_a3 * wp3), []))[1].append((k, mu_eff))
    needs_b2 = any(mu_eff is not None for mu_eff, _, _ in forms)
    rows = _value_rows(len(forms))

    def stack(c1, c2):
        out = list(rows(c2.shape))
        if needs_b2:
            b2 = c2 * 0.5 + (vk - 1.0) * c1**2 / 8.0
        for (wp2, _), (inv3, members) in weights.items():
            a2 = c1 / (2.0 * a2l * wp2)
            if any(mu_eff is not None for _, mu_eff in members):
                a2_sq = a2**2
                a3 = (b2 - aq * (wp2 * a2) ** 2) * inv3
            for k, mu_eff in members:
                # |a2| is one value per c1: it stays that size, and its row unused
                out[k] = (np.abs(a2) if mu_eff is None
                          else np.abs(a3 - mu_eff * a2_sq, out=out[k]))
        return tuple(out)

    return stack


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

    ``_scans`` is the per-sweep store of :func:`sweep`: the :class:`_Stack`
    of each body.  The first experiment of a stack scans all of its forms in
    one call; the others read their results.  A direct call scans a stack of
    one.  A NaN from the scan is re-raised as a ``ValueError`` that names the
    experiments of the form that met it."""
    vk = params.varkappa
    body, form, scale = _member(functional, params, grid)
    experiment_id = _experiment_id(functional, params, preset_id)
    if functional.kind in LEMMA_BOUNDS:
        stated = LEMMA_BOUNDS[functional.kind](functional.v)
        oracle_value, discrepancies = lemma3_bound(form), []
    else:
        stated, discrepancies = _describe(functional, params, subclass_a3)
        oracle_value = scale * oracle(_relation(params), vk, form[0],
                                      functional.wp2, functional.wp3)

    scans = {} if _scans is None else _scans
    stack = scans.setdefault(body, _Stack({form: [experiment_id]}))
    if stack.results is None:
        forms = list(stack.ids)
        try:
            found = brute_force_sup(_stack_functional(body[0], forms), grid)
        except FunctionalIsNaN as exc:
            raise ValueError(f"{', '.join(stack.ids[forms[exc.member]])}: {exc}") from exc
        stack.results = dict(zip(forms, found))
    sup, witness = stack.results[form]
    sup = scale * sup
    if sup > stated + SOUNDNESS_TOL:
        discrepancies.append({"id": "D5", "stated": stated, "empirical": sup})

    return BoundReport(
        experiment_id=experiment_id,
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

    The experiments are first grouped into one :class:`_Stack` per body, so
    each body is scanned once, for all of its forms; the stacks are kept only
    for this call.  Each experiment's ``scale`` applies to its form's
    result, so ``log-g2`` (``|a3 - a2^2/2| / 2``) reads that of ``fs(1/2)``."""
    if not param_entries or not functionals:
        raise ValueError("need at least one parameter set and one functional")
    scans: dict = {}
    for pid, params, _ in param_entries:
        for fn in functionals:
            body, form, _ = _member(fn, params, grid)
            ids = scans.setdefault(body, _Stack({})).ids
            ids.setdefault(form, []).append(_experiment_id(fn, params, pid))
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


def lemma_functionals() -> list[Functional]:
    """Lemma 1 at each of ``LEMMA1_V_VALUES``, then Lemma 3 at 8 complex v
    drawn uniformly from [-2, 2] x [-2, 2] by numpy's generator, seed 20240817."""
    out = [Functional("lemma1", v=v) for v in LEMMA1_V_VALUES]
    rng = np.random.default_rng(20240817)
    for _ in range(8):
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

def round12(obj):
    """``obj`` as it is printed: each float rounded to 12 significant digits
    and each complex as ``[re, im]``, through dicts, lists and tuples."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, complex):
        return [round12(obj.real), round12(obj.imag)]
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    return obj


def report_to_dict(r: BoundReport) -> dict:
    return round12({
        "experiment_id": r.experiment_id,
        "vartheta": float(r.vartheta),
        "kappa": float(r.kappa),
        "varkappa": float(r.varkappa),
        "functional": r.functional,
        "as_stated": float(r.as_stated),
        "oracle": float(r.oracle),
        "empirical_sup": float(r.empirical_sup),
        "witness": {"c1": complex(r.witness.c1), "c2": complex(r.witness.c2)},
        "discrepancy_ids": r.discrepancy_ids,
        "discrepancies": [
            {k: (v if isinstance(v, str) else float(v)) for k, v in d.items()}
            for d in r.discrepancies
        ],
        "gap": float(r.gap),
    })


def reports_to_lines(reports: Sequence[BoundReport], summary: dict) -> list[str]:
    return [
        json.dumps(obj, separators=(",", ":"), allow_nan=False)
        for obj in [*map(report_to_dict, reports), {"summary": round12(summary)}]
    ]


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


def default_report_path() -> Path:
    """``reports/verify-<UTC time>.jsonl`` under the working directory."""
    stamp = datetime.now(tz=timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return Path("reports") / f"verify-{stamp}.jsonl"
