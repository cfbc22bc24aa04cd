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

Soundness (the master property) is ``empirical_sup <= oracle + 1e-9 *
max(1, |oracle|)`` in every report.  Mismatches between printed statements
and oracle values are recorded as discrepancies, never as failures:

* D1 -- subclass-preset |a3| bound differs from the general statement;
* D2 -- the printed |d2| bound is half the value the relation d2 = -a2 gives;
* D3 -- the printed |g2| bound misses the 1/2 factor from 2 g2 = a3 - a2^2/2;
* D4 -- the printed convolution bound does not reduce to the base bound at
  unit weights;
* D5 -- the empirical supremum exceeded the as-stated bound (by more than
  the same relative slack).

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

:func:`_plans` plans each experiment once: its stack, form, scale, label
and id, with each functional's label and each parameter entry's id prefix
built once, and one :class:`_Stack` per body, which runs its scan the first
time its results are read.  :func:`sweep` calls :func:`run_experiment` once
per report, looked up as a module attribute, hands it the plan and returns
the reports, which :func:`summarize` counts; a direct call plans itself, so
both take the same path.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

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


def _slack(bound: float) -> float:
    """How far a supremum may pass ``bound`` before it counts as exceeding
    it: ``SOUNDNESS_TOL`` relative to ``max(1, |bound|)``, so that rounding,
    which grows with the values, never does."""
    return SOUNDNESS_TOL * max(1.0, abs(bound))


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
    def sound(self) -> bool:
        return self.empirical_sup <= self.oracle + _slack(self.oracle)


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
def _relation(vartheta: float, kappa: float) -> CoefficientRelation:
    """``derive_relation`` at (vartheta, kappa), cached: the relation does
    not depend on varkappa, so the class forms at every varkappa and
    ``gtnbounds presets`` share one entry."""
    return derive_relation(ClassParams(vartheta, kappa, 0.0))


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


@dataclass(eq=False)
class _Stack:
    """The experiments that scan one body, the class ``params`` (None for
    the lemma body) on ``grid``: each distinct form, in order of first use,
    with the ids of the experiments that read it.  The first read of
    :attr:`results` scans every form in one call."""

    params: ClassParams | None
    grid: GridSpec
    ids: dict = field(default_factory=dict)

    @functools.cached_property
    def results(self) -> dict:
        """Each form's ``(sup, witness)``.  A NaN from the scan is re-raised
        as a ``ValueError`` that names the experiments of the form that met
        it."""
        forms = list(self.ids)
        try:
            found = brute_force_sup(_stack_functional(self.params, forms), self.grid)
        except FunctionalIsNaN as exc:
            raise ValueError(f"{', '.join(self.ids[forms[exc.member]])}: {exc}") from exc
        return dict(zip(forms, found))


class _Plan(NamedTuple):
    """Where an experiment's supremum comes from and what its report is
    called: the :class:`_Stack` it reads, the ``form`` of its member in that
    stack, the ``scale`` of the result, the functional's ``label`` and the
    ``experiment_id``.  Class forms are ``(mu_eff, wp2, wp3)``; lemma forms
    are ``v``, or ``v / 2`` for ``lemma4``."""

    stack: _Stack
    form: object
    scale: float
    label: str
    experiment_id: str


def _plans(param_entries: Sequence[tuple], functionals: Sequence[Functional],
           grid: GridSpec) -> list[_Plan]:
    """The plan of each (parameter entry, functional), in :func:`sweep`
    order, with one :class:`_Stack` per distinct class ``params`` and one
    for the lemmas.  Each functional's form, scale and label are worked out
    once, and each entry's ``slug|vk...|`` id prefix once."""
    # (stack, form, scale, label); a class member's stack is its entry's, None here
    lemma_stack, members = _Stack(None, grid), []
    for fn in functionals:
        if fn.kind in LEMMA_BOUNDS:
            form = fn.v / 2.0 if fn.kind == "lemma4" else fn.v
            members.append((lemma_stack, form, 1.0, fn.label()))
        else:
            scale, mu_eff = _form(fn)
            members.append((None, (mu_eff, fn.wp2, fn.wp3), scale, fn.label()))
    plans, stacks = [], {}
    for preset_id, params, _ in param_entries:
        slug = preset_id or f"vt{params.vartheta:g}-kp{params.kappa:g}"
        prefix = f"{slug}|vk{params.varkappa:g}|"
        class_stack = stacks.setdefault(params, _Stack(params, grid))
        for stack, form, scale, label in members:
            stack, experiment_id = stack or class_stack, prefix + label
            stack.ids.setdefault(form, []).append(experiment_id)
            plans.append(_Plan(stack, form, scale, label, experiment_id))
    return plans


def _stack_functional(params: ClassParams | None, forms: Sequence) -> Callable:
    """The closure that evaluates every form of a stack, in order, as a tuple.

    Lemma forms ``v`` give ``|c2 - v c1^2|`` from one ``c1^2``.  Class forms
    ``(mu_eff, wp2, wp3)`` of ``params`` share one ``b2``, and ``a2``,
    ``a2^2`` and ``a3`` once per ``(wp2, wp3)``; each value then takes one
    ``abs``.  Every array goes through the same operations as in a stack of
    one, so the values are the same bits."""
    if params is None:
        def lemmas(c1, c2):
            c1_sq = c1**2
            return tuple([np.abs(c2 - v * c1_sq) for v in forms])

        return lemmas
    rel, vk = _relation(params.vartheta, params.kappa), params.varkappa
    a2l, aq = rel.linear_a2, rel.quad_a2
    # numpy divides a complex x by a real d as (re + im*0) * (1/d) (Smith's
    # algorithm with a zero imaginary part), so x * (1/d) has the same bits
    # up to the sign of an exact zero; such a sign stays on a zero through
    # the sums and products below and np.abs drops it.  A multiply costs
    # about a quarter of a division.
    weights: dict = {}  # (wp2, wp3) -> (1 / (A3 wp3), its forms as (index, mu_eff))
    for k, (mu_eff, wp2, wp3) in enumerate(forms):
        weights.setdefault((wp2, wp3), (1.0 / (rel.linear_a3 * wp3), []))[1].append((k, mu_eff))

    def stack(c1, c2):
        out = [None] * len(forms)
        b2 = c2 * 0.5 + (vk - 1.0) * c1**2 / 8.0
        for (wp2, _), (inv3, members) in weights.items():
            a2 = c1 / (2.0 * a2l * wp2)
            a2_sq = a2**2
            a3 = (b2 - aq * (wp2 * a2) ** 2) * inv3
            for k, mu_eff in members:
                # |a2| is one value per c1, and stays that size
                out[k] = np.abs(a2) if mu_eff is None else np.abs(a3 - mu_eff * a2_sq)
        return tuple(out)

    return stack


def run_experiment(
    functional: Functional,
    params: ClassParams,
    grid: GridSpec = GridSpec(),
    preset_id: str = "",
    subclass_a3: Callable[[float], float] | None = None,
    *,
    _plan: _Plan | None = None,
) -> BoundReport:
    """Run one functional at one parameter point and assemble the report.

    :func:`sweep` passes the experiment's ``_plan``; a direct call plans
    itself, in a stack of its own.  The first experiment to read its
    stack's results runs the stack's scan; the others read them."""
    if _plan is None:
        _plan = _plans([(preset_id, params, None)], [functional], grid)[0]
    stack, form, scale, label, experiment_id = _plan
    vk = params.varkappa
    if functional.kind in LEMMA_BOUNDS:
        stated = LEMMA_BOUNDS[functional.kind](functional.v)
        oracle_value, discrepancies = lemma3_bound(form), []
    else:
        stated, discrepancies = _describe(functional, params, subclass_a3)
        oracle_value = scale * oracle(_relation(params.vartheta, params.kappa), vk, form[0],
                                      functional.wp2, functional.wp3)

    sup, witness = stack.results[form]
    sup = scale * sup
    if sup > stated + _slack(stated):
        discrepancies.append({"id": "D5", "stated": stated, "empirical": sup})

    return BoundReport(
        experiment_id=experiment_id,
        vartheta=params.vartheta,
        kappa=params.kappa,
        varkappa=vk,
        functional=label,
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
) -> list[BoundReport]:
    """One report per (parameter entry, functional), in deterministic order.

    Each experiment is planned once (:func:`_plans`), with the
    :class:`_Stack` of its body, so each body is scanned once, for all of
    its forms; the stacks are kept only for this call.  Each experiment's
    ``scale`` applies to its form's result, so ``log-g2``
    (``|a3 - a2^2/2| / 2``) reads that of ``fs(1/2)``."""
    if not param_entries or not functionals:
        raise ValueError("need at least one parameter set and one functional")
    plans = _plans(param_entries, functionals, grid)
    return [
        run_experiment(fn, params, grid, pid, subclass, _plan=plan)
        for ((pid, params, subclass), fn), plan
        in zip(itertools.product(param_entries, functionals), plans)
    ]


def summarize(reports: Sequence[BoundReport]) -> dict:
    counts: dict[str, int] = {}
    for r in reports:
        for d in r.discrepancies:
            counts[d["id"]] = counts.get(d["id"], 0) + 1
    return {
        "reports": len(reports),
        "discrepancy_counts": dict(sorted(counts.items())),
        "soundness": all(r.sound for r in reports),
        "max_sup_minus_oracle": max((r.empirical_sup - r.oracle for r in reports),
                                    default=-math.inf),
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


@functools.cache
def _lemma3_v() -> tuple[complex, ...]:
    """The 8 Lemma 3 ``v``, drawn once per process."""
    rng = np.random.default_rng(20240817)
    return tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(8))


def lemma_functionals() -> list[Functional]:
    """Lemma 1 at each of ``LEMMA1_V_VALUES``, then Lemma 3 at 8 complex v
    drawn uniformly from [-2, 2] x [-2, 2] by numpy's generator, seed 20240817."""
    return ([Functional("lemma1", v=v) for v in LEMMA1_V_VALUES]
            + [Functional("lemma3", v=v) for v in _lemma3_v()])


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
    """The suite's reports, one :func:`sweep` of its class experiments and,
    for ``full``, one of the lemma suite, and one :func:`summarize` of them all."""
    reports = sweep(*build_suite(name, varkappa), grid)
    if name == "full":
        reports += sweep(*build_suite("lemmas", varkappa), grid)
    return reports, summarize(reports)


# ---------------------------------------------------------------------------
# Deterministic JSON-lines serialization (12 significant digits everywhere)
#
# The contract of a report line: one JSON object of the fields experiment_id,
# vartheta, kappa, varkappa, functional, as_stated, oracle, empirical_sup,
# witness ({"c1": [re, im], "c2": [re, im]}), discrepancy_ids (strings),
# discrepancies (each a dict in its own key order; a value that is not a
# string prints as a float) and gap, in that order, with no spaces.  Every
# float prints as repr(round12(x)), its repr once rounded to 12 significant
# digits; _text12 writes that text from the 12-digit text itself.  Every
# string is escaped to ASCII as json.dumps escapes it by default.  A value
# that is not finite is refused with the ValueError of
# json.dumps(allow_nan=False), naming it; _number writes the floats in line
# order, so that is the first such value, and since rounding a finite double
# to 12 digits never overflows, the one json.dumps of the rounded line would
# refuse.  The summary is the last line, {"summary": ...}, written by
# json.dumps of its round12.

_string = json.encoder.encode_basestring_ascii
_MIN_NORMAL = sys.float_info.min


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


def _text12(x: float) -> str:
    """``repr(round12(x))`` of a finite float, without the round trip.

    A decimal of at most 15 significant digits reads back from the double
    nearest it unchanged, so the ``.12g`` text already holds the digits of
    ``repr``'s shortest round-trip text and only its layout can differ:
    ``repr`` ends a whole number in ``.0`` and prints exponents 12 to 15 in
    fixed notation.  A subnormal has fewer digits of precision, so its
    12-digit text need not be the shortest; it goes through ``repr`` too."""
    s = f"{x:.12g}"
    if "e" not in s:
        return s if "." in s else s + ".0"  # "-0" too
    if 12 <= int(s[s.index("e") + 1:]) < 16 or abs(x) < _MIN_NORMAL:
        return repr(float(s))
    return s


def _number(x) -> str:
    """The JSON of ``float(x)`` rounded by :func:`round12`, written by
    :func:`_text12`; a value that is not finite is refused."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return _text12(x)


def _discrepancy(d: dict) -> str:
    return "{" + ",".join(
        f"{_string(k)}:{_string(v) if isinstance(v, str) else _number(v)}"
        for k, v in d.items()) + "}"


def _report_line(r: BoundReport) -> str:
    """The line of ``r``, one f-string.  Its floats are written by
    :func:`_number` in line order, so the first that is not finite is the
    one refused."""
    c1, c2 = r.witness.c1, r.witness.c2
    (vartheta, kappa, varkappa, as_stated, oracle_value, empirical_sup,
     c1_re, c1_im, c2_re, c2_im) = map(_number, (
         r.vartheta, r.kappa, r.varkappa, r.as_stated, r.oracle, r.empirical_sup,
         c1.real, c1.imag, c2.real, c2.imag))
    ds = r.discrepancies
    ids = ",".join([_string(d["id"]) for d in ds])
    discrepancies = ",".join(map(_discrepancy, ds))
    gap = _number(r.gap)
    return (
        f'{{"experiment_id":{_string(r.experiment_id)},"vartheta":{vartheta},'
        f'"kappa":{kappa},"varkappa":{varkappa},'
        f'"functional":{_string(r.functional)},"as_stated":{as_stated},'
        f'"oracle":{oracle_value},"empirical_sup":{empirical_sup},'
        f'"witness":{{"c1":[{c1_re},{c1_im}],"c2":[{c2_re},{c2_im}]}},'
        f'"discrepancy_ids":[{ids}],"discrepancies":[{discrepancies}],"gap":{gap}}}'
    )


def reports_to_lines(reports: Sequence[BoundReport], summary: dict) -> list[str]:
    """One JSON line per report, then the summary line."""
    lines = [_report_line(r) for r in reports]
    lines.append(json.dumps({"summary": round12(summary)}, separators=(",", ":"),
                            allow_nan=False))
    return lines


def write_reports(path: str | Path, reports: Sequence[BoundReport], summary: dict) -> Path:
    """Append report lines; runs never overwrite earlier output.  The text
    is built first and appended in one write, so nothing is written when a
    report does not serialize (a non-finite value)."""
    text = "\n".join(reports_to_lines(reports, summary)) + "\n"
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("a", encoding="utf-8") as fh:
        fh.write(text)
    return p


def default_report_path() -> Path:
    """``reports/verify-<UTC time>.jsonl`` under the working directory."""
    stamp = datetime.now(tz=timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return Path("reports") / f"verify-{stamp}.jsonl"
