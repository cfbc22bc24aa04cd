import dataclasses
import importlib.util
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtnbounds import bounds, verify
from gtnbounds.bazilevic import ClassParams
from gtnbounds.caratheodory import (
    CaratheodoryPoint,
    FunctionalIsNaN,
    GridSpec,
    _evaluate,
    _leading,
    brute_force_sup,
    lemma3_bound,
    lemma4_bound,
)
from gtnbounds.verify import Functional

SMALL = GridSpec.uniform(20)
DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]


def test_a2_experiment_at_origin():
    r = verify.run_experiment(Functional("a2"), ClassParams(0, 0, 1), SMALL)
    assert r.as_stated == 1.0
    assert r.oracle == pytest.approx(1.0, abs=1e-6)
    assert 0.999 <= r.empirical_sup <= 1.0 + 1e-9
    assert r.sound


def test_a2_experiment_mixed_params():
    r = verify.run_experiment(Functional("a2"), ClassParams(1, 1, 1), SMALL)
    assert r.as_stated == 0.25
    assert r.oracle == pytest.approx(0.25, abs=1e-6)
    assert 0.249 <= r.empirical_sup <= 0.25 + 1e-9


def test_fs_experiment_is_sound_and_flags_nothing_spurious():
    r = verify.run_experiment(Functional("fs", mu=0.0), ClassParams(0, 0, 1), SMALL)
    assert r.empirical_sup <= r.oracle + verify.SOUNDNESS_TOL
    assert r.gap >= -verify.SOUNDNESS_TOL


def test_sweep_a2_over_parameter_grid_has_no_discrepancies():
    entries = [
        (f"vt{t:g}-kp{k:g}", ClassParams(t, k, 1.0), None)
        for t in (0.0, 0.5, 1.0)
        for k in (0.0, 0.5, 1.0)
    ]
    reports, summary = verify.sweep(entries, [Functional("a2")], SMALL)
    assert len(reports) == 9
    assert summary["discrepancy_counts"] == {}
    assert summary["soundness"]


def test_subclass_presets_a3_flag_d1_at_starlike():
    entries = verify.preset_entries(1.0)
    reports, summary = verify.sweep(entries, [Functional("a3")], SMALL)
    starlike = next(r for r in reports if r.experiment_id.startswith("starlike"))
    assert "D1" in starlike.discrepancy_ids
    d1 = next(d for d in starlike.discrepancies if d["id"] == "D1")
    assert d1["subclass"] == pytest.approx(1.25)
    assert d1["general"] == pytest.approx(1.0)


@pytest.mark.parametrize("varkappa", [1e8, 1e16])
def test_rounding_at_large_varkappa_is_sound(varkappa):
    # the values reach about varkappa / 2; their rounding passes an absolute
    # 1e-9, but stays far inside 1e-9 relative to the bound it is checked against
    reports, summary = verify.run_suite("remarks", varkappa, GridSpec.uniform(8))
    assert summary["soundness"]
    assert "D5" not in summary["discrepancy_counts"]
    assert max((r.empirical_sup - r.oracle) / r.oracle for r in reports) < 1e-15


@pytest.mark.parametrize(
    "oracle, excess, sound",
    [(2.0, 1.9e-9, True), (2.0, 2.1e-9, False), (0.5, 0.9e-9, True), (0.5, 1.1e-9, False),
     (1e8, 0.9e-1, True), (1e8, 1.1e-1, False), (-1e8, 0.9e-1, True), (-1e8, 1.1e-1, False)],
)
def test_soundness_allows_1e_9_relative_to_at_least_one(oracle, excess, sound):
    point = CaratheodoryPoint(0j, 0j)
    report = verify.BoundReport("x", 0.0, 0.0, 1.0, "a2", 0.0, oracle, oracle + excess, point)
    assert report.sound is sound


def test_empty_sweep_rejected():
    with pytest.raises(ValueError, match="at least one parameter set and one functional"):
        verify.sweep([], [Functional("a2")])
    with pytest.raises(ValueError, match="at least one parameter set and one functional"):
        verify.sweep(verify.preset_entries(1.0), [])


def test_full_suite_reproduces_golden_bytes_at_grid_12():
    # tests/data/verify-full-g12.jsonl was written by the unpruned 4-D scan
    lines = verify.reports_to_lines(*verify.run_suite("full", 1.0, GridSpec.uniform(12)))
    golden = (DATA / "verify-full-g12.jsonl").read_bytes()
    assert ("\n".join(lines) + "\n").encode() == golden


NOISE_SEED = 26  # fixed before the test first ran; a line that moves is not reseeded away
NOISE_ULPS = 4


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the report bytes rest on the last bits of the scan values and of "
                          "the relation constants (ROADMAP item 11)")
def test_full_suite_bytes_survive_noise_of_a_few_ulps(monkeypatch):
    # every value the class and lemma closures return, and each of the three
    # relation constants, moves by a seeded whole number of ulps in [-4, 4]
    rng = np.random.default_rng(NOISE_SEED)
    real_relation, real_closure = verify.derive_relation, verify._stack_functional

    def noisy_relation(params):
        rel = real_relation(params)
        return dataclasses.replace(rel, **{
            name: value + int(rng.integers(-NOISE_ULPS, NOISE_ULPS + 1)) * math.ulp(value)
            for name, value in dataclasses.asdict(rel).items()})

    def noisy_closure(params, forms):
        closure = real_closure(params, forms)
        return lambda c1, c2: tuple(
            values + rng.integers(-NOISE_ULPS, NOISE_ULPS + 1, values.shape) * np.spacing(values)
            for values in closure(c1, c2))

    monkeypatch.setattr(verify, "derive_relation", noisy_relation)
    monkeypatch.setattr(verify, "_stack_functional", noisy_closure)
    verify._relation.cache_clear()
    try:
        lines = verify.reports_to_lines(*verify.run_suite("full", 1.0, GridSpec.uniform(12)))
    finally:
        verify._relation.cache_clear()
    assert ("\n".join(lines) + "\n").encode() == (DATA / "verify-full-g12.jsonl").read_bytes()


def test_full_suite_flags_all_catalogued_discrepancies(tmp_path):
    reports, summary = verify.run_suite("full", varkappa=1.0, grid=GridSpec.uniform(12))
    assert summary["soundness"]
    found = {d["id"]: d for r in reports for d in r.discrepancies}
    for did in ("D1", "D2", "D3", "D4"):
        assert did in found, f"{did} missing"
        numeric = [v for k, v in found[did].items() if k != "id"]
        assert len(numeric) == 2  # both sides of the disagreement recorded
    out = verify.write_reports(tmp_path / "run.jsonl", reports, summary)
    lines = out.read_text().splitlines()
    assert len(lines) == len(reports) + 1
    assert json.loads(lines[-1])["summary"]["soundness"] is True


def test_reports_are_append_only(tmp_path):
    reports, summary = verify.sweep(
        verify.preset_entries(1.0)[:1], [Functional("a2")], SMALL
    )
    path = tmp_path / "out.jsonl"
    verify.write_reports(path, reports, summary)
    verify.write_reports(path, reports, summary)
    assert len(path.read_text().splitlines()) == 2 * (len(reports) + 1)


def test_reports_create_missing_directories_then_append(tmp_path):
    reports, summary = verify.sweep(
        verify.preset_entries(1.0)[:1], [Functional("a2"), Functional("a3")], SMALL
    )
    path = tmp_path / "new" / "dir" / "out.jsonl"
    assert verify.write_reports(path, reports, summary) == path
    first = path.read_text().splitlines()
    assert first == verify.reports_to_lines(reports, summary)
    verify.write_reports(path, reports, summary)
    assert path.read_text().splitlines() == first + first


def test_non_finite_report_is_refused_and_nothing_written(tmp_path):
    reports, summary = verify.sweep(
        verify.preset_entries(1.0)[:1], [Functional("a2")], SMALL
    )
    # 1.8e308 is finite, but rounds to 12 digits as inf
    for k, value in enumerate([float("nan"), float("inf"), -float("inf"), 1.8e308]):
        bad = [*reports, _crafted(empirical_sup=value)]
        with pytest.raises(ValueError):
            verify.reports_to_lines(bad, summary)
        path = tmp_path / f"out{k}.jsonl"
        with pytest.raises(ValueError):
            verify.write_reports(path, bad, summary)
        assert not path.exists()
        # a file that exists is left as it was
        path.write_text("earlier\n")
        with pytest.raises(ValueError):
            verify.write_reports(path, bad, summary)
        assert path.read_text() == "earlier\n"


# ---------------------------------------------------------------------------
# The report writer against the dict-and-json.dumps serializer it replaced.

def reference_dict(r: verify.BoundReport) -> dict:
    """A report as a nested dict, rounded by ``round12``: ``json.dumps`` of
    it with compact separators is the report line."""
    return verify.round12({
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


def reference_lines(reports, summary) -> list[str]:
    return [
        json.dumps(obj, separators=(",", ":"), allow_nan=False)
        for obj in [*map(reference_dict, reports), {"summary": verify.round12(summary)}]
    ]


def _crafted(**fields) -> verify.BoundReport:
    values = dict(experiment_id="x", vartheta=0.0, kappa=0.0, varkappa=1.0, functional="a2",
                  as_stated=1.0, oracle=1.0, empirical_sup=1.0,
                  witness=CaratheodoryPoint(2 + 0j, 2 + 0j), discrepancies=[])
    return verify.BoundReport(**{**values, **fields})


@pytest.mark.parametrize("suite, varkappa, grid", [
    *(("remarks", vk, 8) for vk in (1.0, 2.0, 3.5, 0.75, 2.5)),
    ("lemmas", 1.0, 12),
    *(("full", vk, 12) for vk in (0.5, 1.0, 2.0)),
])
def test_writer_equals_the_reference_serializer_on_suites(suite, varkappa, grid):
    reports, summary = verify.run_suite(suite, varkappa, GridSpec.uniform(grid))
    assert verify.reports_to_lines(reports, summary) == reference_lines(reports, summary)


# in this order no two neighbours subtract to an infinite gap
FLOATS = (0.0, -0.0, 5e-324, 1e-5, 9.99999999999e-5, 1e12, 1e15, 1e16, 1.7e308, 1 / 3,
          -1.7e308, -2.0 / 3e7, 123456789012.5, 0.1 + 0.2, np.float64(2.5))
TEXTS = ('quote " and backslash \\', "tab\t newline\n bell\x07 nul\x00 del\x7f",
         "non-ASCII \u03ba \u00e9 \U0001d49c", "", "plain|vk1|fs(mu=0.5)")


def test_writer_equals_the_reference_serializer_on_crafted_reports():
    reports = [
        _crafted(experiment_id=TEXTS[i % len(TEXTS)], functional=TEXTS[(i + 1) % len(TEXTS)],
                 vartheta=x, kappa=-x, varkappa=FLOATS[-1 - i], as_stated=x,
                 oracle=FLOATS[i - 1], empirical_sup=x,
                 witness=CaratheodoryPoint(complex(x, -x), np.complex128(complex(1.0, x))))
        for i, x in enumerate(FLOATS)
    ]
    reports.append(_crafted(discrepancies=[
        {"id": 'D"9\\', "stated": 1e-5, "empirical": 3},
        {"id": "D\u00e9", "label": "tab\there \u03ba", "count": 7, "flag": True},
        {"id": "D5", "stated": np.float64(9.99999999999e-5), "empirical": -0.0},
    ]))
    summary = {"reports": len(reports), "discrepancy_counts": {'D"9\\': 1, "D5": 1},
               "soundness": False, "max_sup_minus_oracle": 1e16}
    lines = verify.reports_to_lines(reports, summary)
    assert lines == reference_lines(reports, summary)
    assert all(line.isascii() for line in lines)


finite_doubles = st.floats(allow_nan=False, allow_infinity=False) | st.integers(
    0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]).filter(
    math.isfinite)


@settings(max_examples=1000, deadline=None)
@given(finite_doubles)
def test_text12_is_the_repr_of_round12(x):
    assert verify._text12(x) == repr(verify.round12(x))


@pytest.mark.parametrize("x", [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-05, 123456789012.0,
    999999999999.5, 1e12, -1e12, 1e15, 9.99999999999e15, 1e16, 1.7976931348623157e308])
def test_text12_layout_cases(x):
    # a whole number gains ".0", exponents 12 to 15 print in fixed notation,
    # and a subnormal's 12-digit text is not always its shortest
    assert verify._text12(x) == repr(verify.round12(x))


def test_serialization_is_deterministic():
    reports1, s1 = verify.sweep(verify.preset_entries(1.0)[:2], [Functional("a3")], SMALL)
    reports2, s2 = verify.sweep(verify.preset_entries(1.0)[:2], [Functional("a3")], SMALL)
    assert verify.reports_to_lines(reports1, s1) == verify.reports_to_lines(reports2, s2)
    for line in verify.reports_to_lines(reports1, s1):
        json.loads(line)  # every line is valid JSON


def test_lemma_suite_reports():
    reports, summary = verify.run_suite("lemmas", grid=GridSpec.uniform(24))
    assert summary["soundness"]
    for r in reports:
        assert r.empirical_sup <= r.oracle + verify.SOUNDNESS_TOL
        assert r.as_stated == pytest.approx(r.oracle) or r.functional.startswith("lemma1")


@pytest.mark.parametrize("hbar", [0.0, 3.0, complex(-0.048, -1.137)])
def test_lemma4_experiment_scans_half_hbar(hbar):
    # |c2 - hbar c1^2 / 2| is the lemma-3 functional at v = hbar / 2
    r = verify.run_experiment(Functional("lemma4", v=hbar), ClassParams(0, 0, 1), SMALL,
                              "caratheodory")
    half = verify.run_experiment(Functional("lemma3", v=hbar / 2.0), ClassParams(0, 0, 1),
                                 SMALL, "caratheodory")
    assert r.experiment_id.endswith(f"|lemma4(v={verify._cnum(hbar)})")
    assert r.as_stated == lemma4_bound(hbar)
    assert r.oracle == half.oracle == lemma3_bound(hbar / 2.0)
    assert (r.empirical_sup, r.witness) == (half.empirical_sup, half.witness)
    assert r.sound and r.discrepancies == []


def test_lemma_functionals_are_the_same_on_every_call():
    rng = np.random.default_rng(20240817)
    drawn = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(8)]
    want = ([Functional("lemma1", v=v) for v in verify.LEMMA1_V_VALUES]
            + [Functional("lemma3", v=v) for v in drawn])
    first = verify.lemma_functionals()
    assert first == want and len(want) == 17
    # a caller that changes its list changes no later call's
    first.append(Functional("a2"))
    second = verify.lemma_functionals()
    assert second == want and second is not first
    second.clear()
    assert verify.lemma_functionals() == want
    assert verify.build_suite("lemmas")[1] == want


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.build_suite("everything")


def test_attainment_at_sharp_mu_values():
    # the flat and growing regimes of the piecewise bound are attained at
    # grid-resident boundary points, so the gap closes at grid 60
    p = ClassParams(0, 0, 1.0)
    grid = GridSpec.uniform(60)
    r = verify.run_experiment(Functional("a2"), p, grid)
    assert r.gap <= 0.05
    for mu in (-2.0, 0.0, 1.0, 2.0):
        r = verify.run_experiment(Functional("fs", mu=mu), p, grid)
        assert r.gap <= 0.05, f"gap {r.gap} at mu={mu}"


def test_inverse_fs_experiment_carries_d2():
    r = verify.run_experiment(
        Functional("inverse-fs", hbar=0.0), ClassParams(0, 0, 1), SMALL
    )
    d2 = next(d for d in r.discrepancies if d["id"] == "D2")
    assert d2["stated"] == pytest.approx(0.5)
    assert d2["oracle"] == pytest.approx(1.0)


def test_conv_unit_experiment_carries_d4():
    r = verify.run_experiment(
        Functional("conv-fs", mu=0.0, wp2=1.0, wp3=1.0, dist_label="unit"),
        ClassParams(0, 0, 1),
        SMALL,
    )
    d4 = next(d for d in r.discrepancies if d["id"] == "D4")
    assert d4["unit_weight_value"] == pytest.approx(6.0)
    assert d4["base_value"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Experiments with the same |a3 - mu_eff a2^2| share one scan within a sweep.

def _counting_scans(monkeypatch):
    calls = []
    inner = verify.brute_force_sup

    def counting(functional, grid):
        calls.append(grid)
        return inner(functional, grid)

    monkeypatch.setattr(verify, "brute_force_sup", counting)
    return calls


def test_shared_scans_give_the_reports_of_unshared_ones():
    grid = GridSpec.uniform(12)
    reports, _ = verify.run_suite("full", 1.0, grid)
    entries, functionals = verify.build_suite("full", 1.0)
    alone = [
        verify.sweep([entry], [fn], grid)[0][0] for entry in entries for fn in functionals
    ] + [
        verify.sweep([("caratheodory", ClassParams(0.0, 0.0, 1.0), None)], [fn], grid)[0][0]
        for fn in verify.lemma_functionals()
    ]
    assert len(reports) == len(alone) == 87
    for shared, single in zip(reports, alone):
        assert shared == single, shared.experiment_id


def test_full_suite_makes_6_scans(monkeypatch):
    calls = _counting_scans(monkeypatch)
    reports, _ = verify.run_suite("full", 1.0, GridSpec.uniform(8))
    # one stacked scan per preset, of its 14 class experiments' 9 forms
    # (a3, fs(0), inverse-fs(2) and conv-fs(unit) are one form, fs(2) and
    # inverse-fs(0) another, and log-g2 = |a3 - a2^2/2| / 2 reads fs(1/2)),
    # and one of the 17 lemma experiments
    assert len(reports) == 5 * 14 + 17
    assert len(calls) == 5 + 1


def test_traced_suite_counts_stacked_scans_inside_run_experiment():
    # the benchmark's tracer counts scans and times the functional as
    # verify.functional only when the scan runs inside run_experiment
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer().install()
    try:
        reports, _ = verify.run_suite("full", 1.0, GridSpec.uniform(8))
    finally:
        tracer.uninstall()
    assert len(reports) == 87
    assert tracer.stats["caratheodory.brute_force_sup"].calls == 6
    assert tracer.stats["verify.functional"].calls > 0
    assert "cli.functional" not in tracer.stats
    assert verify.brute_force_sup is brute_force_sup


def test_a_nan_names_the_experiments_of_its_form():
    # at varkappa 1e308 a3 overflows and inf * 0 gives NaN; a2 stays finite
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError) as exc:
            verify.run_suite("remarks", 1e308, GridSpec.uniform(8))
    assert str(exc.value).startswith(
        "starlike|vk1e+308|a3, starlike|vk1e+308|fs(mu=0): the functional is NaN at ")
    assert isinstance(exc.value.__cause__, FunctionalIsNaN)
    # a direct experiment names itself
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^vt0-kp0\|vk1e\+308\|fs\(mu=2\): "):
            verify.run_experiment(Functional("fs", mu=2.0), ClassParams(0, 0, 1e308),
                                  GridSpec.uniform(8))


@pytest.mark.parametrize("suite, reports", [("full", 87), ("remarks", 35)])
def test_sweep_calls_run_experiment_once_per_report_and_scans_in_first_calls(
        monkeypatch, suite, reports):
    # the benchmark times each report by wrapping verify.run_experiment, and
    # its tracer counts a scan as the class's only inside that call
    bodies, ids, scans, running = [], [], [], []
    real_run, real_scan = verify.run_experiment, verify.brute_force_sup

    def counting_run(fn, params, *args, **kwargs):
        running.append(len(bodies))
        bodies.append(None if fn.kind in verify.LEMMA_BOUNDS else params)
        try:
            report = real_run(fn, params, *args, **kwargs)
        finally:
            running.pop()
        ids.append(report.experiment_id)
        return report

    def counting_scan(functional, grid):
        scans.append(running[-1] if running else None)
        return real_scan(functional, grid)

    monkeypatch.setattr(verify, "run_experiment", counting_run)
    monkeypatch.setattr(verify, "brute_force_sup", counting_scan)
    got, _ = verify.run_suite(suite, 1.0, GridSpec.uniform(8))
    assert len(got) == len(bodies) == reports
    assert ids == [r.experiment_id for r in got]
    # each body (a preset's parameters, or the lemmas) is scanned once, in
    # the call of its first report
    assert scans == [k for k, body in enumerate(bodies) if body not in bodies[:k]]
    assert len(scans) == (6 if suite == "full" else 5)


@pytest.mark.parametrize("suite, reports", [("full", 87), ("remarks", 35), ("lemmas", 17)])
def test_run_suite_summarizes_once(monkeypatch, suite, reports):
    grid = GridSpec.uniform(8)
    parts = [verify.sweep(*verify.build_suite(suite), grid)]
    if suite == "full":
        parts.append(verify.sweep(*verify.build_suite("lemmas"), grid))
    real, sizes = verify.summarize, []

    def counting(rs):
        sizes.append(len(rs))
        return real(rs)

    monkeypatch.setattr(verify, "summarize", counting)
    got, summary = verify.run_suite(suite, 1.0, grid)
    assert sizes == [len(got)] == [reports]
    assert got == [r for rs, _ in parts for r in rs]
    # the summary of one sweep, or of the class and lemma sweeps together
    assert summary == (parts[0][1] if suite != "full" else real(got))


# Ma-Minda (1994): with X = 1 + B1 z + B2 z^2 + ..., B1 = 1 and
# B2 = (1 + varkappa)/2, the sharp bounds on |a3 - mu a2^2| at three
# reductions of the class
MA_MINDA = {
    (0.0, 0.0): lambda b2, mu: 0.5 * max(1.0, abs(b2 + 1.0 - 2.0 * mu)),  # S*(X): W = zf'/f
    (1.0, 0.0): lambda b2, mu: max(1.0, abs(b2 + 1.0 - 1.5 * mu)) / 6.0,  # C(X): W = 1 + zf''/f'
    (0.0, 1.0): lambda b2, mu: max(1.0 / 3.0, abs(b2 / 3.0 - mu / 4.0)),  # f' subordinate to X
}


@pytest.mark.parametrize("vartheta, kappa", list(MA_MINDA))
def test_oracle_equals_ma_minda_at_three_reductions(vartheta, kappa):
    rel = verify._relation(vartheta, kappa)
    for vk in (0.0, 0.5, 1.0, 2.0, 3.5):
        for mu in (-2.0, 0.0, 0.5, 1.0, 2.0, 1.0 + 1.0j, -0.5 + 2.0j):
            want = MA_MINDA[vartheta, kappa]((1.0 + vk) / 2.0, mu)
            assert abs(verify.oracle(rel, vk, mu) - want) <= 1e-15 * want, (vk, mu)


def test_no_scan_outlives_its_sweep(monkeypatch):
    calls = _counting_scans(monkeypatch)
    entries, functionals = verify.preset_entries(1.0)[:1], [Functional("a3")]
    verify.sweep(entries, functionals, SMALL)
    verify.sweep(entries, functionals, SMALL)
    assert len(calls) == 2
    # a direct call never shares
    verify.run_experiment(Functional("fs", mu=0.0), entries[0][1], SMALL)
    assert len(calls) == 3


def test_plans_of_one_body_share_one_stack_that_scans_on_first_read(monkeypatch):
    calls = _counting_scans(monkeypatch)
    grid = GridSpec.uniform(8)
    entries = verify.preset_entries(1.0)[:2]
    functionals = [Functional("a3"), Functional("fs", mu=2.0), Functional("lemma3", v=0.5)]
    plans = verify._plans(entries, functionals, grid)
    stacks = [plan.stack for plan in plans]
    # one stack per distinct class params, one lemma stack per call
    assert stacks[0] is stacks[1] and stacks[3] is stacks[4] and stacks[2] is stacks[5]
    assert len({id(s) for s in stacks}) == 3
    assert (stacks[0].params, stacks[3].params, stacks[2].params) == (
        entries[0][1], entries[1][1], None)
    assert all(s.grid is grid for s in stacks)
    assert stacks[0].ids == {plans[0].form: [plans[0].experiment_id],
                             plans[1].form: [plans[1].experiment_id]}
    assert calls == []
    # reading each form's results scans the stack once
    for plan in plans[:2]:
        assert plan.form in stacks[0].results
    assert len(calls) == 1 and list(stacks[0].results) == list(stacks[0].ids)
    # a report read from a scanned stack scans nothing more; a direct call
    # plans a fresh stack and scans it
    planned = verify.run_experiment(functionals[0], entries[0][1], grid, entries[0][0],
                                    _plan=plans[0])
    assert len(calls) == 1
    assert verify.run_experiment(functionals[0], entries[0][1], grid, entries[0][0]) == planned
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# The class closure multiplies by reciprocals where the report arithmetic
# divided by real constants; the values must not move by one bit.

def _division_form(rel, vk, mu_eff, wp2, wp3):
    """The class functional as it divided by ``2.0`` and ``a3l * wp3``."""
    a2l, a3l, aq = rel.linear_a2, rel.linear_a3, rel.quad_a2

    def func(c1, c2):
        a2 = c1 / (2.0 * a2l * wp2)
        if mu_eff is None:
            return np.abs(a2)
        b2 = c2 / 2.0 + (vk - 1.0) * c1**2 / 8.0
        a3 = (b2 - aq * (wp2 * a2) ** 2) / (a3l * wp3)
        return np.abs(a3 - mu_eff * a2**2)

    return func


def _scanned_stacks(monkeypatch, params, functionals):
    """The stack closure that a sweep of ``functionals`` at ``params`` hands
    to the scan, with the form of each of its members."""
    seen = []
    inner = verify.brute_force_sup

    def capture(functional, grid):
        seen.append(functional)
        return inner(functional, grid)

    grid = GridSpec.uniform(2)
    monkeypatch.setattr(verify, "brute_force_sup", capture)
    verify.sweep([("", params, None)], functionals, grid)
    assert len(seen) == 1
    plans = verify._plans([("", params, None)], functionals, grid)
    return seen[0], list(dict.fromkeys(plan.form for plan in plans))


def _grid_slabs(grid):
    """c1 (N, 1, 1) and c2 (N, T, B) over every point of ``grid``, built
    as the scan builds them."""
    rho, _, tau, _ = grid.axes
    phase_a, phase_b = grid.phases
    c1, radius = _leading(rho[:, None], phase_a)
    seen = []
    _evaluate(lambda a, b: seen.append((a, b)) or (0.0,),
              c1.reshape(-1, 1, 1), radius.reshape(-1, 1, 1), tau[:, None], phase_b)
    return seen[0]


def _class_experiments():
    """Every class kind of the suites at three varkappa values, then seeded
    complex mu and hbar and non-unit weights on seeded class parameters."""
    out = []
    for vk in (1.0, 0.5, 2.5):
        entries, functionals = verify.build_suite("full", vk)
        out += [(params, fn) for _, params, _ in entries for fn in functionals]
    rng = np.random.default_rng(20260801)
    for _ in range(6):
        params = ClassParams(*rng.uniform(0.0, 1.0, 2), rng.uniform(0.5, 4.0))
        mu, hbar = (complex(*rng.uniform(-2.0, 2.0, 2)) for _ in range(2))
        wp2, wp3 = rng.uniform(0.05, 3.0, 2)
        out += [
            (params, Functional("fs", mu=mu)),
            (params, Functional("inverse-fs", hbar=hbar)),
            (params, Functional("conv-fs", mu=mu, wp2=wp2, wp3=wp3, dist_label="seeded")),
            (params, Functional("a2")),
            (params, Functional("log-g2")),
        ]
    return out


def test_class_closure_equals_the_division_form_bit_for_bit(monkeypatch):
    c1, c2 = _grid_slabs(GridSpec.uniform(12))
    experiments = _class_experiments()
    assert {fn.kind for _, fn in experiments} == {
        "a2", "a3", "fs", "inverse-fs", "log-g2", "conv-fs"}
    by_params: dict = {}
    for params, fn in experiments:
        by_params.setdefault(params, []).append(fn)
    checked = 0
    for params, functionals in by_params.items():
        stack, forms = _scanned_stacks(monkeypatch, params, functionals)
        rel = verify._relation(params.vartheta, params.kappa)
        got = stack(c1, c2)
        assert len(got) == len(forms)
        for values, (mu_eff, wp2, wp3) in zip(got, forms):
            want = np.asarray(_division_form(rel, params.varkappa, mu_eff, wp2, wp3)(c1, c2))
            assert values.shape == want.shape
            assert values.tobytes() == want.tobytes(), (params, mu_eff, wp2, wp3)
            checked += 1
    # 3 x 5 presets of 9 forms, and 6 seeded parameter points of 5
    assert checked == 15 * 9 + 6 * 5


def test_numpy_divides_complex_by_real_as_a_reciprocal_multiply():
    # the closure's reciprocal multiplies rest on this: for a real d, numpy
    # computes x / d as (re + im*0) * (1/d) and x * (1/d) as
    # (re*(1/d) - im*0) + i(im*(1/d) + re*0), which differ at most in the sign
    # of an exact zero; == tells every other pair of different bits apart
    rng = np.random.default_rng(11)
    n = 200_000
    parts = np.sign(rng.uniform(-1, 1, (2, n))) * 10.0 ** rng.uniform(-300, 300, (2, n))
    parts[:, : n // 10] = 0.0
    parts[:, n // 10 : n // 5] = -0.0
    x = parts[0] + 1j * rng.permutation(parts[1])
    d = np.sign(rng.uniform(-1, 1, n)) * 10.0 ** rng.uniform(-300, 300, n)
    with np.errstate(over="ignore"):  # both forms overflow to the same inf
        q, p = x / d, x * (1.0 / d)
        assert not np.isnan(q).any()
        assert np.array_equal(q, p)
        # a Python float divisor, as the closure has, takes the scalar loops
        for scalar in (2.0, 0.3, -7.5, 1e-300, 3e299, *d[:20]):
            q, p = x / float(scalar), x * (1.0 / float(scalar))
            assert np.array_equal(q, p), scalar
