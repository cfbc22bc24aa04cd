import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from gtnbounds import bounds, verify
from gtnbounds.bazilevic import ClassParams
from gtnbounds.caratheodory import (
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


def test_non_finite_report_is_refused_and_nothing_written(tmp_path):
    reports, summary = verify.sweep(
        verify.preset_entries(1.0)[:1], [Functional("a2")], SMALL
    )
    reports[0].empirical_sup = float("nan")
    with pytest.raises(ValueError):
        verify.reports_to_lines(reports, summary)
    path = tmp_path / "out.jsonl"
    with pytest.raises(ValueError):
        verify.write_reports(path, reports, summary)
    assert not path.exists()


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


def test_no_scan_outlives_its_sweep(monkeypatch):
    calls = _counting_scans(monkeypatch)
    entries, functionals = verify.preset_entries(1.0)[:1], [Functional("a3")]
    verify.sweep(entries, functionals, SMALL)
    verify.sweep(entries, functionals, SMALL)
    assert len(calls) == 2
    # a direct call never shares
    verify.run_experiment(Functional("fs", mu=0.0), entries[0][1], SMALL)
    assert len(calls) == 3


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
    return seen[0], list(dict.fromkeys(verify._member(fn, params, grid)[1] for fn in functionals))


def _grid_slabs(grid):
    """c1 (N, 1, 1) and c2 (N, T, B) over every point of ``grid``, built
    as the scan builds them."""
    rho, _, tau, _ = grid.axes
    phase_a, phase_b = grid.phases
    c1, radius = _leading(rho[:, None], phase_a)
    seen = []
    _evaluate(lambda a, b: seen.append((a, b)) or 0.0, c1.ravel(), radius.ravel(), tau, phase_b)
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
        rel = verify._relation(params)
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
