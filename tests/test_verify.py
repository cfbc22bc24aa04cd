import json
from pathlib import Path

import numpy as np
import pytest

from gtnbounds import bounds, verify
from gtnbounds.bazilevic import ClassParams
from gtnbounds.caratheodory import GridSpec
from gtnbounds.verify import Functional

SMALL = GridSpec.uniform(20)
DATA = Path(__file__).parent / "data"


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
    with pytest.raises(verify.EmptySweep):
        verify.sweep([], [Functional("a2")])
    with pytest.raises(verify.EmptySweep):
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


def test_full_suite_makes_62_scans(monkeypatch):
    calls = _counting_scans(monkeypatch)
    reports, _ = verify.run_suite("full", 1.0, GridSpec.uniform(8))
    # per preset, 14 class experiments: a3, fs(0), inverse-fs(2) and
    # conv-fs(unit) are one scan, fs(2) and inverse-fs(0) another, and
    # log-g2 = |a3 - a2^2/2| / 2 rides on the scan of fs(1/2)
    assert len(reports) == 5 * 14 + 17
    assert len(calls) == 5 * (14 - 5) + 17 == 62


def test_no_scan_outlives_its_sweep(monkeypatch):
    calls = _counting_scans(monkeypatch)
    entries, functionals = verify.preset_entries(1.0)[:1], [Functional("a3")]
    verify.sweep(entries, functionals, SMALL)
    verify.sweep(entries, functionals, SMALL)
    assert len(calls) == 2
    # a direct call never shares
    verify.run_experiment(Functional("fs", mu=0.0), entries[0][1], SMALL)
    assert len(calls) == 3
