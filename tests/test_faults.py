"""Fault-injection matrix: each row plants one defect with ``monkeypatch``
and checks that the gate named for it trips: the full suite at grid 12 for
the report gates, and the tests that guard them for the solver and the
``member`` verdict.

A row whose gate does not trip is a finding, not a row to delete.  The three
relation rows do not trip the soundness gate yet, because the scan and the
oracle read the same ``derive_relation`` constants; they are strict xfails
until the scan reads real class members (ROADMAP item 2).
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import test_bazilevic as solver_gate
import test_caratheodory as scan_gate
import test_cli as member_gate
from gtnbounds import bazilevic, bounds, caratheodory, verify
from gtnbounds.caratheodory import GridSpec
from gtnbounds.series import TruncatedSeries

GRID = GridSpec.uniform(12)
GOLDEN = (Path(__file__).parent / "data" / "verify-full-g12.jsonl").read_bytes()


def run_full() -> tuple[bytes, dict]:
    """The full suite at grid 12: its report bytes and its summary."""
    reports, summary = verify.run_suite("full", 1.0, GRID)
    return ("\n".join(verify.reports_to_lines(reports, summary)) + "\n").encode(), summary


def scaled(fn, factor):
    return lambda *args: fn(*args) * factor


@pytest.fixture
def fresh_relation():
    """Empty the relation cache before the row and after it, so the row
    reads its planted relation and later tests the real one."""
    verify._relation.cache_clear()
    yield
    verify._relation.cache_clear()


def test_printed_a3_bound_too_low_moves_the_golden_and_the_counts(monkeypatch):
    monkeypatch.setattr(bounds, "a3_bound", scaled(bounds.a3_bound, 0.99))
    data, summary = run_full()
    assert data != GOLDEN
    assert summary["discrepancy_counts"]["D1"] == 5  # 4 on the real code
    assert summary["discrepancy_counts"]["D5"] == 14  # 11 on the real code


def test_oracle_too_low_trips_soundness(monkeypatch):
    monkeypatch.setattr(verify, "lemma3_bound", scaled(verify.lemma3_bound, 0.99))
    _, summary = run_full()
    assert not summary["soundness"]
    assert summary["max_sup_minus_oracle"] == pytest.approx(0.104, abs=1e-3)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the scan reads the oracle's relation (ROADMAP item 2)")
@pytest.mark.parametrize("field, factor",
                         [("linear_a2", 1.01), ("linear_a3", 1.01), ("quad_a2", 1.05)])
def test_relation_defect_trips_soundness(monkeypatch, fresh_relation, field, factor):
    real = verify.derive_relation

    def planted(params):
        rel = real(params)
        return dataclasses.replace(rel, **{field: getattr(rel, field) * factor})

    monkeypatch.setattr(verify, "derive_relation", planted)
    _, summary = run_full()
    assert not summary["soundness"]


def test_a_functional_nonlinear_in_the_probe_step_moves_the_golden(monkeypatch, fresh_relation):
    # every coefficient of W(f) gains the square of the probe's step a2 + a3,
    # which breaks the grading that derive_relation's one-step probes rely on
    real = bazilevic.w_functional

    def planted(f, params):
        return TruncatedSeries(real(f, params).coeffs + f.coeffs[2:].sum() ** 2)

    monkeypatch.setattr(bazilevic, "w_functional", planted)
    data, summary = run_full()
    lines, golden = data.splitlines(), GOLDEN.splitlines()
    assert len(lines) == len(golden)
    assert sum(a != b for a, b in zip(lines, golden)) == 71
    assert summary["discrepancy_counts"]["D5"] == 9  # 11 on the real code
    assert summary["soundness"]


def test_nan_in_the_class_closure_names_the_experiments(monkeypatch):
    real = verify._stack_functional

    def planted(params, forms):
        closure = real(params, forms)
        if params is None:
            return closure
        # NaN at the one body point c1 = c2 = 0, wherever the grid meets it
        return lambda c1, c2: closure(c1, np.where((c1 == 0) & (c2 == 0), np.nan, c2))

    monkeypatch.setattr(verify, "_stack_functional", planted)
    with pytest.raises(ValueError, match=r"^starlike\|vk1\|a3, .*: the functional is NaN at"):
        run_full()


def test_an_orbit_shift_off_by_one_moves_the_golden_and_the_reference_scan(monkeypatch):
    # the orbit of (rho, 0, tau, beta_b) is planted at beta_{b + 3a} instead
    # of beta_{b + 2a}: off alpha = 0 the row pass then scans points that are
    # not rotations of the near ones
    real = caratheodory._orbits

    def shifted(near):
        n = near.shape[2]
        rho, alpha, tau, beta = real(near)
        at = np.ravel_multi_index((rho, alpha, tau, (beta + alpha) % n), (n,) * 4)
        return np.unravel_index(np.sort(at), (n,) * 4)

    monkeypatch.setattr(caratheodory, "_orbits", shifted)
    data, summary = run_full()
    lines, golden = data.splitlines(), GOLDEN.splitlines()
    assert len(lines) == len(golden)
    assert sum(a != b for a, b in zip(lines, golden)) == 11
    assert summary["soundness"]
    with pytest.raises(AssertionError):
        scan_gate.test_pruned_scan_is_exact_for_lemma_functionals(0.0, 12)


def test_rounding_to_eleven_digits_moves_the_golden(monkeypatch):
    # every float of a report line is written by _text12
    monkeypatch.setattr(verify, "_text12", lambda x: repr(float(f"{x:.11g}")))
    data, _ = run_full()
    assert data != GOLDEN


def test_a_relative_oracle_defect_trips_soundness_at_large_varkappa(monkeypatch):
    # at varkappa 1e8 the values reach about 5e7: an oracle 1e-6 too low
    # (about 50 absolute) must trip the relative slack, which rounding does not
    monkeypatch.setattr(verify, "lemma3_bound", scaled(verify.lemma3_bound, 1.0 - 1e-6))
    _, summary = verify.run_suite("remarks", 1e8, GridSpec.uniform(8))
    assert not summary["soundness"]


def test_solver_slope_off_by_one_breaks_the_solver_round_trip(monkeypatch):
    real = bazilevic._w_recurrence

    def planted(params, order, next_coeff):
        # the solver divides by (n + 1 + kappa)(1 + (n + 1) vartheta), the
        # slope of the next coefficient, instead of (n + kappa)(1 + n vartheta)
        t, k = params.vartheta, params.kappa
        return real(params, order, lambda n, rest, slope:
                    next_coeff(n, rest, (n + 1 + k) * (1.0 + (n + 1) * t)))

    monkeypatch.setattr(bazilevic, "_w_recurrence", planted)
    for gate in (solver_gate.test_solve_matches_functional_target,
                 solver_gate.test_solve_at_order_sixty_hits_the_target):
        with pytest.raises(AssertionError):
            gate()


def test_a_changed_witness_recursion_coefficient_flips_a_member_verdict(
        monkeypatch, capsys, tmp_path):
    # varkappa/2 taken as varkappa in the w of log W(f) = w + varkappa w^2/2.
    # The solver reads the same w, so a member it builds with the defect
    # carries it and the witness cancels it: the series route checks the
    # solver, and the members near the boundary (w = 0.9 z and w = 0.5 z) are
    # built by the unplanted solver.  The verdicts on f = z (witness 0) and on
    # the Koebe function (sup-norm 436, then 19,634) do not move; those
    # members' do.
    real_solve, real_recurrence = bazilevic.solve_from_schwarz, bazilevic._w_recurrence

    def planted(params, order, next_coeff):
        return real_recurrence(dataclasses.replace(params, varkappa=2 * params.varkappa),
                               order, next_coeff)

    def unplanted_solve(*args):
        with monkeypatch.context() as m:
            m.setattr(bazilevic, "_w_recurrence", real_recurrence)
            return real_solve(*args)

    monkeypatch.setattr(bazilevic, "_w_recurrence", planted)
    with pytest.raises(AssertionError):
        solver_gate.test_solve_matches_functional_target()
    monkeypatch.setattr(member_gate, "solve_from_schwarz", unplanted_solve)
    for case in member_gate.BOUNDARY_MEMBERS:
        with pytest.raises(AssertionError):
            member_gate.test_member_near_the_boundary_is_a_member(capsys, tmp_path, case)
