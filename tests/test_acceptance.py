"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from gtnbounds import bounds, series as ps, verify
from gtnbounds.bazilevic import ClassParams, derive_relation, membership_witness, solve_from_schwarz
from gtnbounds.caratheodory import GridSpec, brute_force_sup, lemma1_bound, lemma3_bound
from gtnbounds.distributions import borel_coeff, pascal_coeff, poisson_coeff
from gtnbounds.series import TruncatedSeries
from gtnbounds.telephone import gtn_sequence, x_series
from gtnbounds.verify import Functional
from test_series import max_coeff_diff


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:>2} PASS: {description}")


def test_criterion_1_gtn_consistency():
    with criterion(1, "exact recurrence matches n! * series coefficient (n <= 20)"):
        start = time.perf_counter()
        for vk in (1, 2, 3, Fraction(7, 2)):
            exact = gtn_sequence(vk, 20)
            for n in range(21):
                via_egf = math.factorial(n) * x_series(float(vk), n).coeffs[n].real
                assert math.isclose(via_egf, float(exact[n]), rel_tol=1e-9)
        assert [int(v) for v in gtn_sequence(1, 5)] == [1, 1, 2, 4, 10, 26]
        assert time.perf_counter() - start < 1.0


def test_criterion_2_characteristic_coefficients():
    with criterion(2, "series coefficients match the five closed forms at vk in {1, 2}"):
        for vk in (1.0, 2.0):
            expected = np.array(
                [
                    1.0,
                    1.0,
                    (1 + vk) / 2,
                    (1 + 3 * vk) / 6,
                    (3 * vk**2 + 6 * vk + 1) / 24,
                    (1 + 10 * vk + 15 * vk**2) / 120,
                ]
            )
            assert np.max(np.abs(x_series(vk, 5).coeffs - expected)) <= 1e-12


def test_criterion_3_series_round_trips():
    with criterion(3, "exp/log and compose/revert round trips at order 12"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(100):
            tail = rng.uniform(-0.6, 0.6, 12) + 1j * rng.uniform(-0.6, 0.6, 12)
            a = TruncatedSeries(np.concatenate(([0], tail)))
            assert max_coeff_diff(ps.log_series(ps.exp_series(a)), a) <= 1e-10
            b = TruncatedSeries(np.concatenate(([1], tail)))
            assert max_coeff_diff(ps.exp_series(ps.log_series(b)), b) <= 1e-10
            # reversion conditioning degrades as the tail grows relative to
            # the linear coefficient, so admissible draws scale the tail by a1
            a1 = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            c = TruncatedSeries(np.concatenate(([0, a1], 0.5 * abs(a1) * tail[:11])))
            back = ps.compose(c, ps.revert(c))
            assert max_coeff_diff(back, TruncatedSeries([0, 1], order=12)) <= 1e-10
        assert time.perf_counter() - start < 5.0


def test_criterion_4_lemma_attainment():
    with criterion(4, "grid suprema attain the sharp coefficient-body bounds"):
        start = time.perf_counter()
        grid = GridSpec.uniform(60)
        for v in (-1.0, 0.0, 0.5, 1.0, 2.0):
            (sup, _), = brute_force_sup(lambda c1, c2: (np.abs(c2 - v * c1**2),), grid)
            assert lemma1_bound(v) - 0.05 <= sup <= lemma1_bound(v) + 1e-9
        rng = np.random.default_rng(202)
        for _ in range(20):
            v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(v) > 2:
                v = 2 * v / abs(v)
            (sup, _), = brute_force_sup(lambda c1, c2: (np.abs(c2 - v * c1**2),), grid)
            assert lemma3_bound(v) - 0.05 <= sup <= lemma3_bound(v) + 1e-9
        assert time.perf_counter() - start < 60.0


def test_criterion_5_schwarz_round_trip():
    with criterion(5, "solve-then-witness recovers 50 random Schwarz inputs at order 8"):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        for _ in range(50):
            raw = rng.normal(size=8) + 1j * rng.normal(size=8)
            w = TruncatedSeries(np.concatenate(([0], raw)))
            w = ps.scale(w, 0.8 / max(ps.boundary_max(w), 1e-9))
            params = ClassParams(
                rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 2)
            )
            f = solve_from_schwarz(w, params, 9)
            recovered, _ = membership_witness(f, params)
            assert max_coeff_diff(recovered, w) <= 1e-7
        assert time.perf_counter() - start < 10.0


def test_criterion_6_relation_oracle():
    with criterion(6, "numeric relation oracle confirms the two reference expansions"):
        rel = derive_relation(ClassParams(0, 0, 1))
        assert abs(rel.linear_a2 - 1.0) <= 1e-6
        assert abs(rel.linear_a3 - 2.0) <= 1e-6
        assert abs(rel.quad_a2 - (-1.0)) <= 1e-6
        # the printed quadratic coefficient M k^2 + S k + Q at the origin is
        # -2: a real gap
        assert ClassParams(0, 0, 1).msq == -2.0
        rel10 = derive_relation(ClassParams(1, 0, 1))
        assert abs(rel10.linear_a2 - 2.0) <= 1e-6
        assert abs(rel10.linear_a3 - 6.0) <= 1e-6
        assert abs(rel10.quad_a2 - (-4.0)) <= 1e-6


def test_criterion_7_piecewise_continuity():
    with criterion(7, "piecewise bound continuous at both knots, spacing W^2/(2L)"):
        rng = np.random.default_rng(404)
        for _ in range(100):
            p = ClassParams(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 3))
            v = bounds.fs_real(p, 0.0)
            mid = 1.0 / p.L
            assert abs(bounds.fs_real(p, v.sigma1).value - mid) <= 1e-9
            assert abs(bounds.fs_real(p, v.sigma2).value - mid) <= 1e-9
            assert abs((v.sigma2 - v.sigma1) - p.W**2 / (2 * p.L)) <= 1e-12


def test_criterion_8_soundness_master_property(tmp_path):
    with criterion(8, "empirical sup <= oracle + 1e-9 across the remark suite"):
        grid = GridSpec.uniform(40)
        entries = verify.preset_entries(1.0)
        functionals = [Functional("a2"), Functional("a3")] + [
            Functional("fs", mu=mu) for mu in (-2.0, 0.0, 0.5, 1.0, 2.0)
        ]
        reports, summary = verify.sweep(entries, functionals, grid)
        assert len(reports) == 35
        for r in reports:
            assert r.empirical_sup <= r.oracle + verify.SOUNDNESS_TOL, r.experiment_id
        assert summary["soundness"]
        # the CLI run exits 0 on a sound suite
        from gtnbounds.cli import main

        code = main(
            ["verify", "--suite", "remarks", "--grid", "16",
             "--out", str(tmp_path / "suite.jsonl")]
        )
        assert code == 0


def test_criterion_9_discrepancy_detection():
    with criterion(9, "full suite flags D1-D4, each with both numeric values"):
        reports, summary = verify.run_suite("full", varkappa=1.0, grid=GridSpec.uniform(10))
        found: dict[str, dict] = {}
        for r in reports:
            for d in r.discrepancies:
                found.setdefault(d["id"], d)
        for did in ("D1", "D2", "D3", "D4"):
            assert did in found, f"{did} not flagged"
            values = [v for k, v in found[did].items() if k != "id"]
            assert len(values) == 2
            assert all(isinstance(v, float) for v in values)
        starlike_a3 = next(
            r for r in reports if r.experiment_id.startswith("starlike") and r.functional == "a3"
        )
        assert "D1" in starlike_a3.discrepancy_ids


def test_criterion_10_distribution_formulas():
    with criterion(10, "distribution coefficients match factorial/binomial oracles"):
        rng = np.random.default_rng(505)
        for _ in range(10):
            m = rng.uniform(0.1, 5.0)
            assert poisson_coeff(m, 2) == pytest.approx(m * math.exp(-m) / math.factorial(1), abs=1e-12)
            assert poisson_coeff(m, 3) == pytest.approx(m**2 * math.exp(-m) / math.factorial(2), abs=1e-12)
            s = rng.uniform(0.05, 1.0)
            assert borel_coeff(s, 2) == pytest.approx(math.exp(-s), abs=1e-12)
            assert borel_coeff(s, 3) == pytest.approx((2 * s) ** 1 * math.exp(-2 * s) / math.factorial(2), abs=1e-12)
            q = rng.uniform(0.05, 0.9)
            shape = int(rng.integers(1, 8))
            assert pascal_coeff(q, shape, 2) == pytest.approx(
                math.comb(shape, shape - 1) * q * (1 - q) ** shape, abs=1e-12
            )
            assert pascal_coeff(q, shape, 3) == pytest.approx(
                math.comb(shape + 1, shape - 1) * q**2 * (1 - q) ** shape, abs=1e-12
            )
        for q in (0.3, 0.5, 0.7):
            for shape in (1, 3):
                total = (1 - q) ** shape + sum(
                    pascal_coeff(q, shape, n) for n in range(2, 201)
                )
                assert total == pytest.approx(1.0, abs=1e-8)
