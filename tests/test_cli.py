import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtnbounds import cli as cli_mod
from gtnbounds import verify
from gtnbounds.bazilevic import ClassParams, solve_from_schwarz
from gtnbounds.caratheodory import GridSpec, brute_force_sup
from gtnbounds.cli import FORMATS, MAX_INDEX, emit_rows, main
from gtnbounds.series import TruncatedSeries

SUBCOMMANDS = [
    "gtn", "xseries", "bound", "fs", "inverse-fs", "log-coeff",
    "conv-fs", "dist", "member", "lemma", "presets", "verify",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_help_exits_zero(sub):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["bound", "a4"])
    assert exc.value.code == 1


def test_gtn_classical_sequence(capsys):
    code, out, err = run_cli(capsys, "gtn", "--varkappa", "1", "--max-n", "5",
                             "--format", "json")
    assert code == 0
    assert [row["value"] for row in json.loads(out)] == [1, 1, 2, 4, 10, 26]


def test_gtn_rational_weight_and_warning(capsys):
    code, out, err = run_cli(capsys, "gtn", "--varkappa", "7/2", "--max-n", "3",
                             "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[2]["value"] == "9/2"  # 1 + 7/2
    code, out, err = run_cli(capsys, "gtn", "--varkappa", "1/2", "--max-n", "2",
                             "--format", "json")
    assert code == 0
    assert "varkappa >= 1" in err


def test_gtn_refuses_max_n_above_the_limit_before_computing(capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "gtn_sequence", lambda *a: pytest.fail("computed"))
    for n in (MAX_INDEX + 1, 3000, 10**8):
        code, out, err = run_cli(capsys, "gtn", "--max-n", str(n), "--format", "csv")
        assert (code, out) == (1, "")
        assert err == f"error: --max-n {n} is more than the limit of {MAX_INDEX}\n"


@pytest.mark.parametrize("json_list", [False, True], ids=["tokens", "json"])
def test_member_refuses_an_order_above_the_limit_before_computing(
        capsys, monkeypatch, tmp_path, json_list):
    reached = []
    monkeypatch.setattr(cli_mod, "membership_witness",
                        lambda f, params: reached.append(f.order) or (f, 0.0))

    def run(order):
        coeffs = [0, 1] + [0] * (order - 1)
        path = tmp_path / "f.txt"
        path.write_text(json.dumps(coeffs) if json_list else " ".join(map(str, coeffs)))
        return path, run_cli(capsys, "member", "--f-coeffs", str(path))

    for n in (MAX_INDEX + 1, 3000):
        path, (code, out, err) = run(n)
        assert (code, out) == (1, "")
        assert err == f"error: {path}: order {n} is more than the limit of {MAX_INDEX}\n"
    assert reached == []
    _, (code, _, err) = run(MAX_INDEX)
    assert (code, err, reached) == (0, "", [MAX_INDEX])


def test_gtn_prints_every_row_up_to_the_limit(capsys):
    code, out, err = run_cli(capsys, "gtn", "--max-n", str(MAX_INDEX), "--format", "csv")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == MAX_INDEX + 2 and lines[-1].startswith(f"{MAX_INDEX},")


def test_gtn_config_weight_stays_exact(capsys, tmp_path):
    cfg = tmp_path / "vk.cfg"
    cfg.write_text("varkappa = 7/3\n")
    flag = run_cli(capsys, "gtn", "--varkappa", "7/3", "--max-n", "4")
    config = run_cli(capsys, "--config", str(cfg), "gtn", "--max-n", "4")
    assert config == flag
    assert "10/3" in flag[1]  # 1 + 7/3


@pytest.mark.parametrize("where", ["flag", "config", "xseries"])
def test_gtn_negative_weight_prints_one_error_line(capsys, tmp_path, where):
    cfg = tmp_path / "vk.cfg"
    cfg.write_text("varkappa = -1\n")
    argv = {"flag": ["gtn", "--varkappa", "-1"], "config": ["--config", str(cfg), "gtn"],
            "xseries": ["xseries", "--varkappa", "-1", "--order", "3"]}[where]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: the weight parameter must be >= 0\n"


INDEX_REQUESTS = [
    (["xseries", "--order"], "--order", "x_series"),
    (["dist", "--kind", "poisson", "--param", "1", "--max-n"], "--max-n", "coefficients"),
]


@pytest.mark.parametrize("argv, flag, computes", INDEX_REQUESTS, ids=["xseries", "dist"])
def test_index_above_the_limit_is_refused_before_computing(capsys, monkeypatch, argv,
                                                           flag, computes):
    monkeypatch.setattr(cli_mod, computes, lambda *a, **k: pytest.fail("computed"))
    for n in (MAX_INDEX + 1, 10**8):
        code, out, err = run_cli(capsys, *argv, str(n), "--format", "csv")
        assert (code, out) == (1, "")
        assert err == f"error: {flag} {n} is more than the limit of {MAX_INDEX}\n"


@pytest.mark.parametrize("argv", [r[0] for r in INDEX_REQUESTS], ids=["xseries", "dist"])
def test_index_at_the_limit_prints_every_row(capsys, argv):
    code, out, err = run_cli(capsys, *argv, str(MAX_INDEX), "--format", "csv")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    # xseries starts at n = 0, dist at n = 2; one header line
    first = 0 if argv[0] == "xseries" else 2
    assert len(lines) == MAX_INDEX - first + 2 and lines[-1].startswith(f"{MAX_INDEX},")


@pytest.mark.parametrize("fmt", FORMATS)
def test_gtn_prints_nothing_when_a_value_is_too_long_to_print(capsys, fmt):
    # at varkappa = 10^30 the values pass Python's 4300-digit limit by n = 300
    code, out, err = run_cli(capsys, "gtn", "--varkappa", str(10**30), "--max-n", "400",
                             "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith("error: a value has more than 4300 digits")


@pytest.mark.parametrize("fmt", FORMATS)
def test_emit_rows_writes_nothing_when_a_later_cell_fails(fmt):
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream), pytest.raises(ValueError):
        emit_rows([{"n": 0, "value": 1}, {"n": 1, "value": 10**5000}], fmt)
    assert stream.getvalue() == ""


# The JSON writer against json.dumps, the reference it replaces: same text,
# same errors, and nothing written on an error.

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, -1e16, 9999999999999998.0,
                  1.0000000000000002e16, 0.1, 1.7976931348623157e308,
                  float("nan"), float("inf"), float("-inf")]
json_floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS),
                        st.floats(min_value=9e15, max_value=2e16),
                        st.floats(min_value=-2e16, max_value=-9e15))
json_values = st.one_of(
    st.text(), st.booleans(), st.integers(), json_floats,
    st.builds(complex, json_floats, json_floats), st.complex_numbers(),
    # an int past Python's 4300-digit limit on printing one
    st.builds(lambda digits, sign: sign * 10**digits, st.integers(4295, 4305),
              st.sampled_from([1, -1])),
    st.sampled_from([b"x", np.int64(3), np.float64(0.1), np.complex128(0.5 - 2j)]),
)
json_rows = st.lists(st.dictionaries(st.text(), json_values, max_size=6), max_size=4)


def _json_outcome(call):
    """What call() returns, or the type and message of the error it raises."""
    try:
        return call()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(json_rows)
def test_json_rows_match_json_dumps(rows):
    payload = rows if len(rows) != 1 else rows[0]
    want = _json_outcome(
        lambda: json.dumps(verify.round12(payload), indent=2, allow_nan=False) + "\n")
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        got = _json_outcome(lambda: emit_rows(rows, "json"))
    assert (stream.getvalue() if got is None else got) == want
    if got is not None:
        assert stream.getvalue() == ""


@pytest.mark.parametrize("value, error", [
    (float("nan"), "Out of range float values are not JSON compliant: nan"),
    (complex(1, float("-inf")), "Out of range float values are not JSON compliant: -inf"),
    (1.8e308, "Out of range float values are not JSON compliant: inf"),  # rounds to inf
])
def test_json_rows_refuse_a_value_that_is_not_finite_once_rounded(value, error):
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream), pytest.raises(ValueError) as exc:
        emit_rows([{"n": 0, "value": 1.0}, {"n": 1, "value": value}], "json")
    assert (str(exc.value), stream.getvalue()) == (error, "")


def test_bound_a2_convex_preset(capsys):
    code, out, _ = run_cli(capsys, "bound", "a2", "--vartheta", "0", "--kappa", "1",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 0.5


def test_fs_real_verdict(capsys):
    code, out, _ = run_cli(capsys, "fs", "--mu", "0", "--vartheta", "0",
                           "--kappa", "0", "--varkappa", "1", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["branch"] == "above-sigma2"
    assert row["value"] == 1.0


def test_fs_complex_mu(capsys):
    code, out, _ = run_cli(capsys, "fs", "--mu", "0.5,1.0", "--format", "json")
    assert code == 0
    assert "value" in json.loads(out)


def test_xseries_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "xseries", "--varkappa", "1", "--order", "3",
                           "--format", "json")
    rows = json.loads(out)
    assert [r["coefficient"] for r in rows] == [1.0, 1.0, 1.0, pytest.approx(2 / 3)]


def test_dist_table(capsys):
    code, out, _ = run_cli(capsys, "dist", "--kind", "poisson", "--param", "1",
                           "--max-n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,coefficient"
    assert len(lines) == 4


def test_lemma_one_warns_that_it_scans_the_real_part(capsys):
    argv = ["lemma", "--which", "1", "--grid", "8", "--format", "csv"]
    code, out, err = run_cli(capsys, *argv, "--v=-0.649,-1.678")
    assert (code, err) == (0, "warning: lemma 1 takes a real v; scanning v = -0.649\n")
    # stdout is the real part's row, with v printed as given
    real = run_cli(capsys, *argv, "--v=-0.649")
    assert real[::2] == (0, "")
    assert next(csv.DictReader(io.StringIO(out)))["v"] == "-0.649-1.678i"
    assert out.replace("-0.649-1.678i", "-0.649+0i") == real[1]


def test_lemma_subcommand(capsys):
    code, out, _ = run_cli(capsys, "lemma", "--which", "1", "--v", "0.5",
                           "--grid", "16", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["bound"] == 2.0
    assert row["empirical_sup"] <= 2.0 + 1e-9
    assert row["gap"] >= -1e-9


def test_member_identity_function(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("0 1 0 0 0 0\n")
    code, out, _ = run_cli(capsys, "member", "--f-coeffs", str(path),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "member"


def test_member_near_the_boundary_is_a_member(capsys, tmp_path):
    # built from w = 0.9 z: the witness must recover it, whose largest
    # modulus on the sampling circle |z| = 0.99 is 0.891
    params = ClassParams(0.5, 0.5, 2.0)
    f = solve_from_schwarz(TruncatedSeries([0.0, 0.9], order=8), params, 8)
    path = tmp_path / "f.json"
    path.write_text(json.dumps([[c.real, c.imag] for c in f.coeffs.tolist()]))
    code, out, _ = run_cli(capsys, "member", "--f-coeffs", str(path), "--vartheta", "0.5",
                           "--kappa", "0.5", "--varkappa", "2", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["verdict"] == "member"
    assert row["sup_norm"] == pytest.approx(0.9 * 0.99, abs=1e-9)


def test_member_koebe_rejected(capsys, tmp_path):
    path = tmp_path / "koebe.txt"
    path.write_text("0 1 2 3 4 5 6 7 8\n")
    code, out, _ = run_cli(capsys, "member", "--f-coeffs", str(path),
                           "--vartheta", "0", "--kappa", "0", "--varkappa", "1",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "not-member"


def test_inverse_fs_and_log_coeff(capsys):
    code, out, _ = run_cli(capsys, "inverse-fs", "--hbar", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 3.0
    code, out, _ = run_cli(capsys, "log-coeff", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["g1"] == 0.5 and row["g2_as_stated"] == 1.5


def test_conv_fs_with_distribution(capsys):
    code, out, _ = run_cli(capsys, "conv-fs", "--dist", "poisson", "--dist-param", "1",
                           "--mu", "0", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["wp2"] == pytest.approx(0.367879441171, rel=1e-9)


def test_presets_prints_one_row_per_preset(capsys):
    code, out, err = run_cli(capsys, "presets", "--varkappa", "1e308", "--format", "csv")
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["preset", "vartheta", "kappa", "varkappa", "a2", "a3_stated",
                             "a3_subclass", "a3_oracle"]
    assert [row["preset"] for row in rows] == [p.preset_id for p in verify.PRESETS]
    assert {row["varkappa"] for row in rows} == {"1e+308"}
    assert rows[0]["a3_stated"] == "5e+307"  # as `bound a3 --varkappa 1e308`


def test_presets_oracle_is_the_verify_oracle(capsys):
    code, out, _ = run_cli(capsys, "presets", "--varkappa", "1", "--format", "csv")
    assert code == 0
    table = {row["preset"]: row["a3_oracle"] for row in csv.DictReader(io.StringIO(out))}
    reports, _ = verify.run_suite("remarks", 1.0, GridSpec.uniform(4))
    a3 = {r.experiment_id.split("|")[0]: r.oracle for r in reports if r.functional == "a3"}
    assert list(a3) == [p.preset_id for p in verify.PRESETS]
    assert table == {pid: f"{oracle:.12g}" for pid, oracle in a3.items()}


#: stdout of ``presets --varkappa VK --format csv``, as printed when
#: ``derive_relation`` probed at two steps and extrapolated; the oracle
#: column reads its two one-series probes at one step
PRESETS_CSV = {
    "1": "preset,vartheta,kappa,varkappa,a2,a3_stated,a3_subclass,a3_oracle\r\n"
         "starlike,0,0,1,1,1,1.25,1\r\n"
         "kappa-family,0,0.5,1,0.666666666667,0.5,0.652777777778,0.511111111111\r\n"
         "convex,0,1,1,0.5,0.333333333333,0.25,0.333333333333\r\n"
         "theta-family,0.5,0,1,0.666666666667,0.666666666667,0.511111111111,0.541666666667\r\n"
         "r-family,1,0,1,0.5,0.333333333333,0.333333333333,0.333333333333\r\n",
    "2": "preset,vartheta,kappa,varkappa,a2,a3_stated,a3_subclass,a3_oracle\r\n"
         "starlike,0,0,2,1,1,1.75,1.25\r\n"
         "kappa-family,0,0.5,2,0.666666666667,0.5,0.902777777778,0.711111111111\r\n"
         "convex,0,1,2,0.5,0.5,0.416666666667,0.5\r\n"
         "theta-family,0.5,0,2,0.666666666667,0.5,0.711111111111,0.666666666667\r\n"
         "r-family,1,0,2,0.5,0.333333333333,0.5,0.416666666667\r\n",
}


@pytest.mark.parametrize("varkappa", list(PRESETS_CSV))
def test_presets_csv_is_pinned(capsys, varkappa):
    code, out, err = run_cli(capsys, "presets", "--varkappa", varkappa, "--format", "csv")
    assert (code, out, err) == (0, PRESETS_CSV[varkappa], "")


@pytest.mark.parametrize(
    "value, message", [("nan", "not a finite number"), ("-1", "must all be >= 0")])
def test_presets_bad_varkappa_exits_one(capsys, value, message):
    assert exit_code(["presets", "--varkappa", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv", [["gtn", "--max-n", "1000"], ["presets"],
             ["verify", "--suite", "lemmas", "--grid", "4", "--out", "{work}/r.jsonl"]],
    ids=["gtn", "presets", "verify"])
def test_closed_stdout_ends_quietly(tmp_path, argv):
    # as ``gtnbounds ... | head -1`` when head exits before the command
    # writes: the read end of the pipe is already closed.  stdout is
    # block-buffered, as a shell user has it, so a short output meets the
    # closed pipe only when it is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gtnbounds.cli",
             *(a.replace("{work}", str(tmp_path)) for a in argv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "error:" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_verify_subcommand_writes_reports(capsys, tmp_path):
    out_path = tmp_path / "r.jsonl"
    code, out, _ = run_cli(capsys, "verify", "--suite", "remarks", "--grid", "8",
                           "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert all(json.loads(line) for line in lines)
    assert "summary" in json.loads(lines[-1])


@pytest.mark.parametrize("varkappa", ["1e8", "1e16"])
def test_verify_at_large_varkappa_is_sound_and_exits_zero(capsys, tmp_path, varkappa):
    out_path = tmp_path / "r.jsonl"
    code, _, err = run_cli(capsys, "verify", "--suite", "remarks", "--grid", "8",
                           "--varkappa", varkappa, "--out", str(out_path))
    assert code == 0
    assert "SOUNDNESS" not in err and "D5" not in err
    assert json.loads(out_path.read_text().splitlines()[-1])["summary"]["soundness"] is True


def test_verify_unsound_suite_exits_two(capsys, tmp_path, monkeypatch):
    def fake_run_suite(name, varkappa=1.0, grid=None):
        return [], {"reports": 0, "discrepancy_counts": {}, "soundness": False,
                    "max_sup_minus_oracle": 1.0}

    monkeypatch.setattr(cli_mod.verify, "run_suite", fake_run_suite)
    code, out, err = run_cli(capsys, "verify", "--suite", "remarks", "--grid", "8",
                             "--out", str(tmp_path / "r.jsonl"))
    assert code == 2
    assert "SOUNDNESS" in err


def test_config_file_precedence(capsys, tmp_path):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("varkappa = 2\nformat = json\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "xseries", "--order", "2")
    assert code == 0
    rows = json.loads(out)
    assert rows[2]["coefficient"] == pytest.approx(1.5)  # (1 + 2)/2
    # an explicit flag beats the config value
    code, out, _ = run_cli(capsys, "--config", str(cfg), "xseries", "--order", "2",
                           "--varkappa", "1")
    rows = json.loads(out)
    assert rows[2]["coefficient"] == pytest.approx(1.0)


def _shown(key, out, grids):
    """The value of ``key`` that a run used, read from its output."""
    if key == "grid":
        return grids[-1]
    if key == "format":
        return "json" if out.startswith("[") else "csv" if out.startswith("n,") else "table"
    if key == "varkappa":
        return json.loads(out)[2]["value"]  # 1 + varkappa, exact
    return json.loads(out)[key]


# key, a subcommand that reads it, a config value and a flag value, and the
# value the run uses with the config, with the config and the flag, and with
# neither
PRECEDENCE = [
    ("vartheta", ["bound", "a2", "--format", "json"], "1/2", "2", (0.5, 2.0, 0.0)),
    ("kappa", ["bound", "a2", "--format", "json"], "3/4", "2", (0.75, 2.0, 0.0)),
    ("varkappa", ["gtn", "--max-n", "2", "--format", "json"], "7/3", "5/2",
     ("10/3", "7/2", 2)),
    ("grid", ["lemma", "--which", "3", "--v", "1", "--format", "json"], "6", "4",
     (6, 4, 60)),
    ("format", ["dist", "--kind", "poisson", "--param", "1", "--max-n", "3"], "json",
     "csv", ("json", "csv", "table")),
]


@pytest.mark.parametrize("key, argv, config, flag, shown", PRECEDENCE,
                         ids=[case[0] for case in PRECEDENCE])
def test_flag_beats_config_beats_default(capsys, tmp_path, monkeypatch,
                                         key, argv, config, flag, shown):
    grids = []
    uniform = GridSpec.uniform
    monkeypatch.setattr(GridSpec, "uniform", lambda n: grids.append(n) or uniform(n))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = {config}\n")
    got = []
    for before, after in ((["--config", str(cfg)], []),
                          (["--config", str(cfg)], [f"--{key}", flag]),
                          ([], [])):
        code, out, err = run_cli(capsys, *before, *argv, *after)
        assert code == 0, err
        got.append(_shown(key, out, grids))
    assert got == list(shown)


def test_config_key_a_subcommand_does_not_read_is_ignored(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("grid = 8\n")
    with_config = run_cli(capsys, "--config", str(cfg), "bound", "a2")
    assert with_config == run_cli(capsys, "bound", "a2")
    assert with_config[0] == 0


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "gtnbounds.cli", "gtn", "--varkappa", "1",
         "--max-n", "4", "--format", "csv"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "n,value"


# Malformed requests from the benchmark's cli-mix catalogue: each must exit 1
# with a message on stderr and no traceback.
MALFORMED_ARGV = [
    ["fs", "--varkappa", "nan", "--mu", "0.5", "--format", "json"],
    ["bound", "a3", "--kappa", "inf", "--format", "json"],
    ["log-coeff", "--kappa", "nan"],
    ["xseries", "--varkappa", "inf", "--order", "6", "--format", "json"],
    ["inverse-fs", "--varkappa", "inf", "--hbar", "1"],
    ["conv-fs", "--dist", "poisson", "--dist-param", "1", "--kappa", "nan"],
    ["--config", "{work}/grid-fraction.cfg", "lemma", "--which", "3", "--v", "1"],
    ["--config", "{work}/grid-word.cfg", "verify", "--suite", "lemmas",
     "--out", "{work}/verify.jsonl"],
]


def exit_code(argv):
    """Exit code of main(argv), whether it returns or raises SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", MALFORMED_ARGV, ids=lambda a: " ".join(a))
def test_malformed_request_exits_one_without_traceback(capsys, tmp_path, argv):
    (tmp_path / "grid-fraction.cfg").write_text("grid = 12.5\n")
    (tmp_path / "grid-word.cfg").write_text("grid = twelve\n")
    code = exit_code([a.replace("{work}", str(tmp_path)) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error" in captured.err
    assert not (tmp_path / "verify.jsonl").exists()


@pytest.mark.parametrize("mu", ["nan", "inf", "1,nan", "-inf,0", "0.5,1,2", "x"])
def test_complex_flag_rejects_non_finite(capsys, mu):
    assert exit_code(["fs", f"--mu={mu}"]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1/0", "nan", "1e400"])
def test_config_bad_class_value_exits_one(capsys, tmp_path, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"kappa = {value}\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "bound", "a2")
    assert code == 1
    assert "bad value for kappa" in err


def test_non_finite_json_output_exits_one(capsys):
    # 1e308 is finite, but the bound for it overflows to inf
    code, out, err = run_cli(capsys, "fs", "--mu", "1e308", "--format", "json")
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert "Traceback" not in err
    # the same request in a text format still prints the overflowed value
    code, out, _ = run_cli(capsys, "fs", "--mu", "1e308", "--format", "csv")
    assert code == 0
    assert "inf" in out


@pytest.mark.parametrize(
    "text,message",
    [
        ("gird = 8\n", "bad.cfg:1: unknown key 'gird'"),
        ("# header\n\nvartheta = 1/2\ngrid 8\n", "bad.cfg:4: expected key = value"),
        ("kappa = 1\nformats = json\n", "bad.cfg:2: unknown key 'formats'"),
    ],
)
def test_config_typo_exits_one(capsys, tmp_path, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "--config", str(cfg), "lemma", "--which", "3",
                             "--v", "1", "--grid", "4")
    assert (code, out) == (1, "")
    assert message in err


def test_config_accepts_comments_blanks_and_every_known_key(capsys, tmp_path):
    cfg = tmp_path / "all.cfg"
    cfg.write_text("# every key\n\nvartheta = 1/2\nkappa = 1/4\nvarkappa = 2\n"
                   "  grid = 6\nformat = json\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "bound", "a2")
    assert code == 0
    assert json.loads(out)["kappa"] == 0.25


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--varkappa", "-1"], "must all be >= 0"),
        (["--grid", "1"], "must be >= 2"),
        # finite, but a3 overflows to inf, and inf * 0 in the class closure
        # gives NaN, which the scan refuses before any report is written
        (["--suite", "full", "--grid", "4", "--varkappa", "1e308"], "functional is NaN at"),
        (["--suite", "remarks", "--grid", "8", "--varkappa", "1e308"], "functional is NaN at"),
    ],
)
def test_verify_bad_value_exits_one(capsys, tmp_path, argv, message):
    # no warning filter: numpy's overflow at 1e308 must not warn (pytest
    # turns a warning into an error)
    out_path = tmp_path / "r.jsonl"
    code, out, err = run_cli(capsys, "verify", "--suite", "lemmas", "--out",
                             str(out_path), *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err
    assert len(err.splitlines()) == 1
    assert not out_path.exists()
    if "NaN" in message:
        # the error names the experiments whose form met the NaN
        assert err.startswith("error: starlike|vk1e+308|a3, starlike|vk1e+308|fs(mu=0)")


@pytest.mark.parametrize("fmt", ["csv", "table", "json"])
def test_lemma_non_finite_result_exits_one(capsys, fmt):
    # the bound 2|v - 1| and the supremum overflow to inf; inf - inf is a NaN gap
    code, out, err = run_cli(capsys, "lemma", "--which", "4", "--v", "1e308",
                             "--grid", "8", "--format", fmt)
    assert (code, out) == (1, "")
    assert err == "error: the result is not finite: bound inf, empirical_sup inf, gap nan\n"


@pytest.mark.parametrize(
    "argv",
    [["verify", "--suite", "remarks", "--grid", "8", "--varkappa", "1e308"],
     ["lemma", "--which", "4", "--v", "1e308", "--grid", "8"]],
    ids=["verify", "lemma"],
)
def test_overflow_prints_one_error_line_and_no_warning(tmp_path, argv):
    # a fresh interpreter with Python's default warning filters, as a shell
    # user runs it
    proc = subprocess.run([sys.executable, "-m", "gtnbounds.cli", *argv,
                           *(["--out", str(tmp_path / "r.jsonl")] if argv[0] == "verify" else [])],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


def test_importing_the_package_leaves_numpy_unloaded():
    # gtnbounds/__init__.py imports no module of its own, so a command that
    # needs no numpy is not made to load it by the package
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import gtnbounds, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_oversized_grid_is_refused_before_allocation(capsys, tmp_path, monkeypatch):
    # GridSpec refuses the grid, so no command reaches the scan
    monkeypatch.setattr(verify, "brute_force_sup", lambda *a: pytest.fail("scanned"))
    # a million steps would need 1e18 complex values per scan array; 128
    # steps is the largest uniform grid under the cap
    for grid in ("1000000", "129"):
        code, out, err = run_cli(capsys, "lemma", "--which", "3", "--v", "1", "--grid", grid)
        assert (code, out) == (1, "")
        assert "cap" in err
    out_path = tmp_path / "r.jsonl"
    code, out, err = run_cli(capsys, "verify", "--suite", "lemmas", "--grid", "129",
                             "--out", str(out_path))
    assert (code, out) == (1, "")
    assert "cap" in err
    assert not out_path.exists()


def test_missing_config_prints_one_error_line(capsys, tmp_path):
    missing = tmp_path / "missing.cfg"
    code, out, err = run_cli(capsys, "--config", str(missing), "bound", "a2")
    assert (code, out) == (1, "")
    assert err == (f"error: cannot read config: [Errno 2] No such file or directory: "
                   f"{str(missing)!r}\n")


@pytest.mark.parametrize("value", ["xml", "JSON", "", "tables"])
def test_config_bad_format_exits_one(capsys, tmp_path, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"grid = 8\nformat = {value}\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "bound", "a2")
    assert (code, out) == (1, "")
    assert f"bad.cfg:2: bad value for format: {value!r}" in err


@pytest.mark.parametrize(
    "text",
    ["[1, [2]]", "[0, {}]", "[[1, null]]", "[0, 1, null]",
     # a pair with extra entries is not read as its first two
     "[[0, 0, 5], [1, 0]]", "[[0, 0], [1, 0, 0], [0.1, 0]]", "[[], [1, 0]]",
     # JSON booleans and numeric strings are not numbers
     "[false, true, 0, 0]", '["0", "1", "0", "0"]'],
)
def test_member_malformed_coefficient_list_exits_one(capsys, tmp_path, text):
    path = tmp_path / "f.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "member", "--f-coeffs", str(path))
    assert (code, out, err) == (
        1, "", f"error: {path}: expected a list of numbers or [re, im] pairs\n")


@pytest.mark.parametrize(
    "argv",
    [["log-coeff", "--kappa", "1e308"], ["fs", "--kappa", "1e308"],
     ["conv-fs", "--kappa", "1e308"], ["bound", "a3", "--kappa", "1e308"],
     ["xseries", "--varkappa", "1e300", "--order", "5", "--format", "csv"]],
    ids=lambda a: a[0],
)
def test_overflowing_inputs_exit_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: the inputs overflow the computation")


@pytest.mark.parametrize("sub", ["fs", "conv-fs"])
def test_nan_bound_prints_nan_and_json_exits_one(capsys, sub):
    # 2 mu L at mu = 1e308 i has the real part inf * 0, a NaN that max(1.0, .)
    # used to turn into the finite bound 1
    code, out, err = run_cli(capsys, sub, "--mu", "0,1e308", "--format", "csv")
    assert (code, err) == (0, "")
    assert next(csv.DictReader(io.StringIO(out)))["value"] == "nan"
    code, out, err = run_cli(capsys, sub, "--mu", "0,1e308", "--format", "json")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("sub", ["fs", "conv-fs"])
def test_nan_knots_print_nan_and_json_exits_one(capsys, sub):
    # W, L and msq overflow to inf, so both knots are inf / inf
    argv = [sub, "--vartheta", "1e200", "--kappa", "1e200", "--mu", "1"]
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    row = next(csv.DictReader(io.StringIO(out)))
    verdict = "piecewise_value" if sub == "conv-fs" else "value"
    assert [row[k] for k in ("sigma1", "sigma2", verdict, "as_printed")] == ["nan"] * 4
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("mu", ["0", "0,1"])
def test_conv_fs_underflowing_weights_exit_one(capsys, mu):
    # (W wp2)^2 underflows to 0, and the formulas divide by it
    code, out, err = run_cli(capsys, "conv-fs", "--wp2", "1e-200", "--wp3", "1e-200",
                             "--mu", mu)
    assert (code, out) == (1, "")
    assert err == "error: the inputs underflow the computation: float division by zero\n"


def test_conv_fs_distribution_without_parameter_exits_one(capsys):
    code, out, err = run_cli(capsys, "conv-fs", "--dist", "poisson")
    assert (code, out, err) == (1, "", "error: --dist poisson needs --dist-param\n")


@pytest.mark.parametrize(
    "text", ["nan 1 0 0\n", "0 1 inf 0\n", "[NaN, 1, 0]", "[[0, 0], [1, Infinity]]"])
def test_member_non_finite_coefficient_exits_one(capsys, tmp_path, text):
    path = tmp_path / "f.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "member", "--f-coeffs", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: every coefficient must be finite\n"


@pytest.mark.parametrize("text", ["", " \n\n", "[]"], ids=["empty", "blank", "empty-list"])
def test_member_file_without_coefficients_names_the_file(capsys, tmp_path, text):
    path = tmp_path / "f.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "member", "--f-coeffs", str(path))
    assert (code, out, err) == (1, "", f"error: {path}: no coefficients\n")


def test_member_non_number_token_names_the_file(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("0 1 abc 0\n")
    code, out, err = run_cli(capsys, "member", "--f-coeffs", str(path))
    assert (code, out, err) == (1, "", f"error: {path}: not a number: 'abc'\n")


@pytest.mark.parametrize(
    "text, message",
    [("0 2 0 0\n", "f must have f(0) = 0 and f'(0) = 1"),
     ("0 1\n", "need at least order 3"),
     ("0 1 1e200 0 0\n", "witness recursion produced non-finite coefficients"),
     ('["a", 1]', "expected a list of numbers or [re, im] pairs"),
     ("[1, 2", "Expecting ',' delimiter"),
     (f"[0, 1, 1{'0' * 400}]", "int too large to convert to float")],
    ids=["unnormalized", "too-short", "overflow", "string-entry", "bad-json", "huge-int"],
)
def test_member_unnormalized_function_exits_one(capsys, tmp_path, text, message):
    # a refusal of the file or of the function it holds names the file
    path = tmp_path / "f.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "member", "--f-coeffs", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1
    assert message in err


# Each subcommand accepts only the flags its handler reads.
REMOVED_FLAGS = [
    *((["xseries"], flag) for flag in ("--vartheta", "--kappa")),
    *((argv, flag) for argv in (["dist", "--kind", "poisson", "--param", "1"],
                                ["lemma", "--which", "3", "--v", "1", "--grid", "4"])
      for flag in ("--vartheta", "--kappa", "--varkappa")),
    *((["verify", "--suite", "lemmas", "--grid", "4", "--out", "{work}/r.jsonl"], flag)
      for flag in ("--vartheta", "--kappa", "--format")),
]


@pytest.mark.parametrize("argv, flag", REMOVED_FLAGS,
                         ids=[f"{argv[0]} {flag}" for argv, flag in REMOVED_FLAGS])
def test_subcommand_rejects_a_flag_it_does_not_read(capsys, tmp_path, argv, flag):
    value = "json" if flag == "--format" else "0.5"
    argv = [a.replace("{work}", str(tmp_path)) for a in argv]
    assert exit_code([*argv, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: gtnbounds")
    assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert not (tmp_path / "r.jsonl").exists()


def _bits(z) -> tuple[str, str]:
    z = complex(z)
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("grid", [4, 8, 16])
@pytest.mark.parametrize(
    "which, v", [("1", "1.825"), ("1", "-0.649,-1.678"), ("3", "2.006"),
                 ("3", "0.838,0.155"), ("4", "-0.197"), ("4", "-0.048,-1.137")])
def test_lemma_matches_a_direct_scan_bit_for_bit(monkeypatch, which, v, grid):
    rows = []
    monkeypatch.setattr(cli_mod, "emit_rows", lambda r, fmt: rows.extend(r))
    assert main(["lemma", "--which", which, f"--v={v}", "--grid", str(grid)]) == 0
    z = cli_mod._parse_complex(v)
    veff = {"1": complex(z.real, 0.0), "3": z, "4": z / 2.0}[which]
    (sup, witness), = brute_force_sup(lambda c1, c2: (np.abs(c2 - veff * c1**2),),
                                      GridSpec.uniform(grid))
    (row,) = rows
    assert row["empirical_sup"].hex() == sup.hex()
    assert _bits(row["witness_c1"]) == _bits(witness.c1)
    assert _bits(row["witness_c2"]) == _bits(witness.c2)


def _readme_commands() -> list[list[str]]:
    """The argv of each ``gtnbounds ...`` line of README's command-line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("gtnbounds ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_line_examples_run(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.txt").write_text("0 1 0 0 0 0\n")  # the identity function
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err


# ---------------------------------------------------------------------------
# Hostile argv: any mix of real subcommands and flags with hostile values must
# end in exit code 0, 1 or 2, never in an escaped exception.

HOSTILE = ["nan", "inf", "-inf", "-0", "1e309", "", "abc", "1/0", "1,nan", "--"]
NUMBERS = ["0", "1", "0.5", "2.5", "-1", "1e308", "1,1", "-0.5,2", "1e-200", "0,1e308"]
GRIDS = ["-3", "0", "1", "129", str(10**20), "2", "3", "8", "16", "2.5", "nan"]
COUNTS = ["-3", "0", "1", "3", "6", "x"]
FORMAT_VALUES = ["json", "csv", "table", "xml", ""]
NUMBER = HOSTILE + NUMBERS
FORMAT = {"--format": FORMAT_VALUES}
WEIGHT = {"--varkappa": NUMBER}
CLASS_FLAGS = {**WEIGHT, **FORMAT, "--vartheta": NUMBER, "--kappa": NUMBER}

# subcommand -> (required argv choices, optional flags with their values)
SPECS = {
    "gtn": ([[]], {"--varkappa": NUMBER + ["7/2", "-1/2"], "--max-n": COUNTS,
                   "--format": FORMAT_VALUES}),
    "xseries": ([[]], {**WEIGHT, **FORMAT, "--order": COUNTS}),
    "bound": ([["a2"], ["a3"], ["a4"], [""]], CLASS_FLAGS),
    "fs": ([[]], {**CLASS_FLAGS, "--mu": NUMBER}),
    "inverse-fs": ([[]], {**CLASS_FLAGS, "--hbar": NUMBER}),
    "log-coeff": ([[]], CLASS_FLAGS),
    "conv-fs": ([[]], {**CLASS_FLAGS, "--dist": ["poisson", "borel", "pascal", "custom",
                                                 "x"],
                       "--dist-param": NUMBER, "--s": COUNTS, "--wp2": NUMBER,
                       "--wp3": NUMBER, "--mu": NUMBER}),
    "dist": ([["--kind", k, "--param", p] for k in ("poisson", "borel", "pascal", "")
              for p in ("1", "0.5", "nan", "-0", "")],
             {**FORMAT, "--s": COUNTS, "--max-n": COUNTS}),
    "member": ([["--f-coeffs", "{work}/" + name] for name in
                ("identity.txt", "koebe.txt", "empty.txt", "bad.json", "missing.txt")],
               CLASS_FLAGS),
    "lemma": ([["--which", w, "--v", v] for w in ("1", "3", "4", "2")
               for v in ("0.5", "1,1", "nan", "1e308", "")],
              {**FORMAT, "--grid": GRIDS}),
    # verify always gets a grid, so a valid run stays at grid 16 or less
    "presets": ([[]], {**WEIGHT, **FORMAT}),
    "verify": ([["--suite", s, "--out", "{work}/r.jsonl", "--grid", g]
                for s in ("remarks", "lemmas", "full", "none") for g in GRIDS],
               WEIGHT),
}
CONFIGS = {
    "ok.cfg": "grid = 8\nformat = json\n",
    "format.cfg": "format = xml\n",
    "grid.cfg": "grid = 129\n",
    "nan.cfg": "kappa = nan\n",
}


@pytest.fixture(scope="module")
def hostile_work(tmp_path_factory):
    work = tmp_path_factory.mktemp("hostile")
    files = {"identity.txt": "0 1 0 0 0 0\n", "koebe.txt": "0 1 2 3 4 5\n",
             "empty.txt": "", "bad.json": "[1, [2]]", **CONFIGS}
    for name, text in files.items():
        (work / name).write_text(text)
    return work


@st.composite
def hostile_argv(draw):
    sub = draw(st.sampled_from(sorted(SPECS)))
    required, optional = SPECS[sub]
    argv = [sub, *draw(st.sampled_from(required))]
    for flag in draw(st.lists(st.sampled_from(sorted(optional)), max_size=4)):
        argv += [flag, draw(st.sampled_from(optional[flag]))]
    config = draw(st.sampled_from([None, *sorted(CONFIGS), "missing.cfg"]))
    if config is not None:
        argv = ["--config", "{work}/" + config, *argv]
    return argv


@given(argv=hostile_argv())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_hostile_argv_exits_cleanly(hostile_work, argv):
    argv = [a.replace("{work}", str(hostile_work)) for a in argv]
    # no warning filter: a numpy warning would be an error here
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = exit_code(argv)
    assert code in (0, 1, 2)


# Parser reuse: ``main`` builds the parser once per process.

def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_parser_is_built_once():
    assert cli_mod.build_parser() is cli_mod.build_parser()


def test_parser_defaults_are_immutable():
    parsers = list(_parsers(cli_mod.build_parser()))
    assert len(parsers) == 1 + len(SUBCOMMANDS)
    for parser in parsers:
        for action in parser._actions:
            assert action.default is None or isinstance(
                action.default, (str, int, float, complex, bool)
            ), (parser.prog, action.dest, action.default)


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = exit_code(argv)
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_answers_as_a_fresh_one(tmp_path, monkeypatch):
    (tmp_path / "identity.txt").write_text("0 1 0 0 0 0\n")
    requests = [
        ["bound", "a4"],
        ["--help"],
        ["gtn", "--varkappa", "7/2", "--max-n", "4"],
        ["xseries", "--order", "4", "--format", "csv"],
        ["bound", "a3", "--kappa", "1"],
        ["fs", "--mu", "0.25", "--varkappa", "2"],
        ["inverse-fs", "--hbar", "0"],
        ["log-coeff", "--format", "json"],
        ["conv-fs", "--dist", "poisson", "--dist-param", "1"],
        ["dist", "--kind", "pascal", "--param", "0.5", "--s", "2", "--max-n", "5"],
        ["member", "--f-coeffs", str(tmp_path / "identity.txt")],
        ["lemma", "--which", "3", "--v", "1,1", "--grid", "4"],
        ["presets", "--varkappa", "2"],
        ["verify", "--suite", "lemmas", "--grid", "4", "--out", str(tmp_path / "r.jsonl")],
    ]
    assert {argv[0] for argv in requests[2:]} == set(SUBCOMMANDS)
    reused = [_outcome(argv) for _ in range(2) for argv in requests]
    monkeypatch.setattr(cli_mod, "build_parser", cli_mod.build_parser.__wrapped__)
    fresh = [_outcome(argv) for _ in range(2) for argv in requests]
    assert [code for code, _, _ in fresh[:2]] == [1, 0]
    assert all(code == 0 for code, _, _ in fresh[2:len(requests)])
    assert reused == fresh


# A request that starts with its subcommand is parsed by that subcommand's
# parser alone; argparse's own parse_known_args is the reference.

PARSE_EDGES = [
    [], ["-h"], ["fs", "-h"], ["fs", "--he"], ["fs", "-hx"], ["fs", "--config", "F"],
    ["--config", "F", "fs"], ["--config=F", "fs", "--format", "json"],
    ["fs", "--", "--mu", "1"], ["fs", "--format"], ["fs", "--vart", "0.5"], ["fs", "--=x"],
    ["bound"], ["bound", "a4"], ["nosuch"],
    ["dist", "--kind", "poisson", "--param", "1", "extra"],
]
CLI_CATALOGUE = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "golden" / "cli-mix.json").read_text())


def _parsed(parse, argv):
    """vars() and extras of parse(argv), or the exit code, stdout and stderr
    of the usage error or help it ends in."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            namespace, extras = parse(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()
    return vars(namespace), extras


@pytest.mark.parametrize(
    "argv", PARSE_EDGES + [req["argv"] for req in CLI_CATALOGUE["requests"]],
    ids=lambda a: " ".join(a))
def test_direct_parse_matches_argparse(argv):
    parser = cli_mod.build_parser()
    assert _parsed(parser.parse_known_args, argv) == _parsed(
        lambda a: argparse.ArgumentParser.parse_known_args(parser, a), argv)


def test_catalogue_request_matches_its_golden(tmp_path):
    for name, text in CLI_CATALOGUE["files"].items():
        (tmp_path / name).write_text(text)
    work = str(tmp_path)
    for req in CLI_CATALOGUE["requests"]:
        argv = [a.replace("{work}", work) for a in req["argv"]]
        if "--out" in argv:
            out_file = Path(argv[argv.index("--out") + 1])
            out_file.unlink(missing_ok=True)  # verify --out appends
        code, out, _ = _outcome(argv)
        assert (code, out) == (req["exit"], req.get("stdout", "").replace("{work}", work)), argv
        if "out_sha256" in req:
            assert hashlib.sha256(out_file.read_bytes()).hexdigest() == req["out_sha256"], argv


def test_usage_follows_the_terminal_width(monkeypatch):
    """Each parser formats its usage once per width; the text is argparse's
    own at every width, so a usage cached at one width never shows at another."""
    parsers = list(_parsers(cli_mod.build_parser()))
    usages = {}
    for columns in ("40", "200", "40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for parser in parsers:
            usage = parser.format_usage()
            assert usage == argparse.ArgumentParser.format_usage(parser), (parser.prog, columns)
            assert parser.format_usage() is usage
            usages.setdefault(columns, []).append(usage)
    assert usages["40"] != usages["200"]


def test_main_without_argv_reads_sys_argv(monkeypatch):
    for argv, code in ((["bound", "a2", "--kappa", "1", "--format", "csv"], 0),
                       (["fs", "--config", "F"], 1)):
        monkeypatch.setattr(sys, "argv", ["gtnbounds", *argv])
        assert _outcome(None) == _outcome(argv)
        assert _outcome(argv)[0] == code
