"""Smoke tests of the two scripts under scripts/, run as subprocesses, and
of run_verification's input errors, run in process."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gtnbounds import verify

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env,
    )


def test_run_verification_writes_one_line_per_report(tmp_path):
    out = tmp_path / "lemmas.jsonl"
    proc = run_script("run_verification.py", "--suite", "lemmas", "--grid", "8",
                      "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "suite=lemmas grid=8 varkappa=1"
    assert lines[1] == f"reports: 17  ->  {out}"
    assert lines[2].startswith("soundness: True")
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 17 + 1
    assert records[-1]["summary"]["reports"] == 17
    assert all("summary" not in r for r in records[:-1])


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--varkappa", "nan"], "must all be finite"),
        (["--varkappa", "-1"], "must all be >= 0"),
        (["--grid", "129"], "more than the cap of"),
        (["--grid", "1"], "must be >= 2"),
        (["--suite", "full", "--grid", "4", "--varkappa", "1e308"], "not JSON compliant"),
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow at 1e308
def test_run_verification_bad_value_exits_one(capsys, tmp_path, argv, message):
    spec = importlib.util.spec_from_file_location(
        "run_verification", ROOT / "scripts" / "run_verification.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "r.jsonl"
    code = script.main(["--suite", "lemmas", "--out", str(out), *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error:") and message in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


def test_bound_tables_prints_one_row_per_preset():
    proc = run_script("bound_tables.py", "--varkappa", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["preset", "vk", "a2", "a3", "stmt", "a3", "subclass",
                                "a3", "oracle"]
    assert set(lines[1]) == {"-"}
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == [p.preset_id for p in verify.PRESETS]
    assert all(row[1] == "1" and len(row) == 6 for row in rows)
