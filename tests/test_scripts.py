"""Smoke tests of scripts/bound_tables.py, run as a subprocess and in
process."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gtnbounds import verify
from gtnbounds.caratheodory import GridSpec

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


def test_bound_tables_prints_one_row_per_preset():
    # at 1e308 the bounds reach about 5e307, which must not widen the rows
    proc = run_script("bound_tables.py", "--varkappa", "1", "1e308")
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["preset", "vk", "a2", "a3", "stmt", "a3", "subclass",
                                "a3", "oracle"]
    assert set(lines[1]) == {"-"}
    assert {len(line) for line in lines} == {len(lines[0])}
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == [p.preset_id for p in verify.PRESETS
                                        for _ in range(2)]
    assert [row[1] for row in rows] == ["1", "1e+308"] * len(verify.PRESETS)
    assert all(len(row) == 6 for row in rows)
    assert rows[1][3] == "5e+307"  # as `gtnbounds bound a3 --varkappa 1e308`


def test_bound_tables_oracle_is_the_verify_oracle(capsys):
    spec = importlib.util.spec_from_file_location(
        "bound_tables", ROOT / "scripts" / "bound_tables.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--varkappa", "1"]) == 0
    table = {row[0]: row[5] for row in
             (line.split() for line in capsys.readouterr().out.splitlines()[2:])}
    reports, _ = verify.run_suite("remarks", 1.0, GridSpec.uniform(4))
    a3 = {r.experiment_id.split("|")[0]: r.oracle for r in reports if r.functional == "a3"}
    assert list(a3) == [p.preset_id for p in verify.PRESETS]
    assert table == {pid: f"{oracle:.4g}" for pid, oracle in a3.items()}


@pytest.mark.parametrize(
    "value, message", [("nan", "must all be finite"), ("-1", "must all be >= 0")]
)
def test_bound_tables_bad_varkappa_exits_one(value, message):
    proc = run_script("bound_tables.py", "--varkappa", "1", value)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_bound_tables_ends_quietly_when_the_reader_leaves():
    # as ``bound_tables.py ... | head -1`` when head exits before the
    # script writes: the read end of the pipe is already closed
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "bound_tables.py"),
             "--varkappa", *map(str, range(1, 9))],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
