"""Regenerate the golden outputs under perfbench/golden/.

    python3 perfbench/make_golden.py

Run it only on the commit whose outputs should become the reference: every
later run of the benchmark compares against these bytes.

* `verify-full-g60.jsonl`: `reports_to_lines` of the full suite at grid 60,
  varkappa 1, as `verify.write_reports` would write it.
* `cli-mix.json`: the request catalogue of the cli-mix workload.  Each
  well-formed request keeps its argv, exit code and exact standard output
  (`{work}` stands for the run's scratch directory), plus the sha256 of the
  report file for `verify --out`.  Malformed requests keep only the expected
  exit code 1.  `files` holds the inputs written at set-up: member
  coefficient files and `--config` files.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gtnbounds import verify  # noqa: E402
from gtnbounds.bazilevic import ClassParams, solve_from_schwarz  # noqa: E402
from gtnbounds.caratheodory import GridSpec  # noqa: E402
from gtnbounds.series import TruncatedSeries  # noqa: E402

from workloads import CLI_GOLDEN, VERIFY_GOLDEN, call_cli, expand, out_path  # noqa: E402

CATALOGUE_SEED = 20231017
WORK = ".perfbench_work/golden"


def _num(rng, lo, hi, digits=3) -> str:
    return f"{rng.uniform(lo, hi):.{digits}f}"


def _fmt(rng) -> list[str]:
    return ["--format", str(rng.choice(["json", "csv", "table"]))]


def _class(rng) -> list[str]:
    return ["--vartheta", _num(rng, 0, 1, 2), "--kappa", _num(rng, 0, 1, 2),
            "--varkappa", _num(rng, 0.5, 4, 2)]


def _mu(rng, flag="--mu") -> list[str]:
    # FLAG=VALUE, because argparse reads "-0.5,1" after a flag as another flag.
    if rng.uniform() < 0.5:
        return [f"{flag}={_num(rng, -3, 3)}"]
    return [f"{flag}={_num(rng, -2, 2)},{_num(rng, -2, 2)}"]


def member_files(rng) -> tuple[dict[str, str], list[list[str]]]:
    """Coefficient files of class members, and member requests on them (with
    the member's own class parameters and with shifted ones)."""
    files, requests = {}, []
    for i in range(6):
        p = ClassParams(round(rng.uniform(0, 1), 2), round(rng.uniform(0, 1), 2),
                        round(rng.uniform(0.5, 4), 2))
        order = int(rng.integers(5, 11))
        c = np.zeros(order + 1, dtype=complex)
        c[1 + i % 2] = rng.uniform(0.3, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        f = solve_from_schwarz(TruncatedSeries(c), p, order)
        name = f"member-{i}.json"
        files[name] = json.dumps([[float(z.real), float(z.imag)] for z in f.coeffs]) + "\n"
        own = ["--vartheta", f"{p.vartheta:g}", "--kappa", f"{p.kappa:g}",
               "--varkappa", f"{p.varkappa:g}"]
        requests.append(["member", "--f-coeffs", f"{{work}}/{name}", *own, *_fmt(rng)])
        requests.append(["member", "--f-coeffs", f"{{work}}/{name}", *_class(rng), *_fmt(rng)])
    files["identity.txt"] = "0 1 0 0 0 0\n"
    requests.append(["member", "--f-coeffs", "{work}/identity.txt", *_fmt(rng)])
    return files, requests


def catalogue_argvs(rng) -> tuple[dict[str, str], dict[str, list[list[str]]]]:
    kinds: dict[str, list[list[str]]] = {}
    kinds["gtn"] = [
        ["gtn", "--varkappa", str(Fraction(int(rng.integers(0, 12)), int(rng.integers(1, 5)))),
         "--max-n", str(int(rng.integers(5, 41))), *_fmt(rng)]
        for _ in range(12)
    ]
    kinds["xseries"] = [
        ["xseries", "--varkappa", _num(rng, 0.5, 4), "--order", str(int(rng.integers(4, 21))),
         *_fmt(rng)]
        for _ in range(10)
    ]
    kinds["bound"] = [["bound", str(rng.choice(["a2", "a3"])), *_class(rng), *_fmt(rng)]
                      for _ in range(10)]
    kinds["bound"] += [["--config", "{work}/class.cfg", "bound", "a3"],
                       ["--config", "{work}/class.cfg", "bound", "a2", "--kappa", "0.75"]]
    kinds["fs"] = [["fs", *_class(rng), *_mu(rng), *_fmt(rng)] for _ in range(16)]
    kinds["inverse-fs"] = [["inverse-fs", *_class(rng), *_mu(rng, "--hbar"), *_fmt(rng)]
                           for _ in range(10)]
    kinds["log-coeff"] = [["log-coeff", *_class(rng), *_fmt(rng)] for _ in range(8)]
    conv = []
    for i in range(15):
        dist = ("poisson", "borel", "pascal")[i % 3]
        param = {"poisson": _num(rng, 0.2, 3), "borel": _num(rng, 0.1, 1),
                 "pascal": _num(rng, 0.1, 0.9)}[dist]
        extra = ["--s", str(int(rng.integers(1, 4)))] if dist == "pascal" else []
        conv.append(["conv-fs", "--dist", dist, "--dist-param", param, *extra,
                     *_class(rng), *_mu(rng), *_fmt(rng)])
    kinds["conv-fs"] = conv
    dist = []
    for i in range(10):
        kind = ("poisson", "borel", "pascal")[i % 3]
        param = {"poisson": _num(rng, 0.2, 3), "borel": _num(rng, 0.1, 1),
                 "pascal": _num(rng, 0.1, 0.9)}[kind]
        dist.append(["dist", "--kind", kind, "--param", param, "--s",
                     str(int(rng.integers(1, 4))), "--max-n", str(int(rng.integers(3, 21))),
                     *_fmt(rng)])
    kinds["dist"] = dist
    files, kinds["member"] = member_files(rng)
    files["class.cfg"] = (
        "# class point for bound requests\nvartheta = 1/2\nkappa = 1/4\nformat = json\n")
    # Lemma and verify requests cost up to ~60 ms, so each of their slots
    # keeps one grid: every pass then costs about the same, whatever the seed.
    for kind, grid in (("lemma-g8", 8), ("lemma-g16", 16)):
        kinds[kind] = [
            ["lemma", "--which", str(rng.choice(["1", "3", "4"])), *_mu(rng, "--v"),
             "--grid", str(grid), *_fmt(rng)]
            for _ in range(8)
        ]
    for kind, suite, grid in (("verify-lemmas-g12", "lemmas", 12),
                              ("verify-remarks-g8", "remarks", 8)):
        kinds[kind] = [
            ["verify", "--suite", suite, "--grid", str(grid), "--varkappa", vk,
             "--out", "{work}/verify.jsonl"]
            for vk in ("1", "2", "3.5", "0.75", "2.5")
        ]
    # Hostile input: each should exit 1 with a message and no traceback.
    files["grid-fraction.cfg"] = "grid = 12.5\n"
    files["grid-word.cfg"] = "grid = twelve\n"
    kinds["malformed"] = [
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
    return files, kinds


def make_cli_catalogue() -> dict:
    rng = np.random.default_rng(CATALOGUE_SEED)
    files, kinds = catalogue_argvs(rng)
    work = Path(WORK)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for name, text in files.items():
            (work / name).write_text(text)
        requests = []
        for kind, argvs in kinds.items():
            for argv in argvs:
                if kind == "malformed":
                    requests.append({"kind": kind, "argv": argv, "exit": 1, "malformed": True})
                    continue
                real = expand(argv, WORK)
                out_file = out_path(real)
                if out_file:
                    out_file.unlink(missing_ok=True)
                got = call_cli(real)
                if got.code != 0 or got.traceback:
                    raise SystemExit(f"catalogue request failed ({got.code}): {real}\n{got.stderr}")
                req = {"kind": kind, "argv": argv, "exit": 0,
                       "stdout": got.stdout.replace(WORK, "{work}")}
                if out_file:
                    req["out_sha256"] = hashlib.sha256(out_file.read_bytes()).hexdigest()
                requests.append(req)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return {"catalogue_seed": CATALOGUE_SEED, "files": files, "requests": requests}


def main() -> None:
    os.chdir(ROOT)
    reports, summary = verify.run_suite("full", varkappa=1, grid=GridSpec.uniform(60))
    VERIFY_GOLDEN.write_text("\n".join(verify.reports_to_lines(reports, summary)) + "\n")
    CLI_GOLDEN.write_text(json.dumps(make_cli_catalogue(), indent=1) + "\n")
    for path in (VERIFY_GOLDEN, CLI_GOLDEN):
        print(f"{path.relative_to(ROOT)}  sha256 {hashlib.sha256(path.read_bytes()).hexdigest()}")


if __name__ == "__main__":
    main()
