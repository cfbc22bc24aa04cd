"""Show that each of the benchmark's correctness checks can fail on its own.

    python3 perfbench/selftest.py

Runs tiny passes (a few seconds in all).  For every check it runs one
unaltered pass, which must count no failure, and one pass with a single
defect planted, which must count at least one:

* a flipped byte in the golden report bytes (the verify-full-g60 check, on
  the lemmas suite at grid 8 so that it runs in milliseconds);
* a class member whose a3 is perturbed by 1e-6 (the member-sweep checks);
* a cli-mix request whose expected exit code is wrong, and one whose golden
  standard output has a flipped byte.

Exits 0 when every check behaved, 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gtnbounds import bazilevic, verify  # noqa: E402
from gtnbounds.caratheodory import GridSpec  # noqa: E402
from gtnbounds.series import TruncatedSeries  # noqa: E402

from workloads import CliMix, MemberSweep, VerifyFull  # noqa: E402


def flip_byte(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def verify_golden_check(work: Path) -> tuple[int, int]:
    wl = VerifyFull(1, work)
    wl.suite, wl.grid = "lemmas", GridSpec.uniform(8)
    reports, summary = verify.run_suite(wl.suite, varkappa=1, grid=wl.grid)
    wl.golden = ("\n".join(verify.reports_to_lines(reports, summary)) + "\n").encode()
    clean = wl.run_pass().failed
    wl.golden = flip_byte(wl.golden, len(wl.golden) // 3)
    planted = wl.run_pass().failed
    return clean, planted


def member_check(work: Path) -> tuple[int, int]:
    wl = MemberSweep(1, work)
    wl.members = [m for m in wl.members if m.order <= 6][:3]
    clean = wl.run_pass().failed
    original = bazilevic.solve_from_schwarz

    def perturbed(w, params, order):
        c = original(w, params, order).coeffs.copy()
        c[3] += 1e-6
        return TruncatedSeries(c)

    bazilevic.solve_from_schwarz = perturbed
    try:
        planted = wl.run_pass().failed
    finally:
        bazilevic.solve_from_schwarz = original
    return clean, planted


def cli_checks(work: Path) -> dict[str, tuple[int, int]]:
    wl = CliMix(1, work)
    requests = [r for r in wl.catalogue["requests"]
                if r["kind"] in ("fs", "gtn") and not r.get("malformed")][:2]
    wl.stream = requests
    clean = wl.run_pass().failed
    wrong_exit = copy.deepcopy(requests)
    wrong_exit[0]["exit"] = 2
    wl.stream = wrong_exit
    planted_exit = wl.run_pass().failed
    wrong_stdout = copy.deepcopy(requests)
    text = wrong_stdout[1]["stdout"].encode()
    wrong_stdout[1]["stdout"] = flip_byte(text, len(text) // 2).decode()
    wl.stream = wrong_stdout
    planted_stdout = wl.run_pass().failed
    return {"cli-mix expected exit code": (clean, planted_exit),
            "cli-mix golden stdout byte": (clean, planted_stdout)}


def main() -> int:
    os.chdir(ROOT)
    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        results = {
            "verify-full-g60 golden byte": verify_golden_check(work),
            "member-sweep perturbed a3": member_check(work),
            **cli_checks(work),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    ok = True
    for name, (clean, planted) in results.items():
        good = clean == 0 and planted > 0
        ok &= good
        print(f"{'PASS' if good else 'FAIL'}  {name}: unaltered pass failed {clean}, "
              f"planted defect failed {planted}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
