"""The benchmark's three workloads.

Each workload turns a seed into inputs, runs one pass of items against the
public gtnbounds API in this process, times every item and checks every
output.  An item is one verification report (`verify-full-g60`), one class
member (`member-sweep`) or one CLI request (`cli-mix`).

Inputs come only from the seed and from the committed golden files under
`perfbench/golden/`, never from the program under test.
"""

from __future__ import annotations

import cmath
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as clock

import numpy as np

# Calls go through module attributes so that the tracer's wrappers see them.
from gtnbounds import bazilevic, cli, distributions, series, verify
from gtnbounds.bazilevic import ClassParams
from gtnbounds.caratheodory import GridSpec, lemma3_bound
from gtnbounds.series import TruncatedSeries

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
VERIFY_GOLDEN = GOLDEN_DIR / "verify-full-g60.jsonl"
CLI_GOLDEN = GOLDEN_DIR / "cli-mix.json"


@dataclass
class PassResult:
    """Outcome of one pass: wall time, per-item latencies and check results.
    Times are raw seconds; `scale` turns them into calibrated seconds (see
    calibration.py)."""

    wall_s: float
    latencies: list[float]
    failed: int
    failures: list[str] = field(default_factory=list)
    exit_codes: dict[int, int] = field(default_factory=dict)
    tracebacks: int = 0
    malformed_unmet: int = 0
    scale: float = 1.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def golden_mismatches(got: bytes, want: bytes, items: int) -> int:
    """Items to count as failed when `got` should equal `want` byte for byte:
    one per differing line, at least one if any byte differs, at most
    `items`."""
    if got == want:
        return 0
    a, b = got.split(b"\n"), want.split(b"\n")
    differing = sum(
        1 for i in range(max(len(a), len(b)))
        if i >= len(a) or i >= len(b) or a[i] != b[i]
    )
    return min(items, max(1, differing))


# ---------------------------------------------------------------------------
# verify-full-g60

class VerifyFull:
    """`verify.run_suite("full", varkappa=1, grid=60)` then `reports_to_lines`,
    compared byte for byte with the golden JSONL.  The suite is fixed, so the
    seed changes nothing here; it is recorded like every other run's."""

    name = "verify-full-g60"
    # 87 reports per pass: two passes give 174 latencies, 17 of them beyond p90.
    min_passes = 2
    reference_kinds = ("scan_rows",)

    def __init__(self, seed: int, work: Path):
        self.suite, self.grid = "full", GridSpec.uniform(60)
        self.golden = VERIFY_GOLDEN.read_bytes()
        self.items = self.golden.count(b"\n") - 1  # the last line is the summary
        self.params = {
            "suite": "full", "varkappa": 1, "grid": 60, "reports_per_pass": self.items,
            "golden_sha256": hashlib.sha256(self.golden).hexdigest(),
        }

    def next_pass(self) -> None:
        pass

    def warmup(self) -> None:
        entries, functionals = verify.build_suite("full", 1.0)
        pid, params, subclass = entries[0]
        verify.run_experiment(functionals[0], params, self.grid, pid, subclass)

    def run_pass(self, calibration=None) -> PassResult:
        """One pass.  A pass lasts tens of seconds, through which the host's
        speed changes, so `calibration` (if given) is sampled before every
        report; the sampling time is left out of the pass time."""
        latencies: list[float] = []
        sampling = [0.0]
        inner = verify.run_experiment

        def timed(*args, **kwargs):
            if calibration is not None:
                sampling[0] += calibration.sample()
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                latencies.append(clock() - t0)

        verify.run_experiment = timed
        try:
            t0 = clock()
            reports, summary = verify.run_suite(self.suite, varkappa=1, grid=self.grid)
            lines = verify.reports_to_lines(reports, summary)
            wall = clock() - t0 - sampling[0]
        finally:
            verify.run_experiment = inner
        got = ("\n".join(lines) + "\n").encode()
        failed = golden_mismatches(got, self.golden, len(latencies))
        failures = [f"report bytes differ from {VERIFY_GOLDEN.name}"] if failed else []
        return PassResult(wall, latencies, failed, failures)


# ---------------------------------------------------------------------------
# member-sweep

MEMBER_ORDERS = tuple(range(4, 13))
SCHWARZ_KINDS = ("rotation", "rotation-z2", "blaschke")


@dataclass
class Member:
    params: ClassParams
    order: int
    schwarz: str
    w: TruncatedSeries
    mu: complex
    dist: tuple[str, float, int]

    def label(self) -> str:
        p = self.params
        return (f"{self.schwarz} order={self.order} vt={p.vartheta:.4f} "
                f"kp={p.kappa:.4f} vk={p.varkappa:.4f}")


def _sup_on_circle(c: np.ndarray, radius: float = 0.99, samples: int = 256) -> float:
    z = radius * np.exp(2j * np.pi * np.arange(samples) / samples)
    return float(np.max(np.abs(np.polyval(c[::-1], z))))


def draw_member(rng: np.random.Generator, schwarz: str, order: int) -> Member:
    """A class point, a Schwarz function inside the disk, a complex mu and a
    distribution, all from `rng`."""
    params = ClassParams(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                         rng.uniform(0.5, 4.0))
    while True:
        r = rng.uniform(0.3, 0.9)
        rot = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        c = np.zeros(order + 1, dtype=complex)
        if schwarz == "rotation":
            c[1] = r * rot
        elif schwarz == "rotation-z2":
            c[2] = r * rot
        else:
            # r z (z + a) / (1 + conj(a) z) = r [a z + sum_{n>=2} (-conj a)^(n-2) (1-|a|^2) z^n]
            a = 0.5 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            c[1] = r * a
            for n in range(2, order + 1):
                c[n] = r * (-a.conjugate()) ** (n - 2) * (1.0 - abs(a) ** 2)
        # The truncation (and the witness's one order lower) must stay inside the disk.
        if max(_sup_on_circle(c), _sup_on_circle(c[:-1])) < 0.98:
            break
    mu = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    kind = str(rng.choice(["poisson", "borel", "pascal"]))
    if kind == "poisson":
        dist = (kind, float(rng.uniform(0.2, 3.0)), 1)
    elif kind == "borel":
        dist = (kind, float(rng.uniform(0.1, 1.0)), 1)
    else:
        dist = (kind, float(rng.uniform(0.1, 0.9)), int(rng.integers(1, 4)))
    return Member(params, order, schwarz, TruncatedSeries(c), mu, dist)


def run_member(m: Member) -> dict:
    """The program calls of one member item (this is what is timed)."""
    rel = bazilevic.derive_relation(m.params)
    f = bazilevic.solve_from_schwarz(m.w, m.params, m.order)
    witness, sup_norm = bazilevic.membership_witness(f, m.params)
    inverse = series.revert(f)
    logs = series.log_series(TruncatedSeries(f.coeffs[1:]))
    kind, param, s = m.dist
    table = distributions.coefficients(kind, param, max_n=m.order, s=s)
    conv = distributions.convolve(f, table)
    return {"rel": rel, "f": f, "witness": witness, "sup_norm": sup_norm,
            "inverse": inverse, "logs": logs, "table": table, "conv": conv}


def member_oracle(rel, varkappa: float, mu: complex) -> float:
    """The certified bound on |a3 - mu a2^2| that verify reports for fs(mu):
    the sharp |c2 - v c1^2| <= lemma3_bound(v) applied to the derived
    relation b1 = A2 a2, b2 = A3 a3 + Aq a2^2."""
    a2l, a3l, aq = rel.linear_a2, rel.linear_a3, rel.quad_a2
    v = (1.0 - varkappa) / 4.0 + aq / (2.0 * a2l**2) + mu * a3l / (2.0 * a2l**2)
    return lemma3_bound(v) / (2.0 * a3l)


def check_member(m: Member, out: dict) -> list[str]:
    """Names of the failed checks; empty when the member is correct."""
    bad = []
    f = out["f"].coeffs
    a2, a3 = f[2], f[3]
    wit = out["witness"].coeffs
    if not (np.max(np.abs(wit - m.w.coeffs[: wit.size])) <= 1e-8 and out["sup_norm"] < 1.0):
        bad.append("witness")
    oracle = member_oracle(out["rel"], m.params.varkappa, m.mu)
    if not abs(a3 - m.mu * a2 * a2) <= oracle * (1 + 1e-9):
        bad.append("oracle")
    if not abs(out["inverse"].coeffs[2] + a2) <= 1e-12 + 1e-9 * abs(a2):
        bad.append("d2")
    if not abs(out["logs"].coeffs[1] - a2) <= 1e-12 + 1e-9 * abs(a2):
        bad.append("g1")
    conv, table = out["conv"].coeffs, out["table"]
    want = np.array([f[0], f[1]] + [table.wp(n) * f[n] for n in range(2, f.size)])
    if not np.allclose(conv, want, rtol=1e-12, atol=1e-15):
        bad.append("convolve")
    return bad


class MemberSweep:
    """Class members built from Schwarz functions, each checked from the
    function side.  Every pass has one member per (Schwarz kind, order) pair, so
    pass time does not depend on how the seed happens to mix orders."""

    name = "member-sweep"
    min_passes = 1
    reference_kinds = ("objects", "short_arrays", "text")

    def __init__(self, seed: int, work: Path):
        self.rng = np.random.default_rng(seed)
        self.params = {"schwarz_kinds": list(SCHWARZ_KINDS),
                       "orders": [MEMBER_ORDERS[0], MEMBER_ORDERS[-1]],
                       "members_per_pass": len(SCHWARZ_KINDS) * len(MEMBER_ORDERS),
                       "vartheta_kappa": [0, 1], "varkappa": [0.5, 4.0], "r": [0.3, 0.9],
                       "blaschke_abs_a_max": 0.5}
        self.members: list[Member] = []
        self.next_pass()

    def next_pass(self) -> None:
        members = [draw_member(self.rng, d, n) for d in SCHWARZ_KINDS for n in MEMBER_ORDERS]
        self.members = [members[i] for i in self.rng.permutation(len(members))]

    def warmup(self) -> None:
        run_member(self.members[0])

    def run_pass(self, calibration=None) -> PassResult:
        """One pass.  It is short, so the runner samples `calibration` around
        the whole pass instead."""
        latencies, outputs = [], []
        t0 = clock()
        for m in self.members:
            t = clock()
            outputs.append(run_member(m))
            latencies.append(clock() - t)
        wall = clock() - t0
        failures = []
        for m, out in zip(self.members, outputs):
            bad = check_member(m, out)
            if bad:
                failures.append(f"{m.label()}: {','.join(bad)}")
        return PassResult(wall, latencies, len(failures), failures)


# ---------------------------------------------------------------------------
# cli-mix

# Requests per pass, by catalogue kind.  `malformed` requests should exit 1
# without a traceback.  gtnbounds 0.1.0 lets NaN/inf through and raises on a
# bad --config value; that is counted in `cli.malformed_unmet`, not as a
# failed item, so that a working tree has no failed item.
CLI_SLOTS = (
    ("gtn", 3), ("xseries", 2), ("bound", 2), ("fs", 3), ("inverse-fs", 2),
    ("log-coeff", 1), ("conv-fs", 3), ("dist", 2), ("member", 2), ("lemma-g8", 1),
    ("lemma-g16", 1), ("verify-lemmas-g12", 1), ("verify-remarks-g8", 1), ("malformed", 2),
)


@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str
    traceback: bool
    seconds: float


def call_cli(argv: list[str]) -> CliOutcome:
    """`cli.main(argv)` in this process, as a shell user would see it: exit
    code, standard output, standard error, and whether an exception escaped."""
    out, err = io.StringIO(), io.StringIO()
    traceback = False
    t0 = clock()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # an uncaught exception is a traceback with exit 1
        code, traceback = 1, True
    seconds = clock() - t0
    return CliOutcome(code, out.getvalue(), err.getvalue(), traceback, seconds)


def expand(argv: list[str], work: str) -> list[str]:
    return [a.replace("{work}", work) for a in argv]


def out_path(argv: list[str]) -> Path | None:
    """The report file of a `verify --out FILE` request."""
    return Path(argv[argv.index("--out") + 1]) if "--out" in argv else None


def check_request(req: dict, got: CliOutcome, work: str, out_file: Path | None) -> str:
    """Why the request failed its golden check, or "" when it passed."""
    if got.traceback:
        return "traceback"
    if req.get("malformed"):
        return "" if got.code == req["exit"] else f"exit {got.code}, expected {req['exit']}"
    if got.code != req["exit"]:
        return f"exit {got.code}, expected {req['exit']}"
    if got.stdout != req["stdout"].replace("{work}", work):
        return "stdout differs from golden"
    if "out_sha256" in req:
        data = out_file.read_bytes() if out_file and out_file.exists() else b""
        if hashlib.sha256(data).hexdigest() != req["out_sha256"]:
            return "report file differs from golden"
    return ""


class CliMix:
    """A seeded stream of `cli.main(argv)` requests drawn from the golden
    catalogue, run in process with output captured."""

    name = "cli-mix"
    min_passes = 1
    reference_kinds = ("argparse", "objects", "short_arrays", "text")

    def __init__(self, seed: int, work: Path):
        self.catalogue = json.loads(CLI_GOLDEN.read_text())
        self.work = str(work)
        work.mkdir(parents=True, exist_ok=True)
        for fname, text in self.catalogue["files"].items():
            (work / fname).write_text(text)
        self.by_kind: dict[str, list[dict]] = {}
        for req in self.catalogue["requests"]:
            self.by_kind.setdefault(req["kind"], []).append(req)
        self.rng = np.random.default_rng(seed)
        self.params = {"requests_per_pass": sum(n for _, n in CLI_SLOTS),
                       "slots": dict(CLI_SLOTS),
                       "catalogue_requests": len(self.catalogue["requests"])}
        self.stream: list[dict] = []
        self.next_pass()

    def next_pass(self) -> None:
        stream = [self.by_kind[kind][int(self.rng.integers(len(self.by_kind[kind])))]
                  for kind, count in CLI_SLOTS for _ in range(count)]
        self.stream = [stream[i] for i in self.rng.permutation(len(stream))]

    def call(self, req: dict) -> tuple[list[str], Path | None, CliOutcome]:
        argv = expand(req["argv"], self.work)
        out_file = out_path(argv)
        if out_file:
            out_file.unlink(missing_ok=True)  # verify --out appends
        return argv, out_file, call_cli(argv)

    def warmup(self) -> None:
        self.call(self.stream[0])

    def run_pass(self, calibration=None) -> PassResult:
        """One pass.  It is short, so the runner samples `calibration` around
        the whole pass instead."""
        res = PassResult(0.0, [], 0)
        checking = 0.0
        t0 = clock()
        for req in self.stream:
            argv, out_file, got = self.call(req)
            t_check = clock()
            res.latencies.append(got.seconds)
            res.exit_codes[got.code] = res.exit_codes.get(got.code, 0) + 1
            res.tracebacks += got.traceback
            why = check_request(req, got, self.work, out_file)
            if why and req.get("malformed"):
                res.malformed_unmet += 1
            elif why:
                res.failed += 1
                res.failures.append(f"{' '.join(argv)}: {why}")
            checking += clock() - t_check
        res.wall_s = clock() - t0 - checking
        return res


WORKLOADS = {w.name: w for w in (VerifyFull, MemberSweep, CliMix)}
