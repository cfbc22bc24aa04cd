"""Calibrated time: wall time corrected for how fast the host runs right now.

The benchmark shares a small machine with other tenants.  For minutes at a
time the same code runs up to twice as slow, which no run length or median
can average away.  So the benchmark times a fixed reference loop next to the
work it measures, and reports each pass as

    raw pass time * nominal reference time / reference time around that pass

in *calibrated seconds*: the time the pass would take on a host that runs
the reference loop in its nominal time.  The reference loop uses no
gtnbounds code, so a change to the program moves the calibrated figures
exactly as it moves the raw ones; only the host's speed is divided out.

A busy host slows some kinds of work more than others: interpreter work on
small objects more than numpy on long arrays.  So each workload calibrates
against a loop made of the kinds of work it spends its time on, chosen from
`KINDS`: small objects, numpy calls on short arrays (series arithmetic),
string parsing and formatting (the report writer), building and running an
argparse parser (every CLI request), and scan rows (numpy on the long
arrays of the Caratheodory scan).

Set-up runs in fresh interpreters, where process start and imports dominate,
so it is calibrated against a fresh interpreter that imports numpy
(`startup_reference`).
"""

from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
from time import perf_counter as clock

import numpy as np

_ARGS = re.compile(r"--([a-z-]+)=?(\S*)")


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x, self.y = x, y

    def times(self, other: "_Pair") -> "_Pair":
        return _Pair(self.x * other.x - self.y * other.y,
                     self.x * other.y + self.y * other.x)


def _objects() -> float:
    keyed, acc, step = {}, _Pair(0.5, 0.1), _Pair(0.99, 0.01)
    for i in range(2000):
        acc = acc.times(step)
        keyed[str(i % 257)] = acc.x
    return sum(sorted(keyed.values()))


def _short_arrays() -> float:
    a = np.linspace(0.0, 1.0, 13) + 0j
    for _ in range(120):
        b = np.convolve(a, a)[:13]
        a = b / np.max(np.abs(b)) * 0.9 + 0.1 * np.exp(1j * a.real)
    return abs(a[0])


def _text() -> float:
    out = io.StringIO()
    for i in range(700):
        line = f"--max-n={i % 40} --kind=poisson --mu={i * 0.37:.6f}"
        for m in _ARGS.finditer(line):
            out.write(m.group(1).upper() + ":" + m.group(2) + "\n")
        out.write(json.dumps({"n": i, "v": [i * 0.5, str(i)]}))
    return len(out.getvalue())


def _parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="reference")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("gtn", "bound", "fs", "dist", "verify", "lemma"):
        sp = sub.add_parser(name, help=f"{name} command")
        sp.add_argument("--max-n", type=int, default=10)
        sp.add_argument("--mu", type=float, default=0.0)
        sp.add_argument("--kind", choices=("poisson", "borel", "pascal"), default="poisson")
        sp.add_argument("--out")
    return ap.parse_args(argv)


def _argparse() -> float:
    return sum(_parse([name, "--max-n", str(i), "--mu", "0.5", "--kind", "borel"]).max_n
               for i, name in enumerate(("gtn", "fs", "verify", "dist")))


_ANGLES = np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False)
_TAU = np.linspace(0.0, 1.0, 60)


def _scan_rows() -> float:
    """Rows of a 60-point-per-axis scan, shaped like the Caratheodory scan's."""
    phase = np.exp(1j * _ANGLES)
    best = -np.inf
    for r in (0.2, 0.5, 0.8):
        c1 = (2.0 * r * np.exp(1j * _ANGLES))[:, None, None]
        radius = 2.0 - np.abs(c1) ** 2 / 2.0
        c2 = c1**2 / 2.0 + radius * _TAU[None, :, None] * phase[None, None, :]
        vals = np.abs(c2 - 0.7 * c1**2) + 0.3 * np.abs(c1)
        best = max(best, float(vals.flat[int(np.argmax(vals))]))
    return best


# Each kind with its nominal time: about what it takes on the 2-CPU x86-64
# host the benchmark was written on, so that calibrated seconds read close
# to seconds there.
KINDS = {
    "objects": (_objects, 0.0015),
    "short_arrays": (_short_arrays, 0.0020),
    "text": (_text, 0.0050),
    "argparse": (_argparse, 0.0050),
    "scan_rows": (_scan_rows, 0.0120),
}


# Nominal time of `startup_reference`, chosen like the kinds' nominal times.
STARTUP_NOMINAL_S = 0.12


def startup_reference(cwd) -> float:
    """Seconds a fresh interpreter takes to start and import numpy."""
    t0 = clock()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return clock() - t0


def reference(kinds: tuple[str, ...]) -> float:
    """One run of the reference loop made of `kinds`.  Returns a value so
    nothing is optimised away."""
    return sum(KINDS[k][0]() for k in kinds)


class Calibration:
    """Reference-loop timings taken between pieces of measured work."""

    def __init__(self, kinds: tuple[str, ...]):
        self.kinds = kinds
        self.nominal_s = sum(KINDS[k][1] for k in kinds)
        reference(kinds)  # the first call pays for allocation; not a sample
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the reference loop once; returns the seconds it took."""
        t0 = clock()
        reference(self.kinds)
        took = clock() - t0
        self.samples.append(took)
        return took

    def mark(self) -> int:
        """Position to pass to `scale_since` after the measured work."""
        return len(self.samples)

    def scale_since(self, mark: int) -> float:
        """Factor from raw to calibrated seconds for the work done since
        `mark`: the nominal time over the median of the samples taken around it
        (the one before `mark` and all after)."""
        around = self.samples[max(mark - 1, 0):]
        return self.nominal_s / statistics.median(around)
