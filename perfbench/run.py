"""gtnbounds benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn

Run it from the root of a source tree; it imports gtnbounds from `src/`.
With `--trace 0` it measures the end-to-end metrics, with `--trace 1` the
per-layer metrics (see perfbench/README.md).  The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter as clock

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("verify-full-g60", "member-sweep", "cli-mix")
SETUP_PROBES = 9


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import gtnbounds from this tree's src/, never from an installed copy."""
    if not (SRC / "gtnbounds" / "__init__.py").is_file():
        fail(f"no gtnbounds sources under {SRC}; run from the root of a source tree")
    sys.path.insert(0, str(SRC))
    import gtnbounds

    if Path(gtnbounds.__file__).resolve().parent != SRC / "gtnbounds":
        fail(f"imported gtnbounds from {gtnbounds.__file__}, not from {SRC}")
    return gtnbounds


def git_describe() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=ROOT, env=env, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure_setup(args) -> list[float]:
    """Calibrated wall time of fresh interpreters that import gtnbounds,
    generate the inputs and run one warm-up item.  Each probe is calibrated
    by the startup references run just before and after it."""
    from calibration import STARTUP_NOMINAL_S, startup_reference

    times, refs = [], [startup_reference(ROOT)]
    for _ in range(SETUP_PROBES):
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=170,
        )
        took = clock() - t0
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        refs.append(startup_reference(ROOT))
        times.append(took * STARTUP_NOMINAL_S / ((refs[-2] + refs[-1]) / 2))
    return times


def calibrated_pass(workload, cal):
    """One pass, with reference samples on both sides to calibrate it."""
    mark = cal.mark()
    result = workload.run_pass(cal)
    cal.sample()
    result.scale = cal.scale_since(mark)
    return result


def run_passes(workload, cal, seconds: float, min_passes: int) -> list:
    results = []
    cal.sample()
    t0 = clock()
    while len(results) < min_passes or clock() - t0 < seconds:
        if results:
            workload.next_pass()
        results.append(calibrated_pass(workload, cal))
    return results


def summarize(results: list) -> dict:
    """Pass and item figures in calibrated seconds."""
    walls = [r.wall_s * r.scale for r in results]
    latencies = [x * r.scale for r in results for x in r.latencies]
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "wall_s": statistics.median(walls),
        "items_per_s": len(latencies) / sum(walls),
        "item_p50_ms": cuts[4] * 1e3,
        "item_p90_ms": cuts[8] * 1e3,
        "samples": len(latencies),
        "beyond_p90": sum(1 for x in latencies if x > cuts[8]),
    }


def tally(results: list) -> dict:
    out = {"attempted": 0, "failed": 0, "exit_codes": {}, "tracebacks": 0,
           "malformed_unmet": 0, "failures": []}
    for r in results:
        out["attempted"] += r.attempted
        out["failed"] += r.failed
        out["tracebacks"] += r.tracebacks
        out["malformed_unmet"] += r.malformed_unmet
        out["failures"] += r.failures
        for code, n in r.exit_codes.items():
            out["exit_codes"][code] = out["exit_codes"].get(code, 0) + n
    return out


def measure_untraced(args, workload) -> tuple[dict, list, dict]:
    """End-to-end metrics, from set-up probes and an untraced run."""
    from calibration import Calibration

    setup = measure_setup(args)
    cal = Calibration(workload.reference_kinds)
    results = run_passes(workload, cal, args.seconds, workload.min_passes)
    s = summarize(results)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (s["wall_s"], "s"),
        "items_per_s": (s["items_per_s"], "1/s"),
        "item_p50_ms": (s["item_p50_ms"], "ms"),
        "item_p90_ms": (s["item_p90_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    counted = {"passes": len(results), "latency_samples": s["samples"],
               "samples_beyond_p90": s["beyond_p90"], "setup_probes_s": setup,
               "raw_wall_s": statistics.median(r.wall_s for r in results),
               "reference_ms": statistics.median(cal.samples) * 1e3}
    return metrics, results, counted


def traced_pass(tracer, workload, cal):
    tracer.install()
    try:
        return calibrated_pass(workload, cal)
    finally:
        tracer.uninstall()


def measure_traced(args, workload, replay) -> tuple[dict, list, dict]:
    """Per-layer metrics.  Each pass runs untraced on `workload`, then traced
    on `replay`, a second instance with the same seed, so that both runs of a
    pass see the same inputs and about the same machine load."""
    from calibration import Calibration
    from gtnbounds import verify
    from tracing import Tracer

    tracer, cal = Tracer(), Calibration(workload.reference_kinds)
    plain, traced = [], []
    cal.sample()
    t0 = clock()
    while not plain or clock() - t0 < args.seconds:
        if plain:
            workload.next_pass()
            replay.next_pass()
        # Alternate which run goes first: the first one warms caches for the other.
        if len(plain) % 2:
            traced.append(traced_pass(tracer, replay, cal))
            plain.append(calibrated_pass(workload, cal))
        else:
            plain.append(calibrated_pass(workload, cal))
            traced.append(traced_pass(tracer, replay, cal))
    cache = verify._relation.cache_info()
    t = tally(traced)
    overhead = summarize(traced)["wall_s"] / summarize(plain)["wall_s"] - 1.0
    metrics = tracer.layer_metrics(len(traced), cache.hits, cache.misses,
                                   t["exit_codes"], t["tracebacks"],
                                   t["malformed_unmet"], overhead)
    return metrics, plain + traced, {"traced_passes": len(traced),
                                     "untraced_passes": len(plain)}


def run_workload(args) -> int:
    gtnbounds = import_package()
    import numpy as np

    from workloads import WORKLOADS

    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.warmup()
        if args.setup_probe:
            return 0
        if args.trace:
            replay = WORKLOADS[args.workload](args.seed, work)
            metrics, results, counted = measure_traced(args, workload, replay)
        else:
            metrics, results, counted = measure_untraced(args, workload)
        t = tally(results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": workload.params, **counted,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": np.__version__,
        "gtnbounds": gtnbounds.__version__, "git_describe": git_describe(),
        "platform": platform.platform(),
        "failed_frac": t["failed"] / t["attempted"],
        "malformed_unmet": t["malformed_unmet"], "tracebacks": t["tracebacks"],
        "exit_codes": {str(k): v for k, v in sorted(t["exit_codes"].items())},
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    for line in t["failures"][:20]:
        print(f"FAILED {line}", file=sys.stderr)
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(json.dumps({"correct": t["failed"] == 0, "attempted": t["attempted"],
                      "failed": t["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    combined, status = {}, 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        combined[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": combined}))
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
