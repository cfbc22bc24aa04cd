#!/usr/bin/env python3
"""Run the full verification suite and archive the JSONL report.

Usage:
    python scripts/run_verification.py [--grid N] [--varkappa R] [--suite NAME]

Writes reports/verify-<timestamp>.jsonl (append-only) and prints a compact
discrepancy summary.  Exits 2 if the master soundness property fails, and 1
with a one-line message for a bad value (a non-finite or negative varkappa,
a grid outside 2..128, or a varkappa so large that a report overflows).
"""

import argparse
import sys
from collections import defaultdict

from gtnbounds import verify
from gtnbounds.cli import checked_grid


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=60)
    ap.add_argument("--varkappa", type=float, default=1.0)
    ap.add_argument("--suite", default="full", choices=("remarks", "lemmas", "full"))
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    out = args.out or verify.default_report_path()
    try:
        grid = checked_grid(args.grid)
        reports, summary = verify.run_suite(args.suite, varkappa=args.varkappa, grid=grid)
        verify.write_reports(out, reports, summary)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    by_id: dict[str, list] = defaultdict(list)
    for r in reports:
        for d in r.discrepancies:
            by_id[d["id"]].append((r.experiment_id, d))

    print(f"suite={args.suite} grid={args.grid} varkappa={args.varkappa:g}")
    print(f"reports: {summary['reports']}  ->  {out}")
    print(f"soundness: {summary['soundness']} "
          f"(max sup - oracle = {summary['max_sup_minus_oracle']:.3e})")
    for did in sorted(by_id):
        first_id, first = by_id[did][0]
        detail = ", ".join(f"{k}={v:.6g}" for k, v in first.items() if k != "id")
        print(f"  {did}: {len(by_id[did])} reports (first: {first_id}; {detail})")
    worst = min(reports, key=lambda r: r.gap)
    print(f"tightest oracle gap: {worst.gap:.3e} at {worst.experiment_id}")
    return 0 if summary["soundness"] else 2


if __name__ == "__main__":
    sys.exit(main())
