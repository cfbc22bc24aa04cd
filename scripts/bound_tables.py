#!/usr/bin/env python3
"""Print the printed-vs-oracle bound tables across the subclass presets.

For each preset and weight, the table lists |a2|, the general |a3| statement,
the subclass |a3| statement where one is printed, and the oracle |a3| value
(sharp coefficient-body inequality on the numerically derived relation).
Disagreement between the last three columns is the headline finding.

Exits 1 with a one-line message for a bad value (a non-finite or negative
varkappa), and quietly when the reader of the output goes away early (as
with ``| head``).
"""

import argparse
import os
import sys

from gtnbounds import bounds, verify
from gtnbounds.bazilevic import derive_relation
from gtnbounds.caratheodory import lemma3_bound


def oracle_a3(params) -> float:
    rel = derive_relation(params)
    v = (1 - params.varkappa) / 4 + rel.quad_a2 / (2 * rel.linear_a2**2)
    return lemma3_bound(v) / (2 * rel.linear_a3)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--varkappa", type=float, nargs="+", default=[1.0, 2.0, 3.5])
    args = ap.parse_args(argv)

    try:
        params = [(preset, vk, preset.params(vk))
                  for preset in verify.PRESETS for vk in args.varkappa]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    header = f"{'preset':<14}{'vk':>5}  {'a2':>8}  {'a3 stmt':>9}  {'a3 subclass':>10}  {'a3 oracle':>10}"
    try:
        print(header)
        print("-" * len(header))
        for preset, vk, p in params:
            subclass = preset.subclass_a3(vk) if preset.subclass_a3 else float("nan")
            print(
                f"{preset.preset_id:<14}{vk:>5g}  {bounds.a2_bound(p):>8.4f}  "
                f"{bounds.a3_bound(p):>9.4f}  {subclass:>10.4f}  {oracle_a3(p):>10.4f}"
            )
        sys.stdout.flush()
    except BrokenPipeError:
        # Send what is still buffered to /dev/null, so that the flush at exit
        # does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
