#!/usr/bin/env python3
"""Print the printed-vs-oracle bound tables across the subclass presets.

For each preset and weight, the table lists |a2|, the general |a3| statement,
the subclass |a3| statement where one is printed, and the oracle |a3| value
(:func:`gtnbounds.verify.oracle`: the sharp coefficient-body inequality on the
numerically derived relation).  Bounds are printed to 4 significant digits.
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

COLUMNS = ("vk", "a2", "a3 stmt", "a3 subclass", "a3 oracle")


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

    # "g" is at most 12 characters wide (1.23457e+308), so every row keeps
    # its columns however large the bounds grow
    header = f"{'preset':<14}" + "".join(f"{c:>13}" for c in COLUMNS)
    try:
        print(header)
        print("-" * len(header))
        for preset, vk, p in params:
            subclass = preset.subclass_a3(vk) if preset.subclass_a3 else float("nan")
            cells = (bounds.a2_bound(p), bounds.a3_bound(p), subclass,
                     verify.oracle(derive_relation(p), vk, 0.0))
            print(f"{preset.preset_id:<14}{vk:>13g}" + "".join(f"{x:>13.4g}" for x in cells))
        sys.stdout.flush()
    except BrokenPipeError:
        # Send what is still buffered to /dev/null, so that the flush at exit
        # does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
