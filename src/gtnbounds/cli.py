"""Command-line entry point.

Subcommands: gtn, xseries, bound, fs, inverse-fs, log-coeff, conv-fs, dist,
member, lemma, verify; each accepts only the flags its handler reads.  Every
handler but ``cmd_verify`` returns its rows, which :func:`main` prints with
:func:`emit_rows` in the ``--format`` json, csv or table (machine formats
print floats with 12 significant digits, tables with 6).  ``cmd_verify``
writes its reports, prints its summary on stdout and a digest on stderr (the
first report of each discrepancy ID and the report with the tightest oracle
gap) and returns the exit code.

Flag values override an optional ``--config FILE`` (simple ``key=value``
lines), which overrides built-in defaults.  :func:`main` fills the unset keys
the subcommand defines from the config or the defaults, so handlers read
``args`` alone and a command ignores the keys it does not read.  Exit codes:
0 success, 1 usage error, 2 soundness violation in ``verify``.  Every layer
refuses bad input with a plain ``ValueError`` whose message names the check;
:func:`main` prints it after ``error:`` and exits 1.

``main`` may be called many times in one process.  The parser is built on
the first call and reused by every later one, so each subparser's handler is
bound once: to change what a command does, patch what its handler calls
(``gtn_sequence``, ``verify.run_suite``, ...), not the handler itself.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from gtnbounds import bounds, verify
from gtnbounds.bazilevic import ClassParams, membership_witness
from gtnbounds.caratheodory import GridSpec
from gtnbounds.distributions import coefficients
from gtnbounds.series import TruncatedSeries
from gtnbounds.telephone import gtn_sequence, x_series

BUILTIN_DEFAULTS = {
    "vartheta": 0.0,
    "kappa": 0.0,
    "varkappa": 1.0,
    "grid": 60,
    "format": "table",
}

FORMATS = ("json", "csv", "table")

# Points in the largest pass of one scan: the reduced pass over
# (rho, tau, beta) or one row over (alpha, tau, beta).  The scan works on
# small blocks, so this bounds its work rather than its memory: a uniform
# grid may have at most 128 steps.
MAX_SCAN_VALUES = 2**21

# Largest ``gtn --max-n``, ``xseries --order`` and ``dist --max-n``: each
# prints one row per index, and nothing bounds the work otherwise.  The gtn
# sequence is exact rational arithmetic whose values grow like sqrt(n!): at
# varkappa = 1 index 1000 has 1,297 digits, and index 3000 passes Python's
# 4300-digit limit on printing an int.
MAX_INDEX = 1000


class CliParser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _parse_finite(text: str) -> float:
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")


def _parse_complex(text: str) -> complex:
    """Parse 'RE' or 'RE,IM' with finite parts."""
    parts = text.split(",")
    if len(parts) in (1, 2):
        try:
            return complex(*(_parse_finite(part) for part in parts))
        except argparse.ArgumentTypeError:
            pass
    raise argparse.ArgumentTypeError(f"expected finite RE or RE,IM, got {text!r}")


def load_config(path: str | None) -> dict:
    """Read ``key = value`` lines; ``#`` comments and blank lines are skipped.

    Any other line must set one of the keys of ``BUILTIN_DEFAULTS`` to a valid
    value, or a ``ValueError`` names the file, the line and the key.
    """
    if not path:
        return {}
    cfg: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ValueError(f"{where}: expected key = value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in BUILTIN_DEFAULTS:
            raise ValueError(f"{where}: unknown key {key!r}")
        try:
            if key in ("vartheta", "kappa", "varkappa"):
                # exact for gtn; float() refuses a value that overflows it
                cfg[key] = Fraction(value)
                float(cfg[key])
            elif key == "grid":
                cfg[key] = int(value)
            elif value in FORMATS:
                cfg[key] = value
            else:
                raise ValueError
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"{where}: bad value for {key}: {value!r}") from None
    return cfg


def _grid(args) -> GridSpec:
    """The uniform scan grid, or a ``ValueError`` before any scan when one
    pass of its scan would evaluate more than ``MAX_SCAN_VALUES`` points."""
    n = int(args.grid)
    grid = GridSpec.uniform(n)
    values = max(grid.rho_steps, grid.alpha_steps) * grid.tau_steps * grid.beta_steps
    if values > MAX_SCAN_VALUES:
        raise ValueError(
            f"grid {n} needs {values} points per scan pass, "
            f"more than the cap of {MAX_SCAN_VALUES}"
        )
    return grid


def _params(args) -> ClassParams:
    return ClassParams(float(args.vartheta), float(args.kappa), float(args.varkappa))


# ---------------------------------------------------------------------------
# Output formatting

def _cell(v, digits: int) -> str:
    if isinstance(v, float):
        return f"{v:.{digits}g}"
    if isinstance(v, complex):
        return f"{v.real:.{digits}g}{v.imag:+.{digits}g}i"
    return str(v)


def emit_rows(rows: list[dict], fmt: str, stream=None) -> None:
    """Print a list of records as json, csv, or an aligned table.  Every
    value is formatted before anything is written, so a value that does not
    format writes nothing."""
    stream = stream or sys.stdout
    if fmt == "json":
        payload = verify.round12(rows if len(rows) != 1 else rows[0])
        stream.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
        return
    header = list(rows[0].keys())
    cells = [[_cell(row[h], 12 if fmt == "csv" else 6) for h in header] for row in rows]
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(header)
        writer.writerows(cells)
        return
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(header)]
    stream.write("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)) + "\n")
    for c in cells:
        stream.write("  ".join(c[i].ljust(widths[i]) for i in range(len(header))) + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns its rows; cmd_verify its exit code)

def _check_index(flag: str, n: int) -> None:
    if n > MAX_INDEX:
        raise ValueError(f"{flag} {n} is more than the limit of {MAX_INDEX}")


def cmd_gtn(args) -> list[dict]:
    _check_index("--max-n", args.max_n)
    vk = Fraction(args.varkappa)
    values = gtn_sequence(vk, args.max_n)  # refuses a negative weight first
    if vk < 1:
        print(
            "warning: the telephone-number interpretation assumes varkappa >= 1",
            file=sys.stderr,
        )
    try:
        # every format prints each value as str() does, and fails where it does
        texts = [str(v) for v in values]
    except ValueError as exc:  # the only one: an int too long to print
        raise ValueError(
            f"a value has more than {sys.get_int_max_str_digits()} digits; "
            "lower --max-n or --varkappa"
        ) from exc
    return [
        {"n": n, "value": int(v) if v.denominator == 1 else text}
        for n, (v, text) in enumerate(zip(values, texts))
    ]


def cmd_xseries(args) -> list[dict]:
    _check_index("--order", args.order)
    coeffs = x_series(float(args.varkappa), args.order).coeffs.real
    bad = np.flatnonzero(~np.isfinite(coeffs))
    if bad.size:
        raise OverflowError(f"the coefficient of z^{bad[0]} is not finite")
    return [{"n": n, "coefficient": float(c)} for n, c in enumerate(coeffs)]


def cmd_bound(args) -> list[dict]:
    p = _params(args)
    value = bounds.a2_bound(p) if args.which == "a2" else bounds.a3_bound(p)
    return [{"bound": args.which, "vartheta": p.vartheta, "kappa": p.kappa,
             "varkappa": p.varkappa, "value": value}]


def cmd_fs(args) -> list[dict]:
    p = _params(args)
    mu = args.mu
    if mu.imag == 0.0:
        verdict = bounds.fs_real(p, mu.real)
        return [{
            "mu": mu.real,
            "value": verdict.value,
            "branch": verdict.branch,
            "sigma1": verdict.sigma1,
            "sigma2": verdict.sigma2,
            "aleph": verdict.aleph,
            "as_printed": verdict.as_printed,
            "printed_nonpositive": verdict.printed_nonpositive,
        }]
    return [{
        "mu": mu,
        "value": bounds.fs_complex(p, mu),
        "alternate_prefactor_value":
            bounds.fs_complex(p, mu) * p.L * bounds.fs_complex_alternate(p),
    }]


def cmd_inverse_fs(args) -> list[dict]:
    p = _params(args)
    d2_stated, d2_oracle = bounds.inverse_d2_bound(p)
    d3_stated, d3_mu2 = bounds.inverse_d3_bound(p)
    return [{
        "hbar": args.hbar,
        "value": bounds.inverse_fs(p, args.hbar),
        "d2_as_stated": d2_stated,
        "d2_oracle": d2_oracle,
        "d3_as_stated": d3_stated,
        "d3_mu2_value": d3_mu2,
    }]


def cmd_log_coeff(args) -> list[dict]:
    p = _params(args)
    g1, g2 = bounds.log_coeff_bounds(p)
    return [{"g1": g1, "g2_as_stated": g2, "g2_half_fs": bounds.log_gamma2_oracle(p)}]


def _conv_weights(args) -> tuple[float, float, str]:
    if args.dist == "custom":
        return args.wp2, args.wp3, "custom"
    if args.dist_param is None:
        raise ValueError(f"--dist {args.dist} needs --dist-param")
    d = coefficients(args.dist, args.dist_param, max_n=3, s=args.s)
    return d.wp2, d.wp3, f"{args.dist}({args.dist_param:g})"


def cmd_conv_fs(args) -> list[dict]:
    p = _params(args)
    wp2, wp3, label = _conv_weights(args)
    row = {
        "dist": label,
        "wp2": wp2,
        "wp3": wp3,
        "mu": args.mu,
        "value": bounds.conv_fs_complex(p, args.mu, wp2, wp3),
    }
    if args.mu.imag == 0.0:
        verdict = bounds.conv_fs_real(p, args.mu.real, wp2, wp3)
        row.update(
            branch=verdict.branch,
            sigma1=verdict.sigma1,
            sigma2=verdict.sigma2,
            piecewise_value=verdict.value,
            as_printed=verdict.as_printed,
        )
    return [row]


def cmd_dist(args) -> list[dict]:
    _check_index("--max-n", args.max_n)
    d = coefficients(args.kind, args.param, max_n=args.max_n, s=args.s)
    return [{"n": n, "coefficient": d.wp(n)} for n in range(2, args.max_n + 1)]


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _read_coeffs(path: str) -> TruncatedSeries:
    text = Path(path).read_text().strip()
    if text.startswith("["):
        data = json.loads(text)
        if not all(_number(c) or isinstance(c, list) and len(c) == 2 and all(map(_number, c))
                   for c in data):
            raise ValueError("expected a list of numbers or [re, im] pairs")
        coeffs = [complex(*c) if isinstance(c, list) else complex(c) for c in data]
    else:
        coeffs = []
        for tok in text.replace(",", " ").split():
            try:
                coeffs.append(complex(float(tok), 0.0))
            except ValueError:
                raise ValueError(f"not a number: {tok!r}") from None
    if not coeffs:
        raise ValueError("no coefficients")
    if not all(map(cmath.isfinite, coeffs)):
        raise ValueError("every coefficient must be finite")
    return TruncatedSeries(coeffs)


def cmd_member(args) -> list[dict]:
    p = _params(args)
    try:  # every refusal of the file, or of the function it holds, names it
        witness, sup_norm = membership_witness(_read_coeffs(args.f_coeffs), p)
    except ValueError as exc:
        raise ValueError(f"{args.f_coeffs}: {exc}") from exc
    threshold = 1.0 - 1e-6
    return [{
        "sup_norm": sup_norm,
        "threshold": threshold,
        "verdict": "member" if sup_norm < threshold else "not-member",
        "witness_order": witness.order,
    }]


def cmd_lemma(args) -> list[dict]:
    v = args.v
    fn = verify.Functional(f"lemma{args.which}", v=complex(v.real) if args.which == "1" else v)
    r = verify.run_experiment(fn, ClassParams(0.0, 0.0, 1.0), _grid(args), "caratheodory")
    stated, sup = r.as_stated, r.empirical_sup
    gap = stated - sup
    if not all(map(math.isfinite, (stated, sup, gap))):
        raise ValueError(f"the result is not finite: bound {stated:g}, "
                         f"empirical_sup {sup:g}, gap {gap:g}")
    return [{
        "which": args.which,
        "v": v,
        "bound": stated,
        "empirical_sup": sup,
        "gap": gap,
        "witness_c1": complex(r.witness.c1),
        "witness_c2": complex(r.witness.c2),
    }]


def cmd_verify(args) -> int:
    grid = _grid(args)
    reports, summary = verify.run_suite(args.suite, varkappa=float(args.varkappa), grid=grid)
    out = Path(args.out) if args.out else verify.default_report_path()
    verify.write_reports(out, reports, summary)
    print(f"wrote {len(reports)} reports to {out}")
    print(json.dumps({"summary": summary}, indent=2, allow_nan=False))
    # the digest goes to stderr: stdout stays the summary alone
    first: dict[str, tuple] = {}
    for r in reports:
        for d in r.discrepancies:
            first.setdefault(d["id"], (r.experiment_id, d))
    for did, (experiment_id, d) in sorted(first.items()):
        detail = ", ".join(f"{k}={v:.6g}" for k, v in d.items() if k != "id")
        print(f"{did}: first in {experiment_id} ({detail})", file=sys.stderr)
    if reports:
        tightest = min(reports, key=lambda r: r.gap)
        print(f"tightest oracle gap: {tightest.gap:.3e} at {tightest.experiment_id}",
              file=sys.stderr)
    if not summary["soundness"]:
        print("SOUNDNESS VIOLATION: empirical supremum exceeded the oracle bound",
              file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> CliParser:
    """The argument parser, built on the first call and shared by every later
    one.  Reuse is safe because parsing never changes the parser: every
    default is immutable (``None``, str, int, float or complex) and no action
    accumulates values across calls; help and usage look up ``sys.stdout``
    and ``sys.stderr`` when they print.  ``build_parser.__wrapped__()``
    builds a fresh one."""
    fmt = CliParser(add_help=False)
    fmt.add_argument("--format", choices=FORMATS, default=None)
    weight = CliParser(add_help=False)
    weight.add_argument("--varkappa", type=_parse_finite, default=None,
                        help="subordination weight (>= 0)")
    common = CliParser(add_help=False, parents=[weight, fmt])
    common.add_argument("--vartheta", type=_parse_finite, default=None,
                        help="class exponent parameter (>= 0)")
    common.add_argument("--kappa", type=_parse_finite, default=None,
                        help="class weight parameter (>= 0)")

    parser = CliParser(prog="gtnbounds",
                       description="coefficient-bound verification toolkit")
    parser.add_argument("--config", default=None, help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gtn", parents=[fmt], help="generalized telephone number sequence")
    p.add_argument("--varkappa", type=_parse_rational, default=None,
                   help="weight, rational syntax allowed (e.g. 7/2)")
    p.add_argument("--max-n", type=int, default=10)
    p.set_defaults(handler=cmd_gtn)

    p = sub.add_parser("xseries", parents=[weight, fmt],
                       help="Taylor coefficients of exp(z + varkappa z^2/2)")
    p.add_argument("--order", type=int, default=10)
    p.set_defaults(handler=cmd_xseries)

    p = sub.add_parser("bound", parents=[common], help="printed |a2| / |a3| bound")
    p.add_argument("which", choices=("a2", "a3"))
    p.set_defaults(handler=cmd_bound)

    p = sub.add_parser("fs", parents=[common],
                       help="Fekete-Szego bound |a3 - mu a2^2|")
    p.add_argument("--mu", type=_parse_complex, default=complex(0.0))
    p.set_defaults(handler=cmd_fs)

    p = sub.add_parser("inverse-fs", parents=[common],
                       help="inverse-coefficient bound |d3 - hbar d2^2|")
    p.add_argument("--hbar", type=_parse_complex, default=complex(0.0))
    p.set_defaults(handler=cmd_inverse_fs)

    p = sub.add_parser("log-coeff", parents=[common],
                       help="logarithmic-coefficient bounds")
    p.set_defaults(handler=cmd_log_coeff)

    p = sub.add_parser("conv-fs", parents=[common],
                       help="convolution-class Fekete-Szego bound")
    p.add_argument("--dist", choices=("poisson", "borel", "pascal", "custom"),
                   default="custom")
    p.add_argument("--dist-param", type=_parse_finite, default=None)
    p.add_argument("--s", type=int, default=1, help="Pascal shape parameter")
    p.add_argument("--wp2", type=_parse_finite, default=1.0)
    p.add_argument("--wp3", type=_parse_finite, default=1.0)
    p.add_argument("--mu", type=_parse_complex, default=complex(0.0))
    p.set_defaults(handler=cmd_conv_fs)

    p = sub.add_parser("dist", parents=[fmt], help="distribution coefficients")
    p.add_argument("--kind", choices=("poisson", "borel", "pascal"), required=True)
    p.add_argument("--param", type=_parse_finite, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--max-n", type=int, default=10)
    p.set_defaults(handler=cmd_dist)

    p = sub.add_parser("member", parents=[common],
                       help="membership check from a coefficient file")
    p.add_argument("--f-coeffs", required=True,
                   help="file with coefficients from z^0 (text or JSON list)")
    p.set_defaults(handler=cmd_member)

    p = sub.add_parser("lemma", parents=[fmt],
                       help="coefficient-body bound vs. brute-force supremum")
    p.add_argument("--which", choices=("1", "3", "4"), required=True)
    p.add_argument("--v", type=_parse_complex, required=True)
    p.add_argument("--grid", type=int, default=None)
    p.set_defaults(handler=cmd_lemma)

    p = sub.add_parser("verify", parents=[weight], help="run a verification suite")
    p.add_argument("--suite", choices=("remarks", "lemmas", "full"), default="remarks")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--out", default=None, help="JSONL output path (appended)")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key, default in BUILTIN_DEFAULTS.items():  # flag, then config, then default
        if key in vars(args) and getattr(args, key) is None:
            setattr(args, key, cfg.get(key, default))
    try:
        # an overflow, invalid value or division by zero ends in a NaN the
        # scan refuses or a non-finite result a command refuses, each with
        # one error line, so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.command == "verify":  # it prints its own output
                return args.handler(args)
            emit_rows(args.handler(args), args.format)
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: the inputs overflow the computation: {exc}", file=sys.stderr)
        return 1
    except ZeroDivisionError as exc:  # a float product that underflows to 0
        print(f"error: the inputs underflow the computation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
