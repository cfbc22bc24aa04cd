"""Command-line entry point.

Subcommands: gtn, xseries, bound, fs, inverse-fs, log-coeff, conv-fs, dist,
member, lemma, presets, verify; each accepts only the flags its handler
reads.  Every handler but ``cmd_verify`` returns its rows, which :func:`main`
prints with :func:`emit_rows` in the ``--format`` json, csv or table (machine
formats print floats with 12 significant digits, tables with 6).  Each format
builds its whole text and writes it once; the JSON is byte for byte, errors
included, what ``json.dumps(verify.round12(...), indent=2)`` prints, without
json's pure-Python indent encoder, each float written from its 12-digit text
by ``verify._number``.  ``cmd_verify`` writes its reports, prints its
summary on stdout and a digest on stderr (the first report of each
discrepancy ID and the report with the tightest oracle gap) and returns the
exit code.

Flag values override an optional ``--config FILE`` (simple ``key=value``
lines), which overrides built-in defaults.  :func:`main` fills the unset keys
the subcommand defines from the config or the defaults, so handlers read
``args`` alone and a command ignores the keys it does not read.  Exit codes:
0 success, 1 usage error, 2 soundness violation in ``verify``.  Every layer
refuses bad input with a plain ``ValueError`` whose message names the check;
:func:`main` prints it after ``error:`` and exits 1.  A command whose stdout
is closed before it is done (``| head``) exits 1 and prints nothing more.

``main`` may be called many times in one process.  The parser is built on
the first call and reused by every later one, so each subparser's handler is
bound once: to change what a command does, patch what its handler calls
(``gtn_sequence``, ``verify.run_suite``, ...), not the handler itself.  A
request that starts with its subcommand is parsed by that subcommand's parser
alone, with the same namespace and errors as argparse's top-level scan.  Each
parser formats its usage text once per terminal width, so a process that
reports the same usage error twice wraps the text once.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import os
import shutil
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

# Largest ``gtn --max-n``, ``xseries --order``, ``dist --max-n`` and order of
# a ``member --f-coeffs`` file: the first three print one row per index, and
# the member's witness recurrence is quadratic in its order; nothing bounds
# the work otherwise.  The gtn sequence is exact rational arithmetic whose
# values grow like sqrt(n!): at varkappa = 1 index 1000 has 1,297 digits, and
# index 3000 passes Python's 4300-digit limit on printing an int.
MAX_INDEX = 1000


class CliParser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors."""

    commands: dict = {}  # name -> parser of each subcommand; empty on a subparser

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._usage: dict[int, str] = {}  # terminal width -> usage text

    def parse_known_args(self, args=None, namespace=None):
        """Parse as argparse does.  A request that starts with its subcommand
        skips the top-level scan, which would hand every later argument to
        that subcommand's parser unchanged; one with a ``--=`` argument does
        not, since the scan refuses it as ambiguous."""
        sub = self.commands.get(args[0]) if args and namespace is None else None
        if sub is None or any(a.startswith("--=") for a in args):
            return super().parse_known_args(args, namespace)
        values, extras = sub.parse_known_args(args[1:])
        return argparse.Namespace(config=None, command=args[0], **vars(values)), extras

    def format_usage(self):
        """argparse's usage text, formatted once per terminal width: the
        width is the one input argparse's ``HelpFormatter`` reads, and a
        parser does not change once :func:`build_parser` has built it."""
        columns = shutil.get_terminal_size().columns
        usage = self._usage.get(columns)
        if usage is None:
            usage = self._usage[columns] = super().format_usage()
        return usage

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
    value, or a ``ValueError`` names the file, the line and the key; a file
    that cannot be read is a ``ValueError`` too.
    """
    if not path:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ValueError(f"{where}: expected key = value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
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


def _json_value(v, pad: str) -> str:
    """``v`` as ``json.dumps(verify.round12(v), indent=2)`` prints it as a
    member of an object whose members are indented by ``pad``."""
    if isinstance(v, str):
        return verify._string(v)
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)  # refuses an int past the 4300-digit limit
    if isinstance(v, float):
        return verify._number(v)
    if isinstance(v, complex):  # round12 prints it as [re, im]
        return f"[\n{pad}  {verify._number(v.real)},\n{pad}  {verify._number(v.imag)}\n{pad}]"
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _json_object(row: dict, pad: str) -> str:
    if not row:
        return "{}"
    inner = pad + "  "
    return "{\n" + ",\n".join(
        f"{inner}{verify._string(k)}: {_json_value(v, inner)}" for k, v in row.items()
    ) + f"\n{pad}}}"


def _json_rows(rows: list[dict]) -> str:
    """``json.dumps(verify.round12(payload), indent=2, allow_nan=False)`` of
    the one row, or else of the list of rows, with its errors: a float not
    finite once rounded and an int past Python's digit limit are a
    ``ValueError``, a value not str, int, bool, float or complex a
    ``TypeError``.  Floats and strings follow the report lines' rules."""
    if len(rows) == 1:
        return _json_object(rows[0], "")
    if not rows:
        return "[]"
    return "[\n  " + ",\n  ".join(_json_object(row, "  ") for row in rows) + "\n]"


def emit_rows(rows: list[dict], fmt: str) -> None:
    """Print a list of records as json, csv, or an aligned table.  The whole
    text is built before it is written in one write, so a value that does
    not format writes nothing."""
    if fmt == "json":
        sys.stdout.write(_json_rows(rows) + "\n")
        return
    header = list(rows[0].keys())
    cells = [[_cell(row[h], 12 if fmt == "csv" else 6) for h in header] for row in rows]
    if fmt == "csv":
        text = io.StringIO()
        csv.writer(text).writerows([header, *cells])
        sys.stdout.write(text.getvalue())
        return
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(header)]
    sys.stdout.write("".join(
        "  ".join(c.ljust(w) for c, w in zip(line, widths)) + "\n" for line in [header, *cells]
    ))


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
        # every format prints each value as str() does, and fails where it
        # does; the row keeps an integral value's numerator, an int
        texts = [str(v) for v in values]
    except ValueError as exc:  # the only one: an int too long to print
        raise ValueError(
            f"a value has more than {sys.get_int_max_str_digits()} digits; "
            "lower --max-n or --varkappa"
        ) from exc
    return [
        {"n": n, "value": v.numerator if v.denominator == 1 else text}
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
    value = bounds.fs_complex(p, mu)
    return [{
        "mu": mu,
        "value": value,
        "alternate_prefactor_value": value * p.L * bounds.fs_complex_alternate(p),
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


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _read_coeffs(path: str) -> TruncatedSeries:
    text = Path(path).read_text().strip()
    if text.startswith("["):
        data = json.loads(text)
        if not all(_is_real(c) or isinstance(c, list) and len(c) == 2 and all(map(_is_real, c))
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
    _check_index("order", len(coeffs) - 1)
    if not all(map(cmath.isfinite, coeffs)):
        raise ValueError("every coefficient must be finite")
    return TruncatedSeries(coeffs)


def cmd_member(args) -> list[dict]:
    p = _params(args)
    try:  # every refusal of the file, or of the function it holds, names it
        witness, sup_norm = membership_witness(_read_coeffs(args.f_coeffs), p)
    except (ValueError, OverflowError) as exc:  # or a JSON int past float range
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
    if args.which == "1" and v.imag:
        print(f"warning: lemma 1 takes a real v; scanning v = {v.real!r}", file=sys.stderr)
    fn = verify.Functional(f"lemma{args.which}", v=complex(v.real) if args.which == "1" else v)
    r = verify.run_experiment(fn, ClassParams(0.0, 0.0, 1.0), GridSpec.uniform(int(args.grid)),
                              "caratheodory")
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


def cmd_presets(args) -> list[dict]:
    """Per preset: the printed |a2|, |a3| bounds, the subclass and oracle |a3|."""
    vk = float(args.varkappa)
    rows = []
    for preset in verify.PRESETS:
        p = preset.params(vk)
        rows.append({"preset": preset.preset_id, "vartheta": p.vartheta, "kappa": p.kappa,
                     "varkappa": vk, "a2": bounds.a2_bound(p), "a3_stated": bounds.a3_bound(p),
                     "a3_subclass": preset.subclass_a3(vk),
                     "a3_oracle": verify.oracle(verify._relation(p.vartheta, p.kappa),
                                                vk, 0.0)})
    return rows


def cmd_verify(args) -> int:
    reports, summary = verify.run_suite(args.suite, varkappa=float(args.varkappa),
                                        grid=GridSpec.uniform(int(args.grid)))
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
    parser.commands = sub.choices

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

    p = sub.add_parser("presets", parents=[weight, fmt],
                       help="printed vs. oracle |a2|, |a3| bounds at each preset")
    p.set_defaults(handler=cmd_presets)

    p = sub.add_parser("verify", parents=[weight], help="run a verification suite")
    p.add_argument("--suite", choices=("remarks", "lemmas", "full"), default="remarks")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--out", default=None, help="JSONL output path (appended)")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        cfg = load_config(args.config)
        for key, default in BUILTIN_DEFAULTS.items():  # flag, then config, then default
            if key in vars(args) and getattr(args, key) is None:
                setattr(args, key, cfg.get(key, default))
        # an overflow, invalid value or division by zero ends in a NaN the
        # scan refuses or a non-finite result a command refuses, each with
        # one error line, so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.command == "verify":  # it prints its own output
                code = args.handler(args)
            else:
                emit_rows(args.handler(args), args.format)
                code = 0
            sys.stdout.flush()
            return code
    except BrokenPipeError:
        # the reader has gone (``| head``): point stdout at /dev/null, so that
        # the flush of what is still buffered at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
