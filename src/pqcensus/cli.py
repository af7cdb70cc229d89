"""Command-line front end.

Four subcommands, all deterministic and machine-readable:

* ``genfunc p q``  - the census generating function and case tag
* ``census p q N`` - the first N+1 generation counts (``--types`` adds the
                     per-class breakdown)
* ``verify p q``   - build the disk, BFS-count it, and compare against the
                     generating-function series
* ``asym p q``     - growth classification, smallest denominator root,
                     rate and amplitude

``p`` is an integer or the string ``inf``.  Output formats: json (one
object), csv (header plus rows), plain (labelled lines).  Large integers
are serialized as decimal strings in JSON so nothing is rounded.

Exit codes: 0 success, 1 usage, 2 symbol out of scope (spherical, p or q
below 3, or p or q above 2048), 3 verification mismatch, 4 structure violation.
A usage error ends in a one-line message on stderr, after the usage text
when argparse finds it (unknown subcommand, unrecognized arguments, an
integer argument that is not one: ``n must be an integer, got 'x'``).  n or
``--depth`` below 0, n above 100000, ``--budget`` below 1 or above 10^7, an
empty or unwritable ``--dump-map`` path, integers past the interpreter's int
digit limit (given by length, not digits) and a census whose terms pass
150000000 bits in total (hyperbolic ones from n in the thousands, digit
limit lifted or not) need no usage text.  An
argument longer than 40 characters is echoed as its first 20 and its length,
and an argparse message longer than 200 as its first 100.  Errors
with codes 2 and 4 are emitted as records in the chosen format.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from functools import partial
from itertools import zip_longest
from typing import NoReturn, TextIO

from pqcensus.genfunc import (
    DEFAULT_VERTEX_BUDGET,
    INFINITY,
    MAX_DEGREE,
    MAX_VERTEX_BUDGET,
    BadDegree,
    CensusGF,
    Schlafli,
    SphericalOutOfScope,
    derive,
)
from pqcensus.polyarith import extend_recurrence, series_coeffs
from pqcensus.recurrence import rec_eval, rec_from_gf

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_OUT_OF_SCOPE = 2
EXIT_MISMATCH = 3
EXIT_VIOLATION = 4

DEFAULT_CENSUS_N = 20
# A census must end in a message, never out of memory.  Euclidean terms stay
# short, so only MAX_CENSUS_N bounds them; hyperbolic terms grow linearly in
# length, so MAX_CENSUS_BITS, their total size, bounds those first.  The
# largest censuses accepted, `census 4 5 14697 --types` with the digit limit
# lifted and `census 3 6 100000 --types`, peak at about 500 and 95 MB.
MAX_CENSUS_N = 100_000
MAX_CENSUS_BITS = 150_000_000


def _clip(text: str, keep: int = 20) -> str:
    """text, or if it is longer than 2 * keep its first keep characters and
    its length: an argument of any length is echoed in a short line."""
    return text if len(text) <= 2 * keep else f"{text[:keep]}... ({len(text)} characters)"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse quotes a bad choice or subcommand in full
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {_clip(message, 100)}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_int(name: str, lo: int | None, text: str, hi: int | None = None):
    """One integer argument from argv (p may also be 'inf').  A value below
    lo or above hi, or one past the interpreter's str-to-int digit limit, is
    a one-line usage error (the latter gives its length, not its digits); p
    and q (lo None) are bounded by Schlafli instead, in an error record."""
    if name == "p" and text.lower() == "inf":
        return INFINITY
    try:
        value = int(text)
    except ValueError:
        digits = text.strip().lstrip("+-")
        if digits.isdecimal():  # int() refuses a decimal string only past the limit
            bound = f"; {name} must be at most {MAX_DEGREE}" if lo is None else ""
            limit = sys.get_int_max_str_digits()
            _usage_error(f"{name} has {len(digits)} digits, past the interpreter's {limit}-digit limit{bound}")
        inf = " or 'inf'" if name == "p" else ""
        raise argparse.ArgumentTypeError(f"{name} must be an integer{inf}, got {_clip(text)!r}")
    if lo is not None and value < lo:
        _usage_error(f"{name} must be >= {lo}, got {_clip(str(value))}")
    if hi is not None and value > hi:
        _usage_error(f"{name} must be <= {hi}, got {_clip(str(value))}")
    return value


_parse_n = partial(_parse_int, "n", 0, hi=MAX_CENSUS_N)


def _usage_error(message: str) -> NoReturn:
    print(f"pqcensus: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pqcensus", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        degree = f"integer 3..{MAX_DEGREE}"
        sp.add_argument("p", type=partial(_parse_int, "p", None), help=f"face degree ({degree} or 'inf')")
        sp.add_argument("q", type=partial(_parse_int, "q", None), help=f"vertex degree ({degree})")
        sp.add_argument("--format", choices=("json", "csv", "plain"), default="json")

    sp = sub.add_parser("genfunc", help="derive the census generating function")
    common(sp)

    sp = sub.add_parser("census", help="evaluate generation counts")
    common(sp)
    sp.add_argument(
        "n", type=_parse_n, nargs="?", help=f"largest generation, at most {MAX_CENSUS_N} (default {DEFAULT_CENSUS_N})"
    )
    sp.add_argument("--types", action="store_true", help="also emit per-class counts")

    sp = sub.add_parser("verify", help="cross-check the series against an explicit map")
    common(sp)
    depth, budget = partial(_parse_int, "--depth", 0), partial(_parse_int, "--budget", 1, hi=MAX_VERTEX_BUDGET)
    sp.add_argument("--depth", type=depth, default=6, help="saturated depth to certify (default 6)")
    sp.add_argument(
        "--budget",
        type=budget,
        default=DEFAULT_VERTEX_BUDGET,
        help=f"vertex budget, at most {MAX_VERTEX_BUDGET} (default %(default)s)",
    )
    sp.add_argument("--dump-map", metavar="FILE", help="write the adjacency dump to FILE")

    sp = sub.add_parser("asym", help="growth rate and amplitude")
    common(sp)
    return parser


def _symbol_json(p, q) -> dict:
    return {"p": "inf" if p is INFINITY else p, "q": q}


def _ints(xs) -> list[str]:
    """xs as decimal strings.  The term of largest absolute value has the
    most digits, so converting it alone decides whether every term fits the
    interpreter's int-to-str limit, before any other term is converted."""
    try:
        str(max(xs, key=abs, default=0))
    except ValueError:  # str(int) raises only past sys.get_int_max_str_digits()
        _usage_error(
            f"a term has more than {sys.get_int_max_str_digits()} digits, the interpreter's "
            "int-to-str limit; set PYTHONINTMAXSTRDIGITS=0 to print it"
        )
    return [str(x) for x in xs]


def record_genfunc(cgf: CensusGF) -> dict:
    return {
        "symbol": _symbol_json(cgf.symbol.p, cgf.symbol.q),
        "case_tag": cgf.symbol.case,
        "gf": {"num": _ints(cgf.v.num.coeffs), "den": _ints(cgf.v.den.coeffs)},
    }


def _census_series(cgf: CensusGF, n: int) -> list[int]:
    """v(0..n), extended on one list in chunks that double in length.  The
    terms' total size grows as n**2, so the chunks stop early: at one that
    ends in a term too long to print, which ``_ints`` then refuses, and at
    one that takes the total past MAX_CENSUS_BITS, a usage error.  Either
    costs at most about four times the prefix before that chunk."""
    rec = rec_from_gf(cgf.v)
    limit = sys.get_int_max_str_digits()
    max_bits = limit * 10 // 3 + 1 if limit else float("inf")  # 10/3 > log2(10)
    out = rec_eval(rec, min(n, len(rec.initial_terms)))
    total = sum(map(int.bit_length, out))
    while total <= MAX_CENSUS_BITS and len(out) <= n and out[-1].bit_length() <= max_bits:
        start = len(out)
        extend_recurrence(out, rec.rec_coeffs, min(n, 2 * start))
        total += sum(map(int.bit_length, out[start:]))
    if total > MAX_CENSUS_BITS:
        _usage_error(f"the terms v(0..{n}) pass {MAX_CENSUS_BITS} bits in total, the bound on a census's size")
    return out


def record_census(cgf: CensusGF, n: int, types: bool) -> dict:
    rec = record_genfunc(cgf)
    rec["series"] = _ints(_census_series(cgf, n))
    if types:
        rec["types"] = {
            "a": _ints(series_coeffs(cgf.a, n)),
            "b": _ints(series_coeffs(cgf.b, n)),
            "c": _ints(series_coeffs(cgf.c, n)),
        }
    return rec


def record_asym(cgf: CensusGF) -> dict:
    from pqcensus import asymptotics  # only this subcommand runs the growth analysis

    info = asymptotics.growth(cgf.v, cgf.symbol)
    rec = record_genfunc(cgf)
    rec["growth"] = {
        "classification": info.classification,
        "z0": info.z0,
        "lambda": info.rate,
        "amplitude": info.amplitude,
        "palindromic_den": asymptotics.palindrome_check(cgf.v.den),
    }
    return rec


def _open_dump(path: str | None):
    """Open the --dump-map file before the build, so a path that cannot be
    written, the empty one included, is a usage error rather than a failure
    after the work."""
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        _usage_error(f"cannot write --dump-map file: {exc}")


def record_verify(cgf: CensusGF, depth: int, budget: int, dump: TextIO | None) -> tuple[dict, int]:
    """The verify record and exit code; a StructureViolation is an error
    record with EXIT_VIOLATION."""
    from pqcensus import oracle  # only this subcommand builds a map

    budget_limited = False
    try:
        m = oracle.build_map(cgf.symbol, depth, budget)
    except oracle.BudgetExceeded as exc:
        m = exc.partial_map
        budget_limited = True
    try:
        report = oracle.classify(m, oracle.bfs_census(m))
    except oracle.StructureViolation as exc:
        return {"error": "StructureViolation", "message": str(exc)}, EXIT_VIOLATION
    t = report.trusted_depth
    first_mismatch = None
    for kind in "vabc":
        expected, actual = series_coeffs(getattr(cgf, kind), t), getattr(report, kind)
        n = next((n for n in range(t + 1) if expected[n] != actual[n]), None)
        if n is not None:
            first_mismatch = {"series": kind, "n": n, "expected": str(expected[n]), "actual": str(actual[n])}
            break
    rec = record_genfunc(cgf)
    rec["oracle"] = {
        "trusted_depth": t,
        "requested_depth": depth,
        "budget_limited": budget_limited,
        "vertices": m.vertex_count,
        "match": first_mismatch is None,
        "first_mismatch": first_mismatch,
    }
    if dump is not None:
        dump.write(oracle.dump_map(m, report))
    return rec, EXIT_OK if first_mismatch is None else EXIT_MISMATCH


def _emit_json(rec: dict) -> str:
    return json.dumps(rec, indent=2) + "\n"


def _flatten_plain(rec: dict, prefix: str = "") -> list[str]:
    lines = []
    for key, val in rec.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            lines.extend(_flatten_plain(val, name + "."))
        elif isinstance(val, list):
            lines.append(f"{name} " + " ".join(str(x) for x in val))
        else:
            lines.append(f"{name} {val}")
    return lines


def _emit_plain(rec: dict) -> str:
    return "\n".join(_flatten_plain(rec)) + "\n"


def _emit_csv(rec: dict) -> str:
    # one table per record kind: series tables when present, otherwise a
    # single row of the scalar fields
    if "error" in rec:
        rows = [{"error": rec["error"], "message": rec["message"], **rec.get("symbol", {})}]
    elif "series" in rec:
        types = rec.get("types", {})
        rows = [{"n": n, "v": v, **{k: col[n] for k, col in types.items()}} for n, v in enumerate(rec["series"])]
    elif "growth" in rec:
        rows = [rec["growth"]]
    elif "oracle" in rec:
        # budget_limited is left out, and a mismatch reads like v[3] 41!=40
        o, mm = rec["oracle"], rec["oracle"]["first_mismatch"]
        row = {k: o[k] for k in ("trusted_depth", "requested_depth", "vertices", "match")}
        row["first_mismatch"] = "" if mm is None else f"{mm['series']}[{mm['n']}] {mm['actual']}!={mm['expected']}"
        rows = [row]
    else:
        pairs = zip_longest(rec["gf"]["num"], rec["gf"]["den"], fillvalue="")
        rows = [{"power": i, "num": n, "den": d} for i, (n, d) in enumerate(pairs)]
    # str() each value: csv writes None as an empty field, the other formats as None
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([rows[0].keys(), *(map(str, row.values()) for row in rows)])
    return buf.getvalue()


_EMITTERS = {"json": _emit_json, "plain": _emit_plain, "csv": _emit_csv}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.command == "census" and args.n is None:
        # argparse fills the optional positional n only before the first
        # option; a lone integer left over is an n given after the options
        args.n = DEFAULT_CENSUS_N
        if len(extra) == 1:
            with contextlib.suppress(argparse.ArgumentTypeError):
                args.n, extra = _parse_n(extra[0]), []
    if extra:
        parser.error(f"unrecognized arguments: {_clip(' '.join(extra))}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    emit = _EMITTERS[args.format]
    try:
        cgf = derive(Schlafli(args.p, args.q))
        if args.command == "genfunc":
            rec, code = record_genfunc(cgf), EXIT_OK
        elif args.command == "census":
            rec, code = record_census(cgf, args.n, args.types), EXIT_OK
        elif args.command == "asym":
            rec, code = record_asym(cgf), EXIT_OK
        else:
            with _open_dump(args.dump_map) as dump:
                rec, code = record_verify(cgf, args.depth, args.budget, dump)
    except (SphericalOutOfScope, BadDegree) as exc:
        err = {"error": type(exc).__name__, "message": str(exc), "symbol": _symbol_json(args.p, args.q)}
        sys.stdout.write(emit(err))
        return EXIT_OUT_OF_SCOPE
    sys.stdout.write(emit(rec))
    return code


if __name__ == "__main__":
    sys.exit(main())
