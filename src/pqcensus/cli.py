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

Exit codes: 0 success, 1 usage (with a one-line message on stderr), 2 symbol
out of scope, 3 verification mismatch, 4 structure violation.  Errors with
codes 2 and 4 are emitted as records in the chosen format.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import NoReturn

from pqcensus import asymptotics, oracle
from pqcensus.genfunc import (
    INFINITY,
    BadDegree,
    BadShape,
    CensusGF,
    Schlafli,
    SphericalOutOfScope,
    derive,
)
from pqcensus.oracle import BadSymbol, BudgetExceeded, StructureViolation
from pqcensus.polyarith import series_coeffs
from pqcensus.recurrence import rec_eval, rec_from_gf

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_OUT_OF_SCOPE = 2
EXIT_MISMATCH = 3
EXIT_VIOLATION = 4

BUDGET_ENV_VAR = "PQCENSUS_BUDGET"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_p(text: str):
    if text.lower() == "inf":
        return INFINITY
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"p must be an integer or 'inf', got {text!r}")


def _usage_error(message: str) -> NoReturn:
    print(f"pqcensus: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if not raw:
        return oracle.DEFAULT_VERTEX_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        _usage_error(f"${BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return budget


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pqcensus", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("p", type=_parse_p, help="face degree (integer >= 3 or 'inf')")
        sp.add_argument("q", type=int, help="vertex degree (integer >= 3)")
        sp.add_argument("--format", choices=("json", "csv", "plain"), default="json")

    sp = sub.add_parser("genfunc", help="derive the census generating function")
    common(sp)

    sp = sub.add_parser("census", help="evaluate generation counts")
    common(sp)
    sp.add_argument("n", type=int, nargs="?", default=20, help="largest generation (default 20)")
    sp.add_argument("--types", action="store_true", help="also emit per-class counts")

    sp = sub.add_parser("verify", help="cross-check the series against an explicit map")
    common(sp)
    sp.add_argument("--depth", type=int, default=6, help="saturated depth to certify (default 6)")
    sp.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"vertex budget (default {oracle.DEFAULT_VERTEX_BUDGET}, or ${BUDGET_ENV_VAR})",
    )
    sp.add_argument("--dump-map", metavar="FILE", help="write the adjacency dump to FILE")

    sp = sub.add_parser("asym", help="growth rate and amplitude")
    common(sp)
    return parser


def _symbol_json(s: Schlafli) -> dict:
    return {"p": "inf" if s.is_tree else s.p, "q": s.q}


def _ints(xs) -> list[str]:
    try:
        return [str(x) for x in xs]
    except ValueError:  # str(int) raises only past sys.get_int_max_str_digits()
        _usage_error(
            f"a term has more than {sys.get_int_max_str_digits()} digits, the interpreter's "
            "int-to-str limit; set PYTHONINTMAXSTRDIGITS=0 to print it"
        )


def record_genfunc(cgf: CensusGF) -> dict:
    return {
        "symbol": _symbol_json(cgf.symbol),
        "case_tag": cgf.case_tag,
        "gf": {"num": _ints(cgf.v.num.coeffs), "den": _ints(cgf.v.den.coeffs)},
    }


def record_census(cgf: CensusGF, n: int, types: bool) -> dict:
    rec = record_genfunc(cgf)
    rec["series"] = _ints(rec_eval(rec_from_gf(cgf.v), n))
    if types:
        rec["types"] = {
            "a": _ints(series_coeffs(cgf.a, n)),
            "b": _ints(series_coeffs(cgf.b, n)),
            "c": _ints(series_coeffs(cgf.c, n)),
        }
    return rec


def record_asym(cgf: CensusGF) -> dict:
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


def record_verify(cgf: CensusGF, depth: int, budget: int, dump_path: str | None) -> tuple[dict, int]:
    budget_limited = False
    try:
        m = oracle.build_map(cgf.symbol, depth, budget)
    except BudgetExceeded as exc:
        m = exc.partial_map
        budget_limited = True
    report = oracle.classify(m, oracle.bfs_census(m))
    t = report.trusted_depth
    expected = {
        "v": series_coeffs(cgf.v, t),
        "a": series_coeffs(cgf.a, t),
        "b": series_coeffs(cgf.b, t),
        "c": series_coeffs(cgf.c, t),
    }
    actual = {"v": list(report.v), "a": list(report.a), "b": list(report.b), "c": list(report.c)}
    first_mismatch = None
    for kind in ("v", "a", "b", "c"):
        for n in range(t + 1):
            if expected[kind][n] != actual[kind][n]:
                first_mismatch = {
                    "series": kind,
                    "n": n,
                    "expected": str(expected[kind][n]),
                    "actual": str(actual[kind][n]),
                }
                break
        if first_mismatch:
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
    if dump_path:
        with open(dump_path, "w", encoding="utf-8") as fh:
            fh.write(oracle.dump_map(m, report))
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
    lines = []
    if "error" in rec:
        # one row; the message may hold commas, so the row is quoted
        row = {"error": rec["error"], "message": rec["message"], **rec.get("symbol", {})}
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([row.keys(), row.values()])
        return buf.getvalue()
    if "series" in rec:
        types = rec.get("types")
        header = "n,v" + (",a,b,c" if types else "")
        lines.append(header)
        for n, v in enumerate(rec["series"]):
            row = f"{n},{v}"
            if types:
                row += f",{types['a'][n]},{types['b'][n]},{types['c'][n]}"
            lines.append(row)
    elif "growth" in rec:
        g = rec["growth"]
        lines.append("classification,z0,lambda,amplitude,palindromic_den")
        lines.append(
            f"{g['classification']},{g['z0']},{g['lambda']},{g['amplitude']},{g['palindromic_den']}"
        )
    elif "oracle" in rec:
        o = rec["oracle"]
        lines.append("trusted_depth,requested_depth,vertices,match,first_mismatch")
        mm = o["first_mismatch"]
        mm_text = "" if mm is None else f"{mm['series']}[{mm['n']}] {mm['actual']}!={mm['expected']}"
        lines.append(
            f"{o['trusted_depth']},{o['requested_depth']},{o['vertices']},{o['match']},{mm_text}"
        )
    else:
        num, den = rec["gf"]["num"], rec["gf"]["den"]
        lines.append("power,num,den")
        for i in range(max(len(num), len(den))):
            n = num[i] if i < len(num) else ""
            d = den[i] if i < len(den) else ""
            lines.append(f"{i},{n},{d}")
    return "\n".join(lines) + "\n"


_EMITTERS = {"json": _emit_json, "plain": _emit_plain, "csv": _emit_csv}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    emit = _EMITTERS[args.format]
    if args.command == "census" and args.n < 0:
        _usage_error(f"n must be >= 0, got {args.n}")
    if args.command == "verify":
        if args.depth < 0:
            _usage_error(f"--depth must be >= 0, got {args.depth}")
        if args.budget is not None and args.budget < 1:
            _usage_error(f"--budget must be a positive integer, got {args.budget}")
        budget = args.budget if args.budget is not None else _default_budget()
    try:
        cgf = derive(Schlafli(args.p, args.q))
        if args.command == "genfunc":
            rec, code = record_genfunc(cgf), EXIT_OK
        elif args.command == "census":
            rec, code = record_census(cgf, args.n, args.types), EXIT_OK
        elif args.command == "asym":
            rec, code = record_asym(cgf), EXIT_OK
        else:
            rec, code = record_verify(cgf, args.depth, budget, args.dump_map)
    except (SphericalOutOfScope, BadDegree, BadShape, BadSymbol) as exc:
        err = {
            "error": type(exc).__name__,
            "message": str(exc),
            "symbol": {"p": "inf" if args.p is INFINITY else args.p, "q": args.q},
        }
        sys.stdout.write(emit(err))
        return EXIT_OUT_OF_SCOPE
    except StructureViolation as exc:
        err = {"error": "StructureViolation", "message": str(exc)}
        sys.stdout.write(emit(err))
        return EXIT_VIOLATION
    sys.stdout.write(emit(rec))
    return code


if __name__ == "__main__":
    sys.exit(main())
