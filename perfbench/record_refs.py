"""Record the reference outputs the benchmark checks against into refs.json.

    PYTHONPATH=src python3 perfbench/record_refs.py

Run it from the repository root at the commit whose behaviour is the
reference; the committed refs.json was recorded at the commit that added
the benchmark.  It stores

* ``z0``: for every symbol algebra-sweep can draw, the growth class and the
  smallest denominator root bisected to 1e-40 from the program's own
  certified interval, as an exact fraction (checks ask only that a
  reported interval of width <= 1e-12 contains it);
* ``cli``: for every command cli-mix can draw, its exit code and the
  SHA-256 of its stdout (and of the map dump for ``--dump-map``).  An
  out-of-scope command that does not exit 2 as the README documents is
  stored with its documented outcome and the observed failure, not with a
  digest of the failure.

The long census ``census 4 5 12000`` has no entry: its reference is the
benchmark's own ``rec_eval`` value, computed at run time.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from pqcensus import Schlafli, derive, growth

import workloads

REF_WIDTH = Fraction(1, 10**40)


def refine(den, lo: Fraction, hi: Fraction) -> Fraction:
    """Bisect den's sign change on [lo, hi] down to REF_WIDTH."""
    if lo == hi:
        return lo
    sign_lo = den(lo) > 0
    while hi - lo > REF_WIDTH:
        mid = (lo + hi) / 2
        val = den(mid)
        if val == 0:
            return mid
        if (val > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def z0_refs() -> dict:
    out = {}
    for p, q in workloads.algebra_symbols():
        s = Schlafli(p, q)
        cgf = derive(s)
        info = growth(cgf.v, s)
        z0 = None
        if info.z0_interval is not None:
            z0 = str(refine(cgf.v.den, *info.z0_interval))
        out[workloads.symbol_key(p, q)] = {"class": info.classification, "z0": z0}
    return out


def cli_refs(tmp_dir: str) -> dict:
    env = dict(os.environ)
    env.pop("PQCENSUS_BUDGET", None)
    dump = os.path.join(tmp_dir, "map.txt")
    out = {}
    for key in workloads.cli_variants():
        argv = [dump if a == workloads.DUMP else a for a in key.split()]
        proc = subprocess.run([sys.executable, "-m", "pqcensus.cli", *argv],
                              capture_output=True, env=env, check=False)
        entry = {"exit": proc.returncode,
                 "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}
        if key.rsplit(" --format", 1)[0] in workloads.OUT_OF_SCOPE and proc.returncode != 2:
            # keep the documented outcome (exit 2 and an error record naming
            # the error), not the observed failure
            last = (proc.stderr.decode().strip().splitlines() or [""])[-1]
            entry = {"exit": 2, "stdout_sha256": None, "stdout_contains": "SphericalOutOfScope",
                     "observed": f"exit {proc.returncode}: {last}"}
        if workloads.DUMP in key:
            with open(dump, "rb") as fh:
                entry["dump_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        out[key] = entry
        print(f"{proc.returncode} {key}", file=sys.stderr)
    return out


def main() -> None:
    out_dir = Path(__file__).resolve().parent.parent / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp_dir:
        refs = {"z0": z0_refs(), "cli": cli_refs(tmp_dir)}
    with open(workloads.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
