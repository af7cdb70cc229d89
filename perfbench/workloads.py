"""The three pqcensus benchmark workloads: inputs from a seed, ops, checks.

A workload turns ``--seed`` into a fixed list of ops.  ``run(op, layers)``
executes one op through a `layers.Layers` table, checks its output and
returns ``(outcome, generations)``: the outcome is OK, ERROR (the op raised
or exited with an unexpected code) or WRONG (it answered, but wrongly), and
``generations`` is what the op adds to the ``certified_depth`` metric.

The seed only permutes the ops and draws members of fixed pools whose
members cost about the same, so every seed does about the same work.  See
NOTES.md for why each workload is built the way it is.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from pqcensus.genfunc import INFINITY, Schlafli

OK, ERROR, WRONG = "ok", "error", "wrong"
REFS_PATH = Path(__file__).resolve().parent / "refs.json"


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def symbol_key(p, q) -> str:
    return f"{'inf' if p is INFINITY else p},{q}"


def admissible_grid(ps, qs) -> list[tuple]:
    return [(p, q) for p in ps for q in qs if Schlafli(p, q).admissible()]


@contextmanager
def unlimited_int_digits():
    """Lift the int/str conversion limit for the benchmark's own parsing."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class Workload:
    """Defaults for the in-process workloads."""

    ops: list

    def describe(self, op) -> str:
        return str(op)

    def prepare(self, layers) -> None:
        """Compute references that are neither inputs nor timed."""

    def peak_rss_kib(self) -> int:
        """The worker's own peak RSS (KiB on Linux), read once the passes are done."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# oracle-grid


class OracleGrid(Workload):
    """derive -> build_map -> bfs_census -> classify for all 31 admissible
    {p,q} with p, q <= 8, compared exactly against the series."""

    def __init__(self, seed: int, quick: bool):
        syms = [(4, 5), (6, 3), (3, 7)] if quick else admissible_grid(range(3, 9), range(3, 9))
        self.depth = 3 if quick else 5
        # the largest map goes first, on a fresh heap, so peak RSS measures
        # that map and not the fragmentation a seeded order leaves behind
        first, rest = syms[-1], syms[:-1]
        random.Random(seed).shuffle(rest)
        self.ops = [Schlafli(p, q) for p, q in [first] + rest]

    def run(self, s, layers):
        cgf = layers.derive(s)
        m = layers.build_map(s, self.depth, None)
        report = layers.classify(m, layers.bfs_census(m))
        del m
        layers.release()
        t = report.trusted_depth
        expected = tuple(tuple(layers.series_coeffs(getattr(cgf, k), t)) for k in "vabc")
        with layers.check():
            ok = t >= self.depth and expected == (report.v, report.a, report.b, report.c)
        return (OK, t) if ok else (WRONG, 0)


# ---------------------------------------------------------------------------
# algebra-sweep

# Large-p tail: {31,3} always, then one symbol drawn from each bin; members
# of a bin cost about the same in growth(), so the seed moves the pass time
# little.  The ten ops above {31,3} (these three and the seven censuses) all
# cost more than it and every grid op costs less, so op_tail_ms, which has
# ten ops beyond it, always reads the same op instead of whichever bin
# member the seed drew.
TAIL_FIXED = (31, 3)
TAIL_BINS = [
    [(98, 4), (100, 4), (102, 4), (104, 4)],
    [(97, 3), (99, 3), (101, 3), (103, 3)],
    [(244, 4), (246, 4), (248, 4), (250, 4)],
]

# Long censuses at n = CENSUS_N: the anchor, whose terms are the largest,
# runs first (so peak RSS measures it, not the seeded order); then one
# distinct symbol per slot from its bin.  Bins group symbols of similar
# rec_eval + series cost, all with smaller terms than the anchor's.
CENSUS_N = 20000
CENSUS_ANCHOR = (5, 8)
CENSUS_BINS = {
    "light": [(3, 9), (4, 7), (3, 8), (6, 5)],
    "medium": [(8, 4), (12, 4), (5, 6), (7, 4)],
    "heavy": [(9, 3), (5, 5), (7, 5), (5, 7)],
}
CENSUS_SLOTS = ["light", "light", "medium", "medium", "heavy", "heavy"]

GRID_PS = list(range(3, 13)) + [INFINITY]
GRID_QS = range(3, 13)
Z0_WIDTH = Fraction(1, 10**12)


def algebra_symbols() -> list[tuple]:
    """Every symbol whose growth is referenced: the grid and the tail pool."""
    return admissible_grid(GRID_PS, GRID_QS) + [TAIL_FIXED] + [s for b in TAIL_BINS for s in b]


class AlgebraSweep(Workload):
    """derive + growth over the 105-symbol grid and a large-p tail, plus
    long censuses evaluated by recurrence and by series division."""

    def __init__(self, seed: int, quick: bool):
        rng = random.Random(seed)
        if quick:
            growth_syms = [(4, 5), (INFINITY, 3), (4, 4), (7, 3)]
            anchor, n = (7, 3), 60
            censuses = [(4, 5)]
        else:
            growth_syms = admissible_grid(GRID_PS, GRID_QS) + [TAIL_FIXED]
            growth_syms += [rng.choice(b) for b in TAIL_BINS]
            anchor, n = CENSUS_ANCHOR, CENSUS_N
            pools = {k: rng.sample(v, CENSUS_SLOTS.count(k)) for k, v in CENSUS_BINS.items()}
            censuses = [pools[k].pop() for k in CENSUS_SLOTS]
        ops = [("growth", Schlafli(p, q)) for p, q in growth_syms]
        ops += [("census", Schlafli(p, q), n) for p, q in censuses]
        rng.shuffle(ops)
        self.ops = [("census", Schlafli(*anchor), n)] + ops
        self.z0_refs = load_refs()["z0"]

    def describe(self, op) -> str:
        s = op[1]
        return f"{op[0]} {symbol_key(s.p, s.q)}" + (f" n={op[2]}" if op[0] == "census" else "")

    def run(self, op, layers):
        s = op[1]
        cgf = layers.derive(s)
        if op[0] == "growth":
            info = layers.growth(cgf.v, s)
            with layers.check():
                ok = self._growth_ok(s, info)
            return (OK if ok else WRONG), 0
        n = op[2]
        terms = layers.rec_eval(layers.rec_from_gf(cgf.v), n)
        series = [layers.series_coeffs(getattr(cgf, k), n) for k in "vabc"]
        with layers.check():
            ok = terms == series[0]
            del terms, series
        return (OK, n) if ok else (WRONG, 0)

    def _growth_ok(self, s, info) -> bool:
        ref = self.z0_refs[symbol_key(s.p, s.q)]
        if info.classification != ref["class"]:
            return False
        if ref["z0"] is None:
            return info.z0_interval is None
        lo, hi = info.z0_interval
        return lo <= Fraction(ref["z0"]) <= hi and hi - lo <= Z0_WIDTH


# ---------------------------------------------------------------------------
# cli-mix

DUMP = "{dump}"  # stands for the dump file in a command's reference key
LONG_CENSUS = "census 4 5 12000"
FORMATS = ("json", "csv", "plain")

GENFUNC = ["genfunc 4 5", "genfunc 3 7", "genfunc 7 3", "genfunc inf 4", "genfunc 5 6",
           "genfunc 8 8", "genfunc 12 3", "genfunc 4 4", "genfunc 6 3", "genfunc 3 12"]
CENSUS = ["census 3 7 10", "census 4 5 30 --types", "census 7 3 50", "census inf 3 20 --types",
          "census 5 5 100", "census 8 8 40 --types", "census 6 4 200", "census 4 4 25 --types",
          "census 12 12 60"]
ASYM = ["asym 4 5", "asym 12 12", "asym inf 5", "asym 4 4", "asym 7 3", "asym 5 5",
        "asym 3 8", "asym 9 9", "asym 6 3", "asym 3 7"]
VERIFY = ["verify 4 5 --depth 5", "verify 5 4 --depth 4", "verify inf 3 --depth 8",
          "verify 3 7 --depth 6", "verify 4 4 --depth 6", "verify 6 3 --depth 6",
          "verify 7 3 --depth 7", "verify 5 5 --depth 4"]
# budget-limited at the default budget: these set certified_depth
BUDGET_LIMITED = ["verify 5 8 --depth 5", "verify 7 7 --depth 5", "verify 8 8 --depth 5"]
DUMP_VERIFY = f"verify 4 5 --depth 6 --dump-map {DUMP}"
# spherical symbols: the README promises exit 2 with an error record
OUT_OF_SCOPE = ["genfunc 3 5", "asym 5 3", "census 3 3 5", "verify 4 3"]

# Each slot is one command per pass; the seed draws one alternative per slot
# (alternatives of a slot cost about the same) and deals the formats out.
CLI_SLOTS = ([GENFUNC] * 6 + [CENSUS] * 6 + [ASYM] * 5 + [VERIFY] * 5
             + [[c] for c in BUDGET_LIMITED] + [[DUMP_VERIFY]])


def cli_key(command: str, fmt: str) -> str:
    return f"{command} --format {fmt}"


def cli_variants() -> list[str]:
    """Every command a seed can draw, as reference keys."""
    keys = {cli_key(c, f) for slot in CLI_SLOTS + [OUT_OF_SCOPE] for c in slot for f in FORMATS}
    return sorted(keys)


def trusted_depth(stdout: bytes, fmt: str) -> int:
    text = stdout.decode()
    if fmt == "json":
        return json.loads(text)["oracle"]["trusted_depth"]
    if fmt == "csv":
        return int(text.splitlines()[1].split(",")[0])
    for line in text.splitlines():
        if line.startswith("oracle.trusted_depth "):
            return int(line.split()[1])
    raise ValueError("no trusted_depth in plain output")


class CliMix(Workload):
    """30 ``python -m pqcensus.cli`` runs per pass, one at a time."""

    def __init__(self, seed: int, quick: bool, tmp_dir: str):
        rng = random.Random(seed)
        if quick:
            ops = [(GENFUNC[0], "json"), (CENSUS[1], "plain"), (ASYM[0], "csv"),
                   (VERIFY[0], "csv"), (DUMP_VERIFY, "plain"), (OUT_OF_SCOPE[0], "json")]
        else:
            formats = [FORMATS[i % 3] for i in range(len(CLI_SLOTS))]
            rng.shuffle(formats)
            ops = [(rng.choice(slot), fmt) for slot, fmt in zip(CLI_SLOTS, formats)]
            ops += [(rng.choice(OUT_OF_SCOPE), fmt) for fmt in FORMATS]
            ops.append((LONG_CENSUS, "json"))
        rng.shuffle(ops)
        self.ops = ops
        self.refs = load_refs()["cli"]
        self.dump_path = str(Path(tmp_dir) / "map.txt")
        self.long_census_last = None
        self.peak_child_kib = 0

    def describe(self, op) -> str:
        return cli_key(*op)

    def prepare(self, layers) -> None:
        # the long census has no recorded digest; its reference is computed
        # here with the benchmark's own rec_eval
        if any(cmd == LONG_CENSUS for cmd, _ in self.ops):
            p, q, n = (int(x) for x in LONG_CENSUS.split()[1:])
            cgf = layers.derive(Schlafli(p, q))
            self.long_census_last = layers.rec_eval(layers.rec_from_gf(cgf.v), n)[-1]

    def argv(self, op) -> list[str]:
        command, fmt = op
        return [self.dump_path if a == DUMP else a for a in command.split()] + ["--format", fmt]

    def run(self, op, layers):
        argv = self.argv(op)
        code, stdout, child_kib = layers.cli_process(argv)
        self.peak_child_kib = max(self.peak_child_kib, child_kib)
        with layers.check():
            outcome = self._check(op, code, stdout)
        if layers.traced:
            code, in_proc = layers.cli_main(argv)
            with layers.check():
                second = self._check(op, code, in_proc)
            if outcome == OK:
                outcome = second
        if outcome == OK and op[0] in BUDGET_LIMITED:
            return outcome, trusted_depth(stdout, op[1])
        return outcome, 0

    def _check(self, op, code: int, stdout: bytes) -> str:
        command, fmt = op
        if command == LONG_CENSUS:
            if code != 0:
                return ERROR
            with unlimited_int_digits():
                last = int(json.loads(stdout)["series"][-1])
            return OK if last == self.long_census_last else WRONG
        ref = self.refs[cli_key(command, fmt)]
        if code != ref["exit"]:
            return ERROR
        if ref["stdout_sha256"] is None:
            # no correct output was ever recorded; require the error record
            if ref["stdout_contains"].encode() not in stdout:
                return WRONG
        elif hashlib.sha256(stdout).hexdigest() != ref["stdout_sha256"]:
            return WRONG
        if DUMP in command:
            with open(self.dump_path, "rb") as fh:
                if hashlib.sha256(fh.read()).hexdigest() != ref["dump_sha256"]:
                    return WRONG
        return OK

    def peak_rss_kib(self) -> int:
        return self.peak_child_kib


def make(name: str, seed: int, quick: bool, tmp_dir: str):
    if name == "oracle-grid":
        return OracleGrid(seed, quick)
    if name == "algebra-sweep":
        return AlgebraSweep(seed, quick)
    if name == "cli-mix":
        return CliMix(seed, quick, tmp_dir)
    raise ValueError(f"unknown workload {name!r}")

