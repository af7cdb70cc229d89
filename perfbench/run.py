"""pqcensus benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload oracle-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --quick

Run from the repository root; the program under test is ``src/pqcensus``.
Workloads: oracle-grid, algebra-sweep, cli-mix (see NOTES.md).

Each run starts a fresh worker process (worker.py) and, before it, nine
set-up-only workers, so ``setup_s`` is the median of several spawn-to-ready
times.  The worker runs the workload single-threaded, pass after pass,
until at least ``--seconds`` have gone and at least two passes are done,
and reports raw numbers; this script turns them into the
metrics named in BENCHMARK.json.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced pass and reports
per-layer self times and counters.  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--quick`` runs every workload at a tiny size, traced and untraced, and
checks only that the result has the schema BENCHMARK.json asks for.

Exit status 0 when the run completed (failed ops are reported, not fatal);
2 when the program or the benchmark description is missing; 1 on any other
error, with nothing printed as a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("oracle-grid", "algebra-sweep", "cli-mix")
SETUP_PROBES = 9  # set-up-only workers per run, besides the measured one
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many ops beyond it
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PQCENSUS_BUDGET", None)
    return env


def worker_cmd(args, setup_only: bool = False) -> list[str]:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    return cmd


def spawn(cmd: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return its spawn-to-READY time and everything after READY."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    try:
        if proc.stdout.readline().strip() != "READY":
            raise BenchError("worker failed during set-up")
        ready = perf_counter() - start
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
        if proc.returncode != 0:
            raise BenchError(f"worker exited with status {proc.returncode}")
        return ready, out
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def measure(args, probes: int) -> tuple[list[float], dict]:
    deadline = perf_counter() + DEADLINE_S
    setups = [spawn(worker_cmd(args, setup_only=True), deadline)[0] for _ in range(probes)]
    ready, out = spawn(worker_cmd(args), deadline)
    setups.append(ready)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return setups, json.loads(lines[-1])


# -- metrics -----------------------------------------------------------------


def end_to_end(raw: dict, setups: list[float]) -> tuple[dict, list[str]]:
    passes = raw["passes"]
    per_pass = len(passes[0]["ops"])
    # each op's latency is its median over the passes, so one op caught by a
    # burst of interference on a shared host does not move the order statistics
    per_op = [statistics.median(p["ops"][i] for p in passes) for i in range(per_pass)]
    lat = sorted(per_op)
    rank = max(per_pass - TAIL_BEYOND, 1)
    attempted, failed = counts(passes)
    values = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_tail_ms": lat[rank - 1] * 1000,
        "peak_rss_mb": raw["peak_rss_kib"] / 1024,
        "setup_s": statistics.median(setups),
        "ok_ops": 1 - failed / attempted,
        "certified_depth": statistics.median_low(p["certified"] for p in passes),
    }
    per_op_note = f"each op's median over {len(passes)} passes"
    notes = {
        "wall_s": f"median of {len(passes)} passes",
        "op_p50_ms": f"median of {per_pass} ops; {per_op_note}",
        "op_tail_ms": f"p{100 * rank / per_pass:.1f}: {per_pass - rank} of {per_pass} ops beyond it;"
                      f" {per_op_note}",
        "peak_rss_mb": "ru_maxrss / 1024 over the first pass",
        "setup_s": f"median of {len(setups)} worker start-ups",
        "ok_ops": f"= 1 - failed_ops; failed_ops = {failed}/{attempted} = {failed / attempted:.4f}",
        "certified_depth": "generations certified per pass",
    }
    return values, [f"{k:16s} {v!r:>24}  ({notes[k]})" for k, v in values.items()]


def per_layer(raw: dict) -> tuple[dict, list[str]]:
    t = raw["trace"]
    self_times, c = t["self"], t["counts"]
    values = {f"{name}_s": secs for name, secs in self_times.items()}
    values.update(c)
    values["cli.startup_s"] = t["process"] - t["main"]
    values["oracle.useful_ratio"] = (
        c.get("oracle.ball_vertices", 0) / c["oracle.vertices"] if c.get("oracle.vertices") else 0.0)
    layer_sum = sum(self_times.values())
    overhead = t["traced_wall"] - t["untraced_wall"]
    values.update({
        "bench.traced_wall_s": t["traced_wall"],
        "bench.untraced_wall_s": t["untraced_wall"],
        "bench.trace_overhead_s": overhead,
        "bench.unattributed_s": t["traced_wall"] - layer_sum,
    })
    lines = [f"{name:36s} {self_times[name]!r:>24} s self" for name in sorted(self_times)]
    lines += [f"{name:36s} {c[name]!r:>24}" for name in sorted(c)]
    lines.append(
        f"layer self times sum {layer_sum!r} s; traced wall {t['traced_wall']!r} s;"
        f" untraced wall {t['untraced_wall']!r} s; tracing overhead {overhead!r} s;"
        f" unattributed {t['traced_wall'] - layer_sum!r} s")
    return values, lines


def counts(passes) -> tuple[int, int]:
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(n for p in passes for k, n in p["outcomes"].items() if k != "ok")
    return attempted, failed


def result(raw: dict, setups: list[float], spec: dict, trace: int) -> tuple[dict, list[str]]:
    values, lines = per_layer(raw) if trace else end_to_end(raw, setups)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        # a layer a workload never calls has no spans and no counts
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0) if trace else values[m["name"]],
                              "unit": m["unit"]}
    attempted, failed = counts(raw["passes"])
    wrong = sum(p["outcomes"].get("wrong", 0) for p in raw["passes"])
    failures = sorted({f for p in raw["passes"] for f in p["failures"]})
    lines += [f"failed op: {f}" for f in failures]
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


# -- schema check (--quick) --------------------------------------------------


def schema_errors(res: dict, spec: dict, trace: int) -> list[str]:
    errs = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"keys {sorted(res)}")
    if not isinstance(res.get("correct"), bool):
        errs.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(res.get(key), int) or isinstance(res.get(key), bool) or res[key] < 0:
            errs.append(f"{key} is not a count")
    if res.get("attempted", 0) < 1:
        errs.append("attempted < 1")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = res.get("metrics", {})
    if set(got) != set(wanted):
        errs.append(f"metric names differ: {sorted(set(got) ^ set(wanted))}")
    for name, m in got.items():
        v = m.get("value")
        if set(m) != {"value", "unit"} or m.get("unit") != wanted.get(name):
            errs.append(f"{name}: bad entry {m}")
        elif isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            errs.append(f"{name}: value {v!r} is not a finite number")
    return errs


def quick(spec: dict) -> int:
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1, trace=trace, quick=True)
            setups, raw = measure(args, probes=1)
            res, _ = result(raw, setups, spec, trace)
            errs = schema_errors(res, spec, trace)
            bad += bool(errs)
            print(f"quick {workload} trace={trace}: {'ok' if not errs else '; '.join(errs)}"
                  f" (attempted {res['attempted']}, failed {res['failed']})")
    print("quick: schema ok" if not bad else f"quick: {bad} schema failure(s)")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    if not (SRC / "pqcensus" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no program at {SRC / 'pqcensus'} or no BENCHMARK.json at {ROOT}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        if args.quick:
            return quick(spec)
        if args.workload is None:
            ap.error("--workload is required unless --quick")
        setups, raw = measure(args, SETUP_PROBES)
        res, lines = result(raw, setups, spec, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"pqcensus benchmark: workload={args.workload} seed={args.seed}"
          f" seconds={args.seconds} trace={args.trace} passes={len(raw['passes'])}"
          f" ops/pass={len(raw['passes'][0]['ops'])}")
    for line in lines:
        print("  " + line)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
