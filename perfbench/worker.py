"""One benchmark worker: set up a workload, run its passes, report raw numbers.

Started by run.py in a fresh interpreter with ``src`` on PYTHONPATH.  It
prints ``READY`` once pqcensus is imported and the workload inputs are
generated (run.py times spawn-to-READY as set-up), then, unless
``--setup-only``, one JSON line with the raw results.  Everything runs on
one thread; cli-mix keeps at most one CLI child alive at a time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import pqcensus
import workloads
from layers import Layers, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
MIN_PASSES = 2  # each op's latency is its median over at least two passes


def run_pass(workload, layers, tracer=None) -> dict:
    """One pass over the workload's ops; a failed op is counted, not fatal.

    A full collection runs before each op, outside its timing, so every op
    starts from the same collector state whatever order the seed chose; the
    pass wall time is the sum of the op latencies.
    """
    latencies, outcomes, failures, generations = [], {}, [], 0
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = i
        gc.collect()
        t0 = perf_counter()
        note = ""
        try:
            outcome, gens = workload.run(op, layers)
        except Exception as exc:  # noqa: BLE001 - the op's failure is its result
            outcome, gens, note = workloads.ERROR, 0, f"{type(exc).__name__}: {exc}"
            layers.release()
        latencies.append(perf_counter() - t0)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        generations += gens
        if outcome != workloads.OK:
            note = note or (layers.last_stderr.strip().splitlines() or [""])[-1]
            failures.append(f"{workload.describe(op)}: {outcome}: {note}")
    return {"wall": sum(latencies), "ops": latencies, "outcomes": outcomes,
            "failures": failures, "certified": generations}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    os.environ.pop("PQCENSUS_BUDGET", None)  # every verify runs at the default budget
    if not Path(pqcensus.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"pqcensus imported from {pqcensus.__file__}, not from {SRC}")

    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        workload = workloads.make(args.workload, args.seed, args.quick, tmp_dir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        env = dict(os.environ)
        untraced = Layers(None, env, tmp_dir)
        workload.prepare(untraced)

        passes = []
        trace = None
        peak_rss_kib = None
        if args.trace:
            tracer = Tracer()
            traced = Layers(tracer, env, tmp_dir)
            passes.append(run_pass(workload, untraced))
            passes.append(run_pass(workload, traced, tracer))
            trace = {
                "untraced_wall": passes[0]["wall"],
                "traced_wall": passes[1]["wall"],
                "self": tracer.self_times(),
                "process": tracer.durations("cli.process"),
                "main": tracer.durations("cli.main"),
                "counts": dict(traced.counts),
            }
            write_spans(tracer, args)
        else:
            passes.append(run_pass(workload, untraced))
            # a second pass builds on a heap the first one fragmented
            peak_rss_kib = workload.peak_rss_kib()
            while not args.quick and (len(passes) < MIN_PASSES
                                      or sum(p["wall"] for p in passes) < args.seconds):
                passes.append(run_pass(workload, untraced))
        result = {"passes": passes, "peak_rss_kib": peak_rss_kib, "trace": trace}
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def write_spans(tracer, args) -> None:
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (name, start, end, parent, op) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
