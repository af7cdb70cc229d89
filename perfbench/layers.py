"""The calls a workload makes into pqcensus, timed from outside the package.

Every call into a library module goes through one `Layers` object.  When it
is built with a `Tracer`, each call is wrapped in a span named after the
module and the function (``oracle.build_map``), and the counters the
per-layer metrics need are read off the call's arguments and results.
Without a tracer the spans cost one ``nullcontext`` each.

Nothing here changes what pqcensus computes: the wrappers call the
functions captured at construction time and return their results as they
are.  For the in-process CLI run the same wrappers are installed, for the
duration of one ``cli.main`` call, under the names the CLI looks up.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from time import perf_counter

from pqcensus import asymptotics, cli, genfunc, oracle, polyarith, recurrence


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, op id)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.op = -1
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._open.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover.

        Children of one span run one after another, so the covered time is
        the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def durations(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)


class Layers:
    """One entry per public pqcensus call the workloads make."""

    def __init__(self, tracer: Tracer | None, cli_env: dict[str, str], tmp_dir: str):
        self.tracer = tracer
        self.counts: Counter = Counter()
        self._cli_env = cli_env
        self._tmp_dir = tmp_dir
        self._held: list = []  # maps built, kept until release()
        self.last_stderr = ""
        self._derive = genfunc.derive
        self._growth = asymptotics.growth
        self._rec_from_gf = recurrence.rec_from_gf
        self._rec_eval = recurrence.rec_eval
        self._series_coeffs = polyarith.series_coeffs
        self._build_map = oracle.build_map
        self._build_tree = oracle.build_tree
        self._bfs_census = oracle.bfs_census
        self._classify = oracle.classify
        self._dump_map = oracle.dump_map

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def check(self):
        """Span around the benchmark's own output checks."""
        return self._span("bench.check")

    # -- genfunc, asymptotics, recurrence, polyarith -----------------------

    def derive(self, s):
        self.counts["genfunc.derive_calls"] += 1
        with self._span("genfunc.derive"):
            return self._derive(s)

    def growth(self, gf, s):
        self.counts["asymptotics.growth_calls"] += 1
        degree = gf.den.degree
        if degree > self.counts["asymptotics.den_degree_max"]:
            self.counts["asymptotics.den_degree_max"] = degree
        with self._span("asymptotics.growth"):
            return self._growth(gf, s)

    def rec_from_gf(self, gf):
        with self._span("recurrence.rec_from_gf"):
            return self._rec_from_gf(gf)

    def rec_eval(self, rec, n_max):
        self.counts["recurrence.terms"] += n_max + 1
        with self._span("recurrence.rec_eval"):
            return self._rec_eval(rec, n_max)

    def series_coeffs(self, gf, n_max):
        self.counts["polyarith.series_terms"] += n_max + 1
        with self._span("polyarith.series_coeffs"):
            return self._series_coeffs(gf, n_max)

    # -- oracle --------------------------------------------------------------

    def _count_map(self, m):
        self.counts["oracle.vertices"] += m.vertex_count
        self.counts["oracle.half_edges"] += m.half_edge_count
        self.counts["oracle.faces"] += m.face_count
        self._held.append(m)

    def build_map(self, s, depth, budget=oracle.DEFAULT_VERTEX_BUDGET):
        try:
            with self._span("oracle.build_map"):
                m = self._build_map(s, depth, budget)
        except oracle.BudgetExceeded as exc:
            self.counts["oracle.budget_exceeded"] += 1
            self._count_map(exc.partial_map)
            raise
        self._count_map(m)
        return m

    def build_tree(self, q, depth):
        # trees are billed to the map builder: both answer "build the disk"
        with self._span("oracle.build_map"):
            m = self._build_tree(q, depth)
        self._count_map(m)
        return m

    def bfs_census(self, m):
        with self._span("oracle.bfs_census"):
            report = self._bfs_census(m)
        self.counts["oracle.ball_vertices"] += sum(report.v)
        return report

    def classify(self, m, report):
        with self._span("oracle.classify"):
            return self._classify(m, report)

    def dump_map(self, m, report=None):
        with self._span("oracle.dump_map"):
            return self._dump_map(m, report)

    def release(self):
        """Drop the maps built since the last release, inside their own span.

        Callers drop their own references first, so the last reference goes
        here and the cost of freeing a map is not billed to the next build.
        """
        if self._held:
            with self._span("oracle.release"):
                self._held.clear()

    # -- cli -----------------------------------------------------------------

    def cli_process(self, argv: list[str]) -> tuple[int, bytes, int]:
        """Run ``python -m pqcensus.cli argv``; return exit code, stdout and
        the child's own peak RSS in KiB (from ``os.wait4``)."""
        out_path = os.path.join(self._tmp_dir, "stdout")
        err_path = os.path.join(self._tmp_dir, "stderr")
        with self._span("cli.process"):
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "pqcensus.cli", *argv],
                    stdout=out, stderr=err, env=self._cli_env,
                )
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            self.last_stderr = fh.read().decode(errors="replace")
        self.counts["cli.stdout_bytes"] += len(stdout)
        return proc.returncode, stdout, usage.ru_maxrss

    def cli_main(self, argv: list[str]) -> tuple[int, bytes]:
        """Call ``cli.main(argv)`` in-process with stdout captured.

        An exception escaping ``main`` maps to exit code 1, as it would for
        the interpreter running the CLI as a script.
        """
        out = io.StringIO()
        with self._span("cli.main"), self._cli_patched(), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception:  # noqa: BLE001 - an uncaught error is the op's outcome
                code = 1
        self.release()
        return code, out.getvalue().encode()

    @contextlib.contextmanager
    def _cli_patched(self):
        """Install the wrappers under the names the CLI resolves at call time."""
        targets = [
            (cli, "derive", self.derive),
            (cli, "series_coeffs", self.series_coeffs),
            (cli, "rec_eval", self.rec_eval),
            (cli, "rec_from_gf", self.rec_from_gf),
            (asymptotics, "growth", self.growth),
            (oracle, "build_map", self.build_map),
            (oracle, "build_tree", self.build_tree),
            (oracle, "bfs_census", self.bfs_census),
            (oracle, "classify", self.classify),
            (oracle, "dump_map", self.dump_map),
        ]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in targets]
        for mod, name, fn in targets:
            setattr(mod, name, fn)
        try:
            yield
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)
