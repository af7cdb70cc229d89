"""Smoke test of the benchmark harness.

``perfbench/run.py --quick`` runs every workload at a tiny size, traced and
untraced, and checks only that each result has the schema BENCHMARK.json
asks for.  Timings are not gated here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_run_schema():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "quick: schema ok" in proc.stdout.splitlines()
