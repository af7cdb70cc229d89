"""What a CLI process imports: each subcommand loads only the modules it runs,
and the package's public names resolve on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pqcensus

SRC = Path(__file__).resolve().parent.parent / "src"

# the modules one cli.main call loads in a fresh interpreter, as JSON on stderr
PROBE = """
import json, sys
before = set(sys.modules)
from pqcensus import cli
code = cli.main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)
sys.exit(code)
"""


def fresh(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["genfunc", "4", "5"], {"pqcensus.oracle", "pqcensus.asymptotics", "dataclasses", "fractions"}),
        (["census", "4", "5", "10", "--types", "--format", "csv"],
         {"pqcensus.oracle", "pqcensus.asymptotics", "dataclasses", "fractions"}),
        (["asym", "4", "5", "--format", "plain"], {"pqcensus.oracle", "dataclasses"}),
        (["verify", "4", "5", "--depth", "2"], {"pqcensus.asymptotics", "dataclasses", "fractions"}),
    ],
    ids=["genfunc", "census", "asym", "verify"],
)
def test_subcommand_imports_only_what_it_runs(argv, absent):
    proc = fresh("-c", PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert {"pqcensus.cli", "pqcensus.genfunc", "pqcensus.polyarith"} <= loaded
    assert loaded & absent == set()


def test_star_import_in_a_fresh_interpreter():
    proc = fresh("-c", "import pqcensus\nfrom pqcensus import *\nprint(sorted(set(pqcensus.__all__) - set(dir())))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_public_names_come_from_their_modules():
    ns = {}
    exec("from pqcensus import *", ns)
    assert [name for name in pqcensus.__all__ if name not in ns] == []
    assert ns["__version__"] == pqcensus.__version__ == "0.1.0"
    for name in pqcensus.__all__[:-1]:
        home = importlib.import_module(f"pqcensus.{pqcensus._SOURCES[name]}")
        assert getattr(home, name) is ns[name] is getattr(pqcensus, name)
    assert set(pqcensus.__all__) <= set(dir(pqcensus))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pqcensus.no_such_name
