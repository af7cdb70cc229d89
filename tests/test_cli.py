import contextlib
import csv
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pqcensus import cli
from pqcensus.genfunc import Schlafli, derive
from pqcensus.oracle import StructureViolation, VertexProfile
from pqcensus.polyarith import IntPoly, gf_normalize, series_coeffs
from pqcensus.recurrence import rec_eval, rec_from_gf

REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs.json"


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestGenfunc:
    def test_order_five_squares(self, capsys):
        code, out = run(capsys, "genfunc", "4", "5")
        rec = json.loads(out)
        assert code == 0
        assert rec["case_tag"] == "EVEN"
        assert rec["gf"]["num"] == ["1", "2", "1"]
        assert rec["gf"]["den"] == ["1", "-3", "1"]

    def test_tree(self, capsys):
        code, out = run(capsys, "genfunc", "inf", "3")
        rec = json.loads(out)
        assert code == 0
        assert rec["symbol"] == {"p": "inf", "q": 3}
        assert rec["case_tag"] == "TREE"
        assert rec["gf"]["num"] == ["1", "1"]
        assert rec["gf"]["den"] == ["1", "-2"]

    def test_spherical_exit_two(self, capsys):
        code, out = run(capsys, "genfunc", "3", "5")
        rec = json.loads(out)
        assert code == 2
        assert rec["error"] == "SphericalOutOfScope"
        assert rec["symbol"] == {"p": 3, "q": 5}

    def test_low_degree_exit_two(self, capsys):
        code, _ = run(capsys, "genfunc", "4", "2")
        assert code == 2


class TestCensus:
    def test_heptagonal(self, capsys):
        code, out = run(capsys, "census", "3", "7", "4")
        assert code == 0
        assert json.loads(out)["series"] == ["1", "7", "21", "56", "147"]

    def test_hexagonal_lattice(self, capsys):
        _, out = run(capsys, "census", "6", "3", "4")
        assert json.loads(out)["series"] == ["1", "3", "6", "9", "12"]

    def test_single_term(self, capsys):
        _, out = run(capsys, "census", "4", "5", "0")
        assert json.loads(out)["series"] == ["1"]

    def test_types_breakdown(self, capsys):
        _, out = run(capsys, "census", "5", "4", "4", "--types")
        rec = json.loads(out)
        assert rec["types"]["c"] == ["0", "0", "8", "16", "32"]
        assert rec["types"]["b"][:5] == ["0", "0", "0", "0", "4"]
        v = [int(x) for x in rec["series"]]
        a = [int(x) for x in rec["types"]["a"]]
        b = [int(x) for x in rec["types"]["b"]]
        c = [int(x) for x in rec["types"]["c"]]
        assert all(a[n] + b[n] + c[n] == v[n] for n in range(1, 5))

    def test_default_horizon(self, capsys):
        _, out = run(capsys, "census", "4", "4")
        assert len(json.loads(out)["series"]) == 21

    @pytest.fixture
    def digit_limit(self):
        saved = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(saved)

    def test_long_census_past_digit_limit(self, capsys, digit_limit):
        # v(12000) of {4,5} has more digits than the interpreter's default
        # int->str limit: a usage error that says how to lift it
        digit_limit(4300)
        with pytest.raises(SystemExit) as exc:
            cli.main(["census", "4", "5", "12000"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "PYTHONINTMAXSTRDIGITS=0" in captured.err

    def test_long_census_with_limit_lifted(self, capsys, digit_limit):
        digit_limit(0)  # what PYTHONINTMAXSTRDIGITS=0 sets
        code, out = run(capsys, "census", "4", "5", "12000")
        assert code == 0
        last = rec_eval(rec_from_gf(derive(Schlafli(4, 5)).v), 12000)[-1]
        assert json.loads(out)["series"][-1] == str(last)

    def test_round_trip_expansion(self, capsys):
        # re-expanding the emitted gf must reproduce the emitted series
        _, out = run(capsys, "census", "4", "7", "12")
        rec = json.loads(out)
        gf = gf_normalize(
            IntPoly([int(x) for x in rec["gf"]["num"]]),
            IntPoly([int(x) for x in rec["gf"]["den"]]),
        )
        assert [str(x) for x in series_coeffs(gf, 12)] == rec["series"]


class TestVerify:
    def test_match(self, capsys):
        code, out = run(capsys, "verify", "4", "5", "--depth", "4")
        rec = json.loads(out)
        assert code == 0
        assert rec["oracle"]["match"] is True
        assert rec["oracle"]["trusted_depth"] >= 4
        assert rec["oracle"]["first_mismatch"] is None

    def test_pentagon(self, capsys):
        code, out = run(capsys, "verify", "5", "4", "--depth", "4")
        assert code == 0
        assert json.loads(out)["oracle"]["match"] is True

    def test_tree_symbol(self, capsys):
        code, out = run(capsys, "verify", "inf", "3", "--depth", "5")
        rec = json.loads(out)
        assert code == 0
        assert rec["oracle"]["match"] is True
        assert rec["oracle"]["trusted_depth"] == 5

    def test_tree_honours_budget(self, capsys):
        code, out = run(capsys, "verify", "inf", "3", "--depth", "12", "--budget", "10")
        o = json.loads(out)["oracle"]
        assert code == 0
        assert o["budget_limited"] is True
        assert o["trusted_depth"] == 1
        assert o["vertices"] == 10

    def test_tree_honours_default_budget(self, capsys, monkeypatch):
        # the full tree, leaves at depth 13 included, would hold about 1.3e11 vertices
        monkeypatch.delenv(cli.BUDGET_ENV_VAR, raising=False)
        code, out = run(capsys, "verify", "inf", "8", "--depth", "12")
        o = json.loads(out)["oracle"]
        assert code == 0
        assert o["budget_limited"] is True
        assert o["vertices"] <= cli.oracle.DEFAULT_VERTEX_BUDGET
        assert o["match"] is True

    def test_budget_limited_still_verifies(self, capsys):
        code, out = run(capsys, "verify", "4", "5", "--depth", "8", "--budget", "400")
        rec = json.loads(out)
        assert code == 0
        assert rec["oracle"]["budget_limited"] is True
        assert rec["oracle"]["trusted_depth"] < 8
        assert rec["oracle"]["match"] is True

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.BUDGET_ENV_VAR, "400")
        _, out = run(capsys, "verify", "4", "5", "--depth", "8")
        assert json.loads(out)["oracle"]["budget_limited"] is True
        # explicit flag wins over the environment
        _, out = run(capsys, "verify", "4", "5", "--depth", "4", "--budget", "100000")
        assert json.loads(out)["oracle"]["budget_limited"] is False

    def test_dump_map_file(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        code, _ = run(capsys, "verify", "4", "5", "--depth", "2", "--dump-map", str(path))
        assert code == 0
        text = path.read_text()
        assert text.startswith("# map p=4 q=5")
        assert any(line.split()[2] == "O" for line in text.splitlines()[2:])


    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_dump_matches_recorded_digest(self, capsys, tmp_path, fmt):
        # vertex numbering and rotation order are part of the output; the
        # benchmark's reference file holds the digests recorded for them
        ref = json.loads(REFS.read_text())["cli"][f"verify 4 5 --depth 6 --dump-map {{dump}} --format {fmt}"]
        path = tmp_path / "map.txt"
        code, out = run(capsys, "verify", "4", "5", "--depth", "6", "--dump-map", str(path), "--format", fmt)
        assert code == ref["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == ref["stdout_sha256"]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ref["dump_sha256"]


class TestAsym:
    def test_hyperbolic(self, capsys):
        _, out = run(capsys, "asym", "4", "5")
        g = json.loads(out)["growth"]
        assert g["classification"] == "HYPERBOLIC"
        assert abs(g["lambda"] - 2.6180340) < 1e-6
        assert abs(g["z0"] - 0.3819660) < 1e-6
        assert g["palindromic_den"] is True

    def test_euclidean(self, capsys):
        _, out = run(capsys, "asym", "4", "4")
        g = json.loads(out)["growth"]
        assert g["classification"] == "EUCLIDEAN"
        assert g["z0"] is None and g["amplitude"] is None

    def test_tree(self, capsys):
        _, out = run(capsys, "asym", "inf", "3")
        g = json.loads(out)["growth"]
        assert g["classification"] == "TREE"
        assert g["lambda"] == 2.0


class TestFormatsAndExitCodes:
    def test_plain(self, capsys):
        _, out = run(capsys, "census", "3", "7", "4", "--format", "plain")
        lines = out.strip().splitlines()
        assert "series 1 7 21 56 147" in lines
        assert "case_tag TRIANGLE" in lines

    def test_csv_census(self, capsys):
        _, out = run(capsys, "census", "6", "3", "3", "--format", "csv")
        assert out.splitlines()[0] == "n,v"
        assert out.splitlines()[1] == "0,1"
        assert out.splitlines()[-1] == "3,9"

    def test_csv_asym(self, capsys):
        _, out = run(capsys, "asym", "4", "4", "--format", "csv")
        assert out.splitlines()[0] == "classification,z0,lambda,amplitude,palindromic_den"
        assert out.splitlines()[1].startswith("EUCLIDEAN,None,1.0,")

    def test_csv_genfunc(self, capsys):
        _, out = run(capsys, "genfunc", "4", "5", "--format", "csv")
        assert out.splitlines()[0] == "power,num,den"
        assert out.splitlines()[1] == "0,1,1"

    def test_usage_errors_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["census", "4"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            cli.main(["genfunc", "four", "5"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            cli.main(["nonsense"])
        assert exc.value.code == 1

    def test_deterministic_output(self, capsys):
        outs = set()
        for _ in range(2):
            outs.add(run(capsys, "census", "4", "5", "10", "--types")[1])
            outs.add(run(capsys, "asym", "3", "7")[1])
        assert len(outs) == 2


class TestErrorRecordsInCsv:
    @pytest.mark.parametrize(
        "argv", [["genfunc", "3", "5"], ["asym", "5", "3"], ["census", "3", "3", "5"], ["verify", "4", "3"]],
        ids=" ".join,
    )
    def test_out_of_scope(self, capsys, argv):
        code, out = run(capsys, *argv, "--format", "csv")
        assert code == 2
        header, row = csv.reader(out.splitlines())
        assert header == ["error", "message", "p", "q"]
        assert row[0] == "SphericalOutOfScope"
        assert row[1].startswith(f"{{{argv[1]},{argv[2]}}} is spherical")
        assert row[2:] == argv[1:3]

    def test_structure_violation(self, capsys, monkeypatch):
        def violate(m, report):
            raise StructureViolation(1, 1, VertexProfile(0, 0, 0, 0))

        monkeypatch.setattr(cli.oracle, "classify", violate)
        code, out = run(capsys, "verify", "4", "5", "--depth", "1", "--format", "csv")
        assert code == 4
        header, row = csv.reader(out.splitlines())
        assert header == ["error", "message"]
        assert row[0] == "StructureViolation"
        assert row[1].startswith("vertex 1 in generation 1")


class TestUsageErrors:
    def exit_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "error" in err
        return err

    def test_negative_census_length(self, capsys):
        assert "n must be >= 0" in self.exit_one(capsys, ["census", "4", "5", "-1"])

    def test_negative_depth(self, capsys):
        assert "--depth" in self.exit_one(capsys, ["verify", "4", "5", "--depth", "-1"])

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_nonpositive_budget(self, capsys, budget):
        assert "--budget" in self.exit_one(capsys, ["verify", "4", "5", "--budget", budget])

    @pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-4"])
    def test_malformed_env_budget(self, capsys, monkeypatch, raw):
        monkeypatch.setenv(cli.BUDGET_ENV_VAR, raw)
        assert cli.BUDGET_ENV_VAR in self.exit_one(capsys, ["verify", "4", "5", "--depth", "1"])


@st.composite
def cli_argv(draw):
    """Any subcommand and format over small symbols, with sizes capped so
    that no run builds more than 5000 vertices or sums more than 200 terms;
    negative n and depth are included as usage errors."""
    cmd = draw(st.sampled_from(["genfunc", "census", "verify", "asym"]))
    p = draw(st.sampled_from(["inf", *map(str, range(3, 9))]))
    argv = [cmd, p, str(draw(st.integers(3, 8)))]
    if cmd == "census":
        argv.append(str(draw(st.integers(-1, 200))))
        if draw(st.booleans()):
            argv.append("--types")
    elif cmd == "verify":
        argv += ["--depth", str(draw(st.integers(-1, 12))), "--budget", str(draw(st.integers(1, 5000)))]
    return argv + ["--format", draw(st.sampled_from(["json", "csv", "plain"]))]


def _parses(fmt: str, out: str) -> bool:
    if fmt == "json":
        return isinstance(json.loads(out), dict)
    lines = out.splitlines()
    if fmt == "csv":
        rows = list(csv.reader(lines))
        return len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows)
    names = [line.split(" ", 1)[0] for line in lines]
    return all(re.fullmatch(r"[a-z_][\w.]* .*", line) for line in lines) and len(set(names)) == len(names)


@settings(max_examples=60, deadline=None)
@given(argv=cli_argv())
def test_any_argv_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in range(5), argv
    if code == 1:
        assert err.getvalue().strip() and not out.getvalue(), argv
    else:
        assert _parses(argv[-1], out.getvalue()), argv
