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

from conftest import gf_normalize
from pqcensus import cli, oracle
from pqcensus.genfunc import CASE_EVEN, Schlafli, derive
from pqcensus.oracle import StructureViolation, VertexProfile
from pqcensus.polyarith import IntPoly, series_coeffs
from pqcensus.recurrence import rec_eval, rec_from_gf

REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs.json"
CLI_REFS = json.loads(REFS.read_text())["cli"]
DUMP = "{dump}"  # stands for the dump file in a reference key
HUGE = "1" * 4400  # past the interpreter's default 4300-digit int limit
LONG = "x" * 5000


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def digit_limit():
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


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
        _, out = run(capsys, "census", "4", "4", "--types")
        assert len(json.loads(out)["series"]) == 21

    @pytest.mark.parametrize(
        "after, before",
        [
            (["--types", "3"], ["3", "--types"]),
            (["--format", "plain", "10"], ["10", "--format", "plain"]),
            (["--format", "csv", "--types", "7"], ["7", "--types", "--format", "csv"]),
            (["--types", "--format", "plain", "0"], ["0", "--types", "--format", "plain"]),
        ],
    )
    def test_n_after_options(self, capsys, after, before):
        expected = run(capsys, "census", "4", "5", *before)
        assert run(capsys, "census", "4", "5", *after) == expected

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

    @pytest.mark.parametrize("types", [[], ["--types"]], ids=["series", "types"])
    def test_census_at_smallest_digit_limit(self, capsys, digit_limit, types):
        # 640 digits is the smallest limit the interpreter accepts; the term
        # of largest absolute value alone decides, one term past it
        series = rec_eval(rec_from_gf(derive(Schlafli(4, 5)).v), 2000)
        n = max(i for i, x in enumerate(series) if len(str(x)) <= 640)
        digit_limit(640)
        code, out = run(capsys, "census", "4", "5", str(n), *types)
        assert code == 0
        assert json.loads(out)["series"][-1] == str(series[n])
        with pytest.raises(SystemExit) as exc:
            cli.main(["census", "4", "5", str(n + 1), *types])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "pqcensus: error: a term has more than 640 digits, the interpreter's int-to-str limit; "
            "set PYTHONINTMAXSTRDIGITS=0 to print it\n"
        )

    def test_unprintable_census_stops_early(self, capsys, digit_limit, monkeypatch):
        # the terms grow linearly in length, so evaluating all n + 1 of them
        # before the refusal would take memory growing as n**2; the series
        # is cut within about twice its printable prefix
        series = rec_eval(rec_from_gf(derive(Schlafli(4, 5)).v), 2000)
        first = min(i for i, x in enumerate(series) if len(str(x)) > 640)
        converted = []
        ints = cli._ints
        monkeypatch.setattr(cli, "_ints", lambda xs: converted.append(len(xs)) or ints(xs))
        digit_limit(640)
        with pytest.raises(SystemExit) as exc:
            cli.main(["census", "4", "5", "12000", "--types"])
        assert exc.value.code == 1
        assert "more than 640 digits" in capsys.readouterr().err
        assert first < max(converted) < 3 * first  # the series; the gf's lists are short

    def test_long_census_with_limit_lifted(self, capsys, digit_limit):
        digit_limit(0)  # what PYTHONINTMAXSTRDIGITS=0 sets
        code, out = run(capsys, "census", "4", "5", "12000")
        assert code == 0
        last = rec_eval(rec_from_gf(derive(Schlafli(4, 5)).v), 12000)[-1]
        assert json.loads(out)["series"][-1] == str(last)

    def test_census_size_bound(self, capsys, digit_limit, monkeypatch):
        # with the digit limit lifted the terms' total size still bounds a
        # census: v(0..n) prints exactly while it fits, and a longer census
        # is cut within the chunk that passes the bound
        series = rec_eval(rec_from_gf(derive(Schlafli(4, 5)).v), 301)
        bound = sum(x.bit_length() for x in series[:301])
        monkeypatch.setattr(cli, "MAX_CENSUS_BITS", bound)
        built = []
        extend = cli.extend_recurrence

        def counted(out, *args):
            extend(out, *args)
            built.append(len(out))

        monkeypatch.setattr(cli, "extend_recurrence", counted)
        digit_limit(0)
        code, out = run(capsys, "census", "4", "5", "300")
        assert code == 0
        assert json.loads(out)["series"] == [str(x) for x in series[:301]]
        for n in (301, 100_000):
            built.clear()
            with pytest.raises(SystemExit) as exc:
                cli.main(["census", "4", "5", str(n)])
            assert exc.value.code == 1
            assert capsys.readouterr() == (
                "",
                f"pqcensus: error: the terms v(0..{n}) pass {bound} bits in total, the bound on a census's size\n",
            )
            assert max(built) <= 2 * 301

    def test_census_past_size_bound(self, capsys, digit_limit):
        # v(0..14697) of {4,5} is the longest census that fits 150,000,000
        # bits; one term more is refused, although every term is printable
        digit_limit(0)
        with pytest.raises(SystemExit) as exc:
            cli.main(["census", "4", "5", "14698"])
        assert exc.value.code == 1
        assert "pass 150000000 bits in total" in capsys.readouterr().err

    def test_longest_euclidean_census(self, capsys):
        # Euclidean terms stay short, so only the bound on n stops them
        code, out = run(capsys, "census", "3", "6", str(cli.MAX_CENSUS_N))
        assert code == 0
        assert json.loads(out)["series"][-1] == str(6 * cli.MAX_CENSUS_N)

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

    def test_tree_honours_default_budget(self, capsys):
        # the full tree, leaves at depth 13 included, would hold about 1.3e11 vertices
        code, out = run(capsys, "verify", "inf", "8", "--depth", "12")
        o = json.loads(out)["oracle"]
        assert code == 0
        assert o["budget_limited"] is True
        assert o["vertices"] <= oracle.DEFAULT_VERTEX_BUDGET
        assert o["match"] is True

    def test_budget_limited_still_verifies(self, capsys):
        code, out = run(capsys, "verify", "4", "5", "--depth", "8", "--budget", "400")
        rec = json.loads(out)
        assert code == 0
        assert rec["oracle"]["budget_limited"] is True
        assert rec["oracle"]["trusted_depth"] < 8
        assert rec["oracle"]["match"] is True

    def test_dump_map_file(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        code, _ = run(capsys, "verify", "4", "5", "--depth", "2", "--dump-map", str(path))
        assert code == 0
        text = path.read_text()
        assert text.startswith("# map p=4 q=5")
        assert any(line.split()[2] == "O" for line in text.splitlines()[2:])

    def test_profile_violation_record(self, capsys, monkeypatch):
        # a vertex whose neighborhood fits no class stops verify with exit 4:
        # here {4,5} loses its one-parent class, and vertex 1 is the first
        # one-parent vertex of generation 1
        monkeypatch.setitem(oracle._CLASSES, CASE_EVEN, {(2, 0, 0): "B"})
        code, out = run(capsys, "verify", "4", "5", "--depth", "1")
        assert code == cli.EXIT_VIOLATION
        assert json.loads(out) == {
            "error": "StructureViolation",
            "message": "vertex 1 in generation 1 has profile "
            "VertexProfile(parents=1, children=4, fraternal=0, consortial=0)",
        }

    def test_mismatch_record(self, capsys, monkeypatch):
        # series are compared in the order v, a, b, c; the first differing
        # term of the first differing series is reported, in every format
        classify = oracle.classify

        def miscount(m, report):
            rep = classify(m, report)
            return rep._replace(v=rep.v[:3] + (rep.v[3] + 1,) + rep.v[4:], a=(0, rep.a[1] - 1) + rep.a[2:])

        monkeypatch.setattr(oracle, "classify", miscount)
        outs = {}
        for fmt in ("json", "csv", "plain"):
            code, outs[fmt] = run(capsys, "verify", "4", "5", "--depth", "4", "--format", fmt)
            assert code == cli.EXIT_MISMATCH, fmt
        o = json.loads(outs["json"])["oracle"]
        assert o["match"] is False
        assert o["first_mismatch"] == {"series": "v", "n": 3, "expected": "40", "actual": "41"}
        # the csv row has no budget_limited column and spells the mismatch out
        header, row = outs["csv"].splitlines()
        assert header == "trusted_depth,requested_depth,vertices,match,first_mismatch"
        assert row.endswith(",False,v[3] 41!=40")
        lines = outs["plain"].splitlines()
        assert "oracle.match False" in lines
        assert "oracle.first_mismatch.series v" in lines
        assert "oracle.first_mismatch.n 3" in lines


class TestAsym:
    def test_huge_q_out_of_scope(self, capsys):
        # z0 ~ 1e-20 lies inside the first certified 2^-40 cell, so no rate
        # could be reported right: q is bounded like p
        code, out = run(capsys, "asym", "4", "99999999999999999999", "--format", "csv")
        assert code == cli.EXIT_OUT_OF_SCOPE
        header, row = csv.reader(out.splitlines())
        assert header == ["error", "message", "p", "q"]
        big = "99999999999999999999"
        assert row == ["BadDegree", f"vertex degree q must be at most 2048, got {big}", "4", big]

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

        monkeypatch.setattr(oracle, "classify", violate)
        code, out = run(capsys, "verify", "4", "5", "--depth", "1", "--format", "csv")
        assert code == 4
        header, row = csv.reader(out.splitlines())
        assert header == ["error", "message"]
        assert row[0] == "StructureViolation"
        assert row[1].startswith("vertex 1 in generation 1")


class TestUsageErrors:
    @pytest.fixture
    def no_build(self, monkeypatch):
        # arguments are checked before the build, so a refused one costs no work
        def build_map(*args):
            raise AssertionError("build_map ran before the arguments were checked")

        monkeypatch.setattr(oracle, "build_map", build_map)

    def exit_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "error" in err
        return err

    def test_negative_census_length(self, capsys):
        assert "n must be >= 0" in self.exit_one(capsys, ["census", "4", "5", "-1"])
        assert "n must be >= 0" in self.exit_one(capsys, ["census", "4", "5", "--types", "-1"])

    @pytest.mark.parametrize(
        "tail, extra",
        [
            (["3", "--types", "4"], "4"),
            (["--types", "3", "4"], "3 4"),
            (["--types", "abc"], "abc"),
            (["--types", "--bogus"], "--bogus"),
        ],
    )
    def test_extra_census_argument(self, capsys, tail, extra):
        with pytest.raises(SystemExit) as exc:
            cli.main(["census", "4", "5", *tail])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: {extra}" in captured.err

    @pytest.mark.parametrize("tail", [["100001"], ["--types", "100001"]], ids=["n", "n-after-options"])
    def test_census_length_bound(self, capsys, tail):
        assert "n must be <= 100000, got 100001" in self.exit_one(capsys, ["census", "3", "6", *tail])

    def test_negative_depth(self, capsys):
        assert "--depth must be >= 0, got -1" in self.exit_one(capsys, ["verify", "4", "5", "--depth", "-1"])

    @pytest.mark.parametrize(
        "budget, message",
        [
            ("0", "--budget must be >= 1, got 0"),
            ("-3", "--budget must be >= 1, got -3"),
            # refused before the build: the tree to depth 12 would not fit in memory
            ("1000000000000", "--budget must be <= 10000000, got 1000000000000"),
        ],
        ids=["0", "-3", "1000000000000"],
    )
    def test_nonpositive_budget(self, capsys, no_build, budget, message):
        argv = ["verify", "inf", "8", "--depth", "12", "--budget", budget]
        assert message in self.exit_one(capsys, argv)

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("n", ["census", "4", "5", "x"]),
            ("--depth", ["verify", "4", "5", "--depth", "x"]),
            ("--budget", ["verify", "4", "5", "--budget", "x"]),
        ],
    )
    def test_non_integer(self, capsys, name, argv):
        # worded like p and q, after the usage text
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert err.endswith(f"error: argument {name}: {name} must be an integer, got 'x'\n")

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("p", ["genfunc", HUGE, "5"]),
            ("q", ["asym", "4", "9" * 4400, "--format", "csv"]),
            ("n", ["census", "4", "5", HUGE]),
            ("n", ["census", "4", "5", "--types", HUGE]),
            ("--depth", ["verify", "4", "5", "--depth", HUGE]),
            ("--budget", ["verify", "4", "5", "--budget", HUGE]),
        ],
    )
    def test_degree_past_digit_limit(self, capsys, digit_limit, name, argv):
        # an integer too long for int() is a one-line usage error that gives
        # its length (and for p and q the bound), without echoing its digits
        digit_limit(4300)
        err = self.exit_one(capsys, argv)
        bound = f"; {name} must be at most 2048" if name in ("p", "q") else ""
        assert err == f"pqcensus: error: {name} has 4400 digits, past the interpreter's 4300-digit limit{bound}\n"
        assert len(err.encode()) < 200

    @pytest.mark.parametrize(
        "argv, echo",
        [
            (["verify", "4", "5", "--depth", LONG], "got 'xxxxxxxxxxxxxxxxxxxx... (5000 characters)'"),
            (["census", "4", "5", "--types", LONG], "arguments: xxxxxxxxxxxxxxxxxxxx... (5000 characters)"),
            (["verify", "4", "5", "--depth", "-" + "1" * 4000], "got -1111111111111111111... (4001 characters)"),
            (["genfunc", "4", "5", "--format", LONG], "invalid choice: 'xxxxxxxxxxxx"),
            ([LONG], "invalid choice: 'xxxxxxxxxxxx"),
        ],
    )
    def test_long_argument_is_clipped(self, capsys, digit_limit, argv, echo):
        # an argument is echoed by its head and length, however long it is
        digit_limit(4300)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert echo in last and "characters)" in last
        assert len(last.encode()) < 200

    @pytest.mark.parametrize("target", ["missing-dir/x", ".", ""])
    def test_unwritable_dump_path(self, capsys, no_build, tmp_path, target):
        with pytest.raises(SystemExit) as exc:
            # the empty path is passed as is
            cli.main(["verify", "4", "5", "--depth", "2", "--dump-map", target and str(tmp_path / target)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "error: cannot write --dump-map" in captured.err


@st.composite
def cli_argv(draw):
    """Any subcommand and format over small symbols, with sizes capped so
    that no run builds more than 5000 vertices or sums more than 200 terms;
    negative n and depth, budgets below 1 or above 10^7 and 4400-digit n, depth or budget
    are included as usage errors, and p or q past the supported range as out
    of scope."""

    def now_and_then(usual, odd):
        # a usual value, or one time in four one of the odd ones
        return draw(st.sampled_from(odd)) if draw(st.integers(0, 3)) == 0 else str(draw(usual))

    cmd = draw(st.sampled_from(["genfunc", "census", "verify", "asym"]))
    p = draw(st.sampled_from(["inf", *map(str, range(3, 9)), "2049", "100000001", "99999999999999999999"]))
    q = draw(st.sampled_from([*map(str, range(3, 9)), "2049", "99999999999999999999"]))
    argv = [cmd, p, q]
    options = ["--format", draw(st.sampled_from(["json", "csv", "plain"]))]
    if cmd == "census":
        if draw(st.booleans()):
            options.append("--types")
        # n goes anywhere after q: before, between or after the options
        n = now_and_then(st.integers(-1, 200), [HUGE])
        options.insert(draw(st.sampled_from([0, 2, len(options)])), n)
    elif cmd == "verify":
        depth = now_and_then(st.integers(-1, 12), [HUGE])
        options += ["--depth", depth, "--budget", now_and_then(st.integers(1, 5000), ["0", "-3", "10000001", HUGE])]
    return argv + options


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
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # so that HUGE is a usage error, not a long run
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.set_int_max_str_digits(saved)
    assert code in range(5), argv
    if code == 1:
        # a message, and never an echo of HUGE's digits
        assert err.getvalue().strip() and not out.getvalue(), argv
        assert len(err.getvalue()) < 1000, argv
    else:
        assert _parses(argv[argv.index("--format") + 1], out.getvalue()), argv


@pytest.mark.parametrize("key", list(CLI_REFS))
def test_matches_recorded_output(key, capsys, tmp_path, monkeypatch):
    # every command the benchmark runs, against the exit code and digests
    # recorded for it; vertex numbering and rotation order in a dump are
    # part of the output
    ref = CLI_REFS[key]
    # the budget comes from argv alone: a variable of this name changes nothing
    monkeypatch.setenv("PQCENSUS_BUDGET", "1")
    dump = tmp_path / "map.txt"
    code, out = run(capsys, *[str(dump) if a == DUMP else a for a in key.split()])
    assert code == ref["exit"]
    if ref["stdout_sha256"] is None:
        # no correct output was ever recorded; the error record must be there
        assert ref["stdout_contains"] in out
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == ref["stdout_sha256"]
    if DUMP in key:
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == ref["dump_sha256"]
