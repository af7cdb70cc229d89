import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import (
    admissible_symbols,
    gf_normalize,
    poly_derivative,
    poly_mul,
    ratio_probe,
    sign_changes,
    sturm_chain,
)
from pqcensus import asymptotics
from pqcensus.asymptotics import (
    EUCLIDEAN,
    HYPERBOLIC,
    TREE,
    NoRootFound,
    _certify_smallest_root,
    _multiples,
    _rouche_disk,
    growth,
    palindrome_check,
)
from pqcensus.genfunc import INFINITY, Schlafli, derive
from pqcensus.polyarith import IntPoly
from pqcensus.recurrence import rec_eval, rec_from_gf

HYPERBOLIC_GRID = [
    s for s in admissible_symbols(range(3, 13), range(3, 13)) if s.hyperbolic()
]
WIDE_HYPERBOLIC_GRID = [
    s for s in admissible_symbols(range(3, 41), range(3, 41)) if s.hyperbolic()
]
REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs.json"
CELL = Fraction(1, 2**40)
# the hyperbolic symbols whose ``asym`` the CI step bounds in time, which
# also runs the tree {inf,2048}
LARGE_P_SYMBOLS = [(2001, 3), (2047, 7), (1999, 2048), (2046, 3), (2048, 3), (2048, 2048)]


def growth_of_den(*factors):
    den = poly_mul(*map(IntPoly, factors))
    return growth(gf_normalize(IntPoly([1]), den), Schlafli(4, 5))


class TestGrowth:
    def test_order_five_squares_against_quadratic_formula(self):
        s = Schlafli(4, 5)
        info = growth(derive(s).v, s)
        assert info.classification == HYPERBOLIC
        assert abs(info.z0 - (3 - math.sqrt(5)) / 2) <= 1e-12
        assert abs(info.rate - (3 + math.sqrt(5)) / 2) <= 1e-10
        assert abs(info.amplitude - math.sqrt(5)) <= 1e-9
        lo, hi = info.z0_interval
        assert hi - lo <= Fraction(1, 10**12)
        assert lo <= Fraction(3 - math.isqrt(5), 1) or lo < hi  # interval is genuine

    def test_euclidean_symbolic(self):
        for pq in ((4, 4), (3, 6), (6, 3)):
            s = Schlafli(*pq)
            info = growth(derive(s).v, s)
            assert info.classification == EUCLIDEAN
            assert info.z0 is None and info.amplitude is None
            assert info.rate == 1.0

    def test_tree_rates(self):
        for q in (3, 4, 5):
            s = Schlafli(INFINITY, q)
            info = growth(derive(s).v, s)
            assert info.classification == TREE
            assert info.rate == float(q - 1)
            # census q(q-1)^(n-1) has amplitude q/(q-1)
            assert abs(info.amplitude - q / (q - 1)) <= 1e-12

    def test_spherical_rejected(self):
        gf = derive(Schlafli(4, 5)).v
        with pytest.raises(ValueError):
            growth(gf, Schlafli(4, 3))

    def test_no_root_in_unit_interval(self):
        gf = gf_normalize(IntPoly([1]), IntPoly([1, 1]))
        with pytest.raises(NoRootFound):
            growth(gf, Schlafli(4, 5))
        with pytest.raises(NoRootFound):
            growth_of_den()  # constant denominator: no sign change anywhere

    def test_two_roots_closer_than_the_old_scan_grid(self):
        # 1/10001 and 1/10000 share one 1/4096 cell, so a sign-change scan
        # sees no change there and reports the root 1/2 instead
        lo, hi = growth_of_den([1, -10000], [1, -10001], [1, -2]).z0_interval
        assert lo <= Fraction(1, 10001) <= hi
        assert hi - lo <= Fraction(1, 10**12)

    def test_smallest_of_two_roots_isolated(self):
        lo, hi = growth_of_den([1, -3], [1, -2]).z0_interval
        assert lo < Fraction(1, 3) < hi
        assert hi - lo <= Fraction(1, 10**12)

    def test_repeated_root_rejected(self):
        with pytest.raises(NoRootFound, match="Graeffe steps"):
            growth_of_den([1, -3], [1, -3])

    def test_complex_pair_nearer_than_positive_root_rejected(self):
        # 1 + 2z - 16z^3 = (1 - 2z)(1 + 4z + 8z^2): 1/2 is its only positive
        # root, but -1/4 +- i/4 have modulus 0.354, so 1/2 is not dominant
        with pytest.raises(NoRootFound):
            growth_of_den([1, 2, 0, -16])


def test_recorded_roots_on_the_dyadic_grid():
    # every recorded reference z0 lies in the 2^-40 cell the certifier
    # reports, so the printed z0, rate and amplitude are pinned bit for bit
    refs = json.loads(REFS.read_text())["z0"]
    for key, ref in refs.items():
        p, q = key.split(",")
        s = Schlafli(INFINITY if p == "inf" else int(p), int(q))
        info = growth(derive(s).v, s)
        assert info.classification == ref["class"], key
        if ref["class"] == HYPERBOLIC:
            z0 = Fraction(ref["z0"])
            lo = math.floor(z0 / CELL) * CELL
            assert info.z0_interval == (lo, lo + CELL), key


@given(
    st.lists(st.integers(2, 50), min_size=1, max_size=4, unique=True),
    st.lists(st.integers(1, 100), max_size=2, unique=True),
    st.booleans(),
)
def test_isolates_smallest_of_product_roots(rates, negative_roots, complex_pair):
    # distinct factors, so den is squarefree; only the 1 - a z vanish in (0,1],
    # and 1/max(rates) is of least modulus exactly when every negative root
    # -1/b lies farther out (the roots of 1 + z + z^2 lie on |z| = 1)
    factors = [[1, -a] for a in rates] + [[1, b] for b in negative_roots]
    den = poly_mul(IntPoly([1, 1, 1] if complex_pair else [1]), *map(IntPoly, factors))
    if all(b < max(rates) for b in negative_roots):
        lo, hi = _certify_smallest_root(den)
        assert lo <= Fraction(1, max(rates)) <= hi
        assert hi - lo <= Fraction(1, 10**12)
    else:
        with pytest.raises(NoRootFound):
            _certify_smallest_root(den)


# 2^-40 cells and Rouché exponents N = 2^k of two large symbols; the cells
# were recorded from the Sturm-chain certifier that preceded the Rouché one
LARGE_P_CELLS = {(2001, 3): (549755813888, 2), (1999, 2048): (537133184, 1)}


@pytest.mark.parametrize("pq", sorted(LARGE_P_CELLS), ids=str)
def test_large_p_cells(pq):
    s = Schlafli(*pq)
    den = derive(s).v.den
    m, n = LARGE_P_CELLS[pq]
    assert _certify_smallest_root(den) == (m * CELL, (m + 1) * CELL)
    assert _rouche_disk(_multiples(den)[0][1])[0] == n


def test_graeffe_near_tie():
    # the near tie that sets _GRAEFFE_STEPS: 1/46 beside 1/45 and -1/45 is
    # isolated after 7 steps (N = 128), one short of the limit; ten times
    # closer, 1/460 beside 1/459 and -1/459, it is refused
    near = poly_mul(IntPoly([1, -46]), IntPoly([1, -45]), IntPoly([1, 45]))
    assert _rouche_disk(_multiples(near)[0][1])[0] == 128
    lo, hi = _certify_smallest_root(near)
    assert lo <= Fraction(1, 46) <= hi and hi - lo <= CELL
    nearer = poly_mul(IntPoly([1, -460]), IntPoly([1, -459]), IntPoly([1, 459]))
    for _, m in _multiples(nearer):
        with pytest.raises(NoRootFound, match="in 8 Graeffe steps"):
            _rouche_disk(m)
    with pytest.raises(NoRootFound, match="in 8 Graeffe steps"):
        _certify_smallest_root(nearer)


# binary64 guesses at z0 that miss its cell, or give none; each maps the
# guess Newton's iteration makes to the one the certifier is handed
MISSED_GUESSES = {
    "nan": lambda z: math.nan,
    "zero": lambda z: 0.0,
    "near one": lambda z: 0.999,
    "ten": lambda z: 10.0,
    "1000 cells above": lambda z: z + 1000 * 2.0**-40,
    "1000 cells below": lambda z: z - 1000 * 2.0**-40,
}


@pytest.fixture(params=["as guessed", *sorted(MISSED_GUESSES)])
def guess(request, monkeypatch):
    if request.param in MISSED_GUESSES:
        float_root, miss = asymptotics._float_root, MISSED_GUESSES[request.param]
        monkeypatch.setattr(asymptotics, "_float_root", lambda m: miss(float_root(m)))


def dyadic_cell(z0):
    lo = math.floor(z0 / CELL) * CELL
    return lo, lo + CELL


def test_cell_does_not_depend_on_the_guess(guess):
    # whatever the guess, the search ends in the recorded cell: the grid's
    # references, the near tie and a large symbol
    refs = json.loads(REFS.read_text())["z0"]
    for s in HYPERBOLIC_GRID:
        z0 = Fraction(refs[f"{s.p},{s.q}"]["z0"])
        assert _certify_smallest_root(derive(s).v.den) == dyadic_cell(z0), s
    near = poly_mul(IntPoly([1, -46]), IntPoly([1, -45]), IntPoly([1, 45]))
    assert _certify_smallest_root(near) == dyadic_cell(Fraction(1, 46))
    m = LARGE_P_CELLS[(2001, 3)][0]
    assert _certify_smallest_root(derive(Schlafli(2001, 3)).v.den) == (m * CELL, (m + 1) * CELL)
    # a root on the dyadic grid is found exactly
    half = Fraction(1, 2)
    assert _certify_smallest_root(poly_mul(IntPoly([1, -2]), IntPoly([1, 1, 1]))) == (half, half)
    # and a 10^-140 cell, far finer than any binary64 guess
    lo, hi = _certify_smallest_root(poly_mul(IntPoly([1, -3]), IntPoly([1, -2])), Fraction(1, 10**140))
    assert lo < Fraction(1, 3) < hi and hi - lo <= Fraction(1, 10**140)


def test_refusals_do_not_depend_on_the_guess(guess):
    for den in ([1, 1], [1], [1, -6, 9], [1, 2, 0, -16]):  # no root, constant, (1 - 3z)^2, complex pair
        with pytest.raises(NoRootFound):
            _certify_smallest_root(IntPoly(den))
    # z0 = 1 - 2^-41 lies in the last cell below 1, whose right end is a
    # root of M and so lies outside the disk; the coarse cell (1/2, 1] of
    # the root 3/4 ends there too
    with pytest.raises(NoRootFound, match="no simple root"):
        _certify_smallest_root(IntPoly([2**41 - 1, -(2**41)]))
    with pytest.raises(NoRootFound, match="no simple root"):
        _certify_smallest_root(IntPoly([3, -4]), Fraction(1, 2))


def test_refused_only_when_both_multiples_refuse():
    # at width 1/2 the sparser multiple's disk can leave out a cell that the
    # other's holds: for the first q, (1 - z^2)q has 7 terms against the 8
    # of (1 - z)q, and its disk misses 1/2, while (1 - z)q certifies
    # (0, 1/2]; the other two are certified by their sparser multiple
    half = Fraction(1, 2)
    first = IntPoly([3, -8, -6, 4, 1, 4, 1])
    assert len(_multiples(first)[0][1]) == 7
    with pytest.raises(NoRootFound):
        asymptotics._certify_on(first, _multiples(first)[0][1], half)
    for q in (first, IntPoly([1, -3, 0, -3] + [0] * 27 + [-1]), IntPoly([1, -2, 0, -2, 0, 0, 1])):
        assert _certify_smallest_root(q, half) == (0, half), q


def test_no_float_guess_for_huge_coefficients():
    # coefficients past binary64's range leave no guess; bisection certifies
    den = IntPoly([10**400, -(10**401)])
    assert math.isnan(asymptotics._float_root(_multiples(den)[0][1]))
    assert _certify_smallest_root(den) == dyadic_cell(Fraction(1, 10))


def test_guess_alone_certifies_every_census(monkeypatch):
    # the two exact sign tests of the guessed cell certify it: any further
    # probe of the gallop or the bisection raises
    probes = []
    sparse_eval = asymptotics._sparse_eval

    def guessed_cell_only(f, a, b):
        probes.append(Fraction(a, b))
        if len(probes) > 2:
            raise AssertionError("the guessed cell missed")
        return sparse_eval(f, a, b)

    monkeypatch.setattr(asymptotics, "_sparse_eval", guessed_cell_only)
    for s in WIDE_HYPERBOLIC_GRID + [Schlafli(*pq) for pq in LARGE_P_SYMBOLS]:
        probes.clear()
        assert list(_certify_smallest_root(derive(s).v.den)) == probes, s


# sha256 of str() of the v, a, b and c generating functions of four large
# symbols, recorded before long division skipped zero taps and scaled the
# dividend once; {2046,3} is the case whose (1 - z)Q is dense
LARGE_P_GF_DIGESTS = {
    (2001, 3): (
        "c4adc24655fd7f58f8d9d94b84cb4e777ad6e0e7513f4b2388451a4060196732",
        "16dc5ee05ae13051bbdf7136f520c3809e3d5409cef9368dda83fbde9240d746",
        "d5c9356fb3d537d7ba3cdf1d0ac8b392e8af2a00c4af19e5d105e50f0c6971d3",
        "b7f4a536269fbdc4b638ae8d2e3ad9bc763e1d3734956224a11f6dc2b68ecee8",
    ),
    (2047, 7): (
        "d9c36fab5ff8b596941e5d6553d2a0b41a45c667d19a99dac9adf8f0a17a29e4",
        "98458f8c6d6937193b4b1d91a0fcc77ec75e14b233cc2d98bfab49b70ebcbda2",
        "4ed6f8740862bcec9d924795eead7dbf3c003f8b2e21801dfbca24f92b03067a",
        "7e22b7ea1b786281f6606bf582f742993a559038ac583b691413348b81460f80",
    ),
    (1999, 2048): (
        "8832fb9a1dac8d3c51642d49b9284c561bfe5d0c696294b72015624c99d7af07",
        "dc703d222db33dc5229efe8b9a5e769c976f1db0a3ae4e2efe5c3e517a0f145a",
        "181c65f24625add8b91d2c55fbc674c262965efa68834cbfd092a00f34021ebe",
        "8c2cc8beb7f43ef847d4ef56ceccff7e04707fd81f7d8aa738dbe9e384e1c8c9",
    ),
    (2046, 3): (
        "7a5f1ce3a65e838df6c265e43f42f170acabb23e495aeae308c5bd15770249e1",
        "397c9026d9fe35721cf8c79d6d69e87e0d6a7531ee8d741d638c7cd2f8f0c2ce",
        "6c0f53dbb58e60c9c4887accfa5b0a5eb80732537f4c783d7be3cda031e29919",
        "6f2f62da2733f637308ee5e9bf02187f89cf12283e5685320696ce5734e50106",
    ),
}


@pytest.mark.parametrize("pq", sorted(LARGE_P_GF_DIGESTS), ids=str)
def test_large_p_generating_functions(pq):
    cgf = derive(Schlafli(*pq))
    digests = tuple(hashlib.sha256(str(gf).encode()).hexdigest() for gf in (cgf.v, cgf.a, cgf.b, cgf.c))
    assert digests == LARGE_P_GF_DIGESTS[pq]


@pytest.mark.parametrize("s", HYPERBOLIC_GRID, ids=str)
def test_certified_interval_brackets_sign_change(s):
    info = growth(derive(s).v, s)
    lo, hi = info.z0_interval
    den = derive(s).v.den
    assert hi - lo <= Fraction(1, 10**12)
    assert 0 < lo <= hi < 1
    if lo != hi:
        assert den(lo) * den(hi) < 0
    else:
        assert den(lo) == 0


@pytest.mark.parametrize("s", HYPERBOLIC_GRID, ids=str)
def test_amplitude_approximates_census(s):
    cgf = derive(s)
    info = growth(cgf.v, s)
    v = rec_eval(rec_from_gf(cgf.v), 80)
    mid = (info.z0_interval[0] + info.z0_interval[1]) / 2
    rel = abs(float(v[80] * mid**80) - info.amplitude) / info.amplitude
    assert rel <= 1e-6


def test_amplitude_is_the_rounded_exact_quotient():
    # one int division rounds as float() of the exact rational does, also
    # for the trees' rational z0, a numerator of higher degree than Q and
    # large p: odd p, p = 2 (mod 4), where the multiple is (1 - z^2)Q, and
    # the caps on p and q
    symbols = admissible_symbols([*range(3, 13), INFINITY], range(3, 13))
    symbols += [Schlafli(*pq) for pq in [(2001, 3), (2046, 3), (2048, 2048), (INFINITY, 2048)]]
    cases = [(derive(s).v, s) for s in symbols if s.is_tree or s.hyperbolic()]
    cases.append((gf_normalize(IntPoly([1, 2, 0, 0, 5]), IntPoly([1, -3])), Schlafli(4, 5)))
    for gf, s in cases:
        info = growth(gf, s)
        z0 = sum(info.z0_interval) / 2
        assert info.amplitude == float(-gf.num(z0) / (z0 * poly_derivative(gf.den)(z0))), s


def test_growth_evaluates_only_sparse_polynomials(monkeypatch):
    # the sign tests and the amplitude evaluate sparse multiples of Q and P,
    # never the dense P, Q or Q' of degree about p: every polynomial growth
    # hands the evaluator has at most 6 terms, as derive's sparse forms do
    sizes = []
    sparse_eval = asymptotics._sparse_eval

    def counting(f, a, b):
        sizes.append(len(f))
        return sparse_eval(f, a, b)

    monkeypatch.setattr(asymptotics, "_sparse_eval", counting)
    large = [Schlafli(*pq) for pq in LARGE_P_SYMBOLS + [(INFINITY, 2048)]]
    for s in WIDE_HYPERBOLIC_GRID + large:
        sizes.clear()
        growth(derive(s).v, s)
        assert len(sizes) == (2 if s.is_tree else 4) and max(sizes) <= 6, (s, sizes)


@pytest.mark.parametrize("s", HYPERBOLIC_GRID, ids=str)
def test_ratio_converges_geometrically(s):
    # exact arithmetic against a much tighter root enclosure, so the
    # geometric decrease is visible instead of drowning in binary64 noise
    cgf = derive(s)
    lo, hi = _certify_smallest_root(cgf.v.den, Fraction(1, 10**140))
    lam = 2 / (lo + hi)
    v = rec_eval(rec_from_gf(cgf.v), 60)
    errs = [abs(Fraction(v[n], v[n - 1]) - lam) for n in (20, 40, 60)]
    assert errs[1] < errs[0] / 2
    assert errs[2] < errs[1] / 2
    assert float(errs[2]) <= 1e-9
    info = growth(cgf.v, s)
    assert abs(ratio_probe(rec_from_gf(cgf.v), 60) - info.rate) <= 1e-9


class TestPalindrome:
    def test_fixtures(self):
        assert palindrome_check(IntPoly([1, -3, 1]))
        assert not palindrome_check(IntPoly([1, -2, -1]))
        assert palindrome_check(IntPoly([1, 1]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            palindrome_check(IntPoly())

    def test_all_hyperbolic_denominators_palindromic(self):
        for s in HYPERBOLIC_GRID:
            assert palindrome_check(derive(s).v.den), s


class TestCensusDenominatorRoot:
    def test_one_irrational_root_in_unit_interval(self):
        # every census Q has one root in (0,1] by the reference Sturm count,
        # none at 1, and a leading coefficient of +-1, so (with Q(0) = 1) no
        # rational root in (0,1); the certifier's exact-root return thus runs
        # only for the products of TestGrowth and
        # test_isolates_smallest_of_product_roots, never for a census.  The
        # certified cell holds that root, and Rouché's test needs at most 3
        # Graeffe steps.  (1 - z)Q has at most 4 terms for p = 3 or
        # p = 0 (mod 4) and 6 for odd p >= 5, but p/2 + 1 for p = 2 (mod 4),
        # where derive cancels 1 - z^2 rather than 1 - z; the sparser of
        # (1 - z)Q and (1 - z^2)Q, which Rouché's test runs on, has 6 terms
        # for odd p >= 5 and 4 otherwise
        assert len(WIDE_HYPERBOLIC_GRID) == 1436
        for s in WIDE_HYPERBOLIC_GRID:
            q = derive(s).v.den
            chain = sturm_chain(q.coeffs)
            v0 = sign_changes(chain, Fraction(0))
            assert v0 - sign_changes(chain, Fraction(1)) == 1, s
            assert abs(q.coeffs[-1]) == 1 and q[0] == 1, s
            assert q(1) != 0, s
            lo, hi = _certify_smallest_root(q)
            assert sign_changes(chain, lo) == v0, s
            assert q(lo) > 0 > q(hi), s
            _, mult = _multiples(q)[0]
            assert _rouche_disk(mult)[0] <= 8, s
            assert len(mult) == (6 if s.p % 2 and s.p > 3 else 4), s
            terms = sum(1 for c in poly_mul(IntPoly([1, -1]), q).coeffs if c)
            if s.p == 3 or s.p % 4 == 0:
                assert terms <= 4, s
            else:
                assert terms == (s.p // 2 + 1 if s.p % 4 == 2 else 6), s


class TestRatioProbe:
    def test_tree_exact(self):
        rec = rec_from_gf(derive(Schlafli(INFINITY, 3)).v)
        assert ratio_probe(rec, 10) == 2.0

    def test_heptagonal(self):
        s = Schlafli(3, 7)
        rec = rec_from_gf(derive(s).v)
        info = growth(derive(s).v, s)
        assert abs(ratio_probe(rec, 60) - info.rate) <= 1e-9

    def test_small_n_rejected(self):
        rec = rec_from_gf(derive(Schlafli(4, 5)).v)
        with pytest.raises(ValueError):
            ratio_probe(rec, 1)
