import copy
import pickle

import pytest

from conftest import admissible_symbols, cannon_wagreich, coxeter_growth, gf_normalize, poly_add, poly_mul
from pqcensus import genfunc
from pqcensus.genfunc import (
    CASE_EVEN,
    CASE_ODD,
    CASE_TREE,
    CASE_TRIANGLE,
    INFINITY,
    BadDegree,
    Schlafli,
    SphericalOutOfScope,
    derive,
)
from pqcensus.asymptotics import growth
from pqcensus.oracle import build_map
from pqcensus.polyarith import IntPoly, series_coeffs

GRID = admissible_symbols(list(range(3, 13)) + [INFINITY], range(3, 13))


class TestSchlafli:
    def test_validation(self):
        with pytest.raises(BadDegree):
            Schlafli(4, 2)
        with pytest.raises(BadDegree):
            Schlafli(2, 4)
        with pytest.raises(BadDegree):
            Schlafli(4, "five")
        # p is bounded so that no derivation allocates a dense polynomial
        # of unbounded degree; the message names the bound
        for p in (2049, 100000001, 99999999999999999999):
            with pytest.raises(BadDegree, match=f"at most 2048, got {p}$"):
                Schlafli(p, 3)
        assert Schlafli(2048, 3).hyperbolic()
        # q is bounded the same way: z0 is about 1/q and certified only to an
        # absolute cell, so a huge q would report a wrong rate
        for q in (2049, 99999999999999999999):
            with pytest.raises(BadDegree, match=f"^vertex degree q must be at most 2048, got {q}$"):
                Schlafli(4, q)
            with pytest.raises(BadDegree, match=f"^vertex degree q must be at most 2048, got {q}$"):
                Schlafli(INFINITY, q)
        assert Schlafli(4, 2048).hyperbolic()

    def test_admissibility_boundary(self):
        assert Schlafli(4, 4).euclidean()
        assert Schlafli(3, 6).euclidean()
        assert Schlafli(6, 3).euclidean()
        assert Schlafli(4, 5).hyperbolic()
        assert not Schlafli(4, 3).admissible()
        assert not Schlafli(3, 5).admissible()
        assert Schlafli(INFINITY, 3).admissible()
        assert Schlafli(INFINITY, 3).is_tree
        assert not Schlafli(INFINITY, 3).euclidean()

    def test_str(self):
        assert str(Schlafli(INFINITY, 3)) == "{inf,3}"
        assert str(Schlafli(7, 3)) == "{7,3}"

    def test_value_type(self):
        s = Schlafli(4, 5)
        assert repr(s) == "Schlafli(p=4, q=5)"
        assert repr(Schlafli(INFINITY, 3)) == "Schlafli(p=INFINITY, q=3)"
        assert s == Schlafli(p=4, q=5) and s != Schlafli(5, 4) and s != (4, 5)
        assert len({s, Schlafli(4, 5), Schlafli(INFINITY, 3), Schlafli(INFINITY, 3)}) == 2
        with pytest.raises(AttributeError):
            s.p = 5
        with pytest.raises(AttributeError):
            del s.q
        assert pickle.loads(pickle.dumps(Schlafli(INFINITY, 3))) == Schlafli(INFINITY, 3)
        assert copy.deepcopy(s) == s

    def test_infinity_is_one_object(self):
        # pickled and copied by name, so a round trip gives INFINITY itself
        assert pickle.loads(pickle.dumps(INFINITY)) is INFINITY
        assert copy.deepcopy(INFINITY) is INFINITY and copy.copy(INFINITY) is INFINITY
        assert pickle.loads(pickle.dumps(Schlafli(INFINITY, 3))).p is INFINITY
        assert (repr(INFINITY), str(INFINITY)) == ("INFINITY", "inf")


# the six hand-reduced closed forms, plus series openings
REDUCED_FORMS = {
    (4, 5): ((1, 2, 1), (1, -3, 1), [1, 5, 15, 40, 105]),
    (6, 4): ((1, 1, 1), (1, -3, 1), [1, 4, 12, 32, 84]),
    (4, 4): ((1, 2, 1), (1, -2, 1), [1, 4, 8, 12, 16]),
    (6, 3): ((1, 1, 1), (1, -2, 1), [1, 3, 6, 9, 12]),
    (3, 6): ((1, 4, 1), (1, -2, 1), [1, 6, 12, 18, 24]),
    (3, 7): ((1, 4, 1), (1, -3, 1), [1, 7, 21, 56, 147]),
}


@pytest.mark.parametrize("pq", sorted(REDUCED_FORMS))
def test_reduced_forms(pq):
    num, den, series = REDUCED_FORMS[pq]
    cgf = derive(Schlafli(*pq))
    assert cgf.v.num.coeffs == num
    assert cgf.v.den.coeffs == den
    assert series_coeffs(cgf.v, 4) == series


class TestTree:
    def test_q3(self):
        cgf = derive(Schlafli(INFINITY, 3))
        assert cgf.symbol.case == CASE_TREE
        assert cgf.v.num.coeffs == (1, 1)
        assert cgf.v.den.coeffs == (1, -2)
        assert series_coeffs(cgf.v, 4) == [1, 3, 6, 12, 24]

    def test_q4_closed_form(self):
        cgf = derive(Schlafli(INFINITY, 4))
        assert series_coeffs(cgf.v, 5)[5] == 4 * 3**4

    def test_v0(self):
        assert series_coeffs(derive(Schlafli(INFINITY, 3)).v, 0) == [1]

    def test_bad_degree(self):
        with pytest.raises(BadDegree):
            derive(Schlafli(INFINITY, 2))


class TestEven:
    def test_octagonal_series(self):
        # independently derived: common denominator with r=4, q=3
        cgf = derive(Schlafli(8, 3))
        assert series_coeffs(cgf.v, 4) == [1, 3, 6, 12, 21]

    def test_class_series_start(self):
        cgf = derive(Schlafli(4, 5))
        assert series_coeffs(cgf.a, 1) == [0, 5]
        assert series_coeffs(cgf.b, 2) == [0, 0, 5]

    def test_rejects_spherical(self):
        with pytest.raises(SphericalOutOfScope):
            derive(Schlafli(4, 3))


class TestTriangle:
    def test_reduced_graph_classes(self):
        # {3,6} reduced graph: six one-parent vertices per generation
        cgf = derive(Schlafli(3, 6))
        assert series_coeffs(cgf.a, 4) == [0, 6, 6, 6, 6]
        assert series_coeffs(cgf.b, 4) == [0, 0, 6, 12, 18]

    def test_q8_second_generation(self):
        assert series_coeffs(derive(Schlafli(3, 8)).v, 2) == [1, 8, 32]

    def test_rejects_spherical(self):
        for q in (3, 4, 5):
            with pytest.raises(SphericalOutOfScope):
                derive(Schlafli(3, q))


class TestOdd:
    def test_pentagon_order_four(self):
        cgf = derive(Schlafli(5, 4))
        assert cgf.v.num.coeffs == (1, 2, 4, 2, 1)
        assert cgf.v.den.coeffs == (1, -2, 0, -2, 1)
        assert series_coeffs(cgf.v, 5) == [1, 4, 12, 28, 64, 148]

    def test_heptagonal_series(self):
        cgf = derive(Schlafli(7, 3))
        assert series_coeffs(cgf.v, 6) == [1, 3, 6, 12, 18, 30, 45]

    def test_class_series_starts(self):
        cgf = derive(Schlafli(5, 4))  # r=2
        assert series_coeffs(cgf.b, 4) == [0, 0, 0, 0, 4]
        assert series_coeffs(cgf.c, 2) == [0, 0, 8]

    def test_rejects_dodecahedron(self):
        with pytest.raises(SphericalOutOfScope):
            derive(Schlafli(5, 3))


class TestDerive:
    def test_dispatch(self):
        assert derive(Schlafli(4, 4)).symbol.case == CASE_EVEN
        assert derive(Schlafli(3, 6)).symbol.case == CASE_TRIANGLE
        assert derive(Schlafli(INFINITY, 3)).symbol.case == CASE_TREE
        assert derive(Schlafli(5, 4)).symbol.case == CASE_ODD
        # the case is defined for spherical symbols too
        assert [s.case for s in SPHERICAL] == [CASE_TRIANGLE] * 3 + [CASE_EVEN, CASE_ODD]

    def test_spherical_carries_symbol(self):
        with pytest.raises(SphericalOutOfScope) as exc:
            derive(Schlafli(3, 5))
        assert exc.value.p == 3 and exc.value.q == 5


SPHERICAL = [Schlafli(p, q) for p, q in [(3, 3), (3, 4), (3, 5), (4, 3), (5, 3)]]


@pytest.mark.parametrize("s", SPHERICAL, ids=str)
def test_spherical_refused_everywhere(s):
    # derive, the oracle and the growth analysis share one scope rule and error
    any_gf = gf_normalize(IntPoly([1]), IntPoly([1, -2]))
    for call in (lambda: derive(s), lambda: build_map(s, 1), lambda: growth(any_gf, s)):
        with pytest.raises(SphericalOutOfScope) as exc:
            call()
        assert (exc.value.p, exc.value.q) == (s.p, s.q)


@pytest.mark.parametrize("s", GRID, ids=str)
def test_class_sum_identity(s):
    c = derive(s)
    scale = poly_mul(c.a.den, c.b.den, c.c.den)
    lhs = poly_mul(c.v.num, scale)
    rhs = poly_mul(
        c.v.den,
        poly_add(
            scale,
            poly_mul(c.a.num, c.b.den, c.c.den),
            poly_mul(c.a.den, c.b.num, c.c.den),
            poly_mul(c.a.den, c.b.den, c.c.num),
        ),
    )
    assert lhs == rhs


@pytest.mark.parametrize("s", GRID, ids=str)
def test_series_openings(s):
    c = derive(s)
    v = series_coeffs(c.v, 2)
    assert v[0] == 1
    assert v[1] == s.q
    assert series_coeffs(c.a, 1)[1] == s.q
    if c.symbol.case == CASE_EVEN:
        r = s.p // 2
        b = series_coeffs(c.b, r)
        assert b[r] == s.q and all(x == 0 for x in b[:r])
    if c.symbol.case == CASE_ODD:
        r = (s.p - 1) // 2
        b = series_coeffs(c.b, 2 * r)
        cc = series_coeffs(c.c, r)
        assert b[2 * r] == s.q and all(x == 0 for x in b[: 2 * r])
        assert cc[r] == 2 * s.q and all(x == 0 for x in cc[:r])


@pytest.mark.parametrize("s", GRID, ids=str)
def test_series_nonnegative(s):
    c = derive(s)
    for gf in (c.v, c.a, c.b, c.c):
        assert all(x >= 0 for x in series_coeffs(gf, 30))


def test_hexagon_square_denominator_match():
    for q in range(3, 11):
        den6 = derive(Schlafli(6, q)).v.den
        den4 = derive(Schlafli(4, q + 1)).v.den
        assert den6 == den4, q


def test_euclidean_arithmetic_progressions():
    for (p, q), step in [((4, 4), 4), ((3, 6), 6), ((6, 3), 3)]:
        v = series_coeffs(derive(Schlafli(p, q)).v, 30)
        assert all(v[n] == step * n for n in range(1, 31))


def reciprocal(gf) -> bool:
    """v(1/z) = v(z) as rational functions, checked exactly: with * the
    reversal of a coefficient list, z^(deg Q - deg P) P*(z) Q(z) = P(z) Q*(z).
    Every census here has deg P <= deg Q (equal, in fact)."""
    p, q = gf.num, gf.den
    assert p.degree <= q.degree
    left = poly_mul(IntPoly([0] * (q.degree - p.degree) + list(p.coeffs[::-1])), q)
    return left == poly_mul(p, IntPoly(q.coeffs[::-1]))


def test_census_reciprocal_on_grid():
    # every Euclidean and hyperbolic census with p, q <= 40 (1,439 symbols)
    grid = admissible_symbols(range(3, 41), range(3, 41))
    assert len(grid) == 1439
    assert [s for s in grid if not reciprocal(derive(s).v)] == []


@pytest.mark.parametrize("pq", [(2001, 3), (2046, 3), (1999, 2048), (2048, 2048)], ids=str)
def test_census_reciprocal_large_p(pq):
    assert reciprocal(derive(Schlafli(*pq)).v)


def test_tree_census_not_reciprocal():
    # (1 + z)/(1 - 2z): the tree's growth series has no such symmetry
    assert not reciprocal(derive(Schlafli(INFINITY, 3)).v)


# symbols past the p, q <= 40 grid: p of every residue mod 4 near the cap,
# q from 3 to the cap, and mixed sizes
LARGE_P = [(2001, 3), (2046, 3), (2048, 3), (2048, 2048), (1999, 2048), (2047, 7), (1024, 1025), (8, 2048)]


def unreduced(s, monkeypatch):
    """derive(s) with every row of the factor table emptied: each class as
    its numerator over the common denominator M, as the case helper wrote it."""
    with monkeypatch.context() as patch:
        for row in genfunc._FACTORS:
            patch.setitem(genfunc._FACTORS, row, ((), (), (), ()))
        return derive(s)


def test_factor_table_is_the_gcd(monkeypatch):
    # the proved rows divide out exactly what the general gcd reduction does,
    # on every symbol with p, q <= 40, past it and on trees
    grid = admissible_symbols(range(3, 41), range(3, 41))
    assert len(grid) == 1439
    trees = admissible_symbols([INFINITY], range(3, 41))
    for s in grid + trees + [Schlafli(*pq) for pq in LARGE_P]:
        plain, cgf = unreduced(s, monkeypatch), derive(s)
        for gf, ref in zip(cgf[1:], plain[1:]):
            assert gf == gf_normalize(ref.num, ref.den), s


@pytest.mark.parametrize(
    "pq, row, wrong",
    [
        ((7, 3), "odd p >= 5", ((1,), (2,), (1,), (1,))),  # a: 1 - z^2 where only 1 - z divides
        ((8, 3), "p = 0 (mod 4)", ((2,), (1,), (1,), ())),  # v: 1 - z^2 is p = 2 (mod 4)'s
        ((6, 4), "p = 2 (mod 4)", ((2,), (1, 1), (1,), ())),  # a: (1 - z)^2 is {4,4}'s
        ((3, 7), "p = 3", ((), (), (1,), ())),  # b: qz^2 has no factor 1 - z
    ],
    ids=["{7,3} a", "{8,3} v", "{6,4} a", "{3,7} b"],
)
def test_wrong_factor_row_raises(monkeypatch, pq, row, wrong):
    # a factor that does not divide leaves a nonzero prefix sum: derive
    # raises instead of returning a wrong fraction
    monkeypatch.setitem(genfunc._FACTORS, row, wrong)
    with pytest.raises(ArithmeticError, match="does not divide"):
        derive(Schlafli(*pq))


# even p past the p, q <= 40 grid, both residues mod 4, with q from small to the cap
COXETER_SAMPLE = [(p, (3, 5, 17, 2048)[i % 4]) for i, p in enumerate(range(42, 2049, 98))]


def test_even_census_is_a_coxeter_growth_series():
    # p = 2m: the census of {p,q} is the growth series of the Coxeter group
    # generated by the reflections in a q-gon's sides, by Steinberg's formula
    grid = admissible_symbols(range(4, 41, 2), range(3, 41))
    assert len(grid) == 721
    extra = [(2048, 3), (2046, 3), (2048, 2048), (1024, 1025), (8, 2048)] + COXETER_SAMPLE
    for s in grid + [Schlafli(*pq) for pq in extra]:
        assert derive(s).v == coxeter_growth(s), s


@pytest.mark.parametrize("g", [1, 2, 3, 5])
def test_surface_group_growth_series(g):
    # {4g,4g} is the Cayley graph of the genus-g surface group (g = 1: {4,4})
    assert derive(Schlafli(4 * g, 4 * g)).v == cannon_wagreich(g)
