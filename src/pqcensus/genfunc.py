"""Closed-form census generating functions for every admissible {p,q}.

The symbol {p,q} names the tessellation whose faces all have degree p and
whose vertices all have degree q.  Exactly one of four derivations applies:

* p infinite: the graph is the q-regular tree.
* p even:     every edge joins consecutive generations; vertices have one
              or two parents (classes ``a`` and ``b``).
* p = 3:      deleting the same-generation "sibling" edges leaves a graph
              whose faces are quadrilaterals; classes ``a``/``b`` refer to
              that reduced graph.
* p odd >= 5: a third class ``c`` appears, vertices joined to one
              same-generation "cousin".

Each derivation writes the common denominator M of its counting
recurrences and the class numerators over it as sparse terms, at most six
each, and v's numerator as the one sum M + a + b + c.  ``derive`` then
divides each class's numerator and M exactly by the factors 1 - z^s that
``_FACTORS`` lists for its case, each row proved in its case helper's
docstring, so that the fraction comes out reduced in time linear in p.  The
hand-reduced textbook forms thus become test assertions instead of code
paths.

``Schlafli.case`` decides which derivation applies, for ``derive`` and the
oracle's classifier alike.  Admissibility (2(p+q) <= pq, i.e. 1/p + 1/q <=
1/2) is decided in exact integer arithmetic.  ``derive`` is the entry point
and the one place here a spherical symbol is refused, with
``SphericalOutOfScope`` (the error the oracle and the growth analysis raise
too); the case helpers trust it.
"""

from __future__ import annotations

from typing import NamedTuple

from pqcensus.polyarith import ONE, ZERO, FrozenValue, IntPoly, RationalGF

CASE_TREE = "TREE"
CASE_EVEN = "EVEN"
CASE_TRIANGLE = "TRIANGLE"
CASE_ODD = "ODD"

# the exponents s of the factors 1 - z^s that ``derive`` divides out of the
# numerator and the common denominator M of v, a, b and c, in that order; a
# case helper picks its row, and its docstring proves that the row's factors
# are the whole gcd of each numerator with M
_FACTORS = {
    "tree": ((), (), (), ()),
    "p = 3": ((), (), (), ()),
    "{3,6}": ((), (1,), (), ()),
    "p = 0 (mod 4)": ((1,), (1,), (1,), ()),
    "{4,4}": ((1,), (1, 1), (1,), ()),
    "p = 2 (mod 4)": ((2,), (1,), (1,), ()),
    "odd p >= 5": ((1,), (1,), (1,), (1,)),
}

# the derivations build dense polynomials of degree about p, and the growth
# analysis evaluates sparse multiples of Q and P in integers of about 41p
# bits (``asym`` on {2001,3}, {2047,7}, {1999,2048} and {2046,3}:
# 0.05-0.06 s end to end on 2 vCPUs, 1-5 ms of it in ``growth`` and
# 0.3-0.8 ms in ``derive``); z0 is about 1/q, certified to an absolute 2^-40
# cell, so q is bounded as well
MAX_DEGREE = 2048

# vertices the oracle may build for one ``verify``, by default and at most
# (a {8,8} build peaks at about 45 bytes a vertex, so about 450 MB at the
# cap; {3,q} maps have about 4 half-edges a vertex, and ``verify 3 2048
# --depth 2`` peaks at about 670 MB; on large p the map also keeps a
# template of each forced row's shape, and ``verify 2048 2048`` peaks at
# about 330 MB at depth 0, one row of 4.19 million vertices, and at about
# 790 MB at depth 1, which stops at the cap); they live here, beside the
# other bound, so that the CLI's parser reads them without importing the
# oracle
DEFAULT_VERTEX_BUDGET = 200_000
MAX_VERTEX_BUDGET = 10_000_000


class BadDegree(ValueError):
    """p or q outside the supported range."""


class SphericalOutOfScope(ValueError):
    """1/p + 1/q > 1/2: the tessellation closes up into a Platonic solid."""

    def __init__(self, p, q):
        self.p = p
        self.q = q
        super().__init__(f"{{{p},{q}}} is spherical (1/p + 1/q > 1/2); not supported")


class _Infinity:
    """Face degree of the tree case; a dedicated object, never an int, and
    the only one: it pickles and copies by name."""

    def __reduce__(self) -> str:
        return "INFINITY"

    def __repr__(self) -> str:
        return "INFINITY"

    def __str__(self) -> str:
        return "inf"


INFINITY = _Infinity()


class Schlafli(FrozenValue):
    """Symbol {p,q}; p is an int in 3..MAX_DEGREE or INFINITY, q an int in 3..MAX_DEGREE.

    Immutable: symbols compare and hash equal by (p, q).
    """

    __slots__ = ("p", "q")
    p: int | _Infinity
    q: int

    def __init__(self, p: int | _Infinity, q: int):
        if not isinstance(q, int) or q < 3:
            raise BadDegree(f"vertex degree q must be an integer >= 3, got {q!r}")
        if q > MAX_DEGREE:
            raise BadDegree(f"vertex degree q must be at most {MAX_DEGREE}, got {q}")
        if not isinstance(p, _Infinity):
            if not isinstance(p, int) or p < 3:
                raise BadDegree(f"face degree p must be an integer >= 3 or INFINITY, got {p!r}")
            if p > MAX_DEGREE:
                raise BadDegree(f"face degree p must be at most {MAX_DEGREE}, got {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __repr__(self) -> str:
        return f"Schlafli(p={self.p!r}, q={self.q!r})"

    @property
    def is_tree(self) -> bool:
        return isinstance(self.p, _Infinity)

    @property
    def case(self) -> str:
        """Which of the four derivations applies; defined for spherical
        symbols too, which ``derive`` and ``build_map`` refuse first."""
        if self.is_tree:
            return CASE_TREE
        if self.p == 3:
            return CASE_TRIANGLE
        return CASE_EVEN if self.p % 2 == 0 else CASE_ODD

    def admissible(self) -> bool:
        """True when the tessellation is infinite: 1/p + 1/q <= 1/2."""
        if self.is_tree:
            return True
        return 2 * (self.p + self.q) <= self.p * self.q

    def euclidean(self) -> bool:
        return not self.is_tree and 2 * (self.p + self.q) == self.p * self.q

    def hyperbolic(self) -> bool:
        """Strict inequality with finite p; the tree case is reported separately."""
        return not self.is_tree and 2 * (self.p + self.q) < self.p * self.q

    def __str__(self) -> str:
        return f"{{{self.p},{self.q}}}"


class CensusGF(NamedTuple):
    """Census generating functions of one symbol.

    ``v`` counts all vertices of generation n; ``a``, ``b`` and ``c`` count
    the one-parent, two-parent and cousin-linked classes (zero wherever a
    class does not occur).  1 + a + b + c = v as rational functions.
    """

    symbol: Schlafli
    v: RationalGF
    a: RationalGF
    b: RationalGF
    c: RationalGF


# a polynomial as sparse terms: (exponent, coefficient) pairs, an exponent
# possibly repeated, their coefficients then adding up
_Terms = tuple[tuple[int, int], ...]


def _divide(terms: _Terms, factors: tuple[int, ...]) -> IntPoly:
    """The polynomial f of the terms divided exactly by 1 - z^s for each s in
    factors, or ArithmeticError when one does not divide.

    f = (1 - z^s) g gives g[i] = f[i] + g[i - s]: the quotient is the strided
    prefix sums of f, and it divides exactly when the last s of them vanish.
    """
    f = [0] * (max(e for e, _ in terms) + 1)
    for e, c in terms:
        f[e] += c
    for s in factors:
        for i in range(s, len(f)):
            f[i] += f[i - s]
        if any(f[-s:]):
            raise ArithmeticError(f"1 - z^{s} does not divide the census fraction it was listed for")
        del f[-s:]
    return IntPoly(f)


def _census(s: Schlafli, row: str, m: _Terms, a: _Terms, b: _Terms = (), c: _Terms = ()) -> CensusGF:
    """v, a, b and c over the common denominator m, v's numerator being
    m + a + b + c, each divided by its factors in ``_FACTORS[row]``.

    m(0) = 1, so each reduced denominator keeps constant term 1, and with
    the whole gcd divided out the fraction is the canonical one: no content
    or sign is left to fix.
    """
    dens: dict[tuple[int, ...], IntPoly] = {}

    def reduced(num: _Terms, factors: tuple[int, ...]) -> RationalGF:
        if not num:
            return RationalGF(ZERO, ONE)
        if factors not in dens:
            dens[factors] = _divide(m, factors)
            assert dens[factors][0] == 1
        return RationalGF(_divide(num, factors), dens[factors])

    fv, fa, fb, fc = _FACTORS[row]
    return CensusGF(s, reduced((*m, *a, *b, *c), fv), reduced(a, fa), reduced(b, fb), reduced(c, fc))


def _tree(s: Schlafli) -> CensusGF:
    """Census of the q-regular tree: a(n) = q(q-1)^(n-1) for n >= 1.

    No factor: M = 1 - (q-1)z shares no root with a = qz, as M(0) = 1, nor
    with v's numerator 1 + z, as M(-1) = q.
    """
    q = s.q
    return _census(s, "tree", ((0, 1), (1, 1 - q)), ((1, q),))


def _even(s: Schlafli) -> CensusGF:
    """Census for finite even p = 2r.

    Counting filial edges two ways and pairing each two-parent vertex with
    the face it completes gives, over a common denominator
    M = 1 - (q-1)z + (q-1)z^r - z^(r+1):

        a = qz h / M,  h = 1 - 2z^(r-1) + z^r,   b = qz^r (1 - z) / M.

    The factors: M(0) = 1, so z divides no gcd with M, and M(1) = 0.

    * v: N - M = a + b = qz(1 - z^m) with m = r - 1, so gcd(N, M) =
      gcd(M, 1 - z^m).  Modulo 1 - z^m, z^r = z and M = 1 - z^2, so the gcd
      is 1 - z^gcd(2, m): 1 - z for p = 0 (mod 4), 1 - z^2 for p = 2 (mod 4).
    * b: 1 - z divides b once, so the gcd is 1 - z.
    * a: at a common root x of M and h, x^(r-1) = 1/(2 - x) (h(2) = 1), and
      putting that into M and multiplying by 2 - x leaves
      (1 - x)(2 - (q-2)x).  The second root 2/(q-2) is 2 for q = 3, 1 for
      q = 4, and in (0,1) for q >= 5, where x^(r-1)(2 - x) <= 1 - (1 - x)^2
      < 1, so h(x) > 0.  So only x = 1 is shared.  h'(1) = 2 - r and
      M'(1) = r(q-2) - q, which vanishes exactly on Euclidean symbols, so
      x = 1 is a double root of both only on {4,4}: the gcd is (1 - z)^2
      there and 1 - z elsewhere.
    """
    q, r = s.q, s.p // 2
    m = ((0, 1), (1, 1 - q), (r, q - 1), (r + 1, -1))
    a = ((1, q), (r, -2 * q), (r + 1, q))
    b = ((r, q), (r + 1, -q))
    row = "{4,4}" if (r, q) == (2, 4) else "p = 2 (mod 4)" if r % 2 else "p = 0 (mod 4)"
    return _census(s, row, m, a, b)


def _triangle(s: Schlafli) -> CensusGF:
    """Census for p = 3, stated for the sibling-edge-free reduced graph.

    Dropping the same-generation sibling edges merges triangle pairs into
    quadrilaterals and lowers every non-origin degree to q - 2, so the
    even-case recurrences apply with their homogeneous coefficients reduced
    by two.  Solving them gives common denominator M = 1 - (q-4)z + z^2 and

        a = qz(1 - z) / M,   b = qz^2 / M,   v = (1 + 4z + z^2) / M.

    The factors: M(0) = 1, so b and v's numerator N, with N - M = qz, share
    no root with M.  M(1) = 6 - q, so a's gcd is 1 - z on {3,6}, where
    M = (1 - z)^2, and 1 otherwise.
    """
    q = s.q
    m = ((0, 1), (1, 4 - q), (2, 1))
    return _census(s, "{3,6}" if q == 6 else "p = 3", m, ((1, q), (2, -q)), ((2, q),))


def _odd(s: Schlafli) -> CensusGF:
    """Census for finite odd p = 2r + 1 >= 5.

    Faces now straddle generations asymmetrically: a face's earliest or
    latest boundary feature may be a cousin edge, giving the third class c.
    Over the common denominator
    M = 1 - (q-1)z + 2z^r - 2z^(r+1) + (q-1)z^(2r) - z^(2r+1):

        a = qz(1 + z^r) h / M,  h = 1 - 2z^(r-1) + z^r,
        b = qz^(2r)(1 - z) / M,
        c = 2qz^r (1 - z) / M.

    The factors: M(0) = 1, so z divides no gcd with M, and M(1) = 0, a
    simple root: M'(1) = (2r-1)(q-1) - 2r - 3 vanishes exactly on Euclidean
    symbols, and odd p >= 5 has none.

    * v: N - M = a + b + c = qz(1 - z^m) with m = 2r - 1.  Modulo 1 - z^m,
      M = (1 - z)(1 + z + 2z^r), and on |x| = 1, |1 + x| < 2 = |2x^r| unless
      x = 1; the roots of 1 - z^m are simple, so the gcd is 1 - z.
    * b and c: 1 - z divides each once, so the gcd is 1 - z.
    * a: where x^r = -1, M(x) = (q-2)(1 - x) != 0, so 1 + z^r shares no root
      with M.  At a common root x of M and h, x^(r-1) = 1/(2 - x), and
      putting that into M and multiplying by (2 - x)^2 leaves
      (1 - x)((q-2)x^2 - 4(q-2)x + 4), whose roots 2 +- 2 sqrt(1 - 1/(q-2))
      are >= 2, where x^(r-1)(2 - x) <= 0, or in (0,1), where it is
      <= 1 - (1 - x)^2 < 1: none is a root of h.  So the gcd is 1 - z.
    """
    q, r = s.q, (s.p - 1) // 2
    m = ((0, 1), (1, 1 - q), (r, 2), (r + 1, -2), (2 * r, q - 1), (2 * r + 1, -1))
    # a = (qz + qz^(r+1))(1 - 2z^(r-1) + z^r): every product of two terms
    a = tuple((i + j, x * y) for i, x in ((1, q), (r + 1, q)) for j, y in ((0, 1), (r - 1, -2), (r, 1)))
    b = ((2 * r, q), (2 * r + 1, -q))
    c = ((r, 2 * q), (r + 1, -2 * q))
    return _census(s, "odd p >= 5", m, a, b, c)


def derive(s: Schlafli) -> CensusGF:
    """Census generating functions of s; raises SphericalOutOfScope unless
    s is admissible, then dispatches to the one case that applies."""
    if not s.admissible():
        raise SphericalOutOfScope(s.p, s.q)
    return {CASE_TREE: _tree, CASE_TRIANGLE: _triangle, CASE_EVEN: _even, CASE_ODD: _odd}[s.case](s)
