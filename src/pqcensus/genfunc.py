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

Each derivation writes down the class numerators over a common
denominator obtained from the counting recurrences, then forms the total
v = 1 + a + b + c as one numerator over that denominator and lets
``gf_normalize`` cancel common factors.  The hand-reduced textbook forms
thus become test assertions instead of code paths.

``Schlafli.case`` decides which derivation applies, for ``derive`` and the
oracle's classifier alike.  Admissibility (2(p+q) <= pq, i.e. 1/p + 1/q <=
1/2) is decided in exact integer arithmetic.  ``derive`` is the entry point
and the one place here a spherical symbol is refused, with
``SphericalOutOfScope`` (the error the oracle and the growth analysis raise
too); the case helpers trust it.
"""

from __future__ import annotations

from typing import NamedTuple

from pqcensus.polyarith import ZERO, FrozenValue, IntPoly, RationalGF, gf_normalize

CASE_TREE = "TREE"
CASE_EVEN = "EVEN"
CASE_TRIANGLE = "TRIANGLE"
CASE_ODD = "ODD"

# the derivations build dense polynomials of degree about p, and the growth
# analysis evaluates the numerator and Q' at z0 for the amplitude (``asym``
# on {2001,3}, {2047,7}, {1999,2048} and {2046,3}: 0.07-0.22 s end to end on
# 2 vCPUs, 8-60 ms of it in ``growth``, mostly that amplitude, and 5-60 ms
# in ``derive``); z0 is about 1/q, certified to an absolute 2^-40 cell, so q
# is bounded as well
MAX_DEGREE = 2048

# vertices the oracle may build for one ``verify``, by default and at most
# (a {8,8} build peaks at about 45 bytes a vertex, so about 460 MB at the
# cap); they live here, beside the other bound, so that the CLI's parser
# reads them without importing the oracle
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


def _census(s: Schlafli, common: IntPoly, a_num: IntPoly, b_num: IntPoly = ZERO, c_num: IntPoly = ZERO) -> CensusGF:
    """Reduce each class numerator over the common denominator, and v as
    the one numerator common + a + b + c over it."""
    a, b, c = (gf_normalize(num, common) for num in (a_num, b_num, c_num))
    v = gf_normalize(common + a_num + b_num + c_num, common)
    return CensusGF(s, v, a, b, c)


def _tree(s: Schlafli) -> CensusGF:
    """Census of the q-regular tree: a(n) = q(q-1)^(n-1) for n >= 1."""
    q = s.q
    return _census(s, IntPoly([1, -(q - 1)]), IntPoly([0, q]))


def _even(s: Schlafli) -> CensusGF:
    """Census for finite even p = 2r.

    Counting filial edges two ways and pairing each two-parent vertex with
    the face it completes gives, over a common denominator
    1 - (q-1)z + (q-1)z^r - z^(r+1):

        a = qz(1 - 2z^(r-1) + z^r) / den,   b = qz^r (1 - z) / den.
    """
    q, r = s.q, s.p // 2
    den = [0] * (r + 2)
    den[0] = 1
    den[1] -= q - 1
    den[r] += q - 1
    den[r + 1] -= 1
    a_num = IntPoly([0, q] + [0] * (r - 2) + [-2 * q, q])
    b_num = IntPoly([0] * r + [q, -q])
    return _census(s, IntPoly(den), a_num, b_num)


def _triangle(s: Schlafli) -> CensusGF:
    """Census for p = 3, stated for the sibling-edge-free reduced graph.

    Dropping the same-generation sibling edges merges triangle pairs into
    quadrilaterals and lowers every non-origin degree to q - 2, so the
    even-case recurrences apply with their homogeneous coefficients reduced
    by two.  Solving them gives common denominator 1 - (q-4)z + z^2 and

        a = qz(1 - z) / den,   b = qz^2 / den,   v = (1 + 4z + z^2) / den.
    """
    q = s.q
    common = IntPoly([1, -(q - 4), 1])
    return _census(s, common, IntPoly([0, q, -q]), IntPoly([0, 0, q]))


def _odd(s: Schlafli) -> CensusGF:
    """Census for finite odd p = 2r + 1 >= 5.

    Faces now straddle generations asymmetrically: a face's earliest or
    latest boundary feature may be a cousin edge, giving the third class c.
    Over the common denominator
    1 - (q-1)z + 2z^r - 2z^(r+1) + (q-1)z^(2r) - z^(2r+1):

        a = qz(1 + z^r)(1 - 2z^(r-1) + z^r) / den,
        b = qz^(2r)(1 - z) / den,
        c = 2qz^r (1 - z) / den.
    """
    q, r = s.q, (s.p - 1) // 2
    den = [0] * (2 * r + 2)
    den[0] = 1
    den[1] -= q - 1
    den[r] += 2
    den[r + 1] -= 2
    den[2 * r] += q - 1
    den[2 * r + 1] -= 1
    a_num = IntPoly([0, q]) * IntPoly([1] + [0] * (r - 1) + [1])
    a_num = a_num * IntPoly([1] + [0] * (r - 2) + [-2, 1])
    b_num = IntPoly([0] * (2 * r) + [q, -q])
    c_num = IntPoly([0] * r + [2 * q, -2 * q])
    return _census(s, IntPoly(den), a_num, b_num, c_num)


def derive(s: Schlafli) -> CensusGF:
    """Census generating functions of s; raises SphericalOutOfScope unless
    s is admissible, then dispatches to the one case that applies."""
    if not s.admissible():
        raise SphericalOutOfScope(s.p, s.q)
    return {CASE_TREE: _tree, CASE_TRIANGLE: _triangle, CASE_EVEN: _even, CASE_ODD: _odd}[s.case](s)
