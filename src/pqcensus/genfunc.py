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

Admissibility (2(p+q) <= pq, i.e. 1/p + 1/q <= 1/2) is decided in exact
integer arithmetic; the finitely many spherical symbols are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from pqcensus.polyarith import IntPoly, RationalGF, gf_normalize

CASE_TREE = "TREE"
CASE_EVEN = "EVEN"
CASE_TRIANGLE = "TRIANGLE"
CASE_ODD = "ODD"


class BadDegree(ValueError):
    """p or q below the minimum of 3."""


class BadShape(ValueError):
    """A case-specific constructor was handed the wrong parity of p."""


class SphericalOutOfScope(ValueError):
    """1/p + 1/q > 1/2: the tessellation closes up into a Platonic solid."""

    def __init__(self, p, q):
        self.p = p
        self.q = q
        super().__init__(f"{{{p},{q}}} is spherical (1/p + 1/q > 1/2); not supported")


class _Infinity:
    """Face degree of the tree case; a dedicated object, never an int."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()


@dataclass(frozen=True)
class Schlafli:
    """Symbol {p,q}; p is an int >= 3 or INFINITY, q an int >= 3."""

    p: int | _Infinity
    q: int

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 3:
            raise BadDegree(f"vertex degree q must be an integer >= 3, got {self.q!r}")
        if not isinstance(self.p, _Infinity):
            if not isinstance(self.p, int) or self.p < 3:
                raise BadDegree(f"face degree p must be an integer >= 3 or INFINITY, got {self.p!r}")

    @property
    def is_tree(self) -> bool:
        return isinstance(self.p, _Infinity)

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
        p = "inf" if self.is_tree else str(self.p)
        return f"{{{p},{self.q}}}"


@dataclass(frozen=True)
class CensusGF:
    """Census generating functions of one symbol.

    ``v`` counts all vertices of generation n; ``a``, ``b`` and ``c`` count
    the one-parent, two-parent and cousin-linked classes (zero wherever a
    class does not occur).  1 + a + b + c = v as rational functions.
    """

    symbol: Schlafli
    case_tag: str
    v: RationalGF
    a: RationalGF
    b: RationalGF
    c: RationalGF


def gf_infinite(q: int) -> CensusGF:
    """Census of the q-regular tree: a(n) = q(q-1)^(n-1) for n >= 1."""
    if not isinstance(q, int) or q < 3:
        raise BadDegree(f"vertex degree q must be an integer >= 3, got {q!r}")
    s = Schlafli(INFINITY, q)
    common = IntPoly([1, -(q - 1)])
    a_num = IntPoly([0, q])
    a = gf_normalize(a_num, common)
    b = c = gf_normalize(IntPoly(), IntPoly([1]))
    v = gf_normalize(common + a_num, common)
    return CensusGF(s, CASE_TREE, v, a, b, c)


def gf_even(p: int, q: int) -> CensusGF:
    """Census for finite even p = 2r.

    Counting filial edges two ways and pairing each two-parent vertex with
    the face it completes gives, over a common denominator
    1 - (q-1)z + (q-1)z^r - z^(r+1):

        a = qz(1 - 2z^(r-1) + z^r) / den,   b = qz^r (1 - z) / den.
    """
    if not isinstance(p, int) or p < 4 or p % 2:
        raise BadShape(f"even-case face degree must be an even integer >= 4, got {p!r}")
    s = Schlafli(p, q)
    if not s.admissible():
        raise SphericalOutOfScope(p, q)
    r = p // 2
    den = [0] * (r + 2)
    den[0] = 1
    den[1] -= q - 1
    den[r] += q - 1
    den[r + 1] -= 1
    common = IntPoly(den)
    a_num = IntPoly([0, q] + [0] * (r - 2) + [-2 * q, q])
    b_num = IntPoly([0] * r + [q, -q])
    a = gf_normalize(a_num, common)
    b = gf_normalize(b_num, common)
    c = gf_normalize(IntPoly(), IntPoly([1]))
    v = gf_normalize(common + a_num + b_num, common)
    return CensusGF(s, CASE_EVEN, v, a, b, c)


def gf_triangle(q: int) -> CensusGF:
    """Census for p = 3, stated for the sibling-edge-free reduced graph.

    Dropping the same-generation sibling edges merges triangle pairs into
    quadrilaterals and lowers every non-origin degree to q - 2, so the
    even-case recurrences apply with their homogeneous coefficients reduced
    by two.  Solving them gives common denominator 1 - (q-4)z + z^2 and

        a = qz(1 - z) / den,   b = qz^2 / den,   v = (1 + 4z + z^2) / den.
    """
    if not isinstance(q, int) or q < 3:
        raise BadDegree(f"vertex degree q must be an integer >= 3, got {q!r}")
    if q <= 5:
        raise SphericalOutOfScope(3, q)
    s = Schlafli(3, q)
    common = IntPoly([1, -(q - 4), 1])
    a_num = IntPoly([0, q, -q])
    b_num = IntPoly([0, 0, q])
    a = gf_normalize(a_num, common)
    b = gf_normalize(b_num, common)
    c = gf_normalize(IntPoly(), IntPoly([1]))
    v = gf_normalize(common + a_num + b_num, common)
    return CensusGF(s, CASE_TRIANGLE, v, a, b, c)


def gf_odd(p: int, q: int) -> CensusGF:
    """Census for finite odd p = 2r + 1 >= 5.

    Faces now straddle generations asymmetrically: a face's earliest or
    latest boundary feature may be a cousin edge, giving the third class c.
    Over the common denominator
    1 - (q-1)z + 2z^r - 2z^(r+1) + (q-1)z^(2r) - z^(2r+1):

        a = qz(1 + z^r)(1 - 2z^(r-1) + z^r) / den,
        b = qz^(2r)(1 - z) / den,
        c = 2qz^r (1 - z) / den.
    """
    if not isinstance(p, int) or p < 5 or p % 2 == 0:
        raise BadShape(f"odd-case face degree must be an odd integer >= 5, got {p!r}")
    s = Schlafli(p, q)
    if not s.admissible():
        raise SphericalOutOfScope(p, q)
    r = (p - 1) // 2
    den = [0] * (2 * r + 2)
    den[0] = 1
    den[1] -= q - 1
    den[r] += 2
    den[r + 1] -= 2
    den[2 * r] += q - 1
    den[2 * r + 1] -= 1
    common = IntPoly(den)
    a_num = IntPoly([0, q]) * IntPoly([1] + [0] * (r - 1) + [1])
    a_num = a_num * IntPoly([1] + [0] * (r - 2) + [-2, 1])
    b_num = IntPoly([0] * (2 * r) + [q, -q])
    c_num = IntPoly([0] * r + [2 * q, -2 * q])
    a = gf_normalize(a_num, common)
    b = gf_normalize(b_num, common)
    c = gf_normalize(c_num, common)
    v = gf_normalize(common + a_num + b_num + c_num, common)
    return CensusGF(s, CASE_ODD, v, a, b, c)


def derive(s: Schlafli) -> CensusGF:
    """Dispatch to the applicable case for an admissible symbol."""
    if s.is_tree:
        return gf_infinite(s.q)
    if not s.admissible():
        raise SphericalOutOfScope(s.p, s.q)
    if s.p == 3:
        return gf_triangle(s.q)
    if s.p % 2 == 0:
        return gf_even(s.p, s.q)
    return gf_odd(s.p, s.q)
