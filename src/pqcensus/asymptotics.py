"""Growth constants of a census from its generating function.

For a hyperbolic symbol the denominator Q has a unique smallest positive
root z0 in (0,1); the census grows like v(n) ~ A * z0^(-n) with amplitude
A = -P(z0) / (z0 Q'(z0)).  The root is certified by exact integer root
isolation: the Sturm chain of Q proves that Q is squarefree, so z0 is a
simple root, and that z0 is the smallest positive root of Q; bisection at
dyadic points m/2^k, with Q evaluated as the integer 2^(k deg Q) Q(m/2^k),
then encloses z0 in a dyadic cell of width 2^-40 (<= 1e-12).  We return a
binary64 value together with that cell.  The chain does not prove z0
dominant, i.e. that no complex root of Q has modulus <= z0, which the
amplitude formula assumes.

Euclidean symbols are classified symbolically (z = 1 is then a multiple
root of Q and root-hunting near it would be ill-posed); trees are reported
with their exact rate q - 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import NamedTuple

from pqcensus.genfunc import Schlafli, SphericalOutOfScope
from pqcensus.polyarith import IntPoly, RationalGF, primitive, pseudo_rem

HYPERBOLIC = "HYPERBOLIC"
EUCLIDEAN = "EUCLIDEAN"
TREE = "TREE"

_TARGET_WIDTH = Fraction(1, 10**12)


class NoRootFound(ArithmeticError):
    """Q has no root in (0,1], or is not squarefree, although the symbol is hyperbolic."""


class GrowthInfo(NamedTuple):
    """Exponential growth data of one census.

    ``z0`` is the smallest positive denominator root (None for Euclidean),
    ``z0_interval`` its certified enclosure, ``rate`` the limit of
    v(n+1)/v(n) and ``amplitude`` the constant A above (None for Euclidean).
    """

    classification: str
    z0: float | None
    z0_interval: tuple[Fraction, Fraction] | None
    rate: float
    amplitude: float | None


def growth(gf: RationalGF, s: Schlafli) -> GrowthInfo:
    """Growth constants of the census of s with total generating function gf."""
    if s.is_tree:
        z0 = Fraction(1, s.q - 1)
        return GrowthInfo(TREE, float(z0), (z0, z0), float(s.q - 1), _amplitude(gf, z0))
    if s.euclidean():
        return GrowthInfo(EUCLIDEAN, None, None, 1.0, None)
    if not s.hyperbolic():
        raise SphericalOutOfScope(s.p, s.q)
    lo, hi = _certify_smallest_root(gf.den)
    mid = (lo + hi) / 2
    return GrowthInfo(HYPERBOLIC, float(mid), (lo, hi), float(1 / mid), _amplitude(gf, mid))


def _amplitude(gf: RationalGF, z0: Fraction) -> float:
    """A = -P(z0) / (z0 Q'(z0)), with both polynomials evaluated in integers."""
    a, b = z0.numerator, z0.denominator
    dq = gf.den.derivative()
    # P(a/b) = p / b^deg P and z0 Q'(a/b) = a d / b^(deg Q' + 1)
    p = _scaled_eval(gf.num.coeffs, a, b)
    d = _scaled_eval(dq.coeffs, a, b)
    return float(Fraction(-p, a * d) * Fraction(b) ** (dq.degree + 1 - gf.num.degree))


def _scaled_eval(cs, a: int, b: int) -> int:
    """b^d * P(a/b) for the degree-d polynomial P with coefficients cs.

    Homogeneous Horner's rule: an exact integer with the sign of P(a/b)
    for b > 0, computed without any rational arithmetic.
    """
    acc, bpow = 0, 1
    for c in reversed(cs):
        acc = acc * a + c * bpow
        bpow *= b
    return acc


def _sturm_chain(q: IntPoly) -> list[list[int]]:
    """Sturm chain of q: q, q', then negated primitive pseudo-remainders.

    Every member is a positive multiple of the classical Sturm polynomial,
    so sign counts are unchanged.  Raises NoRootFound unless the chain ends
    in a nonzero constant, i.e. unless gcd(q, q') = 1 and every root of q
    is simple.
    """
    chain = [list(q.coeffs)]
    nxt = primitive(list(q.derivative().coeffs))
    while nxt:
        chain.append(nxt)
        nxt = [-c for c in primitive(pseudo_rem(chain[-2], chain[-1]))]
    if len(chain[-1]) > 1:
        raise NoRootFound(f"({q}) is not squarefree: it shares a factor with its derivative")
    return chain


def _sign_changes(chain: list[list[int]], a: int, b: int) -> int:
    """Sign changes along the chain at a/b, zeros skipped."""
    changes, last = 0, 0
    for cs in chain:
        v = _scaled_eval(cs, a, b)
        if v:
            if last and (v < 0) != (last < 0):
                changes += 1
            last = v
    return changes


def _certify_smallest_root(q: IntPoly, width: Fraction = _TARGET_WIDTH) -> tuple[Fraction, Fraction]:
    """Enclose the smallest root of q in (0,1] in a dyadic cell of width <= width.

    q must have q(0) > 0, as every reduced denominator does.  Sturm's
    theorem counts the distinct roots of q in (x, y] as V(x) - V(y), V
    being the sign changes along the chain at a point.  Bisection keeps the
    cell (lo/2^k, (lo+1)/2^k] with no root in (0, lo/2^k]: it splits on
    Sturm counts until the cell holds exactly one root, then on the sign of
    q alone until 2^-k <= width.  Returning proves that q is squarefree, so
    the root is simple, and that the smallest root of q in (0,1] lies in the
    returned cell; a zero-width cell is the root itself.
    """
    chain = _sturm_chain(q)
    v0 = _sign_changes(chain, 0, 1)
    roots = v0 - _sign_changes(chain, 1, 1)
    if roots == 0:
        raise NoRootFound(f"({q}) has no root in (0,1]")
    bits = (ceil(1 / width) - 1).bit_length()  # least k with 2^-k <= width
    lo, k = 0, 0
    while roots > 1:
        lo, k = 2 * lo, k + 1
        below = v0 - _sign_changes(chain, lo + 1, 1 << k)
        if below:
            roots = below
        else:
            lo += 1
    # q > 0 on [0, lo/2^k], and q changes sign once at the simple root
    if _scaled_eval(chain[0], lo + 1, 1 << k) == 0:
        return Fraction(lo + 1, 1 << k), Fraction(lo + 1, 1 << k)
    while k < bits:
        lo, k = 2 * lo, k + 1
        val = _scaled_eval(chain[0], lo + 1, 1 << k)
        if val == 0:
            return Fraction(lo + 1, 1 << k), Fraction(lo + 1, 1 << k)
        if val > 0:
            lo += 1
    return Fraction(lo, 1 << k), Fraction(lo + 1, 1 << k)


def palindrome_check(q: IntPoly) -> bool:
    """True when q's coefficient sequence reads the same in both directions.

    Equivalent to q(1/z) = q(z)/z^d, so the roots of a palindromic
    denominator pair up into reciprocals.
    """
    if q.is_zero:
        raise ValueError("the zero polynomial has no palindrome status")
    return q.coeffs == q.coeffs[::-1]
