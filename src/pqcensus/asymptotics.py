"""Growth constants of a census from its generating function.

For a hyperbolic symbol the denominator Q has a simple root z0 in (0,1)
that is dominant: every other root of Q, complex ones included, has larger
modulus.  The census then grows like v(n) ~ A * z0^(-n) with amplitude
A = -P(z0) / (z0 Q'(z0)).  Both facts are certified in exact integers.
Rouché's theorem, applied to a Graeffe iterate of (1 - z) Q, gives a disk
about 0 that holds at most one root of Q, and Q changes sign inside it.
Bisection at dyadic points m/2^k, with Q evaluated as the integer
2^(k deg Q) Q(m/2^k), encloses z0 in a dyadic cell of width 2^-40
(<= 1e-12).  We return a binary64 value together with that cell.

Euclidean symbols are classified symbolically (z = 1 is then a multiple
root of Q and root-hunting near it would be ill-posed); trees are reported
with their exact rate q - 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import NamedTuple

from pqcensus.genfunc import Schlafli, SphericalOutOfScope
from pqcensus.polyarith import IntPoly, RationalGF

HYPERBOLIC = "HYPERBOLIC"
EUCLIDEAN = "EUCLIDEAN"
TREE = "TREE"

_TARGET_WIDTH = Fraction(1, 10**12)

# Graeffe steps tried before a denominator is refused; every census with
# p, q <= 40 needs at most 3, but 6 would refuse dominant roots in near ties
# such as 1/46 beside 1/45 and -1/45, which take 7
_GRAEFFE_STEPS = 8


class NoRootFound(ArithmeticError):
    """No root of Q in (0,1] is proved simple and of least modulus, although the symbol is hyperbolic."""


class GrowthInfo(NamedTuple):
    """Exponential growth data of one census.

    ``z0`` is the denominator root of least modulus (None for Euclidean),
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


def _rouche_disk(q: IntPoly) -> tuple[int, int, int]:
    """(N, c, b) with N a power of 2 such that q has at most one root,
    counted with multiplicity, in the disk |z|^N < 2c/b.

    M = (1 - z) q is a multiple of q, which is all the proof needs.  For a
    census it has at most 6 terms, except for p = 2 (mod 4), where ``derive``
    cancels 1 - z^2 from the common denominator and M has p/2 + 1 terms.  Its
    k-th Graeffe iterate M_k, with M_{k+1}(z^2) = M_k(z) M_k(-z), has the
    N-th powers of the roots of M as roots, N = 2^k.  Write M_k(w) =
    m0 + m1 w + g(w), g of order 2, with c = |m0| and b = |m1|.  When
    sum |g_i| (2c/b)^i < c, then on |w| = 2c/b we have
    |m0 + m1 w| >= 2c - c > |g(w)|, so by Rouché's theorem M_k has exactly
    one root in that disk.  Each step squares the roots, which pulls the
    smallest one away from the rest.
    """
    cs = q.coeffs
    m = {i: d for i, d in enumerate(u - v for u, v in zip(cs + (0,), (0,) + cs)) if d}
    for k in range(_GRAEFFE_STEPS + 1):
        n, c, b = max(m), abs(m[0]), abs(m.get(1, 0))
        if b and sum(abs(g) * (2 * c) ** i * b ** (n - i) for i, g in m.items() if i > 1) < c * b**n:
            return 1 << k, c, b
        sq: dict[int, int] = {}
        for i, x in m.items():
            for j, y in m.items():
                if (i - j) % 2 == 0:  # odd powers of M(z) M(-z) cancel
                    sq[(i + j) // 2] = sq.get((i + j) // 2, 0) + (-x * y if j % 2 else x * y)
        m = {i: d for i, d in sq.items() if d}
    raise NoRootFound(f"Rouché's test isolates no root of least modulus of ({q}) in {_GRAEFFE_STEPS} Graeffe steps")


def _certify_smallest_root(q: IntPoly, width: Fraction = _TARGET_WIDTH) -> tuple[Fraction, Fraction]:
    """Enclose the root of q of least modulus, which must lie in (0,1], in a
    dyadic cell of width <= width.

    q must have q(0) > 0, as every reduced denominator does.  ``_rouche_disk``
    gives a disk about 0 in which q has at most one root.  Bisection keeps the
    cell (lo/2^k, (lo+1)/2^k] with q(lo/2^k) > 0: a midpoint outside the disk
    sends it left, one inside goes by the sign of q, until 2^-k <= width.
    Returning proves that q < 0 at the cell's right end, inside the disk, so
    the one root of q there is real, simple and in the cell, and every other
    root of q, complex ones included, has larger modulus.  A zero-width cell
    is the root itself.
    """
    n, c, b = _rouche_disk(q)

    def inside(m: int, k: int) -> bool:
        return m**n * b < (2 * c) << (k * n)  # (m/2^k)^n < 2c/b

    bits = (ceil(1 / width) - 1).bit_length()  # least k with 2^-k <= width
    lo, k = 0, 0
    while k < bits:
        lo, k = 2 * lo, k + 1
        if inside(lo + 1, k):
            val = _scaled_eval(q.coeffs, lo + 1, 1 << k)
            if val == 0:
                return Fraction(lo + 1, 1 << k), Fraction(lo + 1, 1 << k)
            if val > 0:
                lo += 1
    if not (inside(lo + 1, k) and _scaled_eval(q.coeffs, lo + 1, 1 << k) < 0):
        raise NoRootFound(f"({q}) has no simple root of least modulus in (0,1]")
    return Fraction(lo, 1 << k), Fraction(lo + 1, 1 << k)


def palindrome_check(q: IntPoly) -> bool:
    """True when q's coefficient sequence reads the same in both directions.

    Equivalent to q(1/z) = q(z)/z^d, so the roots of a palindromic
    denominator pair up into reciprocals.
    """
    if q.is_zero:
        raise ValueError("the zero polynomial has no palindrome status")
    return q.coeffs == q.coeffs[::-1]
