"""Growth constants of a census from its generating function.

For a hyperbolic symbol the denominator Q has a unique smallest positive
root z0 in (0,1); the census grows like v(n) ~ A * z0^(-n) with amplitude
A = -P(z0) / (z0 Q'(z0)).  The root is certified by exact-rational
bisection: we return a binary64 value together with an enclosing interval
of width <= 1e-12 across which Q provably changes sign.

Euclidean symbols are classified symbolically (z = 1 is then a multiple
root of Q and root-hunting near it would be ill-posed); trees are reported
with their exact rate q - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from pqcensus.genfunc import Schlafli
from pqcensus.polyarith import IntPoly, RationalGF

HYPERBOLIC = "HYPERBOLIC"
EUCLIDEAN = "EUCLIDEAN"
TREE = "TREE"

_SCAN_STEPS = 4096
_TARGET_WIDTH = Fraction(1, 10**12)


class NoRootFound(ArithmeticError):
    """Q has no sign change in (0,1) although the symbol is hyperbolic."""


@dataclass(frozen=True)
class GrowthInfo:
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
        raise ValueError(f"{s} is not admissible")
    lo, hi = _certify_smallest_root(gf.den)
    mid = (lo + hi) / 2
    return GrowthInfo(HYPERBOLIC, float(mid), (lo, hi), float(1 / mid), _amplitude(gf, mid))


def _amplitude(gf: RationalGF, z0: Fraction) -> float:
    return float(-Fraction(gf.num(z0)) / (z0 * Fraction(gf.den.derivative()(z0))))


def _certify_smallest_root(q: IntPoly, width: Fraction = _TARGET_WIDTH) -> tuple[Fraction, Fraction]:
    """Bracket the first sign change of q in (0,1) down to the given width.

    All evaluations are exact rationals, so the returned interval is a
    proof that a root lies inside.  The root is also certified simple by
    checking q' keeps one nonzero sign on the final interval.
    """
    lo = Fraction(0)
    hi = None
    for k in range(1, _SCAN_STEPS + 1):
        x = Fraction(k, _SCAN_STEPS)
        val = q(x)
        if val == 0:
            lo = hi = x
            break
        if val < 0:
            hi = x
            break
        lo = x
    if hi is None:
        raise NoRootFound(f"no sign change of ({q}) found in (0,1)")
    while hi - lo > width:
        mid = (lo + hi) / 2
        val = q(mid)
        if val == 0:
            lo = hi = mid
            break
        if val < 0:
            hi = mid
        else:
            lo = mid
    dq = q.derivative()
    if lo != hi and not (dq(lo) < 0 and dq(hi) < 0) and not (dq(lo) > 0 and dq(hi) > 0):
        raise NoRootFound(f"root of ({q}) near {float(lo):.6f} is not certified simple")
    return lo, hi


def palindrome_check(q: IntPoly) -> bool:
    """True when q's coefficient sequence reads the same in both directions.

    Equivalent to q(1/z) = q(z)/z^d, so the roots of a palindromic
    denominator pair up into reciprocals.
    """
    if q.is_zero:
        raise ValueError("the zero polynomial has no palindrome status")
    return q.coeffs == q.coeffs[::-1]
