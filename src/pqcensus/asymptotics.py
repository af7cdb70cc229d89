"""Growth constants of a census from its generating function.

For a hyperbolic symbol the denominator Q has a simple root z0 in (0,1)
that is dominant: every other root of Q, complex ones included, has larger
modulus.  The census then grows like v(n) ~ A * z0^(-n) with amplitude
A = -P(z0) / (z0 Q'(z0)).  Both facts are certified in exact integers.
Rouché's theorem, applied to a Graeffe iterate of the sparser of
(1 - z) Q and (1 - z^2) Q, or of the other should that one refuse, gives a
disk about 0 that holds at most one root of Q, and Q changes sign inside
it.  On (0,1) that multiple M has the sign of Q, so two exact sign tests of
M, as integers 2^(k deg M) M(m/2^k), certify the dyadic cell of width 2^-40
(<= 1e-12) that Newton's iteration in binary64 guesses; should the guess
miss, a gallop and bisection from it find the cell.  We return a binary64
value together with that cell, and A at its midpoint, read off the same
sparse M = (1 - z^s) Q and N = (1 - z^s) P.  One evaluator, b^d f(a/b) over
the nonzero terms of f, serves the sign tests and A, so nothing evaluates
the dense P, Q or Q', whose degree is about p.

Euclidean symbols are classified symbolically (z = 1 is then a multiple
root of Q and root-hunting near it would be ill-posed); trees are reported
with their exact rate q - 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import nan
from typing import NamedTuple

from pqcensus.genfunc import Schlafli, SphericalOutOfScope
from pqcensus.polyarith import IntPoly, RationalGF

HYPERBOLIC = "HYPERBOLIC"
EUCLIDEAN = "EUCLIDEAN"
TREE = "TREE"

_TARGET_WIDTH = Fraction(1, 10**12)

# Graeffe steps tried before a denominator is refused; every census with
# p, q <= 40 needs at most 3 on its sparser multiple, but 6 would refuse
# dominant roots in near ties such as 1/46 beside 1/45 and -1/45, which take 7
_GRAEFFE_STEPS = 8

# Newton steps of the binary64 guess at z0; from 0 every census with
# p, q <= 40 or p near 2048 converges in at most 7, and a guess that has not
# converged only costs the exact search more steps
_NEWTON_STEPS = 64

# bits to which a binary64 guess in (0,1) is trusted: Newton's iteration
# stops once a step moves it by at most 2^-50, its error is then a few units
# of 2^-53, and in cells finer than 2^-50 the search gallops from the guess
# in steps of 2^(k - 50) cells, not one
_GUESS_BITS = 50


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


def _amplitude(gf: RationalGF, x: Fraction) -> float:
    """A = -P(x) / (x Q'(x)) for gf = P/Q, read off the sparser multiple
    M = (1 - z^s) Q from ``_multiples`` and N = (1 - z^s) P.

    With r = 1 - x^s, P = N/r and Q = M/r give
    A = -N(x) r / (x M'(x) r + s x^s M(x)).  For x = a/b, u = b^s r and
    w = s a^s, b^(d+s) times that denominator, d = deg M, is b^d G(x) for
    the polynomial G whose term i is the term i of M times i u + w.  It is
    the same rational number, and int / int rounds it as Fraction.__float__
    does, without a gcd.
    """
    s, m = _multiples(gf.den)[0]
    n = _times_one_minus(gf.num, s)
    a, b = x.numerator, x.denominator
    u, w = b**s - a**s, s * a**s
    top = -_sparse_eval(n, a, b) * u
    bottom = _sparse_eval({i: (i * u + w) * c for i, c in m.items()}, a, b)
    e = max(m) - max(n)  # deg Q - deg P
    return top * b**e / bottom if e >= 0 else top / (bottom * b**-e)


def _sparse_eval(f: dict[int, int], a: int, b: int) -> int:
    """b^d f(a/b) for the degree-d polynomial f = sum f[i] z^i.

    Homogeneous Horner's rule over the nonzero terms only: an exact integer
    with the sign of f(a/b) for b > 0, one power of a and one of b per gap
    between terms.  When b = 2^k, as at every point the sign tests probe,
    the term i is scaled by b^(d - i) with one shift instead.
    """
    d = last = max(f)
    k = b.bit_length() - 1
    dyadic = b == 1 << k
    acc, bpow = 0, 1
    for i in sorted(f, reverse=True):
        gap = last - i
        if dyadic:
            term = f[i] << k * (d - i)
        else:
            bpow *= b**gap
            term = f[i] * bpow
        acc = acc * a**gap + term
        last = i
    return acc * a**last


def _times_one_minus(f: IntPoly, s: int) -> dict[int, int]:
    """(1 - z^s) f as a map from exponent to nonzero coefficient."""
    cs = f.coeffs
    return {i: u - v for i, (u, v) in enumerate(zip(cs + (0,) * s, (0,) * s + cs)) if u != v}


@lru_cache(maxsize=1)
def _multiples(q: IntPoly) -> list[tuple[int, dict[int, int]]]:
    """The pairs (s, (1 - z^s) q) for s = 1 and 2, the multiple with fewer
    terms first ((1 - z) q on a tie).  The last q's pair is cached, since
    ``growth`` asks for it twice, for the root and for the amplitude; no
    caller changes it.

    For a census the first has at most 6 terms: it is the common denominator
    M of ``derive``, which divides M by 1 - z, or by 1 - z^2 for
    p = 2 (mod 4), where (1 - z) q has p/2 + 1 terms; for p = 3 q is M.
    """
    return sorted(((s, _times_one_minus(q, s)) for s in (1, 2)), key=lambda sm: len(sm[1]))


def _rouche_disk(m: dict[int, int]) -> tuple[int, int, int]:
    """(N, c, b) with N a power of 2 such that the polynomial M = sum m[i] z^i
    has at most one root, counted with multiplicity, in the disk
    |z|^N < 2c/b.

    Its k-th Graeffe iterate M_k, with M_{k+1}(z^2) = M_k(z) M_k(-z), has
    the N-th powers of the roots of M as roots, N = 2^k.  Write M_k(w) =
    m0 + m1 w + g(w), g of order 2, with c = |m0| and b = |m1|.  When
    sum |g_i| (2c/b)^i < c, then on |w| = 2c/b we have
    |m0 + m1 w| >= 2c - c > |g(w)|, so by Rouché's theorem M_k has exactly
    one root in that disk.  Each step squares the roots, which pulls the
    smallest one away from the rest; a sparse M keeps the steps cheap.
    """
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
    raise NoRootFound(f"Rouché's test isolates no root of least modulus in {_GRAEFFE_STEPS} Graeffe steps")


def _float_root(m: dict[int, int]) -> float:
    """Newton's iteration from 0 on the polynomial sum m[i] z^i in binary64.

    Only a guess at z0: NaN, or a value outside (0,1), when the iteration
    overflows, meets a zero derivative or heads for another root.
    """
    try:
        c0, terms = float(m.get(0, 0)), [(i, float(d)) for i, d in m.items() if i]
        x = 0.0
        for _ in range(_NEWTON_STEPS):
            f, df = c0, 0.0
            for i, d in terms:
                t = d * x ** (i - 1)
                f += t * x
                df += i * t
            x, last = x - f / df, x
            if abs(x - last) <= 2.0**-_GUESS_BITS:  # the next step would be about this one squared
                break
    except (OverflowError, ZeroDivisionError):
        return nan
    return x


def _certify_smallest_root(q: IntPoly, width: Fraction = _TARGET_WIDTH) -> tuple[Fraction, Fraction]:
    """Enclose the root of q of least modulus, which must lie in (0,1], in a
    dyadic cell of width <= width.

    q must have q(0) > 0, as every reduced denominator does.  The proof runs
    on the sparser of q's two multiples from ``_multiples``, and when that
    one refuses, on the other: each gives its own Rouché disk, so q is
    refused only when both refuse, with the sparser one's reason.
    """
    refusals = []
    for _, m in _multiples(q):
        try:
            return _certify_on(q, m, width)
        except NoRootFound as refusal:
            refusals.append(refusal)
    raise refusals[0]


def _certify_on(q: IntPoly, m: dict[int, int], width: Fraction) -> tuple[Fraction, Fraction]:
    """``_certify_smallest_root`` on the multiple m of q.

    ``_rouche_disk`` gives a disk about 0 in which m, and so q, has at most
    one root.  On 0 < x < 1, 1 - x and 1 - x^2 are positive, so m(x) has the
    sign of q(x); at x = 1, where m vanishes, q is tested itself.  A point
    j/2^k lies below z0 when it is 0 or lies in the disk with q > 0, and
    above z0 otherwise.  The search starts at the cell (g/2^k, (g+1)/2^k]
    that Newton's iteration in binary64 guesses, g = floor(z 2^k), and for a
    census it ends there, after two exact sign tests.  When the guess
    misses, or there is none, it gallops outward from the guess in doubling
    steps to a bracket and bisects that down to one cell; with no guess this
    is plain bisection of [0,1].  Returning proves that q < 0 at the cell's
    right end, inside the disk, so the one root of q there is real, simple
    and in the cell, and every other root of q, complex ones included, has
    larger modulus.  A tested point in the disk where q vanishes is the root
    itself, returned as a zero-width cell.
    """
    n, c, b = _rouche_disk(m)
    k = ((width.denominator - 1) // width.numerator).bit_length()  # least k with 2^-k <= width
    one, q1 = 1 << k, sum(q.coeffs)

    def inside(j: int) -> bool:
        return j**n * b < (2 * c) << (k * n)  # (j/2^k)^n < 2c/b

    def side(j: int) -> int:
        """1 below z0, 0 at it and -1 above it, for the point j/2^k."""
        if j == 0:
            return 1
        if not inside(j):
            return -1
        v = q1 if j == one else _sparse_eval(m, j, one)
        return (v > 0) - (v < 0)

    x = _float_root(m)
    if 0 < x < 1:
        num, den = x.as_integer_ratio()
        j, step = (num << k) // den, 1 << max(k - _GUESS_BITS, 0)
    else:
        j, step = one, one
    lo = hi = None  # the last points tested below and above z0
    while lo != one and (lo is None or hi is None or hi - lo > 1):
        s = side(j)
        if s == 0:
            return Fraction(j, one), Fraction(j, one)
        if s > 0:
            lo = j
        else:
            hi = j
        if hi is None:
            j = min(lo + step, one)
        elif lo is None:
            j = max(hi - step, 0)
        else:
            j = (lo + hi) // 2
        step *= 2
    if lo == one or not inside(hi):
        raise NoRootFound(f"({q}) has no simple root of least modulus in (0,1]")
    return Fraction(lo, one), Fraction(hi, one)


def palindrome_check(q: IntPoly) -> bool:
    """True when q's coefficient sequence reads the same in both directions.

    Equivalent to q(1/z) = q(z)/z^d, so the roots of a palindromic
    denominator pair up into reciprocals.
    """
    if q.is_zero:
        raise ValueError("the zero polynomial has no palindrome status")
    return q.coeffs == q.coeffs[::-1]
