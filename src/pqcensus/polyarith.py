"""Exact integer polynomial and rational generating-function arithmetic.

A polynomial is a dense tuple of arbitrary-precision integer coefficients,
index i holding the coefficient of z^i.  The zero polynomial is the empty
tuple and has degree -1; every nonzero polynomial stores a nonzero leading
coefficient (trailing zeros are trimmed on construction).

A rational generating function is a fully reduced fraction of two such
polynomials whose denominator has constant term exactly 1, so that Taylor
coefficients come out of long division as plain integers.  Build one with
``gf_normalize``; do not construct ``RationalGF`` by hand.

Everything here is immutable and side-effect free, so values can be shared
freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable


class NotDivisible(ArithmeticError):
    """Exact polynomial division was requested but a remainder survives."""


class ZeroDenominatorConstant(ZeroDivisionError):
    """A rational function whose denominator vanishes at z=0 has no power series."""


class NonUnitDenominator(ArithmeticError):
    """After full reduction the denominator's constant term is not +-1.

    Such a fraction has no integer-coefficient power series, so it cannot be
    represented here.  Never happens for the census generating functions.
    """


@dataclass(init=False, frozen=True)
class IntPoly:
    """Dense integer polynomial; ``IntPoly([1, -3, 1])`` is 1 - 3z + z^2."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: IntPoly | int) -> IntPoly:
        o = _coerce(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return IntPoly([self[i] + o[i] for i in range(n)])

    def __sub__(self, other: IntPoly | int) -> IntPoly:
        o = _coerce(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return IntPoly([self[i] - o[i] for i in range(n)])

    def __neg__(self) -> IntPoly:
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> IntPoly:
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        """Nonnegative gcd of all coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def shift(self, k: int) -> IntPoly:
        """Multiply by z^k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly('{self}')"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = "" if (abs(c) == 1 and i > 0) else str(abs(c))
            var = "" if i == 0 else ("z" if i == 1 else f"z^{i}")
            term = mag + var
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


ZERO = IntPoly()
ONE = IntPoly([1])


def _coerce(x: IntPoly | int) -> IntPoly:
    return IntPoly([x]) if isinstance(x, int) else x


def poly_add(a: IntPoly, b: IntPoly) -> IntPoly:
    """Coefficientwise sum with canonical trailing-zero trim."""
    return a + b


def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact convolution product."""
    return a * b


def poly_div_exact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Return q with a = q*b, raising NotDivisible if no such integer q exists.

    A failed division here almost always means a formula was derived wrong
    upstream, so the error message keeps both operands.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return ZERO
    rem = list(a.coeffs)
    lead = b.coeffs[-1]
    db = b.degree
    qdeg = a.degree - db
    if qdeg < 0:
        raise NotDivisible(f"({a}) is not divisible by ({b})")
    q = [0] * (qdeg + 1)
    for k in range(qdeg, -1, -1):
        top = rem[k + db]
        if top % lead:
            raise NotDivisible(f"({a}) is not divisible by ({b})")
        q[k] = top // lead
        if q[k]:
            for j, c in enumerate(b.coeffs):
                rem[k + j] -= q[k] * c
    if any(rem):
        raise NotDivisible(f"({a}) is not divisible by ({b})")
    return IntPoly(q)


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Greatest common divisor over Q, returned primitive with positive lead.

    Euclidean algorithm on primitive parts with integer pseudo-remainders;
    taking contents out each round keeps coefficients small at the tiny
    degrees this package handles.
    """
    fa = primitive(list(a.coeffs))
    fb = primitive(list(b.coeffs))
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        fa, fb = fb, primitive(pseudo_rem(fa, fb))
    if not fa:
        return ZERO
    if fa[-1] < 0:
        fa = [-c for c in fa]
    return IntPoly(fa)


def primitive(cs: list[int]) -> list[int]:
    """Coefficient list cs, trimmed and divided by its positive content."""
    while cs and cs[-1] == 0:
        cs.pop()
    g = 0
    for c in cs:
        g = gcd(g, c)
    return [c // g for c in cs] if g > 1 else cs


def pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of |lc(b)|^e * a on division by b, as a coefficient list.

    Each reduction step scales by |lc(b)|, never by a negative lead, so the
    result is a positive multiple of the remainder over Q and keeps its
    signs: the Sturm chain in ``asymptotics`` depends on that, and a gcd
    (defined up to sign) does not mind it.
    """
    r = a[:]
    db = len(b) - 1
    lb = b[-1]
    scale = abs(lb)
    while r and len(r) - 1 >= db:
        lr = r[-1] if lb > 0 else -r[-1]
        k = len(r) - 1 - db
        if scale != 1:
            r = [scale * c for c in r]
        for j in range(db + 1):
            r[k + j] -= lr * b[j]
        while r and r[-1] == 0:
            r.pop()
    return r


@dataclass(frozen=True)
class RationalGF:
    """Reduced rational function P(z)/Q(z) with Q(0) = 1.

    Instances come from ``gf_normalize``; the fields are the canonical
    representative, so dataclass equality is equality of rational functions.
    """

    num: IntPoly
    den: IntPoly

    def series(self, n_max: int) -> list[int]:
        return series_coeffs(self, n_max)

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


def gf_normalize(num: IntPoly, den: IntPoly) -> RationalGF:
    """Reduce num/den to the canonical RationalGF form.

    Removes the full polynomial gcd (computed over the rationals, so any
    common factor such as 1-z or 1+z goes in one pass), divides out common
    integer content, and fixes the denominator's constant term to 1.
    """
    if den.is_zero or den[0] == 0:
        raise ZeroDenominatorConstant("denominator vanishes at z=0")
    if num.is_zero:
        return RationalGF(ZERO, ONE)
    g = poly_gcd(num, den)
    if g.degree >= 1:
        num = poly_div_exact(num, g)
        den = poly_div_exact(den, g)
    c = gcd(num.content(), den.content())
    if c > 1:
        num = IntPoly([x // c for x in num.coeffs])
        den = IntPoly([x // c for x in den.coeffs])
    if den[0] < 0:
        num, den = -num, -den
    if den[0] != 1:
        raise NonUnitDenominator(
            f"reduced denominator ({den}) has constant term {den[0]}, not 1"
        )
    return RationalGF(num, den)


def series_coeffs(gf: RationalGF, n_max: int) -> list[int]:
    """First n_max + 1 Taylor coefficients of gf, by exact long division.

    Q(0) = 1 guarantees every coefficient is an integer.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    num = gf.num.coeffs
    den = gf.den.coeffs
    d = len(den) - 1
    out: list[int] = []
    for n in range(n_max + 1):
        acc = num[n] if n < len(num) else 0
        for i in range(1, min(n, d) + 1):
            acc -= den[i] * out[n - i]
        out.append(acc)
    return out
