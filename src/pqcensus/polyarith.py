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
freely across threads; the one exception, ``extend_recurrence``, appends to
the list it is given and says so.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, NamedTuple, Sequence


class NotDivisible(ArithmeticError):
    """Exact polynomial division was requested but a remainder survives."""


class ZeroDenominatorConstant(ZeroDivisionError):
    """A rational function whose denominator vanishes at z=0 has no power series."""


class NonUnitDenominator(ArithmeticError):
    """After full reduction the denominator's constant term is not +-1.

    Such a fraction has no integer-coefficient power series, so it cannot be
    represented here.  Never happens for the census generating functions.
    """


class FrozenValue:
    """Immutable value whose fields are its subclass's ``__slots__``, each set
    once in ``__init__`` by ``object.__setattr__``; equality (within one
    class), hashing and pickling go by those fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()


class IntPoly(FrozenValue):
    """Dense integer polynomial; ``IntPoly([1, -3, 1])`` is 1 - 3z + z^2.

    Immutable: equal polynomials compare and hash equal by ``coeffs``.
    ``+`` and ``*`` take two polynomials, never an int.
    """

    __slots__ = ("coeffs",)
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

    def __add__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[i] + other[i] for i in range(n)])

    def __neg__(self) -> IntPoly:
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> IntPoly:
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

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


def poly_div_exact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Return q with a = q*b, raising NotDivisible if no such integer q exists.

    A failed division here almost always means a formula was derived wrong
    upstream, so the error message keeps both operands.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    q, r = _long_div(a.coeffs, b.coeffs, 1)
    if any(r):
        raise NotDivisible(f"({a}) is not divisible by ({b})")
    return IntPoly(q)


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Greatest common divisor over Q, returned primitive with positive lead.

    Euclidean algorithm on integer pseudo-remainders, each made primitive
    before the next step; at p near 2048 (degrees near 2000), the gcds of
    one ``derive`` take under 0.1 s on 2 vCPUs.
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
    g = gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """|lc(b)|^e (a mod b over Q), e = max(deg a - deg b + 1, 0), as a trimmed
    list of integer coefficients.

    The scale is positive, never a power of a negative lead, so the result
    keeps the signs of the remainder over Q: a Sturm chain built from it
    counts roots correctly (the tests' reference count does), and a gcd
    (defined up to sign) does not mind it.
    """
    _, r = _long_div(a, b, abs(b[-1]))
    while r and r[-1] == 0:
        r.pop()
    return r


def _long_div(a: Sequence[int], b: Sequence[int], s: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of s^e * a by b, e = max(deg a - deg b + 1, 0),
    by long division (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R).

    The dividend is scaled once, and each quotient term is top // lc(b),
    exact for s = |lc(b)|.  An inexact term (s = 1) leaves its residue at
    degree >= deg b in the remainder, which is returned untrimmed, as long as
    a.  Zero tops are skipped and only b's nonzero taps are subtracted.
    """
    db = len(b) - 1
    e = len(a) - db
    r = list(a)
    if e > 0 and s != 1:
        f = s**e
        r = [c * f for c in a]
    taps = [(j, c) for j, c in enumerate(b) if c]
    q = [0] * e
    for k in range(e - 1, -1, -1):
        top = r[k + db]
        if top:
            t = q[k] = top // b[-1]
            for j, c in taps:
                r[k + j] -= t * c
    return q, r


class RationalGF(NamedTuple):
    """Reduced rational function P(z)/Q(z) with Q(0) = 1.

    Instances come from ``gf_normalize``; the fields are the canonical
    representative, so field-wise equality is equality of rational functions.
    """

    num: IntPoly
    den: IntPoly

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
    c = gcd(*num.coeffs, *den.coeffs)
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
    """First n_max + 1 Taylor coefficients of gf; Q(0) = 1 makes them integers.

    The first max(d, len(P)) terms, where the numerator and the bound i <= n
    matter, come from bounded long division; ``extend_recurrence`` computes
    the rest at one big-integer operation per nonzero tap or fewer.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    num = gf.num.coeffs
    den = gf.den.coeffs
    d = len(den) - 1
    out: list[int] = []
    for n in range(min(n_max + 1, max(d, len(num)))):
        acc = num[n] if n < len(num) else 0
        for i in range(1, min(n, d) + 1):
            acc -= den[i] * out[n - i]
        out.append(acc)
    return extend_recurrence(out, [-c for c in den[1:]], n_max)


def extend_recurrence(out: list[int], coeffs: Sequence[int], n_max: int) -> list[int]:
    """Append v(n) = sum_i coeffs[i-1] v(n-i) to out up to v(n_max); return out.

    Mutates ``out``, which must already hold len(coeffs) terms.  Taps are
    grouped by value, so a term costs one addition per nonzero tap past the
    first and one multiplication per distinct coefficient other than +-1:
    1 - 6z - 4z^2 - 6z^3 + z^4 gives 6(v1 + v3) + 4v2 - v4, five operations.
    The sum starts from a term, never from 0, since 0 + x copies all of x.
    """
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(coeffs, 1):
        if c:
            groups.setdefault(c, []).append(-i)
    # lags are negative indices, as out only grows at its end; the -1 group
    # goes last, so the sum starts from a term or a product
    taps = sorted(((c, lags[0], lags[1:]) for c, lags in groups.items()), key=lambda t: t[0] == -1)
    for _ in range(len(out), n_max + 1):
        acc = None
        for c, first, rest in taps:
            s = out[first]
            for i in rest:
                s += out[i]
            if c == -1:
                acc = -s if acc is None else acc - s
                continue
            if c != 1:
                s *= c
            acc = s if acc is None else acc + s
        out.append(0 if acc is None else acc)
    return out
