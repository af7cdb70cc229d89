"""Exact integer polynomial and rational generating-function arithmetic.

A polynomial is a dense tuple of arbitrary-precision integer coefficients,
index i holding the coefficient of z^i.  The zero polynomial is the empty
tuple and has degree -1; every nonzero polynomial stores a nonzero leading
coefficient (trailing zeros are trimmed on construction).

A rational generating function is a fully reduced fraction of two such
polynomials whose denominator has constant term exactly 1, so that Taylor
coefficients come out of long division as plain integers.  ``derive`` builds
each census one by dividing out the common factor proved for its case; one
built any other way must come reduced, with that constant term.

Everything here is immutable and side-effect free, so values can be shared
freely across threads; the one exception, ``extend_recurrence``, appends to
the list it is given and says so.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence


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

    Immutable: equal polynomials compare and hash equal by ``coeffs``.  It
    has no arithmetic: ``genfunc`` and ``asymptotics`` compute on sparse
    (exponent, coefficient) terms instead.
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

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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


class RationalGF(NamedTuple):
    """Reduced rational function P(z)/Q(z) with Q(0) = 1.

    Instances come from ``derive``, fully reduced; the fields are the
    canonical representative, so field-wise equality is equality of rational
    functions.
    """

    num: IntPoly
    den: IntPoly

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


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
