"""Linear recurrences extracted from rational generating functions.

If v(z) = P(z)/Q(z) with Q(0) = 1 and Q of degree d, then the coefficient
sequence satisfies v(n) = sum_i c_i v(n-i) with c_i = -Q_i as soon as n
exceeds deg P; the numerator only feeds the finitely many earlier terms.
Those early terms are always taken from exact series division, never from
closed forms, so the inhomogeneous prefix is handled uniformly.  Past them,
``rec_eval`` and ``series_coeffs`` share one kernel,
``polyarith.extend_recurrence``: a term costs one big-integer addition per
nonzero tap beyond the first and one multiplication per distinct
coefficient other than +-1.
"""

from __future__ import annotations

from typing import NamedTuple

from pqcensus.polyarith import RationalGF, extend_recurrence, series_coeffs


class LinRec(NamedTuple):
    """Constant-coefficient recurrence with its exact launch window.

    ``rec_coeffs`` holds c_1..c_d, so its length is the order d.
    ``initial_terms`` covers indices 0..max(deg P, d-1); the recurrence is
    trusted only beyond that.
    """

    rec_coeffs: tuple[int, ...]
    initial_terms: tuple[int, ...]


def rec_from_gf(gf: RationalGF) -> LinRec:
    """Read the recurrence off a normalized rational function."""
    d = gf.den.degree
    coeffs = tuple(-gf.den[i] for i in range(1, d + 1))
    n_init = max(gf.num.degree, d - 1)
    initial = tuple(series_coeffs(gf, n_init)) if n_init >= 0 else ()
    return LinRec(coeffs, initial)


def rec_eval(rec: LinRec, n_max: int) -> list[int]:
    """Terms v(0..n_max): the stored prefix, then the recurrence replayed by
    ``extend_recurrence`` (one operation per nonzero tap or fewer)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return extend_recurrence(list(rec.initial_terms[: n_max + 1]), rec.rec_coeffs, n_max)
