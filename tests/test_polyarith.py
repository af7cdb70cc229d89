import copy
import importlib.util
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    NonUnitDenominator,
    NotDivisible,
    ZeroDenominatorConstant,
    gf_add,
    gf_normalize,
    poly_add,
    poly_derivative,
    poly_div_exact,
    poly_gcd,
    poly_mul,
    pseudo_rem,
    reference_series,
)
from pqcensus.genfunc import Schlafli, derive
from pqcensus.polyarith import IntPoly, RationalGF, series_coeffs
from pqcensus.recurrence import rec_eval, rec_from_gf

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def census_pool() -> list[tuple[int, int]]:
    """The algebra-sweep census symbols, read from the benchmark's workloads."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads.CENSUS_ANCHOR] + [s for pool in workloads.CENSUS_BINS.values() for s in pool]


def P(*cs):
    return IntPoly(cs)


class TestIntPoly:
    def test_trailing_zero_trim(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0).coeffs == ()
        assert P().degree == -1
        assert P(5).degree == 0

    def test_add_cancellation(self):
        assert poly_add(P(1, 1), P(1, -1)) == P(2)

    def test_add_identity(self):
        assert poly_add(P(), P(1, -3, 1)) == P(1, -3, 1)

    def test_add_inverse(self):
        assert poly_add(P(1, 4, 1), P(-1, -4, -1)) == P()

    def test_mul_square(self):
        assert poly_mul(P(1, 1), P(1, 1)) == P(1, 2, 1)

    def test_mul_telescoping(self):
        assert poly_mul(P(1, -1), P(1, 1, 1)) == P(1, 0, 0, -1)

    def test_mul_mixed(self):
        assert poly_mul(P(1, 1), P(1, 0, -1)) == P(1, 1, -1, -1)

    def test_evaluate(self):
        q = P(1, -3, 1)
        assert q(0) == 1
        assert q(1) == -1
        assert q(Fraction(1, 2)) == Fraction(-1, 4)

    def test_derivative(self):
        assert poly_derivative(P(1, -3, 1)) == P(-3, 2)
        assert poly_derivative(P(7)) == P()

    def test_repr_round(self):
        assert str(P(1, -3, 1)) == "1 - 3z + z^2"
        assert str(P()) == "0"
        assert repr(P(1, -3, 1)) == "IntPoly('1 - 3z + z^2')"

    def test_value_type(self):
        a = P(1, -3, 1, 0)
        assert a == P(1, -3, 1) and a != P(1, -3) and a != (1, -3, 1)
        assert len({a, P(1, -3, 1), P(), P(0)}) == 2
        with pytest.raises(AttributeError):
            a.coeffs = (1,)
        with pytest.raises(AttributeError):
            del a.coeffs
        assert pickle.loads(pickle.dumps(a)) == a
        assert copy.deepcopy(a) == a


class TestDivExact:
    def test_difference_of_squares(self):
        assert poly_div_exact(P(1, 0, -1), P(1, -1)) == P(1, 1)

    def test_cubic(self):
        num = poly_mul(P(1, 1), P(1, 0, 0, -1))
        assert poly_div_exact(num, P(1, -1)) == poly_mul(P(1, 1), P(1, 1, 1))

    def test_remainder_raises(self):
        with pytest.raises(NotDivisible):
            poly_div_exact(P(1, 1), P(1, -1))
        # the quotient term z/2 is not an integer, though the remainder is 0
        with pytest.raises(NotDivisible, match=r"\(1 \+ z\) is not divisible by \(2\)"):
            poly_div_exact(P(1, 1), P(2))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            poly_div_exact(P(1, 1), P())

    def test_gcd_common_factor(self):
        a = poly_mul(P(1, -1), P(1, 2))
        b = poly_mul(P(1, -1), P(3, 1))
        # primitive with positive leading coefficient is canonical
        assert poly_gcd(a, b) == P(-1, 1)

    def test_pseudo_rem_keeps_sign_under_negative_lead(self):
        # z = (1 - 2z)(-1/2) + 1/2: the pseudo-remainder is a positive
        # multiple of 1/2, not the -1 a signed lead multiplier gives
        assert pseudo_rem([0, 1], [1, -2]) == [1]
        # z^2 = (1 - 2z)(-z/2 - 1/4) + 1/4
        assert pseudo_rem([0, 0, 1], [1, -2]) == [1]


class TestNormalize:
    def test_even_case_prereduction(self):
        # (1+z)(1-z^3) over 1-3z+3z^3-z^4 reduces by (1-z)(1+z)
        num = poly_mul(P(1, 1), P(1, 0, 0, -1))
        den = P(1, -3, 0, 3, -1)
        gf = gf_normalize(num, den)
        assert gf.num == P(1, 1, 1)
        assert gf.den == P(1, -3, 1)

    def test_content_reduction(self):
        gf = gf_normalize(P(2, 2), P(2, -2))
        assert gf.num == P(1, 1)
        assert gf.den == P(1, -1)

    def test_full_cancellation(self):
        num = poly_mul(P(1, 1), P(1, 0, -1))
        gf = gf_normalize(num, P(1, -1))
        assert gf.num == P(1, 2, 1)
        assert gf.den == P(1)

    def test_zero_constant_raises(self):
        with pytest.raises(ZeroDenominatorConstant):
            gf_normalize(P(1, 1), P(0, 1))
        with pytest.raises(ZeroDenominatorConstant):
            gf_normalize(P(1), P())

    def test_nonunit_constant_raises(self):
        with pytest.raises(NonUnitDenominator):
            gf_normalize(P(3, 1), P(2, 1))

    def test_zero_numerator(self):
        gf = gf_normalize(P(), P(1, -5))
        assert gf.num == P() and gf.den == P(1)

    def test_negative_constant_flips(self):
        gf = gf_normalize(P(1, 1), P(-1, 1))
        assert gf.den[0] == 1
        assert gf.num == P(-1, -1)


class TestSeries:
    def test_geometric_with_numerator(self):
        gf = gf_normalize(P(1, 1), P(1, -2))
        assert series_coeffs(gf, 3) == [1, 3, 6, 12]

    def test_golden_denominator(self):
        gf = gf_normalize(P(1, 2, 1), P(1, -3, 1))
        assert series_coeffs(gf, 4) == [1, 5, 15, 40, 105]

    def test_triangle_denominator(self):
        gf = gf_normalize(P(1, 4, 1), P(1, -3, 1))
        assert series_coeffs(gf, 4) == [1, 7, 21, 56, 147]

    def test_n_zero(self):
        assert series_coeffs(gf_normalize(P(1, 9), P(1, -1)), 0) == [1]

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            series_coeffs(gf_normalize(P(1), P(1)), -1)

    def test_polynomial(self):
        # den = (1,), as for the c series of {3,9}: no taps, zeros past num
        assert series_coeffs(gf_normalize(P(2, 0, -3), P(1)), 5) == [2, 0, -3, 0, 0, 0]
        assert series_coeffs(gf_normalize(P(2, 0, -3), P(1)), 1) == [2, 0]
        assert series_coeffs(derive(Schlafli(3, 9)).c, 4) == [0] * 5

    @pytest.mark.parametrize("s", census_pool(), ids=str)
    def test_census_pool_matches_reference(self, s):
        # real denominators, terms of a few thousand digits
        cgf = derive(Schlafli(*s))
        for gf in (cgf.v, cgf.a, cgf.b, cgf.c):
            assert series_coeffs(gf, 3000) == reference_series(gf.num.coeffs, gf.den.coeffs, 3000)


small_polys = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=7))
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


def unit_constant(poly: IntPoly) -> IntPoly:
    # force constant term 1 so gf_normalize always applies
    return IntPoly((1,) + poly.coeffs[1:])


@given(a=small_polys, b=nonzero_polys)
def test_mul_div_roundtrip(a, b):
    assert poly_div_exact(poly_mul(a, b), b) == a


def fraction_rem(a: list[int], b: list[int]) -> list[Fraction]:
    """a mod b over Q, by long division in Fractions."""
    r = [Fraction(c) for c in a]
    while len(r) >= len(b):
        t = r[-1] / b[-1]
        k = len(r) - len(b)
        for j, c in enumerate(b):
            r[k + j] -= t * c
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


@given(a=small_polys, b=nonzero_polys)
@example(a=P(1, 0, 0, 1), b=P(1, 0, 2))  # 4(1 + z^3) = 2z(1 + 2z^2) + 4 - 2z: [4, -2]
def test_pseudo_rem_is_scaled_remainder_over_q(a, b):
    a, b = list(a.coeffs), list(b.coeffs)
    e = max(len(a) - len(b) + 1, 0)
    assert pseudo_rem(a, b) == [abs(b[-1]) ** e * c for c in fraction_rem(a, b)]


@given(a=small_polys, b=small_polys)
def test_add_commutes(a, b):
    assert poly_add(a, b) == poly_add(b, a)


@given(num=small_polys, den=small_polys)
def test_normalize_idempotent(num, den):
    den = unit_constant(den)
    gf = gf_normalize(num, den)
    again = gf_normalize(gf.num, gf.den)
    assert again == gf


@given(num=small_polys, den=small_polys, extra=small_polys)
def test_reduction_never_changes_series(num, den, extra):
    den = unit_constant(den)
    extra = unit_constant(extra)
    base = gf_normalize(num, den)
    blown = gf_normalize(poly_mul(num, extra), poly_mul(den, extra))
    assert base == blown
    assert series_coeffs(base, 12) == series_coeffs(blown, 12)


@given(num=small_polys, den=small_polys, n=st.integers(0, 10))
def test_series_prefix_stable(num, den, n):
    gf = gf_normalize(num, unit_constant(den))
    assert series_coeffs(gf, n) == series_coeffs(gf, n + 5)[: n + 1]


@given(num=small_polys, den=small_polys)
def test_gf_add_matches_series(num, den):
    den = unit_constant(den)
    gf = gf_normalize(num, den)
    doubled = gf_add(gf, gf)
    assert series_coeffs(doubled, 10) == [2 * c for c in series_coeffs(gf, 10)]


@given(
    num=st.lists(st.integers(-20, 20), max_size=11),
    taps=st.lists(st.sampled_from([-1, 0, 1]) | st.integers(-7, 7), max_size=8),
    n=st.integers(0, 40),
)
@example(num=[1], taps=[1, 0, 1], n=12)  # only -1 taps: the sum starts negated
@example(num=[1, 2], taps=[-6, -4, -6, 1], n=12)  # {5,8}: 6(v1 + v3) + 4v2 - v4
def test_grouped_taps_match_long_division(num, taps, n):
    """Zero, repeated and +-1 taps (one branch of the tap strategy draws only
    0 and +-1), with numerators shorter or longer than den."""
    den = [1] + taps
    gf = gf_normalize(IntPoly(num), IntPoly(den))
    expected = reference_series(num, den, n)
    assert series_coeffs(gf, n) == expected
    assert rec_eval(rec_from_gf(gf), n) == expected


def test_rational_gf_equality_is_canonical():
    a = gf_normalize(P(2, 2), P(2, -2))
    b = gf_normalize(P(1, 1), P(1, -1))
    assert a == b
    assert isinstance(a, RationalGF)
