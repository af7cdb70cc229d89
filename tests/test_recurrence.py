import pytest

from conftest import admissible_symbols, fibonacci_check, gf_normalize
from pqcensus.genfunc import INFINITY, Schlafli, derive
from pqcensus.polyarith import IntPoly, series_coeffs
from pqcensus.recurrence import rec_eval, rec_from_gf

GRID = admissible_symbols(list(range(3, 13)) + [INFINITY], range(3, 13))


class TestExtraction:
    def test_order_two(self):
        rec = rec_from_gf(derive(Schlafli(4, 5)).v)
        assert rec.rec_coeffs == (3, -1)
        assert rec.initial_terms == (1, 5, 15)

    def test_geometric(self):
        rec = rec_from_gf(derive(Schlafli(INFINITY, 3)).v)
        assert rec.rec_coeffs == (2,)
        assert rec.initial_terms == (1, 3)

    def test_triangular_lattice(self):
        rec = rec_from_gf(derive(Schlafli(3, 6)).v)
        assert rec.rec_coeffs == (2, -1)
        assert rec.initial_terms == (1, 6, 12)

    def test_zero_numerator(self):
        rec = rec_from_gf(derive(Schlafli(4, 5)).b)
        # b = 5z^2 / (1 - 3z + z^2): the prefix runs to the numerator's degree
        assert rec.rec_coeffs == (3, -1)
        assert rec.initial_terms == (0, 0, 5)


class TestEval:
    def test_golden(self):
        rec = rec_from_gf(derive(Schlafli(4, 5)).v)
        assert rec_eval(rec, 4) == [1, 5, 15, 40, 105]

    def test_hexagonal_order_four(self):
        rec = rec_from_gf(derive(Schlafli(6, 4)).v)
        assert rec_eval(rec, 4) == [1, 4, 12, 32, 84]

    def test_square_lattice(self):
        rec = rec_from_gf(derive(Schlafli(4, 4)).v)
        assert rec_eval(rec, 6) == [1, 4, 8, 12, 16, 20, 24]

    def test_truncation_below_prefix(self):
        rec = rec_from_gf(derive(Schlafli(4, 5)).v)
        assert rec_eval(rec, 0) == [1]
        assert rec_eval(rec, 1) == [1, 5]

    def test_negative_raises(self):
        rec = rec_from_gf(derive(Schlafli(4, 5)).v)
        with pytest.raises(ValueError):
            rec_eval(rec, -1)

    def test_order_zero(self):
        # a polynomial GF: no taps, every term past the prefix is 0
        rec = rec_from_gf(gf_normalize(IntPoly([3, 0, -1]), IntPoly([1])))
        assert (rec.rec_coeffs, rec.initial_terms) == ((), (3, 0, -1))
        assert rec_eval(rec, 6) == [3, 0, -1, 0, 0, 0, 0]
        assert rec_eval(rec, 1) == [3, 0]
        assert rec_eval(rec, 0) == [3]
        assert rec_eval(rec_from_gf(gf_normalize(IntPoly(), IntPoly([1]))), 3) == [0] * 4

    def test_truncation_inside_long_prefix(self):
        # {9,3}: nine initial terms, so n_max = 0..8 only slices the prefix
        rec = rec_from_gf(derive(Schlafli(9, 3)).v)
        full = rec_eval(rec, 12)
        for n in range(len(rec.initial_terms)):
            assert rec_eval(rec, n) == list(rec.initial_terms[: n + 1]) == full[: n + 1]


@pytest.mark.parametrize("s", GRID, ids=str)
def test_recurrence_matches_series_to_200(s):
    gf = derive(s).v
    assert rec_eval(rec_from_gf(gf), 200) == series_coeffs(gf, 200)


@pytest.mark.parametrize("s", [s for s in GRID if not s.is_tree and s.hyperbolic()], ids=str)
def test_hyperbolic_monotone(s):
    v = rec_eval(rec_from_gf(derive(s).v), 100)
    assert all(v[n + 1] >= v[n] for n in range(1, 100))


class TestFibonacci:
    def test_all_three_to_fifty(self):
        assert fibonacci_check(5, 50)
        assert fibonacci_check(4, 50)
        assert fibonacci_check(7, 50)

    def test_spot_values(self):
        # F_8 = 21: the three censuses at generation 4
        assert rec_eval(rec_from_gf(derive(Schlafli(4, 5)).v), 4)[4] == 5 * 21
        assert rec_eval(rec_from_gf(derive(Schlafli(6, 4)).v), 2)[2] == 4 * 3
        assert rec_eval(rec_from_gf(derive(Schlafli(3, 7)).v), 4)[4] == 7 * 21

    def test_rejects_unknown_selector(self):
        with pytest.raises(ValueError):
            fibonacci_check(6, 10)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            fibonacci_check(5, 0)
