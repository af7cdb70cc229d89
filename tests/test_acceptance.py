"""End-to-end acceptance checks for the whole package.

Every test here covers one headline guarantee and prints a single
``ACCEPTANCE <name>: PASS`` line when all of its assertions hold, so

    pytest tests/test_acceptance.py -v -s

gives a one-line-per-guarantee summary.  Tolerances are pinned in the
assertions themselves; everything not explicitly toleranced is exact.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import (
    admissible_symbols,
    face_extremes_audit,
    fibonacci_check,
    gf_normalize,
    latest_vertex_face_audit,
    poly_add,
    poly_div_exact,
    poly_mul,
    type_of,
)
from pqcensus.asymptotics import EUCLIDEAN, HYPERBOLIC, growth
from pqcensus.genfunc import INFINITY, Schlafli, derive
from pqcensus.oracle import (
    DEFAULT_VERTEX_BUDGET,
    BudgetExceeded,
    bfs_census,
    build_map,
    classify,
)
from pqcensus.polyarith import IntPoly, series_coeffs
from pqcensus.recurrence import rec_eval, rec_from_gf

FULL_GRID = admissible_symbols(list(range(3, 13)) + [INFINITY], range(3, 13))
ORACLE_GRID = admissible_symbols(range(3, 9), range(3, 9))
# maps up to this size get the face geometry audits (capped for runtime)
AUDITED_VERTICES = 150_000


@contextmanager
def acceptance(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def oracle_grid():
    """Build, count and classify every oracle-grid symbol to depth >= 5.

    The default vertex budget is tried first; the handful of fast-growing
    symbols whose depth-5 saturation closure provably exceeds it are rebuilt
    with the budget override the builder provides for exactly this purpose.
    Only the maps the face geometry audits read are kept (None otherwise),
    so the module does not hold all 3.7 million grid vertices at once.
    """
    t0 = time.perf_counter()
    results = {}
    overridden = []
    for s in ORACLE_GRID:
        try:
            m = build_map(s, 5, vertex_budget=DEFAULT_VERTEX_BUDGET)
        except BudgetExceeded as exc:
            assert exc.achieved_depth < 5
            overridden.append(str(s))
            m = build_map(s, 5, vertex_budget=None)
        report = classify(m, bfs_census(m))
        results[s] = (m if m.vertex_count <= AUDITED_VERTICES else None, report)
        del m  # free a large map before the next build
    elapsed = time.perf_counter() - t0
    return results, overridden, elapsed


def test_exact_generating_functions():
    expected = {
        (4, 5): ((1, 2, 1), (1, -3, 1)),
        (6, 4): ((1, 1, 1), (1, -3, 1)),
        (4, 4): ((1, 2, 1), (1, -2, 1)),
        (6, 3): ((1, 1, 1), (1, -2, 1)),
        (3, 6): ((1, 4, 1), (1, -2, 1)),
        (3, 7): ((1, 4, 1), (1, -3, 1)),
    }
    with acceptance("exact-generating-functions"):
        for (p, q), (num, den) in expected.items():
            derive(Schlafli(p, q))  # warm any lazy caches before timing
            best = min(_timed_derive(p, q) for _ in range(5))
            cgf = derive(Schlafli(p, q))
            assert cgf.v.num.coeffs == num, (p, q)
            assert cgf.v.den.coeffs == den, (p, q)
            assert best < 1e-3, f"derive({{{p},{q}}}) took {best * 1e3:.3f} ms"


def _timed_derive(p, q):
    t0 = time.perf_counter()
    derive(Schlafli(p, q))
    return time.perf_counter() - t0


def test_series_fixtures():
    expected = {
        (4, 5): [1, 5, 15, 40, 105],
        (6, 4): [1, 4, 12, 32, 84],
        (3, 7): [1, 7, 21, 56, 147],
        (4, 4): [1, 4, 8, 12, 16],
        (6, 3): [1, 3, 6, 9, 12],
        (3, 6): [1, 6, 12, 18, 24],
    }
    with acceptance("series-fixtures"):
        for (p, q), series in expected.items():
            assert series_coeffs(derive(Schlafli(p, q)).v, 4) == series, (p, q)


def test_closed_forms():
    with acceptance("closed-forms"):
        for (p, q), step in [((4, 4), 4), ((6, 3), 3), ((3, 6), 6)]:
            v = rec_eval(rec_from_gf(derive(Schlafli(p, q)).v), 100)
            assert v[0] == 1
            assert all(v[n] == step * n for n in range(1, 101)), (p, q)
        fib = [0, 1]
        while len(fib) <= 100:
            fib.append(fib[-1] + fib[-2])
        for (p, q), k in [((4, 5), 5), ((6, 4), 4), ((3, 7), 7)]:
            v = rec_eval(rec_from_gf(derive(Schlafli(p, q)).v), 50)
            assert all(v[n] == k * fib[2 * n] for n in range(1, 51)), (p, q)
            assert fibonacci_check(k if k != 4 else 4, 50)
        for q in (3, 4, 5):
            v = rec_eval(rec_from_gf(derive(Schlafli(INFINITY, q)).v), 30)
            assert v[0] == 1
            assert all(v[n] == q * (q - 1) ** (n - 1) for n in range(1, 31)), q


def test_class_sum_identity():
    with acceptance("class-sum-identity"):
        t0 = time.perf_counter()
        for s in FULL_GRID:
            c = derive(s)
            scale = poly_mul(c.a.den, c.b.den, c.c.den)
            lhs = poly_mul(c.v.num, scale)
            rhs = poly_mul(
                c.v.den,
                poly_add(
                    scale,
                    poly_mul(c.a.num, c.b.den, c.c.den),
                    poly_mul(c.a.den, c.b.num, c.c.den),
                    poly_mul(c.a.den, c.b.den, c.c.num),
                ),
            )
            assert lhs == rhs, str(s)
        assert time.perf_counter() - t0 < 1.0


def test_oracle_equivalence(oracle_grid):
    results, overridden, build_elapsed = oracle_grid
    with acceptance(
        "oracle-equivalence"
        + (f" (budget override needed for {', '.join(overridden)})" if overridden else "")
    ):
        t0 = time.perf_counter()
        for s, (m, rep) in results.items():
            t = rep.trusted_depth
            assert t >= 5, f"{s}: trusted depth {t}"
            assert list(rep.v) == series_coeffs(derive(s).v, t), f"{s}: v"
            assert list(rep.a) == series_coeffs(derive(s).a, t), f"{s}: a"
            assert list(rep.b) == series_coeffs(derive(s).b, t), f"{s}: b"
            assert list(rep.c) == series_coeffs(derive(s).c, t), f"{s}: c"
        total = build_elapsed + (time.perf_counter() - t0)
        assert total <= 60.0, f"oracle grid took {total:.1f}s"


def test_structural_claims(oracle_grid):
    results, _, _ = oracle_grid
    with acceptance("structural-claims"):
        # classify already walked every saturated vertex of every grid map
        # without a StructureViolation; spot-check the class partition sums
        for s, (m, rep) in results.items():
            for n in range(1, rep.trusted_depth + 1):
                assert rep.a[n] + rep.b[n] + rep.c[n] == rep.v[n], (str(s), n)
        for q in range(3, 11):
            assert derive(Schlafli(6, q)).v.den == derive(Schlafli(4, q + 1)).v.den, q


def test_asymptotics():
    with acceptance("asymptotics"):
        for s in FULL_GRID:
            if s.is_tree or not s.hyperbolic():
                continue
            cgf = derive(s)
            info = growth(cgf.v, s)
            assert info.classification == HYPERBOLIC
            lo, hi = info.z0_interval
            assert hi - lo <= Fraction(1, 10**12), str(s)
            mid = (lo + hi) / 2
            v = rec_eval(rec_from_gf(cgf.v), 80)
            rel = abs(float(v[80] * mid**80) - info.amplitude) / info.amplitude
            assert rel <= 1e-6, f"{s}: amplitude error {rel:.2e}"
            ratio = Fraction(v[60], v[59])
            assert abs(float(ratio - 1 / mid)) <= 1e-9, f"{s}: ratio error"
        info = growth(derive(Schlafli(4, 5)).v, Schlafli(4, 5))
        assert abs(info.z0 - (3 - math.sqrt(5)) / 2) <= 1e-12
        for pq in ((4, 4), (3, 6), (6, 3)):
            s = Schlafli(*pq)
            assert growth(derive(s).v, s).classification == EUCLIDEAN


def test_property_suite(oracle_grid):
    results, _, _ = oracle_grid
    with acceptance("property-suite"):
        # normalization is idempotent and reduction-stable on every census gf
        sample_pairs = [
            (poly_mul(IntPoly([1, 1]), IntPoly([1, 0, 0, -1])), IntPoly([1, -3, 0, 3, -1])),
            (IntPoly([2, 2]), IntPoly([2, -2])),
            (IntPoly([0, 5, -5]), IntPoly([1, -4, 1])),
        ]
        for s in FULL_GRID:
            c = derive(s)
            sample_pairs.append((c.v.num, c.v.den))
            sample_pairs.append((poly_mul(c.a.num, c.b.den), poly_mul(c.a.den, c.b.den)))
        for num, den in sample_pairs:
            gf = gf_normalize(num, den)
            assert gf_normalize(gf.num, gf.den) == gf
            assert series_coeffs(gf, 24) == series_coeffs(gf_normalize(num, den), 24)
        # exact division inverts multiplication
        polys = [IntPoly([1, -1]), IntPoly([1, 1]), IntPoly([1, -3, 1]), IntPoly([2, 0, 5])]
        for a in polys:
            for b in polys:
                assert poly_div_exact(poly_mul(a, b), b) == a
        # recurrence replay equals series division out to n = 200, full grid
        for s in FULL_GRID:
            gf = derive(s).v
            assert rec_eval(rec_from_gf(gf), 200) == series_coeffs(gf, 200), str(s)
        # face geometry audit on the oracle maps the fixture kept
        audited = 0
        for s, (m, rep) in results.items():
            if m is None:
                continue
            dist = m.distances()
            assert face_extremes_audit(m, rep.trusted_depth, dist) > 0, str(s)
            if not s.is_tree and s.p % 2 == 0:
                types = {
                    v: type_of(m, v, dist)
                    for v in range(m.vertex_count)
                    if 0 < dist[v] <= rep.trusted_depth
                }
                latest_vertex_face_audit(m, rep.trusted_depth, types, dist)
            audited += 1
        assert audited >= 20
