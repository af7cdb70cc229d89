"""Shared helpers: admissible-symbol grids, planar-map structure audits, and
reference implementations that the library itself does not need."""

from __future__ import annotations

from fractions import Fraction

from pqcensus import INFINITY, Schlafli
from pqcensus.genfunc import derive
from pqcensus.oracle import CensusReport, PlanarMap, _type_of
from pqcensus.polyarith import RationalGF, gf_normalize, primitive, pseudo_rem
from pqcensus.recurrence import LinRec, rec_eval, rec_from_gf


def admissible_symbols(ps, qs):
    out = []
    for p in ps:
        for q in qs:
            s = Schlafli(p, q)
            if s.admissible():
                out.append(s)
    return out


def face_cycles(m: PlanarMap) -> list[tuple[int, ...]]:
    """Vertices of every closed face in cycle order, found by walking the
    ``next`` cycles themselves: every cycle but the outer one, which runs
    through the gaps.  Asserts that every half-edge lies on exactly one
    cycle.

    Faces come in the order they were glued: a face's half-edge of largest
    id is one that its gluing created, and the face's cycle starts at that
    half-edge's ``next``, the first half-edge it was glued along.
    """
    origin, nxt = m._he_origin, m._he_next
    gaps = {h for h in m._v_gap if h >= 0}
    seen = [False] * m.half_edge_count
    tops = []
    for h0 in range(m.half_edge_count):
        if seen[h0]:
            continue
        cyc = []
        h = h0
        while not seen[h]:
            seen[h] = True
            cyc.append(h)
            h = nxt[h]
        assert h == h0, f"half-edge {h0} lies on no next cycle"
        if gaps.isdisjoint(cyc):
            tops.append(max(cyc))
    faces = []
    for top in sorted(tops):
        h = nxt[top]
        cyc = [origin[h]]
        while h != top:
            h = nxt[h]
            cyc.append(origin[h])
        faces.append(tuple(cyc))
    return faces


def check_map_structure(m: PlanarMap):
    """Audit the half-edge structure: faces, rotations, saturation, simplicity.

    Faces are the map's ``next`` cycles and saturation is read straight from
    the degree and gap lists, so closed faces per vertex are counted on the
    cycles, not read from the map's own state: a saturated vertex lies on q
    faces, any other vertex with edges on degree - 1 (one open gap on the
    boundary).  The cycles must number ``face_count``, Euler's count.
    """
    p, q = m.symbol.p, m.symbol.q
    n_edges = m.half_edge_count // 2
    assert m.half_edge_count % 2 == 0
    faces = face_cycles(m)
    faces_at = [0] * m.vertex_count
    for f, cyc in enumerate(faces):
        assert len(cyc) == p, f"face {f} has degree {len(cyc)}"
        assert len(set(cyc)) == p
        for v in cyc:
            faces_at[v] += 1
    assert len(faces) == m.face_count, f"{len(faces)} face cycles, Euler's formula counts {m.face_count}"
    deg_sum = 0
    for v in range(m.vertex_count):
        rot = m.rotation(v)
        deg_sum += len(rot)
        assert len(rot) == m.degree(v)
        assert v not in rot, f"loop at {v}"
        assert len(set(rot)) == len(rot), f"multi-edge at {v}"
        if not m.symbol.is_tree:
            if m.degree(v) == q and m._v_gap[v] < 0:
                assert faces_at[v] == q, f"saturated vertex {v} lies on {faces_at[v]} faces"
            elif m.degree(v) > 0:
                assert faces_at[v] == m.degree(v) - 1, f"boundary vertex {v} lies on {faces_at[v]} faces"
    assert deg_sum == 2 * n_edges
    check_gaps(m)


def check_gaps(m: PlanarMap):
    """Audit each vertex's gap half-edge against the ``next`` cycles.

    A gap runs into its vertex, and its ``next`` leaves it.  On a tree the
    gap is the slot before ``_v_half[v]`` and is open exactly while v has
    fewer than q edges.  On a disk the gaps are the outer cycle: walking
    ``next`` from any gap passes through every open vertex's gap and
    nothing else.
    """
    q, origin, nxt = m.symbol.q, m._he_origin, m._he_next
    gaps = {h: v for v, h in enumerate(m._v_gap) if h >= 0}
    for h, v in gaps.items():
        assert origin[h ^ 1] == v, f"gap of {v} does not run into it"
        assert origin[nxt[h]] == v, f"gap of {v} is not followed by a half-edge out of it"
    if m.symbol.is_tree:
        for v, h in enumerate(m._v_gap):
            assert (h >= 0) == (0 < m.degree(v) < q), f"vertex {v} with {m.degree(v)} edges has gap {h}"
            if h >= 0:
                assert nxt[h] == m._v_half[v], f"gap of {v} is not the slot before its first half-edge"
    elif gaps:
        h0 = h = next(iter(gaps))
        cycle = set()
        while h not in cycle:
            assert h in gaps, "outer cycle passes a half-edge that is no gap"
            cycle.add(h)
            h = nxt[h]
        assert h == h0 and cycle == gaps.keys(), "outer cycle misses a gap"


def _face_extremes(cyc, dist):
    gens = [dist[v] for v in cyc]
    lo, hi = min(gens), max(gens)
    lo_pos = [i for i, g in enumerate(gens) if g == lo]
    hi_pos = [i for i, g in enumerate(gens) if g == hi]
    return gens, lo, hi, lo_pos, hi_pos


def _adjacent_on_face(positions, size):
    if len(positions) != 2:
        return False
    i, j = positions
    return (j - i) % size in (1, size - 1)


def face_extremes_audit(m: PlanarMap, trusted: int, dist: list[int]):
    """Every closed face inside the trusted region has a unique earliest
    vertex or earliest edge, and likewise at the latest end, with the span
    fixed by the face degree.  ``dist`` is ``m.distances()``."""
    p = m.symbol.p
    span = p // 2 if p % 2 == 0 else (p - 1) // 2
    checked = 0
    for f, cyc in enumerate(face_cycles(m)):
        gens, lo, hi, lo_pos, hi_pos = _face_extremes(cyc, dist)
        if hi > trusted + 1:
            continue
        checked += 1
        lo_edge = _adjacent_on_face(lo_pos, p)
        hi_edge = _adjacent_on_face(hi_pos, p)
        assert len(lo_pos) == 1 or lo_edge, f"face {f}: earliest not a vertex or edge"
        assert len(hi_pos) == 1 or hi_edge, f"face {f}: latest not a vertex or edge"
        assert hi - lo == span, f"face {f}: span {hi - lo}, expected {span}"
        if p % 2 == 0:
            assert len(lo_pos) == 1 and len(hi_pos) == 1
        else:
            # odd faces pair a unique vertex at one end with an edge at the other
            assert (len(lo_pos) == 1 and hi_edge) or (lo_edge and len(hi_pos) == 1)
    return checked


def latest_vertex_face_audit(m: PlanarMap, trusted: int, types: dict[int, str], dist: list[int]):
    """Even case: every two-parent vertex inside the trusted region is the
    unique latest vertex of exactly one face, whose earliest vertex lies
    p/2 generations earlier.  ``dist`` is ``m.distances()``."""
    p = m.symbol.p
    r = p // 2
    hits: dict[int, int] = {}
    for cyc in face_cycles(m):
        gens, lo, hi, lo_pos, hi_pos = _face_extremes(cyc, dist)
        if len(hi_pos) != 1:
            continue
        v = cyc[hi_pos[0]]
        if dist[v] <= trusted:
            assert hi - lo == r
            hits[v] = hits.get(v, 0) + 1
    for v, tag in types.items():
        if tag == "B":
            assert hits.get(v, 0) == 1, f"type-B vertex {v} closes {hits.get(v, 0)} faces"


def reference_census(m: PlanarMap) -> CensusReport:
    """Census and classes from a BFS over the whole map.

    The trusted depth is one less than the nearest unsaturated vertex's
    distance (the full distance range when there is none); every vertex
    of the map is scanned.  ``bfs_census`` + ``classify`` stop their BFS at
    that horizon and must agree with this exactly.
    """
    q, dist = m.symbol.q, m.distances()
    t = None
    for v, d in enumerate(dist):
        if (m._v_deg[v] < q or m._v_gap[v] >= 0) and (t is None or d < t):
            t = d
    trusted = max(dist) if t is None else max(0, t - 1)
    counts = {k: [0] * (trusted + 1) for k in "vABC"}
    for v, d in enumerate(dist):
        if d <= trusted:
            counts["v"][d] += 1
            if d > 0:
                counts[_type_of(m, v, dist)][d] += 1
    return CensusReport(
        m.symbol, trusted, *(tuple(counts[k]) for k in "vABC")
    )


_FIBONACCI_SYMBOLS = {
    5: (4, 5),
    4: (6, 4),
    7: (3, 7),
}


def fibonacci_check(q0: int, n_max: int) -> bool:
    """Check v(n) = q * F(2n) for the three censuses one step past Euclidean.

    ``q0`` selects the symbol by its vertex degree: 5 -> {4,5}, 4 -> {6,4},
    7 -> {3,7}.  Fibonacci numbers are computed independently from the
    definition F(0)=0, F(1)=1, F(m)=F(m-1)+F(m-2).
    """
    if q0 not in _FIBONACCI_SYMBOLS:
        raise ValueError(f"no Fibonacci census for q0={q0!r}; expected one of 5, 4, 7")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p, q = _FIBONACCI_SYMBOLS[q0]
    v = rec_eval(rec_from_gf(derive(Schlafli(p, q)).v), n_max)
    fib = [0, 1]
    while len(fib) <= 2 * n_max:
        fib.append(fib[-1] + fib[-2])
    return all(v[n] == q * fib[2 * n] for n in range(1, n_max + 1))


def reference_series(num, den, n_max: int) -> list[int]:
    """Taylor coefficients 0..n_max of num/den (den[0] = 1) by plain long
    division over every tap, zero and +-1 taps included.

    ``series_coeffs`` and ``rec_eval`` hand their steady state to the
    grouped-tap kernel ``extend_recurrence`` and must agree with this exactly.
    """
    out: list[int] = []
    for n in range(n_max + 1):
        acc = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        out.append(acc)
    return out


def gf_add(a: RationalGF, b: RationalGF) -> RationalGF:
    """Sum of two generating functions, reduced by ``gf_normalize``."""
    return gf_normalize(a.num * b.den + b.num * a.den, a.den * b.den)


def ratio_probe(rec: LinRec, n: int) -> float:
    """Empirical growth probe v(n)/v(n-1), computed from exact integers."""
    if n < 2:
        raise ValueError("n must be >= 2")
    v = rec_eval(rec, n)
    return float(Fraction(v[n], v[n - 1]))


def sturm_chain(cs) -> list[list[int]]:
    """Sturm chain of the polynomial with coefficients cs: cs, its
    derivative, then negated primitive pseudo-remainders.

    Every member is a positive multiple of the classical Sturm polynomial,
    so sign counts are unchanged.  The chain must end in a nonzero constant,
    i.e. every root is simple.
    """
    chain = [list(cs)]
    nxt = primitive([i * c for i, c in enumerate(cs)][1:])
    while nxt:
        chain.append(nxt)
        nxt = [-c for c in primitive(pseudo_rem(chain[-2], chain[-1]))]
    assert len(chain[-1]) == 1, "not squarefree: shares a factor with its derivative"
    return chain


def sign_changes(chain: list[list[int]], x: Fraction) -> int:
    """Sign changes along the chain at x, zeros skipped.

    By Sturm's theorem the distinct roots in (x, y] number
    ``sign_changes(chain, x) - sign_changes(chain, y)``.
    """
    a, b = x.numerator, x.denominator
    values = (sum(c * a**i * b ** (len(cs) - 1 - i) for i, c in enumerate(cs)) for cs in chain)
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))
