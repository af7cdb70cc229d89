"""Shared helpers: admissible-symbol grids, planar-map structure audits, and
reference implementations that the library itself does not need."""

from __future__ import annotations

from fractions import Fraction

from pqcensus import INFINITY, Schlafli
from pqcensus.genfunc import derive
from pqcensus.oracle import CensusReport, PlanarMap, _type_of
from pqcensus.polyarith import RationalGF, gf_normalize
from pqcensus.recurrence import LinRec, rec_eval, rec_from_gf


def admissible_symbols(ps, qs):
    out = []
    for p in ps:
        for q in qs:
            s = Schlafli(p, q)
            if s.admissible():
                out.append(s)
    return out


def check_map_structure(m: PlanarMap):
    """Audit the half-edge structure: faces, rotations, counters, simplicity."""
    p, q = m.symbol.p, m.symbol.q
    n_edges = m.half_edge_count // 2
    assert m.half_edge_count % 2 == 0
    deg_sum = 0
    for v in range(m.vertex_count):
        nbrs = m.neighbors(v)
        deg_sum += len(nbrs)
        assert len(nbrs) == m.degree(v)
        assert v not in nbrs, f"loop at {v}"
        assert len(set(nbrs)) == len(nbrs), f"multi-edge at {v}"
        rot = m.rotation(v)
        assert sorted(rot) == sorted(nbrs), f"rotation of {v} is not a permutation"
        if m.is_saturated(v):
            assert m.degree(v) == q
        if not m.symbol.is_tree:
            if m.is_saturated(v):
                assert m.closed_face_count(v) == q
            elif m.degree(v) > 0:
                assert m.closed_face_count(v) == m.degree(v) - 1
    assert deg_sum == 2 * n_edges
    for h in range(m.half_edge_count):
        assert m.twin(m.twin(h)) == h
        assert m.origin_of(m.twin(h)) == m.head_of(h)
    corner_count = 0
    for f in range(m.face_count):
        cyc = m.face_vertices(f)
        assert len(cyc) == p, f"face {f} has degree {len(cyc)}"
        assert len(set(cyc)) == p
        corner_count += p
    if not m.symbol.is_tree and m.face_count:
        # disk Euler characteristic, counting only closed faces
        assert m.vertex_count - n_edges + m.face_count == 1
        face_sum = sum(m.closed_face_count(v) for v in range(m.vertex_count))
        assert face_sum == corner_count


def _face_extremes(m: PlanarMap, f: int, dist):
    cyc = m.face_vertices(f)
    gens = [dist[v] for v in cyc]
    lo, hi = min(gens), max(gens)
    lo_pos = [i for i, g in enumerate(gens) if g == lo]
    hi_pos = [i for i, g in enumerate(gens) if g == hi]
    return cyc, gens, lo, hi, lo_pos, hi_pos


def _adjacent_on_face(positions, size):
    if len(positions) != 2:
        return False
    i, j = positions
    return (j - i) % size in (1, size - 1)


def face_extremes_audit(m: PlanarMap, trusted: int):
    """Every closed face inside the trusted region has a unique earliest
    vertex or earliest edge, and likewise at the latest end, with the span
    fixed by the face degree."""
    dist = m.distances()
    p = m.symbol.p
    span = p // 2 if p % 2 == 0 else (p - 1) // 2
    checked = 0
    for f in range(m.face_count):
        cyc, gens, lo, hi, lo_pos, hi_pos = _face_extremes(m, f, dist)
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


def latest_vertex_face_audit(m: PlanarMap, trusted: int, types: dict[int, str]):
    """Even case: every two-parent vertex inside the trusted region is the
    unique latest vertex of exactly one face, whose earliest vertex lies
    p/2 generations earlier."""
    dist = m.distances()
    p = m.symbol.p
    r = p // 2
    hits: dict[int, int] = {}
    for f in range(m.face_count):
        cyc, gens, lo, hi, lo_pos, hi_pos = _face_extremes(m, f, dist)
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
    dist = m.distances()
    t = None
    for v, d in enumerate(dist):
        if not m.is_saturated(v) and (t is None or d < t):
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


def gf_add(a: RationalGF, b: RationalGF) -> RationalGF:
    """Sum of two generating functions, reduced by ``gf_normalize``."""
    return gf_normalize(a.num * b.den + b.num * a.den, a.den * b.den)


def ratio_probe(rec: LinRec, n: int) -> float:
    """Empirical growth probe v(n)/v(n-1), computed from exact integers."""
    if n < 2:
        raise ValueError("n must be >= 2")
    v = rec_eval(rec, n)
    return float(Fraction(v[n], v[n - 1]))
