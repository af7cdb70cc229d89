import hashlib
from dataclasses import replace

import pytest

from conftest import (
    admissible_symbols,
    check_map_structure,
    face_extremes_audit,
    latest_vertex_face_audit,
    reference_census,
)
from pqcensus.genfunc import CASE_EVEN, CASE_ODD, CASE_TRIANGLE, INFINITY, Schlafli, derive
from pqcensus.oracle import (
    BadSymbol,
    BudgetExceeded,
    PlanarMap,
    VertexProfile,
    _type_of,
    bfs_census,
    build_map,
    build_tree,
    classify,
    dump_map,
    vertex_profile,
)
from pqcensus.polyarith import series_coeffs

# one representative per case family plus the chord-heavy q=3 shapes
SAMPLE = [
    ((4, 4), 3),
    ((4, 5), 3),
    ((4, 6), 3),
    ((6, 3), 4),
    ((6, 4), 3),
    ((8, 3), 4),
    ((3, 6), 4),
    ((3, 7), 4),
    ((3, 9), 3),
    ((5, 4), 4),
    ((5, 5), 3),
    ((7, 3), 5),
]


@pytest.fixture(scope="module")
def sample_maps():
    built = {}
    for (p, q), depth in SAMPLE:
        m = build_map(Schlafli(p, q), depth)
        built[(p, q)] = (m, classify(m, bfs_census(m)))
    return built


class TestTree:
    def test_cubic_depth_three(self):
        rep = bfs_census(build_tree(3, 3))
        assert rep.trusted_depth == 3
        assert rep.v == (1, 3, 6, 12)

    def test_quartic_depth_two(self):
        assert bfs_census(build_tree(4, 2)).v == (1, 4, 12)

    def test_depth_zero(self):
        rep = bfs_census(build_tree(3, 0))
        assert rep.v == (1,)

    def test_all_vertices_type_a(self):
        m = build_tree(3, 3)
        rep = classify(m, bfs_census(m))
        assert rep.a == (0, 3, 6, 12)
        assert rep.b == (0, 0, 0, 0)
        assert rep.c == (0, 0, 0, 0)

    def test_structure(self):
        check_map_structure(build_tree(4, 2))

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            build_tree(3, -1)


class TestBuildMap:
    def test_square_lattice_census(self):
        rep = bfs_census(build_map(Schlafli(4, 4), 3))
        assert rep.trusted_depth >= 3
        assert rep.v[:4] == (1, 4, 8, 12)

    def test_first_generation_profile_heptagonal(self):
        m = build_map(Schlafli(3, 7), 1)
        dist = m.distances()
        ring1 = [v for v in range(m.vertex_count) if dist[v] == 1]
        assert len(ring1) == 7
        for v in ring1:
            assert m.is_saturated(v)
            assert vertex_profile(m, v) == VertexProfile(1, 4, 2, 0)

    def test_pentagonal_census_matches_series(self):
        m = build_map(Schlafli(5, 4), 4)
        rep = bfs_census(m)
        exp = series_coeffs(derive(Schlafli(5, 4)).v, rep.trusted_depth)
        assert list(rep.v) == exp
        assert rep.v[:5] == (1, 4, 12, 28, 64)

    def test_hexagonal_lattice(self):
        rep = bfs_census(build_map(Schlafli(6, 3), 4))
        assert rep.v[:5] == (1, 3, 6, 9, 12)

    def test_order_five_squares(self):
        rep = bfs_census(build_map(Schlafli(4, 5), 3))
        assert rep.v[:4] == (1, 5, 15, 40)

    def test_single_vertex_census(self):
        rep = bfs_census(PlanarMap(Schlafli(4, 5)))
        assert rep.trusted_depth == 0
        assert rep.v == (1,)

    @pytest.mark.parametrize(
        "q,depth,digest",
        [
            (3, 4, "c96e2749523b6b2a96aab2b4842adbc23f0682cbbd5674f53ad6bdf5c425717a"),
            (5, 2, "427aaac20436736bed11a8b2e0024a77b400f9e6b2b06527760f951adaf89c9f"),
        ],
        ids=str,
    )
    def test_tree_symbol_dump_digest(self, q, depth, digest):
        # digests of the tree dumps as the former standalone tree builder
        # wrote them: vertex ids and rotation order are unchanged
        text = dump_map(build_map(Schlafli(INFINITY, q), depth))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_rejects_spherical(self):
        with pytest.raises(BadSymbol):
            build_map(Schlafli(4, 3), 2)

    def test_budget_exceeded_reports_achieved_depth(self):
        with pytest.raises(BudgetExceeded) as exc:
            build_map(Schlafli(4, 5), 10, vertex_budget=500)
        err = exc.value
        assert err.vertex_count <= 500
        assert 0 <= err.achieved_depth < 10
        # the partial map stays usable and still verifies
        rep = bfs_census(err.partial_map)
        assert rep.trusted_depth == err.achieved_depth
        exp = series_coeffs(derive(Schlafli(4, 5)).v, rep.trusted_depth)
        assert list(rep.v) == exp


class TestClassify:
    def test_order_five_square_classes(self, sample_maps):
        _, rep = sample_maps[(4, 5)]
        assert rep.a[1] == 5 and rep.b[1] == 0
        assert rep.b[:2] == (0, 0)  # two-parent class absent below generation 2

    def test_pentagon_cousin_counts(self, sample_maps):
        _, rep = sample_maps[(5, 4)]
        assert rep.c[:2] == (0, 0)
        assert rep.c[2] == 8
        assert rep.b[:4] == (0, 0, 0, 0)
        assert rep.b[4] == 4

    def test_triangle_first_generation(self, sample_maps):
        _, rep = sample_maps[(3, 7)]
        assert rep.a[1] + rep.b[1] == 7
        assert rep.b[1] == 0
        assert rep.b[2] == 7

    def test_counts_sum_to_census(self, sample_maps):
        for (p, q), (m, rep) in sample_maps.items():
            for n in range(1, rep.trusted_depth + 1):
                assert rep.a[n] + rep.b[n] + rep.c[n] == rep.v[n], (p, q, n)


@pytest.mark.parametrize("pq", [pq for pq, _ in SAMPLE], ids=str)
def test_census_and_classes_match_series(pq, sample_maps):
    m, rep = sample_maps[pq]
    cgf = derive(Schlafli(*pq))
    t = rep.trusted_depth
    assert list(rep.v) == series_coeffs(cgf.v, t)
    assert list(rep.a) == series_coeffs(cgf.a, t)
    assert list(rep.b) == series_coeffs(cgf.b, t)
    assert list(rep.c) == series_coeffs(cgf.c, t)


@pytest.mark.parametrize("pq", [pq for pq, _ in SAMPLE], ids=str)
def test_map_structure(pq, sample_maps):
    check_map_structure(sample_maps[pq][0])


@pytest.mark.parametrize("pq", [pq for pq, _ in SAMPLE], ids=str)
def test_rotation_covers_edge_list(pq, sample_maps):
    # neighbors are read off the rotation walk; rebuild them from the plain
    # list of half-edges and require the same sets
    m = sample_maps[pq][0]
    ends = {v: [] for v in range(m.vertex_count)}
    for h in range(m.half_edge_count):
        ends[m.origin_of(h)].append(m.head_of(h))
    for v, ws in ends.items():
        assert sorted(m.rotation(v)) == sorted(ws), v


@pytest.mark.parametrize("pq", [pq for pq, _ in SAMPLE], ids=str)
def test_face_extremes(pq, sample_maps):
    m, rep = sample_maps[pq]
    assert face_extremes_audit(m, rep.trusted_depth) > 0


@pytest.mark.parametrize("pq", [pq for pq, _ in SAMPLE if Schlafli(*pq).p % 2 == 0], ids=str)
def test_latest_vertex_bijection_even(pq, sample_maps):
    m, rep = sample_maps[pq]
    dist = m.distances()
    types = {
        v: _type_of(m, v, dist)
        for v in range(m.vertex_count)
        if 0 < dist[v] <= rep.trusted_depth
    }
    latest_vertex_face_audit(m, rep.trusted_depth, types)


@pytest.mark.parametrize("pq", [pq for pq, _ in SAMPLE], ids=str)
def test_filial_double_count(pq, sample_maps):
    """Edges between consecutive generations counted from the child side
    (parents per vertex) and from the parent side (children per class)."""
    m, rep = sample_maps[pq]
    cgf = derive(Schlafli(*pq))
    dist = m.distances()
    q = m.symbol.q
    t = rep.trusted_depth
    filial = [0] * (t + 1)
    for v in range(m.vertex_count):
        d = dist[v]
        if 1 <= d <= t:
            filial[d] += sum(1 for w in m.neighbors(v) if dist[w] == d - 1)
    a, b, c = rep.a, rep.b, rep.c
    if cgf.case_tag == CASE_TRIANGLE:
        child_a, child_bc = q - 3, q - 4
    else:
        child_a, child_bc = q - 1, q - 2
    for n in range(1, t + 1):
        assert filial[n] == a[n] + 2 * b[n] + c[n], (pq, n)
        expected = q if n == 1 else child_a * a[n - 1] + child_bc * (b[n - 1] + c[n - 1])
        assert filial[n] == expected, (pq, n)


class TestDump:
    def test_dump_round_trip(self, sample_maps):
        m, rep = sample_maps[(4, 5)]
        text = dump_map(m, rep)
        lines = text.strip().splitlines()
        assert lines[0].startswith("# map p=4 q=5")
        body = [ln.split() for ln in lines[2:]]
        assert len(body) == m.vertex_count
        v0 = body[0]
        assert v0[0] == "0" and v0[1] == "0" and v0[2] == "O"
        dist = m.distances()
        counts = {}
        for row in body:
            v, gen, tag, deg = int(row[0]), int(row[1]), row[2], int(row[3])
            nbrs = [int(x) for x in row[4:]]
            assert gen == dist[v]
            assert deg == m.degree(v)
            assert tuple(nbrs) == m.rotation(v)
            if tag in "ABC":
                counts[(tag, gen)] = counts.get((tag, gen), 0) + 1
        for n in range(1, rep.trusted_depth + 1):
            assert counts.get(("A", n), 0) == rep.a[n]
            assert counts.get(("B", n), 0) == rep.b[n]

    def test_dump_tree(self):
        m = build_tree(3, 2)
        text = dump_map(m)
        assert text.startswith("# map p=inf q=3")


def test_equivalence_small_grid():
    # quick cross-check over the small end of the admissible grid
    for s in admissible_symbols(range(3, 7), range(3, 7)):
        m = build_map(s, 3)
        rep = classify(m, bfs_census(m))
        cgf = derive(s)
        t = rep.trusted_depth
        assert t >= 3
        assert list(rep.v) == series_coeffs(cgf.v, t), s
        assert list(rep.a) == series_coeffs(cgf.a, t), s
        assert list(rep.b) == series_coeffs(cgf.b, t), s
        assert list(rep.c) == series_coeffs(cgf.c, t), s


class TestBoundedCensus:
    """``bfs_census`` + ``classify`` stop their BFS at the saturation
    horizon; the full-map reference scan must give the same report."""

    @pytest.mark.parametrize("pq", [pq for pq, _ in SAMPLE], ids=str)
    def test_sample_maps(self, pq, sample_maps):
        m, rep = sample_maps[pq]
        assert rep == reference_census(m)

    @pytest.mark.parametrize(
        "pq,budget",
        [((4, 5), 500), ((3, 7), 800), ((7, 3), 300), ((5, 5), 2000), ((INFINITY, 3), 10)],
        ids=str,
    )
    def test_budget_partial_map(self, pq, budget):
        with pytest.raises(BudgetExceeded) as exc:
            build_map(Schlafli(*pq), 10, vertex_budget=budget)
        m = exc.value.partial_map
        ref = reference_census(m)
        assert exc.value.achieved_depth == ref.trusted_depth
        assert classify(m, bfs_census(m)) == ref

    @pytest.mark.parametrize("q,depth", [(3, 0), (3, 4), (4, 2), (5, 3)], ids=str)
    def test_trees(self, q, depth):
        m = build_tree(q, depth)
        assert classify(m, bfs_census(m)) == reference_census(m)

    def test_bare_origin(self):
        with pytest.raises(BudgetExceeded) as exc:
            build_map(Schlafli(8, 3), 2, vertex_budget=5)
        m = exc.value.partial_map
        assert m.vertex_count == 1 and exc.value.achieved_depth == 0
        assert classify(m, bfs_census(m)) == reference_census(m)

    def test_report_deeper_than_map(self, sample_maps):
        m, rep = sample_maps[(4, 5)]
        with pytest.raises(ValueError):
            classify(m, replace(rep, trusted_depth=rep.trusted_depth + 1))

    def test_truncated_distances(self, sample_maps):
        m, rep = sample_maps[(5, 4)]
        full = m.distances()
        cut = m.distances(cap=2)
        assert cut == [d if d <= 2 else -1 for d in full]
        # neighbors the truncated BFS never reached are children, not parents
        for v in range(m.vertex_count):
            if full[v] == 2:
                assert vertex_profile(m, v, cut) == vertex_profile(m, v, full)
