import hashlib
import signal
import tracemalloc
from array import array
from contextlib import contextmanager

import pytest

from conftest import (
    admissible_symbols,
    assert_keys_match_reference,
    census_distances,
    check_map_structure,
    face_cycles,
    face_extremes_audit,
    latest_vertex_face_audit,
    reference_census,
    reference_profile,
    type_of,
)
from pqcensus import oracle
from pqcensus.genfunc import (
    CASE_EVEN,
    CASE_ODD,
    CASE_TRIANGLE,
    DEFAULT_VERTEX_BUDGET,
    INFINITY,
    Schlafli,
    SphericalOutOfScope,
    derive,
)
from pqcensus.oracle import (
    _CLASSES,
    _PEER,
    _SIB,
    BudgetExceeded,
    PlanarMap,
    StructureViolation,
    VertexProfile,
    _Fan,
    _profile,
    bfs_census,
    build_map,
    build_tree,
    classify,
    dump_lines,
    dump_map,
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


def build_or_partial(pq, depth, budget=DEFAULT_VERTEX_BUDGET):
    """The map build_map makes at the budget (by default the default one),
    or the partial map it gives up with."""
    try:
        return build_map(Schlafli(*pq), depth, budget)
    except BudgetExceeded as exc:
        return exc.partial_map


def columns(m):
    return (m._he_origin, m._he_next, m._v_deg, m._v_gap, m._v_half)


def row_state(s, r, close):
    """A map in which vertex 1 has q - r edges and is about to take its row
    of r faces: the seed edge alone for r = q - 1, else the first face with
    q - 2 - r single-edge faces glued at 1.  Unless ``close``, the budget
    holds the row and nothing more."""
    if r == s.q - 1:
        m = PlanarMap(s)
        m._attach_leaf(0)
        return m
    m = first_face(s)
    for _ in range(s.q - 2 - r):
        m._attach_face(1)
    if not close:
        m.budget = m.vertex_count + r * (s.p - 2)
    return m


def first_face(s):
    """An unbudgeted map holding only the first face, laid as ``_grow`` lays
    it: the seed edge 0 -> 1, then the face glued along it."""
    m = PlanarMap(s)
    m._attach_leaf(0)
    m._attach_face(1)
    return m


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
        # each vertex of the first ring has the origin for its parent and
        # its two ring neighbors for siblings, in its census key as in the
        # reference profile
        m = build_map(Schlafli(3, 7), 1)
        dist = m.distances()
        ring1 = [v for v in range(m.vertex_count) if dist[v] == 1]
        assert len(ring1) == 7
        _, levels, keys = m._horizon
        assert sorted(levels[1]) == ring1
        for v, key in zip(levels[1], keys[1]):
            assert m.degree(v) == 7 and m._v_gap[v] < 0
            assert _profile(m, v, key) == reference_profile(m, v, dist) == VertexProfile(1, 4, 2, 0)

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

    def test_deep_map_size(self):
        # the face closure the builder makes around ball(5) of {8,8}, as
        # recorded in the ROADMAP baseline
        m = build_map(Schlafli(8, 8), 5, vertex_budget=None)
        assert (m.vertex_count, m.face_count) == (779_793, 133_680)

    def test_bytes_per_vertex(self):
        # the five columns hold 4-byte C ints, about 32 bytes a vertex of
        # {8,8}; the build's peak adds each growth round's BFS distance
        # list and the columns' spare capacity.  {512,512} at depth 0 is
        # one forced row of 260,100 vertices: its peak adds the row's
        # template, kept by the map, and the row's bytes as they are
        # written, with no Python int per slot
        for pq, depth, budget, size, bound in [((8, 8), 3, DEFAULT_VERTEX_BUDGET, 16_009, 64),
                                               ((512, 512), 0, None, 261_121, 96)]:
            tracemalloc.start()
            try:
                m = build_map(Schlafli(*pq), depth, budget)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert m.vertex_count == size
            assert peak <= bound * m.vertex_count, f"{pq}: {peak / m.vertex_count:.0f} bytes a vertex"

    # Vertex ids and rotation order are part of the output (dumps,
    # perfbench references), so however the builder glues faces it must
    # make exactly these maps.  The trees pin the rotation order of
    # leaves, one built in full and one cut by a budget.
    @pytest.mark.parametrize(
        "pq,depth,budget,digest",
        [
            pytest.param(pq, depth, budget, digest, id=f"{pq}-{depth}-{digest}" + (f"-budget{budget}" if budget else ""))
            for pq, depth, budget, digest in [
                ((3, 7), 6, None, "a23bf44de369ddba5b065f72485b2c22e37c987e218d007882e0ee90a98acc4f"),
                ((7, 3), 7, None, "bc61ceca05e152392d2a84c37c9a0c37d4d7fcef6d4831fff36fabbddb542511"),
                ((20, 3), 4, None, "d09b5a009494216a1a34d533d62df0b6b94acce9558868273e83b821f44f5b2f"),
                ((3, 20), 2, None, "81dc5267b66bdbe78c317bd0b969675ed7cec5fb150c7b717beb67d88cd0ef92"),
                ((INFINITY, 3), 6, None, "075d2dd3d4acdb69c55077e20283240d1098843cc52a8836e3569d420a108933"),
                ((INFINITY, 8), 6, 2000, "8b4a7b3f03f2f7f25c6892b7978026837ed4a70a1269eff1668f17b2cbe6cdba"),
            ]
        ],
    )
    def test_dump_digest(self, pq, depth, budget, digest):
        m = build_or_partial(pq, depth, budget or DEFAULT_VERTEX_BUDGET)
        assert hashlib.sha256(dump_map(m).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "pq,depth,size,digest",
        [
            ((8, 8), 5, (199_995, 34_286), "2db5c46ca1b38a0787f33801263fb5f741e9da1084f4bfd8648aa5d28559184d"),
            ((5, 8), 5, (199_998, 70_739), "3afbb95e8cff0b88d235a3b1c9d69b30f00a2f4ef442cf04985a437ba8986484"),
            ((7, 7), 5, (199_997, 41_676), "63ad383db8a0c0051e93379082433b6ccb8b3cf9cafa41e7de4f61fdceaae8db"),
            ((12, 12), 3, (158_125, 15_972), "202a7f88fa750a2178f60c955329106a847cae651d829a2fdac1dce5e0f54793"),
        ],
        ids=str,
    )
    def test_face_digest(self, pq, depth, size, digest):
        # {8,8}, {5,8} and {7,7} stop at the default budget, as `verify`
        # reports them.  Too large to dump quickly: the face cycles fix the
        # map but for where each rotation starts, which the dumps pin.
        m = build_or_partial(pq, depth)
        assert (m.vertex_count, m.face_count) == size
        faces = repr(face_cycles(m))
        assert hashlib.sha256(faces.encode()).hexdigest() == digest

    @pytest.mark.parametrize("pq", [(3, 7), (4, 5), (7, 3), (8, 8)], ids=str)
    def test_first_face(self, pq):
        # a budget of exactly p holds the first face and nothing more; its
        # vertices are numbered around it from the origin
        p = pq[0]
        with pytest.raises(BudgetExceeded) as exc:
            build_map(Schlafli(*pq), 0, vertex_budget=p)
        m = exc.value.partial_map
        assert (m.vertex_count, m.half_edge_count, m.face_count) == (p, 2 * p, 1)
        assert face_cycles(m) == [tuple(range(p))]
        assert m.rotation(0) == (1, p - 1)
        check_map_structure(m)

    @pytest.mark.parametrize("pq", [(7, 3), (5, 4), (4, 5), (3, 7), (8, 8)], ids=str)
    def test_face_swallows_a_full_tail(self, pq):
        # Saturating the boundary successors of one vertex u0 of the first
        # face, one after another, brings u0 to q edges while the boundary
        # still leads from it into a vertex short of edges.  Saturating that
        # vertex must glue one face across u0, not hang a row of faces off
        # it, which would give u0 q + 1 edges.
        s = Schlafli(*pq)
        m = first_face(s)
        u0 = 2
        while True:
            full = m.degree(u0) == s.q
            w = m._he_origin[m._he_next[m._v_gap[u0]] ^ 1]
            assert m.degree(w) < s.q
            m._saturate([w])
            check_map_structure(m)
            assert max(map(m.degree, range(m.vertex_count))) == s.q
            if full:
                break
        assert m.degree(u0) == s.q and m._v_gap[u0] < 0

    @pytest.mark.parametrize("pq", [(7, 3), (5, 4), (4, 5), (8, 8)], ids=str)
    def test_closing_face_swallows_a_full_successor(self, pq):
        # Bring x to q edges as above, then saturate its boundary
        # predecessor v, which takes a row of faces.  The face that closes
        # v is glued along the boundary edge into x, and its run goes on
        # across x: one face closes both, where gluing it along that edge
        # alone would give x q + 1 edges.
        s = Schlafli(*pq)
        m = first_face(s)
        x = 2
        while m.degree(x) < s.q:
            m._saturate([m._he_origin[m._he_next[m._v_gap[x]] ^ 1]])
        v = m._he_origin[m._v_gap[x]]
        assert m.degree(v) < s.q and m.degree(m._he_origin[m._v_gap[v]]) < s.q
        m._saturate([v])
        check_map_structure(m)
        assert max(map(m.degree, range(m.vertex_count))) == s.q
        assert m._v_gap[x] < 0

    @pytest.mark.parametrize(
        "pq,size", [((4, 5), 11), ((5, 4), 13), ((7, 3), 16), ((8, 8), 49), ((6, 4), 17)], ids=str
    )
    def test_row_that_ends_at_its_own_tail(self, pq, size):
        # Saturate the seed edge's leaf 1 before any face is glued: its row
        # of faces hangs off the origin u0 = 0, and the boundary out of 1
        # runs straight back into u0, whose degree the row has just raised.
        # The face that closes 1 must then be left to _attach_face.
        s = Schlafli(*pq)
        m = PlanarMap(s)
        m._attach_leaf(0)
        m._saturate([1])
        assert m.vertex_count == size and m._v_gap[1] < 0
        check_map_structure(m)

    def test_fan_is_face_by_face_gluing(self, monkeypatch):
        # every forced row of the grid's maps, glued one face at a time
        # instead of written from its template: the same five columns, id
        # for id; every map but q = 3's, whose one row is vertex 1's,
        # writes rows from a kept template
        grid = admissible_symbols(range(3, 9), range(3, 9))
        fanned = [build_map(s, 3) for s in grid]
        assert all(m._fans for m in fanned)
        assert all(any(m._fans.values()) for m in fanned if m.symbol.q > 3)
        monkeypatch.setattr(PlanarMap, "_attach_fan", PlanarMap._attach_face)
        for s, m in zip(grid, fanned):
            assert columns(m) == columns(build_map(s, 3)), s

    @pytest.mark.parametrize("pq", [(3, 7), (4, 7), (5, 7), (8, 7), (2048, 5)], ids=str)
    def test_every_row_shape(self, pq):
        # Vertex 1 takes a row of r faces, with or without the face that
        # closes it: the seed edge's leaf for r = q - 1, whose row ends at
        # its own tail, else a vertex of the first face after q - 2 - r
        # single-edge faces.  A budget that holds the row but not the
        # closing face's m - 1 vertices leaves it open; on p = 3 that face
        # adds no vertex, and only a full successor could leave a row open,
        # which a triangle cannot swallow.
        s = Schlafli(*pq)
        p, q = pq
        shapes = [(q - 1, False)] + [(r, close) for r in range(1, q - 1) for close in (True, False) if close or p > 3]
        for r, close in shapes:
            fan, faces = (row_state(s, r, close) for _ in range(2))
            fan._attach_fan(1)
            for _ in range(r + close):
                faces._attach_face(1)
            assert list(fan._fans) == [(r, close)]
            assert columns(fan) == columns(faces), (r, close)
            assert (fan._v_gap[1] < 0) == close
            check_map_structure(fan)
            if r < q - 1 and not close:
                with pytest.raises(BudgetExceeded):
                    faces._attach_face(1)

    def test_row_template_kept_from_second_row(self, monkeypatch):
        # On {20,64} vertex 1 takes the one row of shape (62, close), and
        # generation 1 takes rows of (61, close), of 1,115 new vertices
        # each.  A shape's first row only marks it; its second keeps the
        # template when one more row still fits: after two such rows the
        # map holds 3,383 vertices, so a budget of 4,498 keeps it and 4,497
        # does not.  Kept or not, the rows are glued face by face.
        s = Schlafli(20, 64)
        built = {}
        for budget, kept in ((4497, False), (4498, True)):
            with pytest.raises(BudgetExceeded) as exc:
                build_map(s, 1, budget)
            m = built[budget] = exc.value.partial_map
            assert m._fans[62, True] is None
            assert (m._fans[61, True] is not None) == kept
        monkeypatch.setattr(PlanarMap, "_attach_fan", PlanarMap._attach_face)
        for budget, m in built.items():
            with pytest.raises(BudgetExceeded) as exc:
                build_map(s, 1, budget)
            assert columns(m) == columns(exc.value.partial_map), budget

    def test_row_ids_stay_c_ints(self):
        # ``fromlist`` refuses an id past 2^31 - 1, where ``frombytes``
        # would wrap it, so the lane writer checks the row's last new ids
        # before it writes.  A row that ends at the last C int is written
        # as its template shifted, lane for lane.
        fan = _Fan(6, 5, True)
        top = 2**31 - 1
        low = [array("i") for _ in range(5)]
        fan.write(*low, 0, 0)
        high = [array("i") for _ in range(5)]
        h0, nv0 = top + 1 - fan.half_edges, top + 1 - fan.vertices
        fan.write(*high, h0, nv0)
        assert max(high[1]) == top
        assert list(high[0]) == [w + nv0 for w in low[0]]
        assert high[2] == low[2]
        for col in (1, 3, 4):
            assert list(high[col]) == [h + h0 for h in low[col]]
        for bases in [(h0 + 1, 0), (0, nv0 + 1)]:
            cols = [array("i") for _ in range(5)]
            with pytest.raises(OverflowError):
                fan.write(*cols, *bases)
            assert not any(cols)

    def test_rejects_spherical(self):
        with pytest.raises(SphericalOutOfScope):
            build_map(Schlafli(4, 3), 2)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_rejects_budget_below_one(self, budget):
        # no map is smaller than its origin
        with pytest.raises(ValueError, match="vertex budget must be >= 1"):
            build_map(Schlafli(4, 5), 2, vertex_budget=budget)
        with pytest.raises(ValueError, match="vertex budget must be >= 1"):
            build_tree(3, 2, budget)

    def test_budget_exceeded_reports_achieved_depth(self):
        with pytest.raises(BudgetExceeded) as exc:
            build_map(Schlafli(4, 5), 10, vertex_budget=500)
        err = exc.value
        assert err.partial_map.vertex_count <= 500
        assert 0 <= err.achieved_depth < 10
        # the partial map stays usable and still verifies
        rep = bfs_census(err.partial_map)
        assert rep.trusted_depth == err.achieved_depth
        exp = series_coeffs(derive(Schlafli(4, 5)).v, rep.trusted_depth)
        assert list(rep.v) == exp


class TestStructureAudit:
    """``check_map_structure`` finds the faces by walking the ``next``
    cycles themselves, so it rejects a map whose stored state disagrees
    with them."""

    def test_claimed_saturation(self):
        m = build_map(Schlafli(6, 4), 2)
        check_map_structure(m)
        # a boundary vertex with q edges still has one open gap
        v = next(v for v in range(m.vertex_count) if m.degree(v) == 4 and m._v_gap[v] >= 0)
        m._v_gap[v] = -1
        with pytest.raises(AssertionError, match=f"saturated vertex {v} lies on 3 faces"):
            check_map_structure(m)

    def test_redirected_face_cycle(self):
        m = build_map(Schlafli(4, 5), 2)
        check_map_structure(m)
        # the first face is glued along the seed half-edge 0 -> 1; skipping
        # the half-edge after it leaves that one on no cycle
        skipped = m._he_next[0]
        m._he_next[0] = m._he_next[skipped]
        with pytest.raises(AssertionError, match=f"half-edge {skipped} lies on no next cycle"):
            check_map_structure(m)


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


# profile (parents, children, fraternal, consortial) -> class tag, or None
# where the classifier must refuse it; one symbol per case family
PROFILE_TAGS = {
    (INFINITY, 3): {
        (1, 2, 0, 0): "A",
        (1, 0, 0, 0): "A",
        (0, 3, 0, 0): None,
        (2, 1, 0, 0): None,
        (1, 1, 1, 0): None,
        (1, 1, 0, 1): None,
    },
    (3, 7): {
        (1, 4, 2, 0): "A",
        (2, 3, 2, 0): "B",
        (0, 5, 2, 0): None,
        (3, 2, 2, 0): None,
        (1, 6, 0, 0): None,
        (1, 5, 1, 0): None,
        (1, 3, 2, 1): None,
    },
    (4, 5): {
        (1, 4, 0, 0): "A",
        (2, 3, 0, 0): "B",
        (0, 5, 0, 0): None,
        (3, 2, 0, 0): None,
        (1, 3, 1, 0): None,
        (1, 3, 0, 1): None,
    },
    (5, 4): {
        (1, 3, 0, 0): "A",
        (2, 2, 0, 0): "B",
        (1, 2, 0, 1): "C",
        (0, 4, 0, 0): None,
        (3, 1, 0, 0): None,
        (2, 1, 0, 1): None,
        (1, 2, 1, 0): None,
        (1, 1, 0, 2): None,
    },
}


def set_key(m, v, profile):
    """Give vertex v of the census the key that the BFS counts for
    ``profile``; its children are the rest of its degree."""
    parents, _, fraternal, consortial = profile
    _, levels, keys = m._horizon
    d = next(d for d, level in enumerate(levels) if v in level)
    keys[d][levels[d].index(v)] = parents + _PEER * (fraternal + consortial) + _SIB * fraternal


class TestClassifierProfiles:
    """``classify`` decides a vertex's class from the profile its census key
    records alone; a profile that fits no class raises, and ``dump_map``
    tags the vertex ``?`` instead.  Vertex 1 of generation 1 is given each
    profile through its key."""

    @pytest.mark.parametrize(
        "pq, profile", [(pq, prof) for pq, tags in PROFILE_TAGS.items() for prof in tags], ids=str
    )
    def test_profile(self, pq, profile):
        m = build_map(Schlafli(*pq), 1)
        rep = bfs_census(m)
        set_key(m, 1, profile)
        tag = PROFILE_TAGS[pq][profile]
        row = dump_map(m, rep).splitlines()[3].split()
        assert row[:3] == ["1", "1", tag or "?"]
        if tag is None:
            with pytest.raises(StructureViolation) as exc:
                classify(m, rep)
            assert (exc.value.vertex, exc.value.generation) == (1, 1)
            assert exc.value.profile == VertexProfile(*profile)
        else:
            # the other q - 1 vertices of generation 1 are of class A
            got = classify(m, rep)
            counts = {"A": got.a[1], "B": got.b[1], "C": got.c[1]}
            assert counts == {k: (pq[1] - 1) * (k == "A") + (k == tag) for k in "ABC"}

    @pytest.mark.parametrize("pq", list(PROFILE_TAGS), ids=str)
    def test_dump_marks_violation(self, pq):
        m = build_map(Schlafli(*pq), 1)
        rep = bfs_census(m)
        expected = dump_map(m, rep).splitlines()
        set_key(m, 1, (0, pq[1], 0, 0))
        lines = dump_map(m, rep).splitlines()
        row = expected[3].split()
        assert row[:3] == ["1", "1", "A"]
        assert lines[3] == " ".join([*row[:2], "?", *row[3:]])
        assert lines[:3] + lines[4:] == expected[:3] + expected[4:]

    @pytest.mark.parametrize(
        "pq, depth, cls",
        [(pq, depth, cls) for pq, depth in [((INFINITY, 3), 3), ((3, 7), 3), ((4, 5), 3), ((5, 4), 4)]
         for cls in _CLASSES[Schlafli(*pq).case]],
        ids=str,
    )
    def test_classify_stops_at_first_violation(self, monkeypatch, pq, depth, cls):
        # with one class struck from its table, classify raises for the
        # first vertex of that class in BFS order, with its generation and
        # full profile
        m = build_map(Schlafli(*pq), depth)
        table = {k: tag for k, tag in _CLASSES[m.symbol.case].items() if k != cls}
        trusted, levels, _ = m._horizon
        dist = census_distances(m)
        expected = next(
            (v, d, prof)
            for d in range(1, trusted + 1)
            for v in levels[d]
            if ((prof := reference_profile(m, v, dist)).parents, prof.fraternal, prof.consortial) == cls
        )
        monkeypatch.setitem(oracle._CLASSES, m.symbol.case, table)
        with pytest.raises(StructureViolation) as exc:
            classify(m, bfs_census(m))
        assert (exc.value.vertex, exc.value.generation, exc.value.profile) == expected


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
        ends[m._he_origin[h]].append(m._he_origin[h ^ 1])
    for v, ws in ends.items():
        assert sorted(m.rotation(v)) == sorted(ws), v


@pytest.mark.parametrize("pq", [pq for pq, _ in SAMPLE], ids=str)
def test_face_extremes(pq, sample_maps):
    m, rep = sample_maps[pq]
    assert face_extremes_audit(m, rep.trusted_depth, m.distances()) > 0


@pytest.mark.parametrize("pq", [pq for pq, _ in SAMPLE if Schlafli(*pq).p % 2 == 0], ids=str)
def test_latest_vertex_bijection_even(pq, sample_maps):
    m, rep = sample_maps[pq]
    dist = m.distances()
    types = {
        v: type_of(m, v, dist)
        for v in range(m.vertex_count)
        if 0 < dist[v] <= rep.trusted_depth
    }
    latest_vertex_face_audit(m, rep.trusted_depth, types, dist)


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
            filial[d] += sum(1 for w in m.rotation(v) if dist[w] == d - 1)
    a, b, c = rep.a, rep.b, rep.c
    if cgf.symbol.case == CASE_TRIANGLE:
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

    def test_dump_streams(self):
        # the dump is made a line at a time: besides the map and its census
        # it holds a tag byte and a C-int distance a vertex, and the full
        # BFS one generation at a time, never its lines
        m = build_or_partial((8, 8), 3)
        rep = classify(m, bfs_census(m))
        tracemalloc.start()
        try:
            size = sum(map(len, dump_lines(m, rep)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size == len(dump_map(m, rep)) > 20 * m.vertex_count
        assert peak <= 16 * m.vertex_count, f"{peak / m.vertex_count:.1f} bytes a vertex"


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


@pytest.mark.parametrize("s", admissible_symbols(range(3, 9), range(3, 9)), ids=str)
def test_profile_walk_matches_reference(s):
    # the profiles that the census walk's keys record, against the rotation
    # tuples, on every trusted vertex
    assert_keys_match_reference(build_map(s, 4))


@pytest.mark.parametrize("q", [9, 16, 40], ids=str)
def test_wide_triangle_keys_match_reference(q):
    # p = 3 past the grid: the siblings next to a parent in each rotation
    # of up to 40 neighbors
    m = build_map(Schlafli(3, q), 2)
    assert m._horizon[0] == 2
    assert_keys_match_reference(m)


@contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the block after ``seconds``: a walk that never
    closes fails the test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("pq", [(4, 5), (3, 7), (INFINITY, 3)], ids=str)
def test_broken_rotation_raises(pq):
    # one ``next`` slot sends the walk around vertex 1 from its second
    # outgoing half-edge h1 back to h1, a cycle without its first one: the
    # census BFS and the dump's full BFS each give up after deg(1) steps
    m = build_map(Schlafli(*pq), 2)
    h1 = m._he_next[m._v_half[1] ^ 1]
    m._he_next[h1 ^ 1] = h1
    with deadline(5):
        with pytest.raises(RuntimeError, match="walk around 1 does not close"):
            bfs_census(m)
        with pytest.raises(RuntimeError, match="walk around 1 does not close"):
            m.distances()
        with pytest.raises(RuntimeError, match="walk around 1 does not close"):
            dump_map(m)


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
        assert_keys_match_reference(m)

    @pytest.mark.parametrize(
        "pq,depth,step", [((8, 8), 2, 17), ((4, 5), 4, 5), ((3, 7), 4, 3), ((7, 3), 7, 3), ((12, 12), 1, 11)], ids=str
    )
    def test_budget_cut_is_a_prefix(self, pq, depth, step):
        # a budget stops the build at the first face that would overrun it,
        # which needs at most p - 2 new vertices: the partial map is the
        # unbudgeted map's first half-edges and faces.  The half-edge lists
        # are append-only, and a closed face's cycle never changes.
        s = Schlafli(*pq)
        full = build_map(s, depth, vertex_budget=None)
        full_faces = face_cycles(full)
        for budget in range(s.p, full.vertex_count, step):
            with pytest.raises(BudgetExceeded) as exc:
                build_map(s, depth, vertex_budget=budget)
            m = exc.value.partial_map
            assert budget - (s.p - 2) < m.vertex_count <= budget
            assert m._he_origin == full._he_origin[: m.half_edge_count]
            assert face_cycles(m) == full_faces[: m.face_count]

    @pytest.mark.parametrize("q,depth", [(3, 0), (3, 4), (4, 2), (5, 3)], ids=str)
    def test_trees(self, q, depth):
        m = build_tree(q, depth)
        assert classify(m, bfs_census(m)) == reference_census(m)
        assert_keys_match_reference(m)

    @pytest.mark.parametrize(
        "pq,budget",
        [((8, 3), 5)] + [(pq, b) for pq in [(3, 7), (4, 5), (7, 3), (8, 8)] for b in sorted({1, 2, pq[0] - 1})],
        ids=str,
    )
    def test_bare_origin(self, pq, budget):
        # a budget below p cannot hold the first face, so not even its
        # seed edge is laid
        with pytest.raises(BudgetExceeded) as exc:
            build_map(Schlafli(*pq), 2, vertex_budget=budget)
        m = exc.value.partial_map
        assert m.vertex_count == 1 and m.half_edge_count == 0
        assert exc.value.achieved_depth == 0
        assert classify(m, bfs_census(m)) == reference_census(m)

    def test_report_deeper_than_map(self, sample_maps):
        m, rep = sample_maps[(4, 5)]
        with pytest.raises(ValueError):
            classify(m, rep._replace(trusted_depth=rep.trusted_depth + 1))

    def test_truncated_distances(self, sample_maps):
        # the census BFS stops one generation past the trusted depth
        m, rep = sample_maps[(5, 4)]
        full = m.distances()
        trusted, levels, keys = m._horizon
        edge = trusted + 1
        cut = census_distances(m)
        assert cut == [d if d <= edge else -1 for d in full]
        # the walk out of the trusted depth labels the edge as it goes, and
        # counts its neighbors there as children; neighbors the truncated
        # BFS never reached are children, not parents
        for v, key in zip(levels[trusted], keys[trusted]):
            assert _profile(m, v, key) == reference_profile(m, v, full), v
        for v in levels[edge]:
            assert reference_profile(m, v, cut) == reference_profile(m, v, full), v

    def test_dump_report_deeper_than_map(self):
        # {5,5} cut by a budget of 3000 is saturated to depth 3; a report
        # that claims depth 5 would have the dump tag 918 vertices past it
        m = build_or_partial((5, 5), 6, 3000)
        rep = bfs_census(m)
        assert rep.trusted_depth == 3
        deeper = rep._replace(trusted_depth=5)
        # dump_lines refuses at the call, before a line is asked for
        for call in (classify, dump_lines, dump_map):
            with pytest.raises(ValueError, match="report trusts depth 5, but the map is saturated only to depth 3"):
                call(m, deeper)
