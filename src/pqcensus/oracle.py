"""Ground-truth census by explicit construction of a tessellation disk.

This module builds a finite, simply connected piece of {p,q} as a half-edge
planar map and counts vertices by breadth-first search, completely
independently of the generating-function derivations: the builder knows
nothing about vertex classes or recurrences, only the two local rules that
every face has degree p and every vertex degree q.

Construction works face by face along the disk boundary.  A boundary
vertex with f incident closed faces has f + 1 edges (its faces form a fan
with one open gap), so the vertex is finished exactly when it has q faces.
Attaching one p-gon means choosing a maximal run of consecutive boundary
edges to glue along: a boundary vertex interior to the run gains a face
but no edge, hence must have had q - 1 faces (the new face is its last),
while the run's two endpoint vertices gain an edge and a face and must
have had at most q - 2 faces.  Both conditions are forced by the target
degree q, so the glue run is determined by the local face counts and the
resulting disk is the unique {p,q} patch; no global knowledge is used.

The q-regular tree {inf,q} grows by the same rounds with a simpler step:
a vertex missing edges gets one pendant edge to a new leaf at a time, until
it has q.

Census trust: a vertex is saturated when all q of its faces are closed
(for the tree case p = infinity, when all q edges are present).  The
report covers generation n only if every vertex at distance <= n is
saturated; generation zero is always exact.  Counts past that horizon are
withheld rather than reported partially.  The census BFS therefore stops at
the first generation holding an unsaturated vertex: it visits only the ball
one generation past the trusted depth, not the whole face closure the
builder had to create around it (for {8,8} at depth 5, about 22 thousand of
780 thousand vertices).  ``classify`` reuses that BFS; ``dump_map`` and
``distances`` run a full one.

Storage is flat: a few lists indexed by half-edge id (origin, next, prev)
and a few indexed by vertex id (degree, closed faces, boundary half-edge,
any half-edge), with no container object per vertex or per face.
Adjacency is not stored separately; a vertex's neighbors are read off the
rotation system.  Half-edge conventions: half-edges are allocated in twin
pairs, so twin(h) = h ^ 1.  ``next`` points along the incident face cycle
(closed faces and the outer boundary both form cycles); rotation around a
vertex falls out as twin(prev(h)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from pqcensus.genfunc import INFINITY, Schlafli

DEFAULT_VERTEX_BUDGET = 200_000


class BadSymbol(ValueError):
    """The symbol cannot be built: it is spherical."""


class BudgetExceeded(RuntimeError):
    """Vertex budget hit before the requested saturated depth was reached.

    Carries the depth that was certified before the abort and the partial
    (still structurally valid) map, so callers may keep what was verified.
    """

    def __init__(self, achieved_depth: int, vertex_count: int, partial_map: "PlanarMap"):
        self.achieved_depth = achieved_depth
        self.vertex_count = vertex_count
        self.partial_map = partial_map
        super().__init__(
            f"vertex budget reached at {vertex_count} vertices; "
            f"saturated depth achieved: {achieved_depth}"
        )


class StructureViolation(RuntimeError):
    """A saturated vertex does not fit any expected parent/cousin profile.

    Raising this would empirically falsify the classification claims the
    generating functions rest on; it is never expected on admissible symbols.
    """

    def __init__(self, vertex: int, generation: int, profile: "VertexProfile"):
        self.vertex = vertex
        self.generation = generation
        self.profile = profile
        super().__init__(f"vertex {vertex} in generation {generation} has profile {profile}")


@dataclass(frozen=True)
class VertexProfile:
    """Neighbor census of one vertex relative to the generation structure."""

    parents: int
    children: int
    fraternal: int
    consortial: int


@dataclass(frozen=True)
class CensusReport:
    """Per-generation counts up to the trusted horizon.

    ``v[n]`` counts all vertices in generation n; ``a``, ``b``, ``c`` hold
    the per-class counts once ``classify`` has run (None before).
    """

    symbol: Schlafli
    trusted_depth: int
    v: tuple[int, ...]
    a: tuple[int, ...] | None = None
    b: tuple[int, ...] | None = None
    c: tuple[int, ...] | None = None


class PlanarMap:
    """Growable half-edge map of a {p,q} disk (or of the q-regular tree).

    All state lives in flat lists indexed by half-edge or vertex id.  The
    neighbors of a vertex are read off the rotation system (the ``next``/
    ``prev`` cycles) rather than stored a second time.
    """

    def __init__(self, symbol: Schlafli):
        self.symbol = symbol
        self._he_origin: list[int] = []
        self._he_next: list[int] = []
        self._he_prev: list[int] = []
        self._faces: list[int] = []  # one half-edge per closed face
        self._v_deg: list[int] = [0]
        self._v_faces: list[int] = [0]
        self._v_bhe: list[int] = [-1]  # outgoing boundary half-edge, -1 if none
        self._v_half: list[int] = [-1]  # any outgoing half-edge
        self._outer = -1
        # saturated once its entry reaches q: edges for a tree, closed faces
        # for a disk
        self._sat = self._v_deg if symbol.is_tree else self._v_faces
        # BFS results, each tagged with the half-edge count it was taken at
        # (every mutation adds half-edges, so a stale entry is recognized)
        self._dist_cache: tuple[int, list[int]] | None = None
        self._horizon_cache: tuple[int, int, list[int], list[list[int]]] | None = None

    # -- read-only surface ------------------------------------------------

    @property
    def origin(self) -> int:
        return 0

    @property
    def vertex_count(self) -> int:
        return len(self._v_deg)

    @property
    def half_edge_count(self) -> int:
        return len(self._he_origin)

    @property
    def face_count(self) -> int:
        return len(self._faces)

    def degree(self, v: int) -> int:
        return self._v_deg[v]

    def closed_face_count(self, v: int) -> int:
        return self._v_faces[v]

    def is_saturated(self, v: int) -> bool:
        return self._sat[v] == self.symbol.q

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.rotation(v)

    def twin(self, h: int) -> int:
        return h ^ 1

    def origin_of(self, h: int) -> int:
        return self._he_origin[h]

    def head_of(self, h: int) -> int:
        return self._he_origin[h ^ 1]

    def rotation(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in cyclic order around it, from the embedding."""
        h0 = self._v_half[v]
        if h0 < 0:
            return ()
        origin, prv = self._he_origin, self._he_prev
        out = []
        h = h0
        for _ in range(self._v_deg[v]):
            out.append(origin[h ^ 1])
            h = prv[h] ^ 1
            if h == h0:
                return tuple(out)
        raise RuntimeError(f"rotation walk around {v} does not close")

    def face_vertices(self, f: int) -> tuple[int, ...]:
        """Vertices of closed face f in cycle order."""
        h0 = self._faces[f]
        out = []
        h = h0
        while True:
            out.append(self._he_origin[h])
            h = self._he_next[h]
            if h == h0:
                break
            if len(out) > len(self._he_origin):
                raise RuntimeError(f"face walk for {f} does not close")
        return tuple(out)

    def boundary_vertices(self) -> list[int]:
        """Boundary cycle order; empty for trees and the bare origin."""
        if self._outer < 0:
            return []
        out = []
        h = self._outer
        while True:
            out.append(self._he_origin[h])
            h = self._he_next[h]
            if h == self._outer:
                break
            if len(out) > len(self._he_origin):
                raise RuntimeError("boundary walk does not close")
        return out

    def distances(self, cap: int | None = None) -> list[int]:
        """Graph distance from the origin for every vertex (frontier BFS).

        With ``cap``, vertices farther than cap stay at -1.  The uncapped
        result is cached until the map grows again; treat it as read-only.
        """
        if cap is not None:
            return self._bfs(cap)[0]
        if self._dist_cache is None or self._dist_cache[0] != self.half_edge_count:
            self._dist_cache = (self.half_edge_count, self._bfs()[0])
        return self._dist_cache[1]

    # -- breadth-first search ---------------------------------------------

    def _unsaturated_in(self, level: list[int]) -> bool:
        return min(map(self._sat.__getitem__, level)) < self.symbol.q

    def _bfs(self, cap: int | None = None, horizon: bool = False) -> tuple[list[int], list[list[int]]]:
        """Generation-by-generation BFS from the origin: (dist, levels).

        Stops after generation ``cap`` (no cap when None) or, with
        ``horizon``, after the first generation holding an unsaturated
        vertex.  ``levels[d]`` lists generation d in discovery order;
        vertices never reached keep distance -1.
        """
        origin, prv, half = self._he_origin, self._he_prev, self._v_half
        dist = [-1] * self.vertex_count
        dist[0] = 0
        level = [0]
        levels = [level]
        d = 0
        # a bare origin has no half-edge to walk
        while origin and (cap is None or d < cap) and not (horizon and self._unsaturated_in(level)):
            d += 1
            grown = []
            for v in level:
                # walk the rotation around v: twin(prev(h)) is the next
                # outgoing half-edge
                h0 = h = half[v]
                while True:
                    w = origin[h ^ 1]
                    if dist[w] < 0:
                        dist[w] = d
                        grown.append(w)
                    h = prv[h] ^ 1
                    if h == h0:
                        break
            if not grown:
                break
            levels.append(grown)
            level = grown
        return dist, levels

    def _horizon(self) -> tuple[int, list[int], list[list[int]]]:
        """Trusted depth t with the BFS that found it: (t, dist, levels).

        The BFS stops at the first generation holding an unsaturated vertex,
        so it labels exactly ball(t + 1) (ball(0) for an unsaturated origin).
        Cached until the map grows again.
        """
        key = self.half_edge_count
        if self._horizon_cache is None or self._horizon_cache[0] != key:
            dist, levels = self._bfs(horizon=True)
            t = len(levels) - 1
            if self._unsaturated_in(levels[-1]):
                t = max(0, t - 1)
            self._horizon_cache = (key, t, dist, levels)
        return self._horizon_cache[1:]

    # -- construction internals -------------------------------------------

    def _new_vertex(self) -> int:
        self._v_deg.append(0)
        self._v_faces.append(0)
        self._v_bhe.append(-1)
        self._v_half.append(-1)
        return len(self._v_deg) - 1

    def _new_edge(self, u: int, w: int) -> tuple[int, int]:
        h = len(self._he_origin)
        self._he_origin.extend((u, w))
        self._he_next.extend((-1, -1))
        self._he_prev.extend((-1, -1))
        self._v_deg[u] += 1
        self._v_deg[w] += 1
        if self._v_half[u] < 0:
            self._v_half[u] = h
        if self._v_half[w] < 0:
            self._v_half[w] = h + 1
        return h, h + 1

    def _bootstrap(self, budget: int | None):
        """Lay down the first p-gon through the bare origin."""
        p = self.symbol.p
        if budget is not None and p > budget:
            raise BudgetExceeded(0, self.vertex_count, self)
        cyc = [0] + [self._new_vertex() for _ in range(p - 1)]
        cs = []
        for i in range(p):
            h, _ = self._new_edge(cyc[i], cyc[(i + 1) % p])
            cs.append(h)
        self._faces.append(cs[0])
        for i in range(p):
            self._he_next[cs[i]] = cs[(i + 1) % p]
            self._he_prev[cs[(i + 1) % p]] = cs[i]
        ts = [h ^ 1 for h in cs]  # ts[i] runs cyc[i+1] -> cyc[i]
        for i in range(p):
            self._he_next[ts[i]] = ts[i - 1]
            self._he_prev[ts[i - 1]] = ts[i]
        for j in range(p):
            self._v_faces[cyc[j]] = 1
            self._v_bhe[cyc[j]] = ts[(j - 1) % p]
        self._outer = ts[0]

    def _attach_face(self, v: int, budget: int | None):
        """Glue one new p-gon into the open gap behind boundary vertex v."""
        p, q = self.symbol.p, self.symbol.q
        faces, deg = self._v_faces, self._v_deg
        origin = self._he_origin
        nxt, prv = self._he_next, self._he_prev
        h_out = self._v_bhe[v]
        if h_out < 0:
            raise RuntimeError(f"attach requested at interior vertex {v}")
        run = [prv[h_out]]
        # A vertex with q-1 faces must be swallowed whole by its last face,
        # so the glue run is forced to extend across it.
        while faces[origin[run[-1] ^ 1]] == q - 1:
            run.append(nxt[run[-1]])
            if len(run) >= p:
                raise RuntimeError("glue run exceeded face degree")
        while faces[origin[run[0]]] == q - 1:
            run.insert(0, prv[run[0]])
            if len(run) >= p:
                raise RuntimeError("glue run exceeded face degree")
        k = len(run)
        m = p - k - 1
        verts = [origin[run[0]]] + [origin[e ^ 1] for e in run]
        if len(set(verts)) != k + 1:
            raise RuntimeError("glue run self-intersects; disk invariant broken")
        u0, uk = verts[0], verts[-1]
        nv0 = len(deg)
        if budget is not None and m > 0 and nv0 + m > budget:
            raise BudgetExceeded(self._horizon()[0], nv0, self)
        if m == 0 and u0 in self.rotation(uk):
            raise RuntimeError("closing chord already present; map would lose simplicity")
        before, after = prv[run[0]], nxt[run[-1]]
        self._faces.append(run[0])
        # New path uk, w_1 .. w_m, u0 with w_j = nv0 + j - 1.  Its edge i
        # joins chain[i] and chain[i + 1]: half-edge cs[i] runs forward
        # along the new face, its twin ts[i] backward along the boundary.
        # Every new id is created once here and shared by all lists below.
        chain = [uk, *range(nv0, nv0 + m), u0]
        h0 = len(origin)
        he = list(range(h0, h0 + 2 * (m + 1)))
        cs, ts = he[0::2], he[1::2]
        origin += he  # reserve the slots, then fill even and odd ids
        origin[h0::2] = chain[:-1]
        origin[h0 + 1::2] = chain[1:]
        # face cycle run..., cs...; boundary before, ts[-1] .. ts[0], after
        nxt += he
        nxt[h0::2] = cs[1:] + run[:1]
        nxt[h0 + 1::2] = [after] + ts[:-1]
        prv += he
        prv[h0::2] = run[-1:] + cs[:-1]
        prv[h0 + 1::2] = ts[1:] + [before]
        nxt[run[-1]] = cs[0]
        prv[run[0]] = cs[-1]
        nxt[before] = ts[-1]
        prv[after] = ts[0]
        deg += [2] * m
        deg[uk] += 1
        deg[u0] += 1
        faces += [1] * m
        for w in verts:
            faces[w] += 1
        bhe = self._v_bhe
        for w in verts[1:-1]:
            if faces[w] != q or deg[w] != q:
                raise RuntimeError(f"swallowed vertex {w} ended unsaturated")
            bhe[w] = -1
        bhe[u0] = ts[-1]
        bhe += ts[:m]
        self._v_half += ts[:m]
        self._outer = ts[0]

    def _attach_leaf(self, v: int, budget: int | None):
        """Hang one new leaf off tree vertex v.

        The pendant edge is spliced into v's rotation just before
        ``_v_half[v]``, so v's neighbors keep the order they were added in.
        """
        nv0 = len(self._v_deg)
        if budget is not None and nv0 + 1 > budget:
            raise BudgetExceeded(self._horizon()[0], nv0, self)
        nxt, prv = self._he_next, self._he_prev
        h0 = self._v_half[v]
        a, b = self._new_edge(v, self._new_vertex())
        # a bare vertex: the new edge's two sides form the whole cycle
        ins, h0 = (prv[h0], h0) if h0 >= 0 else (b, a)
        nxt[ins], prv[a] = a, ins
        nxt[a], prv[b] = b, a
        nxt[b], prv[h0] = h0, b

    def _grow(self, depth: int, budget: int | None):
        q, sat = self.symbol.q, self._sat
        if self.symbol.is_tree:
            attach = self._attach_leaf
        else:
            attach = self._attach_face
            if self.half_edge_count == 0:
                self._bootstrap(budget)
        # Every target of a round ends saturated, and once ball(r - 2) is
        # saturated no vertex can join ball(r - 1) or change distance inside
        # it.  So round r leaves ball(r - 1) saturated, ball(depth) is
        # saturated after round depth + 1, and round depth + 2 finds no
        # targets.
        for _ in range(depth + 2):
            # unsaturated vertices within depth, nearest first, then by id
            targets = [v for level in self._bfs(depth)[1] for v in sorted(level) if sat[v] < q]
            if not targets:
                return
            for v in targets:
                while sat[v] < q:
                    attach(v, budget)
        raise RuntimeError("growth failed to reach the requested depth")


def build_map(s: Schlafli, min_saturated_depth: int, vertex_budget: int | None = DEFAULT_VERTEX_BUDGET) -> PlanarMap:
    """Build a {p,q} disk, or the {inf,q} tree, saturated out to at least
    the requested depth.

    Raises BudgetExceeded (carrying the achieved depth and the partial map)
    if the vertex budget would be overrun first; pass ``vertex_budget=None``
    to grow without a cap.  A tree comes out with its leaves at distance
    depth + 1, so its saturation horizon is exactly the requested depth.
    """
    if not s.admissible():
        raise BadSymbol(f"{s} is spherical; only Euclidean and hyperbolic symbols are built")
    if min_saturated_depth < 0:
        raise ValueError("min_saturated_depth must be >= 0")
    m = PlanarMap(s)
    m._grow(min_saturated_depth, vertex_budget)
    return m


def build_tree(q: int, depth: int, vertex_budget: int | None = DEFAULT_VERTEX_BUDGET) -> PlanarMap:
    """The q-regular tree: ``build_map`` of {inf,q}, with the same budget."""
    return build_map(Schlafli(INFINITY, q), depth, vertex_budget)


def bfs_census(m: PlanarMap) -> CensusReport:
    """Count vertices per generation out to the saturation horizon.

    The BFS stops at the first generation holding an unsaturated vertex, so
    it visits only the ball one generation past the trusted depth, not the
    whole face closure the builder created around it.
    """
    trusted, _, levels = m._horizon()
    return CensusReport(m.symbol, trusted, tuple(len(level) for level in levels[: trusted + 1]))


def vertex_profile(m: PlanarMap, v: int, dist: list[int] | None = None) -> VertexProfile:
    """Parent/child/sibling/cousin census of v's neighborhood.

    Same-generation neighbors sharing a parent with v are fraternal
    (siblings); the rest are consortial (cousins).  ``dist`` may come from a
    truncated BFS: a neighbor it never reached lies past v's generation and
    counts as a child, never as a parent.
    """
    if dist is None:
        dist = m.distances()
    d = dist[v]
    parents = children = fraternal = consortial = 0
    pset = None
    nbrs = m.rotation(v)
    for w in nbrs:
        dw = dist[w]
        if dw < 0 or dw > d:
            children += 1
        elif dw < d:
            parents += 1
        else:
            if pset is None:
                pset = {x for x in nbrs if dist[x] == d - 1}
            if any(x in pset for x in m.rotation(w) if dist[x] == d - 1):
                fraternal += 1
            else:
                consortial += 1
    return VertexProfile(parents, children, fraternal, consortial)


def _type_of(m: PlanarMap, v: int, dist: list[int]) -> str:
    """Classify one saturated non-origin vertex as A, B or C.

    For p = 3 the sibling edges (two per vertex, linking each generation
    into a cycle) are discounted first, so the classes refer to the reduced
    quadrilateral graph.  Unexpected profiles raise StructureViolation.
    """
    prof = vertex_profile(m, v, dist)
    if m.symbol.is_tree:
        if prof == VertexProfile(1, prof.children, 0, 0):
            return "A"
    elif m.symbol.p == 3:
        # every vertex carries exactly two sibling edges; classes refer to
        # the graph with those removed
        if prof.fraternal == 2 and prof.consortial == 0 and prof.parents in (1, 2):
            return "AB"[prof.parents - 1]
    elif m.symbol.p % 2 == 0:
        if prof.fraternal == 0 and prof.consortial == 0 and prof.parents in (1, 2):
            return "AB"[prof.parents - 1]
    else:
        if prof.fraternal == 0:
            if prof.consortial == 0 and prof.parents in (1, 2):
                return "AB"[prof.parents - 1]
            if prof.consortial == 1 and prof.parents == 1:
                return "C"
    raise StructureViolation(v, dist[v], prof)


def classify(m: PlanarMap, report: CensusReport) -> CensusReport:
    """Fill the per-class generation counts of a census report.

    Every non-origin vertex inside the trusted horizon must match one of
    the expected profiles; anything else raises StructureViolation.  Reuses
    the census BFS of ``bfs_census``, which labels every neighbor of the
    trusted region.
    """
    trusted, dist, levels = m._horizon()
    t = report.trusted_depth
    if t > trusted:
        raise ValueError(f"report trusts depth {t}, but the map is saturated only to depth {trusted}")
    a = [0] * (t + 1)
    b = [0] * (t + 1)
    c = [0] * (t + 1)
    buckets = {"A": a, "B": b, "C": c}
    for d in range(1, t + 1):
        for v in levels[d]:
            buckets[_type_of(m, v, dist)][d] += 1
    return replace(report, a=tuple(a), b=tuple(b), c=tuple(c))


def dump_map(m: PlanarMap, report: CensusReport | None = None) -> str:
    """Line-oriented adjacency dump: one vertex per line with generation,
    class tag, degree and neighbors in rotation order."""
    dist = m.distances()
    trusted = report.trusted_depth if report is not None else m._horizon()[0]
    p = "inf" if m.symbol.is_tree else str(m.symbol.p)
    lines = [
        f"# map p={p} q={m.symbol.q} vertices={m.vertex_count} trusted_depth={trusted}",
        "# vertex generation type degree neighbors-in-rotation-order",
    ]
    for v in range(m.vertex_count):
        if v == 0:
            tag = "O"
        elif dist[v] <= trusted:
            try:
                tag = _type_of(m, v, dist)
            except StructureViolation:
                tag = "?"
        else:
            tag = "-"
        rot = " ".join(str(w) for w in m.rotation(v))
        lines.append(f"{v} {dist[v]} {tag} {m.degree(v)} {rot}".rstrip())
    return "\n".join(lines) + "\n"
