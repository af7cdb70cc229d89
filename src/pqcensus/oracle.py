"""Ground-truth census by explicit construction of a tessellation disk.

This module builds a finite, simply connected piece of {p,q} as a half-edge
planar map and counts vertices by breadth-first search, completely
independently of the generating-function derivations: the builder knows
nothing about vertex classes or recurrences, only the two local rules that
every face has degree p and every vertex degree q.

Construction works face by face along the disk boundary.  A disk starts
from one seed edge at the origin (the tree's pendant-edge step below), both
of its sides on the boundary, and its first p-gon is glued along that edge
by the same step as every other face.  A boundary vertex with f incident
closed faces has f + 1 edges (its faces form a fan with one open gap), so
the vertex is finished exactly when it has q faces.
Attaching one p-gon means choosing a maximal run of consecutive boundary
edges to glue along: a boundary vertex interior to the run gains a face
but no edge, hence must have had q - 1 faces (the new face is its last),
while the run's two endpoint vertices gain an edge and a face and must
have had at most q - 2 faces.  Both conditions are forced by the target
degree q, so the glue run is determined by the local face counts and the
resulting disk is the unique {p,q} patch; no global knowledge is used.

Most faces are glued along one edge.  Take a boundary vertex v with d < q
edges whose boundary edge e comes from a vertex u0 that also has fewer
than q.  Neither end of e is swallowed, so v's next face is glued along e
alone and adds p - 2 new vertices and an edge at v.  The first new vertex,
of degree 2, is the tail of v's new boundary edge, so the same holds for
the next face, until v has q edges and takes its closing face.  v is
therefore forced to take a row of q - d single-edge faces, and since each
face numbers its new vertices and half-edges in one fixed order from the
next free ids, the whole row is one arithmetic pattern.  ``_attach_fan``
writes it as one block: the same ids in the same order as face by face,
with the budget checked before each face as the face step does.

The q-regular tree {inf,q} grows by the same rounds with a simpler step:
a vertex missing edges gets one pendant edge to a new leaf at a time, until
it has q.

Census trust: a vertex is saturated when it has q edges and is off the
boundary, so for a disk all q of its faces are closed (a tree has no
boundary, so q edges suffice).  The report covers generation n only if
every vertex at distance <= n is saturated; generation zero is always
exact.  Counts past that horizon are withheld rather than reported
partially.  The census BFS therefore stops at the first generation holding
an unsaturated vertex: it visits only the ball one generation past the
trusted depth, not the whole face closure the builder had to create around
it (for {8,8} at depth 5, about 22 thousand of 780 thousand vertices).
``classify`` reuses that BFS; ``dump_map`` runs a full one through
``distances``.  The classifier is one table per derivation case
(``Schlafli.case``) from a vertex's parent/sibling/cousin profile to its class.

Storage is flat: origin and next per half-edge; degree, gap half-edge and
one outgoing half-edge per vertex; and no container object per vertex or
per face.  Faces are not stored either: each closed face is a ``next``
cycle, and Euler's formula V - E + F = 1 for a disk counts them.
Half-edges come in twin pairs, twin(h) = h ^ 1.  ``next`` runs along the
incident face cycle (closed faces and the outer boundary both form cycles)
and is the only pointer stored: rotation around a vertex steps from an
outgoing h to next(twin(h)).  A vertex's gap half-edge runs into it at its
open gap (on a disk the incoming boundary half-edge, on a tree the slot
before its first half-edge) and is -1 once the vertex is closed.  Closed
faces per vertex are not stored: the saturation rule reads degree == q and
no gap, and the glue run extends across boundary vertices of degree q.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple

from pqcensus.genfunc import (
    CASE_EVEN,
    CASE_ODD,
    CASE_TREE,
    CASE_TRIANGLE,
    DEFAULT_VERTEX_BUDGET,
    INFINITY,
    Schlafli,
    SphericalOutOfScope,
)


class BudgetExceeded(RuntimeError):
    """Vertex budget hit before the requested saturated depth was reached.

    Carries the depth that was certified before the abort and the partial
    (still structurally valid) map, so callers may keep what was verified.
    """

    def __init__(self, partial_map: "PlanarMap"):
        self.achieved_depth = partial_map._horizon[0]
        self.partial_map = partial_map
        super().__init__(
            f"vertex budget reached at {partial_map.vertex_count} vertices; "
            f"saturated depth achieved: {self.achieved_depth}"
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


class VertexProfile(NamedTuple):
    """Neighbor census of one vertex relative to the generation structure."""

    parents: int
    children: int
    fraternal: int
    consortial: int


class CensusReport(NamedTuple):
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

    All state lives in five flat lists indexed by half-edge or vertex id.
    Only ``next`` is stored: the neighbors of a vertex are read off the
    rotation system, stepping from an outgoing half-edge h to next(twin(h)).
    """

    def __init__(self, symbol: Schlafli):
        self.symbol = symbol
        self._he_origin: list[int] = []
        self._he_next: list[int] = []
        self._v_deg: list[int] = [0]
        # the half-edge into v at its open gap, -1 once v is closed: a
        # vertex is saturated when its degree is q and this is -1
        self._v_gap: list[int] = [-1]
        self._v_half: list[int] = [-1]  # any outgoing half-edge

    # -- read-only surface ------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._v_deg)

    @property
    def half_edge_count(self) -> int:
        return len(self._he_origin)

    @property
    def face_count(self) -> int:
        """Closed faces, by Euler's formula V - E + F = 1 for a disk: 0 for
        a tree and for a bare origin."""
        return self.half_edge_count // 2 - self.vertex_count + 1

    def degree(self, v: int) -> int:
        return self._v_deg[v]

    def rotation(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in cyclic order around it, from the embedding:
        from ``_v_half[v]`` on, against the next(twin(h)) walk."""
        h0 = self._v_half[v]
        if h0 < 0:
            return ()
        origin, nxt = self._he_origin, self._he_next
        out = []
        h = h0
        for _ in range(self._v_deg[v]):
            out.append(origin[h ^ 1])
            h = nxt[h ^ 1]
            if h == h0:
                return (out[0], *out[:0:-1])
        raise RuntimeError(f"rotation walk around {v} does not close")

    def distances(self) -> list[int]:
        """Graph distance from the origin for every vertex (full BFS)."""
        return self._bfs()[0]

    # -- breadth-first search ---------------------------------------------

    def _unsaturated_in(self, level: list[int]) -> bool:
        return (
            min(map(self._v_deg.__getitem__, level)) < self.symbol.q
            or max(map(self._v_gap.__getitem__, level)) >= 0
        )

    def _bfs(self, cap: int | None = None, horizon: bool = False) -> tuple[list[int], list[list[int]]]:
        """Generation-by-generation BFS from the origin: (dist, levels).

        Stops after generation ``cap`` (no cap when None) or, with
        ``horizon``, after the first generation holding an unsaturated
        vertex.  ``levels[d]`` lists generation d in an order that every
        reader sorts or ignores; vertices never reached keep distance -1.
        """
        origin, nxt, half = self._he_origin, self._he_next, self._v_half
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
                # walk the rotation around v: next(twin(h)) is the next
                # outgoing half-edge
                h0 = h = half[v]
                while True:
                    w = origin[h ^ 1]
                    if dist[w] < 0:
                        dist[w] = d
                        grown.append(w)
                    h = nxt[h ^ 1]
                    if h == h0:
                        break
            if not grown:
                break
            levels.append(grown)
            level = grown
        return dist, levels

    @cached_property
    def _horizon(self) -> tuple[int, list[int], list[list[int]]]:
        """Trusted depth t with the BFS that found it: (t, dist, levels).

        The BFS stops at the first generation holding an unsaturated vertex,
        so it labels exactly ball(t + 1) (ball(0) for an unsaturated origin).
        Computed once: no code reads it while the map grows (BudgetExceeded
        is raised before a step changes the map).
        """
        dist, levels = self._bfs(horizon=True)
        t = len(levels) - 1
        if self._unsaturated_in(levels[-1]):
            t = max(0, t - 1)
        return t, dist, levels

    # -- construction internals -------------------------------------------

    def _attach_face(self, v: int, budget: int | None):
        """Glue one new p-gon into the open gap behind boundary vertex v."""
        p, q = self.symbol.p, self.symbol.q
        deg, gap = self._v_deg, self._v_gap
        origin, nxt = self._he_origin, self._he_next
        if gap[v] < 0:
            raise RuntimeError(f"attach requested at interior vertex {v}")
        run = [gap[v]]
        # A boundary vertex with q edges (q - 1 faces) must be swallowed
        # whole by its last face, so the glue run is forced to extend across it.
        while deg[origin[run[-1] ^ 1]] == q:
            run.append(nxt[run[-1]])
            if len(run) >= p:
                raise RuntimeError("glue run exceeded face degree")
        while deg[origin[run[0]]] == q:
            run.insert(0, gap[origin[run[0]]])
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
            raise BudgetExceeded(self)
        if m == 0 and u0 in self.rotation(uk):
            raise RuntimeError("closing chord already present; map would lose simplicity")
        before, after = gap[u0], nxt[run[-1]]
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
        nxt[run[-1]] = cs[0]
        nxt[before] = ts[-1]
        deg += [2] * m
        deg[uk] += 1
        deg[u0] += 1
        for w in verts[1:-1]:
            if deg[w] != q:
                raise RuntimeError(f"swallowed vertex {w} ended unsaturated")
            gap[w] = -1
        # u0 keeps its gap; ts[i] runs into chain[i]
        gap[uk] = ts[0]
        gap += ts[1:]
        self._v_half += ts[:m]

    def _attach_fan(self, v: int, budget: int | None):
        """Glue the row of single-edge faces that boundary vertex v is forced
        to take, as one block: the same ids in the same slots as q - deg(v)
        calls of ``_attach_face``, and a budget cut keeps the same faces.

        The caller has checked that v and the tail u0 of the boundary edge
        e into v both have fewer than q edges.  Face j is glued along e_j
        alone (e_0 = e, then the new edge ts_{j-1}[0] into v) and adds the
        path chain_j = v, w_j[0 .. m - 1], u0_j of m = p - 2 new vertices,
        with u0_0 = u0 and u0_j = w_{j-1}[0].  Its new half-edges are
        cs_j[i] = cs[j(m+1) + i] from chain_j[i] and their twins ts_j[i].
        """
        q, m = self.symbol.q, self.symbol.p - 2
        M = m + 1  # new edges per face
        deg, gap = self._v_deg, self._v_gap
        origin, nxt = self._he_origin, self._he_next
        e = gap[v]
        h_out, u0 = nxt[e], origin[e]
        if u0 == v:
            raise RuntimeError("glue run self-intersects; disk invariant broken")
        nv0 = len(deg)
        r = q - deg[v]
        if budget is not None:
            r = min(r, (budget - nv0) // m)
        if r > 0:
            # As in _attach_face, every new id is created once and shared.
            # Each list starts from the one-face pattern shifted by one slot
            # (the slot shifted in is overwritten), then one strided slice
            # per exception sets what differs from it.
            h0 = len(origin)
            he = list(range(h0, h0 + 2 * r * M))
            cs, ts = he[0::2], he[1::2]
            es = [e, *ts[0 : (r - 1) * M : M]]  # e_j
            # origin: chain_j[i] along cs, chain_j[i + 1] along ts
            ocs = list(chain.from_iterable(zip(repeat(v, r), *[iter(range(nv0, nv0 + r * m))] * m)))
            ots = ocs[1:] + [u0]
            ots[m::M] = [u0, *ocs[1 : (r - 1) * M : M]]
            # next: the face cycle closes through e_j; the boundary runs
            # ts_j[m] .. ts_j[0], except that face j + 1 is glued along
            # ts_j[0], so ts_j[1] is followed by ts_{j+1}[m]
            ncs = cs[1:] + [e]
            ncs[m::M] = es
            nts = [h_out] + ts[:-1]
            nts[0::M] = [*cs[M::M], h_out]
            nts[1 : (r - 1) * M : M] = ts[2 * M - 1 :: M]
            for lst, even, odd in ((origin, ocs, ots), (nxt, ncs, nts)):
                lst += he
                lst[h0::2] = even
                lst[h0 + 1 :: 2] = odd
            nxt[e], nxt[gap[u0]] = cs[0], ts[m]
            deg += [2] * (r * m)
            deg[nv0 : nv0 + (r - 1) * m : m] = [3] * (r - 1)  # u0_j for j > 0
            deg[v] += r
            deg[u0] += 1
            # u0 keeps its gap, v's runs in from the last face; for i < m,
            # ts_j[i] runs out of w_j[i] and ts_j[i + 1] into it
            gap[v] = ts[-M]
            outs, ins = ts[:-1], ts[1:]
            del outs[m::M], ins[m::M]
            self._v_half += outs
            gap += ins
        if deg[v] < q:
            raise BudgetExceeded(self)

    def _attach_leaf(self, v: int, budget: int | None):
        """Hang one new leaf off vertex v (a tree step, and a disk's seed edge).

        The pendant edge is spliced into v's rotation at its gap, just before
        ``_v_half[v]``, so v's neighbors keep the order they were added in.
        """
        leaf = len(self._v_deg)
        if budget is not None and leaf + 1 > budget:
            raise BudgetExceeded(self)
        deg, gap, half = self._v_deg, self._v_gap, self._v_half
        a = len(self._he_origin)  # runs v -> leaf, its twin b leaf -> v
        b = a + 1
        h0 = half[v]
        if h0 < 0:  # a bare vertex: the new edge's two sides form the whole cycle
            half[v] = h0 = a
            gap[v] = b
        self._he_origin += (v, leaf)
        self._he_next += (b, h0)
        self._he_next[gap[v]] = a
        deg[v] += 1
        gap[v] = b if deg[v] < self.symbol.q else -1
        deg.append(1)
        gap.append(a)
        half.append(b)

    def _saturate(self, targets: list[int], budget: int | None):
        """Attach steps at each target in turn until it is saturated.

        A tree vertex (no boundary) takes leaves.  A disk vertex v short of
        edges, behind which the boundary comes from a vertex u0 short of
        edges too, takes its forced row of faces; every other step is one
        face, glued across any neighbors that have q edges.  Growth orders
        other than ``_grow``'s can reach v with u0 at q edges; the one face
        then swallows u0, where a row would give it q + 1.
        """
        q, deg, gap = self.symbol.q, self._v_deg, self._v_gap
        origin, tree = self._he_origin, self.symbol.is_tree
        for v in targets:
            while deg[v] < q or gap[v] >= 0:
                if tree:
                    self._attach_leaf(v, budget)
                elif deg[v] < q and deg[origin[gap[v]]] < q:
                    self._attach_fan(v, budget)
                else:
                    self._attach_face(v, budget)

    def _grow(self, depth: int, budget: int | None):
        q, deg, gap = self.symbol.q, self._v_deg, self._v_gap
        if not self.symbol.is_tree:
            # The first face is glued along a seed edge 0 -> 1 with both
            # sides on the boundary, like every other face.  It is all or
            # nothing: a budget below p leaves the bare origin.
            if budget is not None and self.symbol.p > budget:
                raise BudgetExceeded(self)
            self._attach_leaf(0, budget)
            self._attach_face(1, budget)
        # Every target of a round ends saturated, and once ball(r - 2) is
        # saturated no vertex can join ball(r - 1) or change distance inside
        # it.  So round r leaves ball(r - 1) saturated, ball(depth) is
        # saturated after round depth + 1, and round depth + 2 finds no
        # targets.
        for _ in range(depth + 2):
            # unsaturated vertices within depth, nearest first, then by id
            targets = [v for level in self._bfs(depth)[1] for v in sorted(level) if deg[v] < q or gap[v] >= 0]
            if not targets:
                return
            self._saturate(targets, budget)
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
        raise SphericalOutOfScope(s.p, s.q)
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
    trusted, _, levels = m._horizon
    return CensusReport(m.symbol, trusted, tuple(len(level) for level in levels[: trusted + 1]))


def vertex_profile(m: PlanarMap, v: int, dist: list[int]) -> VertexProfile:
    """Parent/child/sibling/cousin census of v's neighborhood.

    Same-generation neighbors sharing a parent with v are fraternal
    (siblings); the rest are consortial (cousins).  ``dist`` may come from a
    truncated BFS: a neighbor it never reached lies past v's generation and
    counts as a child, never as a parent.
    """
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


# (parents, fraternal, consortial) -> class, one table per case; children are
# not checked.  For p = 3 every vertex has two sibling (fraternal) edges, and
# the classes refer to the graph with those removed.
_EVEN_CLASSES = {(1, 0, 0): "A", (2, 0, 0): "B"}
_CLASSES = {
    CASE_TREE: {(1, 0, 0): "A"},
    CASE_TRIANGLE: {(1, 2, 0): "A", (2, 2, 0): "B"},
    CASE_EVEN: _EVEN_CLASSES,
    CASE_ODD: {**_EVEN_CLASSES, (1, 0, 1): "C"},
}


def _type_of(m: PlanarMap, v: int, dist: list[int]) -> str:
    """Classify one saturated non-origin vertex as A, B or C by looking its
    profile up in its case's table; unexpected profiles raise
    StructureViolation."""
    prof = vertex_profile(m, v, dist)
    tag = _CLASSES[m.symbol.case].get((prof.parents, prof.fraternal, prof.consortial))
    if tag is None:
        raise StructureViolation(v, dist[v], prof)
    return tag


def classify(m: PlanarMap, report: CensusReport) -> CensusReport:
    """Fill the per-class generation counts of a census report.

    Every non-origin vertex inside the trusted horizon must match one of
    the expected profiles; anything else raises StructureViolation.  Reuses
    the census BFS of ``bfs_census``, which labels every neighbor of the
    trusted region.
    """
    trusted, dist, levels = m._horizon
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
    return report._replace(a=tuple(a), b=tuple(b), c=tuple(c))


def dump_map(m: PlanarMap, report: CensusReport | None = None) -> str:
    """Line-oriented adjacency dump: one vertex per line with generation,
    class tag, degree and neighbors in rotation order."""
    dist = m.distances()
    trusted = report.trusted_depth if report is not None else m._horizon[0]
    lines = [
        f"# map p={m.symbol.p} q={m.symbol.q} vertices={m.vertex_count} trusted_depth={trusted}",
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
