"""Ground-truth census by explicit construction of a tessellation disk.

This module builds a finite, simply connected piece of {p,q} as a half-edge
planar map and counts vertices by breadth-first search, completely
independently of the generating-function derivations: the builder knows
nothing about vertex classes or recurrences, only the two local rules that
every face has degree p and every vertex degree q.

Construction works face by face along the disk boundary.  Every map, a
tree's too, starts from one seed edge 0 -> 1 at the origin (the tree's
pendant-edge step below).  On a disk both of its sides are on the boundary,
and its first p-gon is glued along that edge by the same step as every
other face.  A boundary vertex with f incident closed faces has f + 1 edges
(its faces form a fan with one open gap), so the vertex is finished exactly
when it has q faces.
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
next free ids, the whole row is one arithmetic pattern.  v's next face
closes it, glued along the row's last edge and the boundary edge out of
v; unless that run goes on across a neighbor with q edges, it too is
fixed.  ``_attach_fan`` writes the row and that face as one block, from a
template of the row's shape that the map builds once (``_Fan``): the same
ids in the same order as face by face.  It writes only a row that fits
the vertex budget; a row that the budget cuts goes face by face through
``_attach_face``, which stops at the first face that would overrun it.
The map holds its budget, and every step checks it before it changes the
map.

The q-regular tree {inf,q} grows by the same rounds with a simpler step:
a vertex missing edges gets one pendant edge to a new leaf at a time, until
it has q.

Census trust: a vertex is saturated when it has no open gap.  On a disk
that means q edges and off the boundary, so all q of its faces are closed;
a tree vertex closes its gap with its q-th edge.  After the seed edge every
vertex with fewer than q edges has a gap, so the gap alone is read.  The
report covers generation n only if every vertex at distance <= n is
saturated; generation zero is always exact.  Counts past that horizon are
withheld rather than reported partially.  One BFS generator, ``_levels``,
labels each generation before it yields it, and its callers stop it where
they need: the builder after ball(depth), the census at the first
generation holding an unsaturated vertex, ``distances`` never.  So the
census visits only the ball one generation past the trusted depth, not the
whole face closure the builder had to create around it (for {8,8} at depth
5, about 22 thousand of 780 thousand vertices).  The walk around a vertex
that labels the next generation also counts the vertex's parents (its
neighbors one generation nearer) and peers (in its own generation), and
the census keeps those counts.  The classifier is one table per derivation
case (``Schlafli.case``) from a vertex's parent/sibling/cousin profile to
its class.  ``classify`` reads the class of a vertex with no peer from
those counts alone; only a vertex with a peer, which may be a sibling or a
cousin, takes a second walk (``vertex_profile``): every vertex on p = 3,
and the candidates for the third class on odd p.  ``dump_map`` runs a full
BFS through ``distances`` and profiles each trusted vertex.

Storage is flat: five ``array('i')`` columns, origin and next per
half-edge, degree, gap half-edge and one outgoing half-edge per vertex,
and no Python object per vertex, per half-edge or per face.  A {8,8} map
has about 2.5 half-edges a vertex, so the columns hold about 32 bytes a
vertex.  Each attach step appends its new slots to each column in one
call.  A face takes a ``fromlist`` of a Python list built for it, and a
leaf a single ``append``.  A row of faces takes one ``frombytes`` of its
shape's template, an int whose lanes are the column's C ints, shifted to
the row's first new ids by adding that id times an int of ones: a few
big-int operations a column and no Python int per slot.  A template takes
about 1.4 times its row's own slots, and on large p one row holds millions
of vertices, so the map keeps a shape's template only from the shape's
second row on, and only while one more row of it fits in the budget: a
kept template never holds more than its rows have written.  Ids are C
ints, so a map holds at most 2^31 - 1 half-edges, about 9 x 10^8
vertices, far past the 10^7 cap on the vertex budget; like ``fromlist``, a
row checks that its last new ids fit before it writes.  Faces are not stored
either: each closed face is a ``next`` cycle, and Euler's formula
V - E + F = 1 for a disk counts them.
Half-edges come in twin pairs, twin(h) = h ^ 1.  ``next`` runs along the
incident face cycle (closed faces and the outer boundary both form cycles)
and is the only pointer stored: rotation around a vertex steps from an
outgoing h to next(twin(h)).  A vertex's gap half-edge runs into it at its
open gap (on a disk the incoming boundary half-edge, on a tree the slot
before its first half-edge) and is -1 once the vertex is closed.  Closed
faces per vertex are not stored: the saturation rule reads the gap alone,
and the glue run extends across boundary vertices of degree q.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterator
from functools import cached_property
from itertools import islice
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


# a census key counts a vertex's parents in its low 16 bits and its peers
# above them; a walk has deg(v) <= q <= 2048 steps, so neither overflows
_PEER = 1 << 16


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

    All state lives in five ``array('i')`` columns indexed by half-edge or
    vertex id, 4 bytes a slot.  Only ``next`` is stored: the neighbors of a
    vertex are read off the rotation system, stepping from an outgoing
    half-edge h to next(twin(h)).
    """

    def __init__(self, symbol: Schlafli, budget: int | None = None):
        self.symbol = symbol
        # most vertices the map may hold, at least its origin; without a
        # budget, a cap that no map reaches (its ids are C ints)
        self.budget = sys.maxsize if budget is None else budget
        if self.budget < 1:
            raise ValueError("vertex budget must be >= 1")
        self._he_origin = array("i")
        self._he_next = array("i")
        self._v_deg = array("i", [0])
        # the half-edge into v at its open gap, -1 once v is closed: after
        # the seed edge, a vertex is saturated exactly when this is -1
        self._v_gap = array("i", [-1])
        self._v_half = array("i", [-1])  # any outgoing half-edge
        self._fans: dict[tuple[int, bool], _Fan | None] = {}  # row templates by shape (r, close)

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
        dist = [-1] * self.vertex_count
        for _ in self._levels(dist):
            pass
        return dist

    # -- breadth-first search ---------------------------------------------

    def _unsaturated_in(self, level: list[int]) -> bool:
        return max(map(self._v_gap.__getitem__, level)) >= 0

    def _levels(self, dist: list[int]) -> Iterator[tuple[list[int], list[int]]]:
        """Yield the generations of a BFS from the origin, each labelled in
        ``dist`` (all -1 on entry) before it is yielded, with its keys.

        The walk that labels generation d + 1 goes once around each vertex v
        of generation d, and appends v's key to the list yielded with
        generation d: v's parents (neighbors in generation d - 1) plus
        ``_PEER`` times its peers (neighbors in generation d).  So a
        generation's keys are complete once the caller asks for the next
        generation.  A caller that stops early leaves the next generation
        unlabelled: its vertices keep distance -1.  Each generation lists
        its vertices in an order that every reader sorts or ignores.  A walk
        takes deg(v) steps and must end where it began, or it raises.
        """
        origin, nxt, half, deg = self._he_origin, self._he_next, self._v_half, self._v_deg
        one_peer = _PEER
        # the walk around v takes steps[deg(v)]: a shared range per degree
        # is cheaper to iterate than a bound made for each vertex
        steps = [range(k) for k in range(self.symbol.q + 1)]
        dist[0] = 0
        level = [0]
        d = 0
        while level:
            keys = []
            yield level, keys
            if not origin:  # a bare origin has no half-edge to walk
                return
            e, d = d, d + 1
            grown = []
            label, push = grown.append, keys.append
            for v in level:
                # walk the rotation around v: next(twin(h)) is the next
                # outgoing half-edge
                key = 0
                h0 = h = half[v]
                for _ in steps[deg[v]]:
                    t = h ^ 1
                    w = origin[t]
                    dw = dist[w]
                    if dw < 0:
                        dist[w] = d
                        label(w)
                    elif dw < e:
                        key += 1
                    elif dw == e:
                        key += one_peer
                    h = nxt[t]
                if h != h0:
                    raise RuntimeError(f"rotation walk around {v} does not close")
                push(key)
            level = grown

    @cached_property
    def _horizon(self) -> tuple[int, list[int], list[list[int]], list[list[int]]]:
        """Trusted depth t with the BFS that found it: (t, dist, levels, keys),
        ``keys[d]`` holding the keys of ``levels[d]`` (see ``_levels``), in
        the same order, for every d <= t.

        The BFS stops at the first generation holding an unsaturated vertex,
        so it labels exactly ball(t + 1) (ball(0) for an unsaturated origin).
        Computed once: no code reads it while the map grows (BudgetExceeded
        is raised before a step changes the map).
        """
        dist = [-1] * self.vertex_count
        levels, keys = [], []
        for level, level_keys in self._levels(dist):
            levels.append(level)
            keys.append(level_keys)
            if self._unsaturated_in(level):
                return max(0, len(levels) - 2), dist, levels, keys
        return len(levels) - 1, dist, levels, keys

    # -- construction internals -------------------------------------------

    def _attach_face(self, v: int):
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
        if nv0 + m > self.budget:
            raise BudgetExceeded(self)
        if m == 0 and u0 in self.rotation(uk):
            raise RuntimeError("closing chord already present; map would lose simplicity")
        before, after = gap[u0], nxt[run[-1]]
        # New path uk, w_1 .. w_m, u0 with w_j = nv0 + j - 1.  Its edge i
        # joins chain[i] and chain[i + 1]: half-edge cs[i] runs forward
        # along the new face, its twin ts[i] backward along the boundary.
        # Each column gets its new slots as one list, in one ``fromlist``.
        chain = [uk, *range(nv0, nv0 + m), u0]
        h0 = len(origin)
        cs, ts = list(range(h0, h0 + 2 * m + 2, 2)), list(range(h0 + 1, h0 + 2 * m + 2, 2))
        _append_pairs(origin, chain[:-1], chain[1:])
        # face cycle run..., cs...; boundary before, ts[-1] .. ts[0], after
        _append_pairs(nxt, cs[1:] + run[:1], [after] + ts[:-1])
        nxt[run[-1]] = cs[0]
        nxt[before] = ts[-1]
        deg.fromlist([2] * m)
        deg[uk] += 1
        deg[u0] += 1
        for w in verts[1:-1]:
            if deg[w] != q:
                raise RuntimeError(f"swallowed vertex {w} ended unsaturated")
            gap[w] = -1
        # u0 keeps its gap; ts[i] runs into chain[i]
        gap[uk] = ts[0]
        gap.fromlist(ts[1:])
        self._v_half.fromlist(ts[:m])

    def _attach_fan(self, v: int):
        """Glue the row of single-edge faces that boundary vertex v is forced
        to take, and mostly the face that then closes v, as one block: the
        same ids in the same slots as the calls of ``_attach_face`` that
        glue them.  A row that the budget cuts is not written here: v goes
        to ``_attach_face``, which glues the same faces one at a time and
        stops at the first that would overrun the budget.

        The caller has checked that v and the tail u0 of the boundary edge
        e into v both have fewer than q edges.  The row's r = q - deg(v)
        faces and its closing face are laid out by ``_Fan``, one template
        per shape (r, close), kept for reuse from the shape's second row on;
        the row is that template shifted to the next free ids, with the
        few slots that hold older ids (v, u0, e, h_out, x, next(h_out))
        set afterwards.

        The row leaves v with q edges and one gap, ts_{r-1}[0], so v's
        closing face is glued along it and h_out.  When the head x of h_out
        has fewer than q edges the run stops there, and the face adds the
        path x, z[0 .. m - 2], w_{r-1}[0].  For a run that swallows x, a
        budget that stops the face, or x = u0 (its degree just changed),
        the caller's next step is ``_attach_face`` itself.  On p = 3 the
        closing face adds no vertex, only the chord x w_{r-1}[0], and
        ``_attach_face`` would check that the chord is new.  Here it always
        is: w_{r-1}[0] is a new vertex whose only neighbors are v and
        u0_{r-1}, which is u0 (r = 1, and x != u0) or another new vertex.
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
        nv1 = nv0 + r * m
        if nv1 > self.budget:
            return self._attach_face(v)
        x = origin[h_out ^ 1]
        close = x != u0 and deg[x] < q and nv1 + m - 1 <= self.budget
        fan = self._fans.get((r, close))
        if fan is None:
            # kept from the second row of its shape on, while one more row
            # of it fits in the budget; the first row only marks the shape
            fan = _Fan(m, r, close)
            seen = (r, close) in self._fans
            self._fans[r, close] = fan if seen and nv0 + 2 * fan.vertices <= self.budget else None
        h0 = len(origin)
        fan.write(origin, nxt, deg, self._v_half, gap, h0, nv0)
        # the slots that hold older ids: cs_j[0] runs out of v, ts_0[m] out
        # of u0, and the face cycle of face 0 closes through e; the row's
        # last new edge into v is followed by h_out
        origin[h0 : h0 + 2 * r * M : 2 * M] = array("i", [v]) * r
        origin[h0 + 2 * m + 1] = u0
        nxt[h0 + 2 * m] = e
        nxt[h0 + 2 * (r - 1) * M + 1] = h_out
        nxt[e], nxt[gap[u0]] = h0, h0 + 2 * m + 1
        deg[v] = q
        deg[u0] += 1
        # u0 keeps its gap; v's runs in from the last face until it closes
        if close:
            h1 = h0 + 2 * r * M  # cz[0], out of x
            origin[h1] = x
            # h_out is neither e nor gap[u0], which run into v and u0
            nxt[h1 + 1], nxt[h_out] = nxt[h_out], h1
            deg[x] += 1
            gap[v], gap[x] = -1, h1 + 1
        else:
            gap[v] = h0 + 2 * (r - 1) * M + 1

    def _attach_leaf(self, v: int):
        """Hang one new leaf off vertex v (a tree step, and every map's seed edge).

        The pendant edge is spliced into v's rotation at its gap, just before
        ``_v_half[v]``, so v's neighbors keep the order they were added in.
        """
        leaf = len(self._v_deg)
        if leaf + 1 > self.budget:
            raise BudgetExceeded(self)
        deg, gap, half = self._v_deg, self._v_gap, self._v_half
        a = len(self._he_origin)  # runs v -> leaf, its twin b leaf -> v
        b = a + 1
        h0 = half[v]
        if h0 < 0:  # a bare vertex: the new edge's two sides form the whole cycle
            half[v] = h0 = a
            gap[v] = b
        self._he_origin.fromlist([v, leaf])
        self._he_next.fromlist([b, h0])
        self._he_next[gap[v]] = a
        deg[v] += 1
        gap[v] = b if deg[v] < self.symbol.q else -1
        deg.append(1)
        gap.append(a)
        half.append(b)

    def _saturate(self, targets: list[int]):
        """Attach steps at each target in turn until it is saturated.

        A tree vertex (no boundary) takes leaves.  A disk vertex v short of
        edges, behind which the boundary comes from a vertex u0 short of
        edges too, takes its forced row of faces, mostly with the face that
        closes it; every other step is one face, glued across any neighbors
        that have q edges.  Growth orders other than ``_grow``'s can reach v
        with u0 at q edges; the one face then swallows u0, where a row would
        give it q + 1.
        """
        q, deg, gap = self.symbol.q, self._v_deg, self._v_gap
        origin, tree = self._he_origin, self.symbol.is_tree
        for v in targets:
            while gap[v] >= 0:
                if tree:
                    self._attach_leaf(v)
                elif deg[v] < q and deg[origin[gap[v]]] < q:
                    self._attach_fan(v)
                else:
                    self._attach_face(v)

    def _grow(self, depth: int):
        gap, tree = self._v_gap, self.symbol.is_tree
        # Every map starts from a seed edge 0 -> 1, after which a vertex is
        # saturated exactly when it has no open gap.  A disk's first face is
        # glued along that edge, both of whose sides are on the boundary, like
        # every other face.  It is all or nothing: a budget below p leaves
        # the bare origin.
        if not tree and self.symbol.p > self.budget:
            raise BudgetExceeded(self)
        self._attach_leaf(0)
        if not tree:
            self._attach_face(1)
        # Every target of a round ends saturated, and once ball(r - 2) is
        # saturated no vertex can join ball(r - 1) or change distance inside
        # it.  So round r leaves ball(r - 1) saturated, ball(depth) is
        # saturated after round depth + 1, and round depth + 2 finds no
        # targets.
        for _ in range(depth + 2):
            # unsaturated vertices within depth, nearest first, then by id; no
            # local holds the BFS, whose distance list is freed before the map grows
            targets = [v for level, _ in islice(self._levels([-1] * self.vertex_count), depth + 1)
                       for v in sorted([u for u in level if gap[u] >= 0])]
            if not targets:
                return
            self._saturate(targets)
        raise RuntimeError("growth failed to reach the requested depth")


class _Fan:
    """The new slots of one forced row shape at base 0: r single-edge faces
    of m = p - 2 new vertices each, and the face that closes v if ``close``.

    Face j is glued along e_j alone (e_0 = e, then the new edge ts_{j-1}[0]
    into v) and adds the path chain_j = v, w_j[0 .. m - 1], u0_j, with
    u0_0 = u0 and u0_j = w_{j-1}[0].  Its new half-edges are
    cs_j[i] = cs[j(m+1) + i] from chain_j[i] and their twins ts_j[i].  The
    closing face adds the path x, z[0 .. m - 2], w_{r-1}[0], with
    half-edges cz[i] from its i-th vertex and twins tz[i].  At base 0 the
    new half-edges are numbered 0, 1, .. and the new vertices w_j[i] = jm + i
    and z[i] = rm + i.  Every new slot of a row is its template value plus
    h0, the row's first half-edge id (``next``, gap and outgoing half-edge),
    or nv0, its first vertex id (origin); degrees do not shift, and a new
    vertex's gap half-edge is its outgoing one + 2.  The few slots that hold
    older ids hold a new id here and are set by ``_attach_fan``.

    Each column's template is one int whose lanes are the column's C ints
    in native byte order, so that a row is written with one ``frombytes``
    of template + base * ones a column.  Every lane holds a new id, in
    [0, 2^31) once shifted, so no lane carries into the next.  The
    templates are built by strided assignments of ``range``s, with no
    Python int per slot.
    """

    __slots__ = ("half_edges", "vertices", "origin", "next", "half", "deg", "ones_he", "ones_v")

    def __init__(self, m: int, r: int, close: bool):
        M = m + 1
        n = r * M  # the row's new edges
        he = self.half_edges = 2 * (n + m * close)
        nv = self.vertices = r * m + (m - 1) * close
        zero = bytes(he * array("i").itemsize)
        # origin: cs_j[0] out of v, cs_j[i + 1] and ts_j[i] out of w_j[i],
        # ts_j[m] out of u0_j
        o = array("i", zero)
        for i in range(m):
            w = array("i", range(i, r * m, m))
            o[2 * i + 2 : 2 * n : 2 * M] = w
            o[2 * i + 1 : 2 * n : 2 * M] = w
        o[2 * (M + m) + 1 : 2 * n : 2 * M] = array("i", range(0, (r - 1) * m, m))
        # next: each face cycle runs cs_j[0] .. cs_j[m], e_j; the boundary
        # runs ts_j[m] .. ts_j[0] into v, except that face j + 1 is glued
        # along ts_j[0], so ts_j[0] is followed by cs_{j+1}[0] and ts_j[1]
        # by ts_{j+1}[m]
        nx = array("i", zero)
        nx[0 : 2 * n : 2] = array("i", range(2, 2 * n + 2, 2))  # cs_j[i + 1]
        nx[2 * (M + m) : 2 * n : 2 * M] = array("i", range(1, 2 * (r - 1) * M, 2 * M))  # e_j
        nx[3 : 2 * n : 2] = array("i", range(1, 2 * n - 2, 2))  # ts_j[i - 1]
        nx[1 : 2 * (r - 1) * M : 2 * M] = array("i", range(2 * M, 2 * n, 2 * M))  # cs_{j+1}[0]
        nx[3 : 2 * (r - 1) * M : 2 * M] = array("i", range(4 * M - 1, 2 * n, 2 * M))  # ts_{j+1}[m]
        nx[2 * m] = 0  # e: cs_1[0] would be past a row of one face
        # degrees: the u0_j of later faces have 3 edges, the rest 2
        d = array("i", [2]) * nv
        d[0 : (r - 1) * m : m] = array("i", [3]) * (r - 1)
        # outgoing half-edge: ts_j[i] runs out of w_j[i] (its gap half-edge,
        # ts_j[i + 1], is the next lane's, so the gap column is this one + 2)
        h = array("i", range(1, 2 * n, 2))
        del h[m::M]
        if close:
            # x, z[i] and w_{r-1}[0] along cz; the face cycle closes through
            # ts_{r-1}[0] and h_out, and the boundary runs tz[m - 1] .. tz[0]
            # from ts_{r-1}[m] on to next(h_out)
            o[2 * n + 2 :: 2] = array("i", range(r * m, r * m + m - 1))  # cz[i + 1] out of z[i]
            o[2 * n + 1 : he - 1 : 2] = array("i", range(r * m, r * m + m - 1))  # tz[i] out of z[i]
            o[he - 1] = (r - 1) * m  # tz[m - 1] out of w_{r-1}[0]
            nx[2 * n :: 2] = array("i", range(2 * n + 2, 2 * n + 2 * m + 2, 2))  # cz[i + 1]
            nx[he - 2] = 2 * (r - 1) * M + 1  # cz[m - 1] -> ts_{r-1}[0]
            nx[2 * n + 3 :: 2] = array("i", range(2 * n + 1, 2 * n + 2 * m - 1, 2))  # tz[i - 1]
            nx[2 * (r - 1) * M + 3] = he - 1  # ts_{r-1}[1] -> tz[m - 1]
            d[(r - 1) * m] = 3
            h.extend(range(2 * n + 1, he - 1, 2))
        order = sys.byteorder
        self.origin = int.from_bytes(o.tobytes(), order)
        self.next = int.from_bytes(nx.tobytes(), order)
        self.half = int.from_bytes(h.tobytes(), order)
        self.deg = d.tobytes()
        one = array("i", [1])
        self.ones_he = int.from_bytes((one * he).tobytes(), order)
        self.ones_v = int.from_bytes((one * nv).tobytes(), order)

    def write(self, origin: array, nxt: array, deg: array, half: array, gap: array, h0: int, nv0: int):
        """Append the row's new slots to the five columns, shifted to the
        first new half-edge id h0 and vertex id nv0.  Like ``fromlist``, it
        raises OverflowError, before it writes, for an id past the C int
        range."""
        itemsize, order = origin.itemsize, sys.byteorder
        if max(h0 + self.half_edges, nv0 + self.vertices) > 1 << (8 * itemsize - 1):
            raise OverflowError("signed integer is greater than maximum")
        he, nv = self.half_edges * itemsize, self.vertices * itemsize
        origin.frombytes((self.origin + nv0 * self.ones_he).to_bytes(he, order))
        nxt.frombytes((self.next + h0 * self.ones_he).to_bytes(he, order))
        deg.frombytes(self.deg)
        half.frombytes((self.half + h0 * self.ones_v).to_bytes(nv, order))
        gap.frombytes((self.half + (h0 + 2) * self.ones_v).to_bytes(nv, order))


def _append_pairs(col: array, even: list[int], odd: list[int]):
    """Append new half-edge slots to a column: ``even`` at ids h0, h0 + 2,
    .. and ``odd`` at their twins, interleaved in a list first so that the
    column converts them in one ``fromlist``."""
    block = even + odd
    block[0::2] = even
    block[1::2] = odd
    col.fromlist(block)


def build_map(s: Schlafli, min_saturated_depth: int, vertex_budget: int | None = DEFAULT_VERTEX_BUDGET) -> PlanarMap:
    """Build a {p,q} disk, or the {inf,q} tree, saturated out to at least
    the requested depth.

    Raises BudgetExceeded (carrying the achieved depth and the partial map)
    if the vertex budget would be overrun first; pass ``vertex_budget=None``
    to grow without a cap.  A budget below 1 raises ValueError: no map is
    smaller than its origin.  A tree comes out with its leaves at distance
    depth + 1, so its saturation horizon is exactly the requested depth.
    """
    if not s.admissible():
        raise SphericalOutOfScope(s.p, s.q)
    if min_saturated_depth < 0:
        raise ValueError("min_saturated_depth must be >= 0")
    m = PlanarMap(s, vertex_budget)
    m._grow(min_saturated_depth)
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
    trusted, _, levels, _ = m._horizon
    return CensusReport(m.symbol, trusted, tuple(len(level) for level in levels[: trusted + 1]))


def vertex_profile(m: PlanarMap, v: int, dist: list[int]) -> VertexProfile:
    """Parent/child/sibling/cousin census of v's neighborhood.

    Same-generation neighbors sharing a parent with v are fraternal
    (siblings); the rest are consortial (cousins).  ``dist`` comes from a
    BFS, so a neighbor labelled earlier than v is one generation earlier; it
    may be truncated: a neighbor it never reached lies past v's generation
    and counts as a child, never as a parent.  Neighbors are read off the
    rotation walk, v's once and each same-generation neighbor's at most once;
    a walk takes at most deg steps, and one that does not close raises.
    """
    origin, nxt, half, deg = m._he_origin, m._he_next, m._v_half, m._v_deg
    d = dist[v]
    children = 0
    parents = []
    peers = []
    h0 = h = half[v]
    for _ in range(deg[v]):
        t = h ^ 1
        w = origin[t]
        dw = dist[w]
        if dw < 0 or dw > d:
            children += 1
        elif dw < d:
            parents.append(w)
        else:
            peers.append(w)
        h = nxt[t]
    if h != h0:
        raise RuntimeError(f"rotation walk around {v} does not close")
    fraternal = 0
    if peers:
        pset = set(parents)
        for w in peers:
            g0 = g = half[w]
            for _ in range(deg[w]):
                t = g ^ 1
                if origin[t] in pset:
                    fraternal += 1
                    break
                g = nxt[t]
            else:
                if g != g0:
                    raise RuntimeError(f"rotation walk around {w} does not close")
    return VertexProfile(len(parents), children, fraternal, len(peers) - fraternal)


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


def _type_of(m: PlanarMap, v: int, dist: list[int], table: dict[tuple[int, int, int], str]) -> str:
    """Classify one saturated non-origin vertex as A, B or C by looking its
    profile up in ``table``, its case's ``_CLASSES`` entry; unexpected
    profiles raise StructureViolation."""
    prof = vertex_profile(m, v, dist)
    tag = table.get((prof.parents, prof.fraternal, prof.consortial))
    if tag is None:
        raise StructureViolation(v, dist[v], prof)
    return tag


def classify(m: PlanarMap, report: CensusReport) -> CensusReport:
    """Fill the per-class generation counts of a census report.

    Every non-origin vertex inside the trusted horizon must match one of
    the expected profiles; anything else raises StructureViolation for the
    first such vertex in BFS order.  The census BFS of ``bfs_census``
    counted each vertex's parents and peers as it walked it (``_levels``),
    so a vertex with no peer has the profile (parents, deg - parents, 0, 0)
    and is looked up from its key alone.  Only a vertex with a peer, which
    may be a sibling or a cousin, takes a ``vertex_profile`` walk.
    """
    trusted, dist, levels, keys = m._horizon
    t = report.trusted_depth
    if t > trusted:
        raise ValueError(f"report trusts depth {t}, but the map is saturated only to depth {trusted}")
    counts = {"A": [0] * (t + 1), "B": [0] * (t + 1), "C": [0] * (t + 1)}
    table = _CLASSES[m.symbol.case]
    for d in range(1, t + 1):
        for v, key in zip(levels[d], keys[d]):
            if key >= _PEER:
                tag = _type_of(m, v, dist, table)
            elif (tag := table.get((key, 0, 0))) is None:
                raise StructureViolation(v, d, VertexProfile(key, m.degree(v) - key, 0, 0))
            counts[tag][d] += 1
    return report._replace(a=tuple(counts["A"]), b=tuple(counts["B"]), c=tuple(counts["C"]))


def dump_map(m: PlanarMap, report: CensusReport | None = None) -> str:
    """Line-oriented adjacency dump: one vertex per line with generation,
    class tag, degree and neighbors in rotation order."""
    dist = m.distances()
    trusted = report.trusted_depth if report is not None else m._horizon[0]
    table = _CLASSES[m.symbol.case]
    lines = [
        f"# map p={m.symbol.p} q={m.symbol.q} vertices={m.vertex_count} trusted_depth={trusted}",
        "# vertex generation type degree neighbors-in-rotation-order",
    ]
    for v in range(m.vertex_count):
        if v == 0:
            tag = "O"
        elif dist[v] <= trusted:
            try:
                tag = _type_of(m, v, dist, table)
            except StructureViolation:
                tag = "?"
        else:
            tag = "-"
        rot = " ".join(str(w) for w in m.rotation(v))
        lines.append(f"{v} {dist[v]} {tag} {m.degree(v)} {rot}".rstrip())
    return "\n".join(lines) + "\n"
