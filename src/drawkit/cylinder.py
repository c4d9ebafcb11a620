"""Cylindrical drawings: two concentric circles of vertices, no edge crossing
either circle.

Edges between the circles ("lateral") carry a winding: the net
counter-clockwise turn around the center, oriented outer to inner.  Circle
edges live either in their home face (inside the inner circle / outside the
outer circle) or in the lateral face, where they guard the vertices on the
arc they cut off.  All crossings are combinatorially determined:

  (i)   home circle edges on the same circle cross iff linked in the circular
        vertex order,
  (ii)  a lateral-face circle edge crosses a non-incident lateral-face edge
        iff it guards exactly one of its end-vertices; between two circle
        edges on one circle this reduces to interleaving, as under rule (i),
  (iii) lateral edges e, f cross iff delta + omega_f - omega_e lies outside
        [0, 1] turns, where delta is the counter-clockwise outer-circle turn
        from e's end-vertex to f's,
  (iv)  everything else never crosses.

`to_circular_wiring` realizes the drawing as a circular wiring without any
geometry.  What fixes the drawing is combinatorial: which side of each vertex
every edge passes, given by its band (inner home arcs nearer the origin than
every vertex, outer home arcs farther, laterals and lateral-face arcs in the
annulus between the circles), and the order of the edges at each vertex.
`wiring.redraw_strips`, the strip redraw shared with x-monotone wirings,
rebuilds the sweep from that data.  Reproducing the rule-based crossing set
is the authoritative validity gate.

The model is an integer grid of m slots: slot k lies k/m turns
counter-clockwise of the 0-ray and a winding counts slot steps.  Every
decision compares lifted slots (a slot plus whole turns), which an increasing
map of the slots commuting with a whole turn keeps, so the constructor ranks
the slots in use: m becomes their count and each winding the rank distance
to its lifted end.  A move writes its drawing on any grid, a multiple of m
where it needs room between slots, and leaves the ranking to the constructor.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations

from drawkit import circular as circ
from drawkit.circular import CircularWiring
from drawkit.errors import (
    BothDirectionsForbidden,
    InvalidDrawing,
    NonTermination,
    RangeTooWide,
    RealizationMismatch,
    WrongFace,
)
from drawkit.rotation import (
    CrossingSet,
    _require_ints,
    _sorted_pair,
    edge_numbering,
)
from drawkit.wiring import redraw_strips

Edge = tuple[int, int]


class Face(Enum):
    HOME = "home"
    LATERAL = "lateral"


class ArcDir(Enum):
    CW = "cw"
    CCW = "ccw"


@dataclass(frozen=True)
class LateralEdge:
    u: int                 # outer end-vertex
    w: int                 # inner end-vertex
    omega: int             # net counter-clockwise slot steps, oriented outer->inner

    @property
    def edge(self) -> Edge:
        return _sorted_pair(self.u, self.w)


@dataclass(frozen=True)
class CircleEdge:
    u: int
    v: int                 # same circle; arc direction is measured from u to v
    face: Face
    arc: ArcDir            # LATERAL: the guarded arc; HOME: the drawn side

    @property
    def edge(self) -> Edge:
        return _sorted_pair(self.u, self.v)


@dataclass(frozen=True)
class CylindricalDrawing:
    m: int                 # slot count
    outer: tuple           # ((vertex, slot), ...) slots in 0..m-1
    inner: tuple
    lateral: tuple         # LateralEdge
    circle: tuple          # CircleEdge

    def __post_init__(self):
        outer, inner = tuple(map(tuple, self.outer)), tuple(map(tuple, self.inner))
        lateral, circle = tuple(self.lateral), tuple(self.circle)
        _require_ints("cylindrical drawing", (self.m,), *outer, *inner,
                      *((le.u, le.w, le.omega) for le in lateral), *((ce.u, ce.v) for ce in circle))
        slot = dict(outer + inner)
        n = len(outer) + len(inner)
        if len(slot) != n:
            raise InvalidDrawing("vertex labels must be distinct")
        if set(slot) != set(range(1, n + 1)):
            raise InvalidDrawing("vertex labels must be 1..n")
        if not all(0 <= s < self.m for s in slot.values()):
            raise InvalidDrawing(f"slots must lie in 0..{self.m - 1}")
        for ring in (outer, inner):
            if len({s for _, s in ring}) != len(ring):
                raise InvalidDrawing("slots on a circle must be distinct")
        on = {v: "outer" for v, _ in outer} | {v: "inner" for v, _ in inner}
        # the canonical grid: the distinct slots ranked, each winding lifted
        # to the rank of its end plus the same whole turns
        rank = {s: i for i, s in enumerate(sorted(set(slot.values())))}
        m = len(rank)
        lifted = []
        for le in lateral:
            if on.get(le.u) != "outer" or on.get(le.w) != "inner":
                raise InvalidDrawing(f"lateral edge {le.u}-{le.w} must run outer to inner")
            turns, end = divmod(slot[le.u] + le.omega, self.m)
            if end != slot[le.w]:
                raise InvalidDrawing(f"winding of {le.edge} inconsistent with the slots")
            lifted.append(LateralEdge(le.u, le.w, turns * m + rank[end] - rank[slot[le.u]]))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "outer", tuple((v, rank[s]) for v, s in outer))
        object.__setattr__(self, "inner", tuple((v, rank[s]) for v, s in inner))
        object.__setattr__(self, "lateral", tuple(lifted))
        object.__setattr__(self, "circle", circle)
        # lookup maps, kept outside the fields like any derived view
        object.__setattr__(self, "_slot", dict(self.outer + self.inner))
        object.__setattr__(self, "_circle", on)
        object.__setattr__(self, "_circle_edge", {ce.edge: ce for ce in circle})
        object.__setattr__(self, "_crossing_set", None)  # set by the first crossing_set()
        _validate(self)

    # -- lookups ------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.outer) + len(self.inner)

    def slot_of(self, v: int) -> int:
        if v not in self._slot:
            raise InvalidDrawing(f"unknown vertex {v}")
        return self._slot[v]

    def circle_of(self, v: int) -> str:
        if v not in self._circle:
            raise InvalidDrawing(f"unknown vertex {v}")
        return self._circle[v]

    def ring(self, which: str) -> list:
        """Vertices of one circle in counter-clockwise slot order."""
        pairs = self.outer if which == "outer" else self.inner
        return sorted((v for v, _ in pairs), key=self._slot.__getitem__)

    def circle_edge(self, e: Edge):
        e = _sorted_pair(*e)
        if e not in self._circle_edge:
            raise InvalidDrawing(f"no circle edge {e}")
        return self._circle_edge[e]

    def edges(self) -> list:
        return sorted([le.edge for le in self.lateral] + [ce.edge for ce in self.circle])


def _laterals(cd: CylindricalDrawing) -> list:
    """(edge, u, w, winding, slot of u) per lateral edge, in field order."""
    return [(le.edge, le.u, le.w, le.omega, cd._slot[le.u]) for le in cd.lateral]


def _validate(cd: CylindricalDrawing):
    """The checks that need the canonical grid: duplicate and misplaced
    edges, the pairwise lateral window and mutual guarding."""
    circle, m = cd._circle, cd.m
    seen = set()
    for e in [le.edge for le in cd.lateral] + [ce.edge for ce in cd.circle]:
        if e in seen:
            raise InvalidDrawing(f"duplicate edge {e}")
        seen.add(e)
    for ce in cd.circle:
        same = ce.u in circle and circle.get(ce.u) == circle.get(ce.v)
        if not same or ce.u == ce.v:
            raise InvalidDrawing(f"circle edge {ce.edge} must join one circle")
    # pairwise lateral window: anything outside [-m, 2m] would cross twice
    for (e, eu, ew, We, Ae), (f, fu, fw, Wf, Af) in combinations(_laterals(cd), 2):
        if eu == fu or ew == fw:
            # incident pairs would be forced to cross, which simplicity forbids
            if eu == fu and abs(Wf - We) >= m:
                raise InvalidDrawing(f"incident laterals {e}, {f} forced to cross")
            if ew == fw and (Af - Ae) % m + Wf - We not in (0, m):
                raise InvalidDrawing(f"incident laterals {e}, {f} forced to cross")
            continue
        val = (Af - Ae) % m + Wf - We
        if not -m <= val <= 2 * m:
            raise InvalidDrawing(f"laterals {e}, {f} would cross twice")
    # lateral-face circle edges on one circle must not mutually guard
    lat_circle = [ce for ce in cd.circle if ce.face is Face.LATERAL]
    guarded = {ce.edge: guards(cd, ce.edge) for ce in lat_circle}
    for e, f in combinations(lat_circle, 2):
        if set(e.edge) & set(f.edge):
            continue
        if circle[e.u] != circle[f.u]:
            continue
        if set(f.edge) <= guarded[e.edge] and set(e.edge) <= guarded[f.edge]:
            raise InvalidDrawing(f"circle edges {e.edge}, {f.edge} mutually guard")


def guards(cd: CylindricalDrawing, e: Edge) -> set:
    """Vertices of e's circle inside the closed guarded arc, endpoints included."""
    ce = cd.circle_edge(e)
    if ce.face is not Face.LATERAL:
        raise WrongFace(f"edge {ce.edge} lies in its home face")
    start, length = _arc_raw(cd, ce, ce.arc)
    ring = cd.outer if cd._circle[ce.u] == "outer" else cd.inner
    return {v for v, s in ring if (s - start) % cd.m <= length}


def _arc_raw(cd: CylindricalDrawing, ce: CircleEdge, arc: ArcDir):
    """(start slot, length in slot steps) of the arc from u to v in
    direction arc."""
    su, sv = cd._slot[ce.u], cd._slot[ce.v]
    if arc is ArcDir.CCW:
        return su, (sv - su) % cd.m
    return sv, (su - sv) % cd.m


def home_side_arc(cd: CylindricalDrawing, e: Edge) -> tuple[int, int]:
    """(start slot, length in slot steps) of the arc from u to v in the
    edge's arc direction: the drawn side of a home edge, the guarded arc of
    a lateral-face edge."""
    ce = cd.circle_edge(e)
    return _arc_raw(cd, ce, ce.arc)


def _lateral_wedge_raw(cd: CylindricalDrawing, le: LateralEdge):
    """(start slot, length in slot steps) of the lateral edge's angular
    support; length may be 0."""
    s, W = cd._slot[le.u], le.omega
    if W >= 0:
        return (s, W)
    return ((s + W) % cd.m, -W)


def _raw_arcs_cover(a1, a2, m: int) -> bool:
    """True iff two closed arcs, (start, length) on a grid of m slots, cover
    the circle: each starts inside the other."""
    (s1, l1), (s2, l2) = a1, a2
    if l1 >= m or l2 >= m:
        return True
    d = (s2 - s1) % m
    return 0 < d <= l1 and d + l2 >= m


def crossing_set(cd: CylindricalDrawing) -> CrossingSet:
    """Apply the four crossing rules to every non-incident edge pair; the
    first successful derivation is kept on the drawing."""
    if cd._crossing_set is None:
        object.__setattr__(cd, "_crossing_set", _derive_crossing_set(cd))
    return cd._crossing_set


def _derive_crossing_set(cd: CylindricalDrawing) -> CrossingSet:
    m = cd.m
    pairs = []
    # (iii) lateral vs lateral
    for (e, eu, ew, We, Ae), (f, fu, fw, Wf, Af) in combinations(_laterals(cd), 2):
        if eu == fu or ew == fw:
            continue
        val = (Af - Ae) % m + Wf - We
        if val < 0 or val > m:
            pairs.append((e, f))
    # (ii) lateral-face circle edges vs lateral edges
    for ce in cd.circle:
        if ce.face is not Face.LATERAL:
            continue
        g = guards(cd, ce.edge)
        for le in cd.lateral:
            if not set(ce.edge) & set(le.edge) and len(g & set(le.edge)) == 1:
                pairs.append((ce.edge, le.edge))
    # (i), and (ii) between circle edges: circle edges of one face on a
    # common circle cross iff their ends interleave, with ends ranked around
    # the circle a < c < b < d
    for which in ("outer", "inner"):
        rank = {v: i for i, v in enumerate(cd.ring(which))}
        for face in Face:
            chords = sorted(
                (*sorted((rank[ce.u], rank[ce.v])), ce.edge)
                for ce in cd.circle
                if ce.face is face and cd._circle[ce.u] == which
            )
            for i, (a, b, e) in enumerate(chords):
                for c, d, f in chords[i + 1 :]:
                    if c >= b:
                        break
                    if a < c and b < d:
                        pairs.append((e, f))
    return CrossingSet(cd.n, pairs)


def rim_edges(cd: CylindricalDrawing) -> dict:
    """Edges joining angularly consecutive vertices, per circle."""
    out = {}
    for which in ("outer", "inner"):
        ring = cd.ring(which)
        rims = []
        if len(ring) >= 2:
            count = len(ring) if len(ring) > 2 else 1
            for i in range(count):
                rims.append(_sorted_pair(ring[i], ring[(i + 1) % len(ring)]))
        out[which] = rims
    return out


def uncrossed_rim_edges(cd: CylindricalDrawing) -> dict:
    """Per circle, the set of completely uncrossed rim edges.

    In any valid drawing at most one rim edge per circle has crossings; a
    breach means the input was not a simple cylindrical drawing.
    """
    eid, masks = edge_numbering(cd.n)[1], crossing_set(cd).masks
    result = {}
    for which, rims in rim_edges(cd).items():
        clean = {(u, v) for u, v in rims if not masks[eid[u][v]]}
        if len(rims) - len(clean) > 1:
            raise InvalidDrawing(f"{which} circle has two crossed rim edges")
        result[which] = clean
    return result


def is_strongly_cylindrical(cd: CylindricalDrawing) -> bool:
    """True iff every circle edge lies in its home face."""
    return all(ce.face is Face.HOME for ce in cd.circle)


# ============================================================
# Winding normalization and double-spiral removal
# ============================================================

def normalize_winding(cd: CylindricalDrawing) -> CylindricalDrawing:
    """Rotate the outer circle so every lateral winding satisfies |omega| < m.

    The rotation subtracts t from every winding and adds t to every outer
    slot; crossings are unchanged.  t = 0 whenever already normalized.
    """
    if not cd.lateral:
        return cd
    m = cd.m
    lo, hi = min(le.omega for le in cd.lateral), max(le.omega for le in cd.lateral)
    if hi - lo >= 2 * m:
        raise RangeTooWide(f"winding spread {hi - lo} >= two turns of {m} slots; drawing invalid")
    if -m < lo and hi < m:
        return cd
    t = hi + lo  # the turn, on the doubled grid
    before = crossing_set(cd)
    new = CylindricalDrawing(
        2 * m,
        tuple((v, (2 * s + t) % (2 * m)) for v, s in cd.outer),
        tuple((v, 2 * s) for v, s in cd.inner),
        tuple(replace(le, omega=2 * le.omega - t) for le in cd.lateral),
        cd.circle,
    )
    if crossing_set(new) != before:
        raise InvalidDrawing("normalization changed the crossing set; input invalid")
    return new


def find_double_spirals(cd: CylindricalDrawing) -> list:
    """Non-incident lateral pairs with same-sign windings whose wedges cover
    the full circle; sorted for determinism."""
    found = []
    for positive in (True, False):
        wedges = sorted(
            ((_lateral_wedge_raw(cd, le), le)
             for le in cd.lateral
             if le.omega and (le.omega > 0) == positive),
            key=lambda wl: wl[0][1],
        )
        lengths = [w[1] for w, _ in wedges]
        for i, (we, e) in enumerate(wedges):
            # two arcs shorter than a turn together cover no circle
            for wf, f in wedges[max(i + 1, bisect_left(lengths, cd.m - we[1])) :]:
                if e.u != f.u and e.w != f.w and _raw_arcs_cover(we, wf, cd.m):
                    found.append(tuple(sorted((e.edge, f.edge))))
    return sorted(found)


def _mirror(cd: CylindricalDrawing) -> CylindricalDrawing:
    """Reflect the drawing; windings flip sign, arcs flip direction."""
    flip = {ArcDir.CW: ArcDir.CCW, ArcDir.CCW: ArcDir.CW}
    m = cd.m
    return CylindricalDrawing(
        m,
        tuple((v, -s % m) for v, s in cd.outer),
        tuple((v, -s % m) for v, s in cd.inner),
        tuple(replace(le, omega=-le.omega) for le in cd.lateral),
        tuple(replace(ce, arc=flip[ce.arc]) for ce in cd.circle),
    )


def _resolve_cw_spiral(cd: CylindricalDrawing, pair) -> CylindricalDrawing:
    """One removal step: slide the inner end-vertex of the second edge (and
    everything it passes) counter-clockwise out of the first edge's wedge into
    the outer gap following that wedge."""
    S, m = cd._slot, cd.m
    by_edge = {le.edge: le for le in cd.lateral}
    e, f = by_edge[pair[0]], by_edge[pair[1]]
    theta_a = S[e.u]
    theta_d = S[f.w]
    # first outer vertex counter-clockwise after v_a
    gap_len = min(((s - theta_a) % m for v, s in cd.outer if v != e.u), default=m)
    # inner vertices dragged along: counter-clockwise arc (theta_d, theta_a]
    span = (theta_a - theta_d) % m
    dragged = sorted(
        ((s - theta_d) % m, v)
        for v, s in cd.inner
        if v != f.w and 0 < (s - theta_d) % m <= span
    )
    block = [f.w] + [v for _, v in dragged]
    # free room after theta_a, before the next outer vertex or undragged inner vertex
    land = gap_len
    moved = set(block)
    for v, s in cd.inner:
        if v not in moved:
            d = (s - theta_a) % m
            if 0 < d < land:
                land = d
    # the block lands evenly spaced in the room, on the grid of m * k
    k = len(block) + 2
    mk = m * k
    target = {v: (theta_a * k + land * (i + 1)) % mk for i, v in enumerate(block)}
    delta = {v: (t - S[v] * k) % mk for v, t in target.items()}
    return CylindricalDrawing(
        mk,
        tuple((v, s * k) for v, s in cd.outer),
        tuple((v, target.get(v, s * k)) for v, s in cd.inner),
        tuple(replace(le, omega=le.omega * k + delta.get(le.w, 0)) for le in cd.lateral),
        cd.circle,
    )


def remove_double_spirals(cd: CylindricalDrawing) -> CylindricalDrawing:
    """Relocate inner vertices until no double-spiral remains.

    A drawing without double-spirals is returned as it is.  Otherwise
    clockwise spirals are removed first, then counter-clockwise ones via the
    mirrored drawing; each move keeps the circular vertex orders, hence the
    crossing set (checked).  Every move removes at least one spiral and adds
    none, so the number of moves is bounded by the initial spiral count.
    """
    budget = len(find_double_spirals(cd))
    if not budget:
        return cd
    before = crossing_set(cd)
    moves = 0

    def run_cw_phase(d):
        nonlocal moves
        while True:
            clockwise = {le.edge for le in d.lateral if le.omega < 0}
            spirals = [p for p in find_double_spirals(d) if p[0] in clockwise]
            if not spirals:
                return d
            if moves >= budget:
                raise NonTermination(budget)
            d = _resolve_cw_spiral(d, spirals[0])
            moves += 1

    cd = run_cw_phase(cd)
    cd = _mirror(run_cw_phase(_mirror(cd)))
    if find_double_spirals(cd):
        raise NonTermination(budget)
    if crossing_set(cd) != before:
        raise InvalidDrawing("double-spiral removal changed the crossing set; input invalid")
    return cd


# ============================================================
# Realization as a circular wiring
# ============================================================

def _split_common_rays(cd: CylindricalDrawing) -> CylindricalDrawing:
    """Turn the inner circle half a slot counter-clockwise if an inner and an
    outer vertex share a slot; crossings are unaffected.

    On the doubled grid the outer slots are even and the inner ones odd, so
    the turn passes no vertex, and normalized windings, |omega| < m, stay
    under a turn."""
    if not {s for _, s in cd.outer} & {s for _, s in cd.inner}:
        return cd
    return CylindricalDrawing(
        2 * cd.m,
        tuple((v, 2 * s) for v, s in cd.outer),
        tuple((v, 2 * s + 1) for v, s in cd.inner),
        tuple(replace(le, omega=2 * le.omega + 1) for le in cd.lateral),
        cd.circle,
    )


# edge kinds, in their radial order at an outer vertex, near to far
_LATERAL, _LATERAL_FACE_ARC, _HOME_ARC = range(3)


def _runs(cd: CylindricalDrawing, arcs) -> dict:
    """Per edge, (first vertex, last vertex, kind): the edge runs counter-
    clockwise from its first vertex to its last, circle edge i in direction
    arcs[i].  Windings are nonzero once `_split_common_rays` has run."""
    runs = {}
    for le in cd.lateral:
        runs[le.edge] = (le.u, le.w, _LATERAL) if le.omega > 0 else (le.w, le.u, _LATERAL)
    for ce, arc in zip(cd.circle, arcs):
        first, last = (ce.u, ce.v) if arc is ArcDir.CCW else (ce.v, ce.u)
        runs[ce.edge] = (first, last, _LATERAL_FACE_ARC if ce.face is Face.LATERAL else _HOME_ARC)
    return runs


def to_circular_wiring(cd: CylindricalDrawing) -> CircularWiring:
    """Redraw the drawing strip by strip as a circular wiring; the
    rule-based crossing set must be reproduced exactly.

    Home arcs of the inner circle pass nearer the origin than every vertex,
    home arcs of the outer circle farther; laterals and lateral-face arcs lie
    in the annulus, nearer than the outer vertices and farther than the inner
    ones.  At an outer vertex the incident edges run near to far as laterals
    by |winding| ascending, lateral-face arcs by length descending, then home
    arcs by length ascending; at an inner vertex in the reverse order.

    `wiring.redraw_strips` sweeps the ring, the vertices counter-clockwise
    from the 0-ray, twice.  The first sweep starts from the wrapping edges
    in any order.  Every pair of edges alive at its end got its order where
    the later of the two started, or after, so the order it ends with is the
    one the second sweep starts and closes with.  The second sweep's strips,
    one per gap that ends at a vertex, and its start order are the wiring's
    strips and base order.
    """
    return _realize(cd, [ce.arc for ce in cd.circle])


def _realize(cd: CylindricalDrawing, arcs) -> CircularWiring:
    """`to_circular_wiring` with circle edge i drawn in direction arcs[i],
    which must keep the crossing set: cd's own arcs do, and so does any choice
    when all circle edges are home edges, as rule (i) ignores directions."""
    if any(abs(le.omega) >= cd.m for le in cd.lateral):
        raise InvalidDrawing("normalize windings before realization")
    cd2 = _split_common_rays(cd)
    expected = crossing_set(cd)
    slot = cd2._slot
    outer = {v for v, _ in cd2.outer}
    runs = _runs(cd2, arcs)
    ring = sorted(slot, key=slot.get)
    starting = {v: [] for v in ring}
    ending = {v: [] for v in ring}
    near = {}
    for e, (first, last, kind) in runs.items():
        starting[first].append(e)
        ending[last].append(e)
        length = (slot[last] - slot[first]) % cd2.m
        near[e] = (kind, -length if kind == _LATERAL_FACE_ARC else length)
    # edges arriving at v keep the order in which they leave it: the
    # constructor checks that the redraw delivers them so
    for v in ring:
        for block in (starting, ending):
            block[v] = tuple(sorted(block[v], key=near.get, reverse=v not in outer))

    def below(e, v):
        first, _, kind = runs[e]
        if kind == _HOME_ARC:
            return first not in outer
        return v in outer

    wrapping = [e for e, (first, last, _) in runs.items() if slot[first] > slot[last]]
    _, _, base = redraw_strips(ring, wrapping, starting, below)
    strips, positions, _ = redraw_strips(ring, base, starting, below)
    strip_of = dict(zip(ring, strips))
    pos_of = dict(zip(ring, positions))
    labels = range(1, cd.n + 1)
    try:
        cw = CircularWiring(
            cd.n,
            ring,
            tuple(base),
            tuple(strip_of[v] for v in labels),
            tuple(pos_of[v] for v in labels),
            tuple(ending[v] for v in labels),
            tuple(starting[v] for v in labels),
        )
    except InvalidDrawing as exc:
        raise RealizationMismatch(f"redraw does not form a wiring: {exc}") from exc
    if circ.crossing_set(cw) != expected:
        raise RealizationMismatch("realized crossings differ from the rule-based set")
    return cw


def _assign_directions(cd: CylindricalDrawing) -> tuple:
    """A direction around the center per circle edge, in field order, chosen
    so that no lateral wedge covers the circle with the edge's arc."""
    m = cd.m
    lat_wedges = sorted((_lateral_wedge_raw(cd, le) for le in cd.lateral), key=lambda w: w[1])
    lengths = [w[1] for w in lat_wedges]

    # a reference ray half a slot past the first outer vertex (inner, if the
    # drawing has one circle), on the grid of 2m: every slot holds a vertex,
    # so it lies in the first gap of that circle, clear of all vertices
    ray = 2 * min(s for _, s in cd.outer or cd.inner) + 1

    arcs = []
    for ce in cd.circle:
        allowed = []
        for d in (ArcDir.CCW, ArcDir.CW):
            arc = _arc_raw(cd, ce, d)
            # only a wedge at least as long as the arc's complement can cover
            # the circle with it
            first = bisect_left(lengths, m - arc[1])
            if not any(_raw_arcs_cover(arc, w, m) for w in lat_wedges[first:]):
                allowed.append((d, *arc))
        if not allowed:
            raise BothDirectionsForbidden(ce.edge)
        if len(allowed) == 1:
            choice = allowed[0][0]
        else:
            choice = next(d for d, s, length in allowed if (ray - 2 * s) % (2 * m) > 2 * length)
        arcs.append(choice)
    return tuple(arcs)


def to_strongly_c_monotone(cd: CylindricalDrawing) -> CircularWiring:
    """Choose a direction around the center for every home circle edge so no
    edge pair covers the plane, then realize.

    Lateral edges forbid at most one direction per circle edge; edges with
    both directions free take the side avoiding a fixed ray through the first
    outer-circle gap.
    """
    if not is_strongly_cylindrical(cd):
        raise InvalidDrawing("input must be strongly cylindrical")
    if any(abs(le.omega) >= cd.m for le in cd.lateral):
        raise InvalidDrawing("normalize windings first")
    if find_double_spirals(cd):
        raise InvalidDrawing("remove double-spirals first")
    cw = _realize(cd, _assign_directions(cd))
    if not circ.is_strongly_c_monotone(cw):
        raise RealizationMismatch("conversion is not strongly c-monotone")
    return cw
