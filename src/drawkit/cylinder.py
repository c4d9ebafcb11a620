"""Cylindrical drawings: two concentric circles of vertices, no edge crossing
either circle.

Edges between the circles ("lateral") carry a rational winding number: the
net number of counter-clockwise turns around the center, oriented outer to
inner.  Circle edges live either in their home face (inside the inner circle
/ outside the outer circle) or in the lateral face, where they guard the
vertices on the arc they cut off.  All crossings are combinatorially
determined:

  (i)   home circle edges on the same circle cross iff linked in the circular
        vertex order,
  (ii)  a lateral-face circle edge crosses a non-incident lateral-face edge
        iff it guards exactly one of its end-vertices,
  (iii) lateral edges e, f cross iff delta + omega_f - omega_e lies outside
        [0, 1], where delta is the counter-clockwise outer-circle fraction
        from e's end-vertex to f's,
  (iv)  everything else never crosses.

`to_circular_wiring` realizes the drawing with exact rational coordinates
(radius over lifted angle) and extracts the circular sweep events from exact
intersections; its success, with the rule-based crossing set reproduced, is
the authoritative validity gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import combinations

from drawkit import circular as circ
from drawkit._geom import segments_cross
from drawkit.circular import (
    Arc,
    CircularWiring,
    SwapEvent,
    VertexEvent,
    arcs_cover_circle,
    frac1,
)
from drawkit.errors import (
    BothDirectionsForbidden,
    InvalidDrawing,
    NonTermination,
    RangeTooWide,
    RealizationMismatch,
    WrongFace,
)
from drawkit.rotation import CrossingSet, _norm_crossing, _sorted_pair

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
    omega: Fraction        # net counter-clockwise turns, oriented outer->inner

    def __post_init__(self):
        object.__setattr__(self, "omega", Fraction(self.omega))

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
    outer: tuple           # ((vertex, angle), ...) angles rational in [0,1)
    inner: tuple
    lateral: tuple         # LateralEdge
    circle: tuple          # CircleEdge

    def __post_init__(self):
        object.__setattr__(
            self, "outer", tuple((v, frac1(Fraction(a))) for v, a in self.outer)
        )
        object.__setattr__(
            self, "inner", tuple((v, frac1(Fraction(a))) for v, a in self.inner)
        )
        object.__setattr__(self, "lateral", tuple(self.lateral))
        object.__setattr__(self, "circle", tuple(self.circle))
        # lookup maps, kept outside the fields like any derived view
        object.__setattr__(self, "_angle", dict(self.outer + self.inner))
        circle = {v: "outer" for v, _ in self.outer} | {v: "inner" for v, _ in self.inner}
        object.__setattr__(self, "_circle", circle)
        object.__setattr__(self, "_circle_edge", {ce.edge: ce for ce in self.circle})
        _validate(self)

    # -- lookups ------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.outer) + len(self.inner)

    def outer_vertices(self) -> list:
        return [v for v, _ in self.outer]

    def inner_vertices(self) -> list:
        return [v for v, _ in self.inner]

    def angle_of(self, v: int) -> Fraction:
        if v not in self._angle:
            raise InvalidDrawing(f"unknown vertex {v}")
        return self._angle[v]

    def circle_of(self, v: int) -> str:
        if v not in self._circle:
            raise InvalidDrawing(f"unknown vertex {v}")
        return self._circle[v]

    def ring(self, which: str) -> list:
        """Vertices of one circle in counter-clockwise angular order."""
        pairs = self.outer if which == "outer" else self.inner
        return [v for v, _ in sorted(pairs, key=lambda p: p[1])]

    def circle_edge(self, e: Edge):
        e = _sorted_pair(*e)
        if e not in self._circle_edge:
            raise InvalidDrawing(f"no circle edge {e}")
        return self._circle_edge[e]

    def edges(self) -> list:
        return sorted([le.edge for le in self.lateral] + [ce.edge for ce in self.circle])


def _validate(cd: CylindricalDrawing):
    angle, circle = cd._angle, cd._circle
    if len(angle) != cd.n:
        raise InvalidDrawing("vertex labels must be distinct")
    if set(angle) != set(range(1, cd.n + 1)):
        raise InvalidDrawing("vertex labels must be 1..n")
    for ring in (cd.outer, cd.inner):
        if len({a for _, a in ring}) != len(ring):
            raise InvalidDrawing("angles on a circle must be distinct")
    seen = set()
    for le in cd.lateral:
        if circle.get(le.u) != "outer" or circle.get(le.w) != "inner":
            raise InvalidDrawing(f"lateral edge {le.u}-{le.w} must run outer to inner")
        if frac1(angle[le.u] + le.omega) != angle[le.w]:
            raise InvalidDrawing(f"winding of {le.edge} inconsistent with the angles")
        if le.edge in seen:
            raise InvalidDrawing(f"duplicate edge {le.edge}")
        seen.add(le.edge)
    for ce in cd.circle:
        same = ce.u in circle and circle.get(ce.u) == circle.get(ce.v)
        if not same or ce.u == ce.v:
            raise InvalidDrawing(f"circle edge {ce.edge} must join one circle")
        if ce.edge in seen:
            raise InvalidDrawing(f"duplicate edge {ce.edge}")
        seen.add(ce.edge)
    # pairwise lateral window: anything outside [-1, 2] would cross twice
    for e, f in combinations(cd.lateral, 2):
        if e.u == f.u or e.w == f.w:
            # incident pairs would be forced to cross, which simplicity forbids
            if e.u == f.u and not abs(f.omega - e.omega) < 1:
                raise InvalidDrawing(f"incident laterals {e.edge}, {f.edge} forced to cross")
            if e.w == f.w:
                val = frac1(angle[f.u] - angle[e.u]) + f.omega - e.omega
                if val not in (0, 1):
                    raise InvalidDrawing(f"incident laterals {e.edge}, {f.edge} forced to cross")
            continue
        val = frac1(angle[f.u] - angle[e.u]) + f.omega - e.omega
        if not -1 <= val <= 2:
            raise InvalidDrawing(
                f"laterals {e.edge}, {f.edge} would cross twice (window value {val})"
            )
    # lateral-face circle edges on one circle must not mutually guard
    lat_circle = [ce for ce in cd.circle if ce.face is Face.LATERAL]
    for e, f in combinations(lat_circle, 2):
        if set(e.edge) & set(f.edge):
            continue
        if circle[e.u] != circle[f.u]:
            continue
        if set(f.edge) <= guards(cd, e.edge) and set(e.edge) <= guards(cd, f.edge):
            raise InvalidDrawing(f"circle edges {e.edge}, {f.edge} mutually guard")


def guarded_arc(cd: CylindricalDrawing, e: Edge) -> Arc:
    ce = cd.circle_edge(e)
    if ce.face is not Face.LATERAL:
        raise WrongFace(f"edge {ce.edge} lies in its home face")
    return home_side_arc(cd, e)


def guards(cd: CylindricalDrawing, e: Edge) -> set:
    """Vertices of e's circle inside the closed guarded arc, endpoints included."""
    ce = cd.circle_edge(e)
    arc = guarded_arc(cd, e)
    which = cd.circle_of(ce.u)
    ring = cd.outer if which == "outer" else cd.inner
    return {v for v, a in ring if arc.contains(a)}


def home_side_arc(cd: CylindricalDrawing, e: Edge) -> Arc:
    """The arc from u to v in the edge's arc direction: the drawn side of a
    home edge, the guarded arc of a lateral-face edge."""
    ce = cd.circle_edge(e)
    au, av = cd.angle_of(ce.u), cd.angle_of(ce.v)
    if ce.arc is ArcDir.CCW:
        return Arc(au, frac1(av - au))
    return Arc(av, frac1(au - av))


def _linked_on_circle(cd: CylindricalDrawing, e: Edge, f: Edge) -> bool:
    angles = sorted((cd.angle_of(v), v) for v in (*e, *f))
    ring = [v for _, v in angles]
    return ring[0] in e and ring[2] in e or ring[0] in f and ring[2] in f


def _lateral_wedge_raw(cd: CylindricalDrawing, le: LateralEdge):
    """(start, length) of the lateral edge's angular support; length may be 0."""
    a = cd.angle_of(le.u)
    if le.omega >= 0:
        return (a, le.omega)
    return (frac1(a + le.omega), -le.omega)


def _raw_arcs_cover(a1, a2) -> bool:
    (s1, l1), (s2, l2) = a1, a2
    if l1 >= 1 or l2 >= 1:
        return True
    if l1 + l2 < 1:
        return False
    return arcs_cover_circle((Arc(s1, l1), Arc(s2, l2)))


def crossing_set(cd: CylindricalDrawing) -> CrossingSet:
    """Apply the four crossing rules to every non-incident edge pair."""
    angle = cd._angle
    pairs = set()
    # (iii) lateral vs lateral
    for e, f in combinations(cd.lateral, 2):
        if set(e.edge) & set(f.edge):
            continue
        val = frac1(angle[f.u] - angle[e.u]) + f.omega - e.omega
        if not 0 <= val <= 1:
            pairs.add(_norm_crossing(e.edge, f.edge))
    # (ii) lateral-face circle edges vs lateral-face edges
    lat_circle = [ce for ce in cd.circle if ce.face is Face.LATERAL]
    guarded = {ce.edge: guards(cd, ce.edge) for ce in lat_circle}
    for ce in lat_circle:
        g = guarded[ce.edge]
        for le in cd.lateral:
            if set(ce.edge) & set(le.edge):
                continue
            if len(g & set(le.edge)) == 1:
                pairs.add(_norm_crossing(ce.edge, le.edge))
    for ce, cf in combinations(lat_circle, 2):
        if set(ce.edge) & set(cf.edge):
            continue
        if cd._circle[ce.u] != cd._circle[cf.u]:
            continue
        hit_ef = len(guarded[ce.edge] & set(cf.edge)) == 1
        hit_fe = len(guarded[cf.edge] & set(ce.edge)) == 1
        if hit_ef != hit_fe:
            raise InvalidDrawing(f"guard rule asymmetric for {ce.edge}, {cf.edge}")
        if hit_ef:
            pairs.add(_norm_crossing(ce.edge, cf.edge))
    # (i) home circle edges on a common circle
    for ce, cf in combinations(cd.circle, 2):
        if ce.face is not Face.HOME or cf.face is not Face.HOME:
            continue
        if set(ce.edge) & set(cf.edge):
            continue
        if cd._circle[ce.u] != cd._circle[cf.u]:
            continue
        if _linked_on_circle(cd, ce.edge, cf.edge):
            pairs.add(_norm_crossing(ce.edge, cf.edge))
    return CrossingSet(cd.n, frozenset(pairs))


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
    cs = crossing_set(cd)
    crossed = {e for pair in cs.pairs for e in pair}
    result = {}
    for which, rims in rim_edges(cd).items():
        clean = {e for e in rims if e not in crossed}
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
    """Rotate the outer circle so every lateral winding satisfies |omega| < 1.

    The rotation subtracts t from every winding and adds t to every outer
    angle; crossings are unchanged.  t = 0 whenever already normalized.
    """
    if not cd.lateral:
        return cd
    lo = min(le.omega for le in cd.lateral)
    hi = max(le.omega for le in cd.lateral)
    if hi - lo >= 2:
        raise RangeTooWide(f"winding spread {hi - lo} >= 2; drawing invalid")
    if abs(lo) < 1 and abs(hi) < 1:
        return cd
    t = (hi + lo) / 2
    before = crossing_set(cd)
    new = CylindricalDrawing(
        tuple((v, frac1(a + t)) for v, a in cd.outer),
        cd.inner,
        tuple(replace(le, omega=le.omega - t) for le in cd.lateral),
        cd.circle,
    )
    if crossing_set(new).pairs != before.pairs:
        raise InvalidDrawing("normalization changed the crossing set; input invalid")
    return new


def find_double_spirals(cd: CylindricalDrawing) -> list:
    """Non-incident lateral pairs with same-sign windings whose wedges cover
    the full circle; sorted for determinism."""
    found = []
    for e, f in combinations(cd.lateral, 2):
        if set(e.edge) & set(f.edge):
            continue
        if e.omega == 0 or f.omega == 0:
            continue
        if (e.omega > 0) != (f.omega > 0):
            continue
        if _raw_arcs_cover(_lateral_wedge_raw(cd, e), _lateral_wedge_raw(cd, f)):
            pair = tuple(sorted((e.edge, f.edge)))
            found.append(pair)
    return sorted(found)


def _mirror(cd: CylindricalDrawing) -> CylindricalDrawing:
    """Reflect the drawing; windings flip sign, arcs flip direction."""
    flip = {ArcDir.CW: ArcDir.CCW, ArcDir.CCW: ArcDir.CW}
    return CylindricalDrawing(
        tuple((v, frac1(-a)) for v, a in cd.outer),
        tuple((v, frac1(-a)) for v, a in cd.inner),
        tuple(replace(le, omega=-le.omega) for le in cd.lateral),
        tuple(replace(ce, arc=flip[ce.arc]) for ce in cd.circle),
    )


def _cw_spirals(cd: CylindricalDrawing) -> list:
    by_edge = {le.edge: le for le in cd.lateral}
    return [p for p in find_double_spirals(cd) if by_edge[p[0]].omega < 0]


def _resolve_cw_spiral(cd: CylindricalDrawing, pair) -> CylindricalDrawing:
    """One removal step: slide the inner end-vertex of the second edge (and
    everything it passes) counter-clockwise out of the first edge's wedge into
    the outer gap following that wedge."""
    by_edge = {le.edge: le for le in cd.lateral}
    e, f = by_edge[pair[0]], by_edge[pair[1]]
    theta_a = cd.angle_of(e.u)
    theta_d = cd.angle_of(f.w)
    # first outer vertex counter-clockwise after v_a
    gaps = sorted(frac1(a - theta_a) for v, a in cd.outer if v != e.u)
    gap_len = gaps[0] if gaps else Fraction(1)
    # inner vertices dragged along: counter-clockwise arc (theta_d, theta_a]
    span = frac1(theta_a - theta_d)
    dragged = [
        (frac1(a - theta_d), v)
        for v, a in cd.inner
        if v != f.w and 0 < frac1(a - theta_d) <= span
    ]
    dragged.sort()
    block = [f.w] + [v for _, v in dragged]
    # free room after theta_a, before the next outer vertex or undragged inner vertex
    land = gap_len
    moved = set(block)
    for v, a in cd.inner:
        if v not in moved:
            d = frac1(a - theta_a)
            if 0 < d < land:
                land = d
    target = {}
    delta = {}
    for i, v in enumerate(block):
        target[v] = frac1(theta_a + land * (i + 1) / (len(block) + 2))
        delta[v] = frac1(target[v] - cd.angle_of(v))
    new = CylindricalDrawing(
        cd.outer,
        tuple((v, target.get(v, a)) for v, a in cd.inner),
        tuple(
            replace(le, omega=le.omega + delta[le.w]) if le.w in delta else le
            for le in cd.lateral
        ),
        cd.circle,
    )
    return new


def remove_double_spirals(cd: CylindricalDrawing) -> CylindricalDrawing:
    """Relocate inner vertices until no double-spiral remains.

    Clockwise spirals are removed first, then counter-clockwise ones via the
    mirrored drawing; each move keeps the circular vertex orders, hence the
    crossing set (checked).  Every move removes at least one spiral and adds
    none, so the number of moves is bounded by the initial spiral count.
    """
    budget = len(find_double_spirals(cd))
    before = crossing_set(cd)
    moves = 0

    def run_cw_phase(d):
        nonlocal moves
        while True:
            spirals = _cw_spirals(d)
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
    if crossing_set(cd).pairs != before.pairs:
        raise InvalidDrawing("double-spiral removal changed the crossing set; input invalid")
    return cd


# ============================================================
# Realization as a circular wiring
# ============================================================

R_INNER = Fraction(1)
R_OUTER = Fraction(2)


def _segments_intersect_fraction(p1, p2, p3, p4):
    """Proper intersection point of two exact segments, or None."""
    if not segments_cross(p1, p2, p3, p4):
        return None
    dx1, dy1 = p2[0] - p1[0], p2[1] - p1[1]
    dx2, dy2 = p4[0] - p3[0], p4[1] - p3[1]
    den = dx1 * dy2 - dy1 * dx2
    t = ((p3[0] - p1[0]) * dy2 - (p3[1] - p1[1]) * dx2) / den
    return (p1[0] + t * dx1, p1[1] + t * dy1)


class _Curve:
    """Piecewise-linear radius-over-lifted-angle trajectory of one edge."""

    __slots__ = ("edge", "points", "lo", "hi")

    def __init__(self, edge, points):
        self.edge = edge
        self.points = points  # ((lifted angle, radius), ...) angle-monotone
        self.lo = min(points[0][0], points[-1][0])
        self.hi = max(points[0][0], points[-1][0])

    def radius_at(self, lifted):
        pts = self.points if self.points[0][0] <= self.points[-1][0] else self.points[::-1]
        for (a0, r0), (a1, r1) in zip(pts, pts[1:]):
            if a0 <= lifted <= a1:
                if a0 == a1:
                    return r0
                return r0 + (r1 - r0) * (lifted - a0) / (a1 - a0)
        raise InvalidDrawing("angle outside curve support")


def _curve_crossings(c1: _Curve, c2: _Curve):
    """Exact proper intersections of two curves on the circle (angle mod 1).

    Lifted angles live in (-1, 2), so relative integer shifts up to 2 in
    absolute value can put the two lifts onto a common window.
    """
    hits = []
    segs1 = list(zip(c1.points, c1.points[1:]))
    for shift in (-2, -1, 0, 1, 2):
        if c2.lo + shift > c1.hi or c2.hi + shift < c1.lo:
            continue
        pts2 = [(a + shift, r) for a, r in c2.points]
        for s1 in segs1:
            for s2 in zip(pts2, pts2[1:]):
                hit = _segments_intersect_fraction(s1[0], s1[1], s2[0], s2[1])
                if hit is not None:
                    hits.append(hit)
    return hits


def _plateau_distances(supports: dict, span: Fraction, attempt: int, jitter: dict):
    """Distinct bulge distances in (0, span) per edge: edges whose support
    contains another's sit strictly farther out than what they contain.

    With one shared ramp width, curve slopes scale with these distances, so
    the ordering also keeps nested and endpoint-sharing trapezoids disjoint.
    The per-edge jitter (too small to reorder any two levels) keeps crossing
    angles on ramps anchored at a common vertex from coinciding.
    """

    def contains(big: Arc, small: Arc) -> bool:
        return big != small and frac1(small.start - big.start) + small.length <= big.length

    edges = sorted(supports)
    depth = {
        e: sum(1 for f in edges if f != e and contains(supports[f], supports[e]))
        for e in edges
    }
    ordered = sorted(edges, key=lambda e: (depth[e], e))
    m = len(ordered)
    out = {}
    for i, e in enumerate(ordered):
        base = span * Fraction(m + 1 - i, m + 2 + attempt)
        out[e] = base * (1 + Fraction(jitter[e], 8 * (m + 2) * (max(jitter.values()) + 1)))
    return out


def _min_gap(angles) -> Fraction:
    vals = sorted(set(angles))
    if len(vals) <= 1:
        return Fraction(1)
    gaps = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    gaps.append(vals[0] + 1 - vals[-1])
    return min(gaps)


def _build_curves(cd: CylindricalDrawing, attempt: int):
    angles = cd._angle
    gap = _min_gap(angles.values())
    ramp = gap / (8 * (attempt + 1))
    # lateral-face plateaus stay shallower than any lateral edge's slope over
    # one ramp width, so edges leaving an arc endpoint dive under them freely
    shallow = ramp / 2

    curves = {}
    laterals = sorted(cd.lateral, key=lambda le: le.edge)
    if attempt == 0:
        bend_scale = Fraction(0)
    else:
        tight = [gap]
        for le in laterals:
            tight.append(abs(le.omega))
        for e, f in combinations(cd.lateral, 2):
            dw = f.omega - e.omega
            if dw != 0:
                tight.append(abs(dw))
            else:
                delta = frac1(angles[f.u] - angles[e.u])
                tight.append(min(delta, 1 - delta))
        bend_scale = min(tight) / (8 * 2 ** attempt)
    for i, le in enumerate(laterals):
        a0 = angles[le.u]
        bend = bend_scale * Fraction(i + 1, len(laterals) + 1)
        if le.omega < 0:
            bend = -bend
        mid = (a0 + (a0 + le.omega)) / 2 + bend
        curves[le.edge] = _Curve(
            le.edge,
            ((a0, R_OUTER), (mid, (R_OUTER + R_INNER) / 2), (a0 + le.omega, R_INNER)),
        )

    groups = {
        ("outer", Face.HOME): {},
        ("outer", Face.LATERAL): {},
        ("inner", Face.HOME): {},
        ("inner", Face.LATERAL): {},
    }
    for ce in cd.circle:
        groups[(cd._circle[ce.u], ce.face)][ce.edge] = home_side_arc(cd, ce.edge)

    # (base radius, bulge sign, maximal bulge distance)
    bands = {
        ("outer", Face.HOME): (R_OUTER, 1, Fraction(9, 10)),
        ("outer", Face.LATERAL): (R_OUTER, -1, shallow),
        ("inner", Face.HOME): (R_INNER, -1, Fraction(9, 20)),
        ("inner", Face.LATERAL): (R_INNER, 1, shallow),
    }
    all_circle = sorted(ce.edge for ce in cd.circle)
    jitter = {e: i + 1 + attempt for i, e in enumerate(all_circle)}
    for key, supports in groups.items():
        if not supports:
            continue
        base, sign, span = bands[key]
        dists = _plateau_distances(supports, span, attempt, jitter)
        for e, arc in supports.items():
            s = arc.start
            length = arc.length
            p = base + sign * dists[e]
            w = min(ramp, length / 4)
            curves[e] = _Curve(
                e, ((s, base), (s + w, p), (s + length - w, p), (s + length, base))
            )
    return curves


def _realize(cd: CylindricalDrawing, attempt: int) -> CircularWiring:
    """Exact sweep of the realized curves, as a circular wiring."""
    curves = _build_curves(cd, attempt)
    vertex_angle = cd._angle
    radius_of = {v: (R_OUTER if cd._circle[v] == "outer" else R_INNER) for v in vertex_angle}

    crossings = []  # (angle mod 1, pair, exact point)
    items = sorted(curves)
    for e, f in combinations(items, 2):
        hits = _curve_crossings(curves[e], curves[f])
        if set(e) & set(f):
            if hits:
                raise _RetryRealization(f"incident edges {e}, {f} intersect")
            continue
        if len(hits) > 1:
            raise _RetryRealization(f"edges {e}, {f} intersect {len(hits)} times")
        for lifted, r in hits:
            crossings.append((frac1(lifted), _norm_crossing(e, f), r))

    event_angles = [a for a, _, _ in crossings] + list(vertex_angle.values())
    if len(set(event_angles)) != len(event_angles):
        raise _RetryRealization("coinciding event angles")

    sigma = Fraction(0)
    if Fraction(0) in event_angles:
        # shift so that no event sits exactly on the reference ray
        bad = sorted(frac1(-a) for a in event_angles)
        sigma = min(b for b in bad if b > 0) / 2

    def lift_near(curve: _Curve, angle: Fraction) -> Fraction:
        for k in (-1, 0, 1):
            if curve.lo <= angle + k <= curve.hi:
                return angle + k
        raise InvalidDrawing("angle not on curve")

    # supports, in original (unshifted) angles
    support = {}
    for e, c in curves.items():
        support[e] = (frac1(c.lo), c.hi - c.lo)

    def alive_at(e, angle):
        s, length = support[e]
        d = frac1(angle - s)
        return 0 < d < length

    base_angle = frac1(-sigma)  # original angle that maps to shifted angle 0
    base = []
    for e, c in curves.items():
        if alive_at(e, base_angle):
            base.append((c.radius_at(lift_near(c, base_angle)), e))
    if len({r for r, _ in base}) != len(base):
        raise _RetryRealization("radial tie on the base ray")
    base.sort()
    base_order = [e for _, e in base]

    events = []
    for v, a in vertex_angle.items():
        events.append((frac1(a + sigma), "vertex", v))
    for a, pair, _ in crossings:
        events.append((frac1(a + sigma), "swap", pair))
    events.sort(key=lambda t: t[0])

    order = list(base_order)
    out_events = []
    for shifted_angle, kind, payload in events:
        orig = frac1(shifted_angle - sigma)
        if kind == "swap":
            e, f = payload
            try:
                i, j = order.index(e), order.index(f)
            except ValueError:
                raise _RetryRealization("swap between edges not both alive")
            if abs(i - j) != 1:
                raise _RetryRealization("swapping edges not radially adjacent")
            k = min(i, j)
            out_events.append(SwapEvent(shifted_angle, k))
            order[k], order[k + 1] = order[k + 1], order[k]
        else:
            v = payload
            ending = [e for e in order if v in e]
            idx = sorted(order.index(e) for e in ending)
            if idx and idx != list(range(idx[0], idx[0] + len(idx))):
                raise _RetryRealization("ending edges not contiguous")
            ending_sorted = [order[i] for i in idx]
            for e in ending_sorted:
                order.remove(e)
            pos = 0
            for e in order:
                c = curves[e]
                r = c.radius_at(lift_near(c, orig))
                if r == radius_of[v]:
                    raise _RetryRealization("edge passes through a vertex radius")
                if r < radius_of[v]:
                    pos += 1
            if idx and idx[0] != pos:
                raise _RetryRealization("ending block does not sit at the vertex level")
            starting = [e for e in curves if v in e and support[e][0] == vertex_angle[v]]
            if starting:
                # incident edges never cross, so their radial order is fixed on
                # the whole shared support; sample it just after the vertex
                step = None
                for e in starting:
                    c = curves[e]
                    a0 = lift_near(c, orig)
                    nxt = min(p[0] for p in c.points if p[0] > a0)
                    step = nxt - a0 if step is None else min(step, nxt - a0)
                probe = {}
                for e in starting:
                    c = curves[e]
                    probe[e] = c.radius_at(lift_near(c, orig) + step / 2)
                if len(set(probe.values())) != len(probe):
                    raise _RetryRealization("radial tie among edges leaving a vertex")
                starting.sort(key=lambda e: probe[e])
            out_events.append(
                VertexEvent(shifted_angle, v, tuple(ending_sorted), tuple(starting), pos)
            )
            order[pos:pos] = starting

    shifted_vertex = [frac1(vertex_angle[v] + sigma) for v in sorted(vertex_angle)]
    try:
        return CircularWiring(cd.n, shifted_vertex, tuple(base_order), tuple(out_events))
    except InvalidDrawing as exc:
        # an intersection that is not proper, such as two curves meeting at a
        # shared breakpoint, is not reported as a swap
        raise _RetryRealization(f"events do not form a wiring: {exc}") from exc


class _RetryRealization(Exception):
    pass


def _split_common_rays(cd: CylindricalDrawing) -> CylindricalDrawing:
    """Rotate the inner circle slightly if an inner and an outer vertex share
    a ray; crossings are unaffected."""
    out_angles = {a for _, a in cd.outer}
    inn_angles = {a for _, a in cd.inner}
    if not out_angles & inn_angles:
        return cd
    bad = sorted({frac1(ao - ai) for ao in out_angles for ai in inn_angles})
    headroom = 1 - max((abs(le.omega) for le in cd.lateral), default=Fraction(0))
    positive = [b for b in bad if b > 0]
    t = min(positive + [headroom, Fraction(1, 2)]) / 2
    if headroom <= 0:
        raise InvalidDrawing("normalize windings before realization")
    t = min(t, headroom / 2)
    return CylindricalDrawing(
        cd.outer,
        tuple((v, frac1(a + t)) for v, a in cd.inner),
        tuple(replace(le, omega=le.omega + t) for le in cd.lateral),
        cd.circle,
    )


def to_circular_wiring(cd: CylindricalDrawing) -> CircularWiring:
    """Realize the drawing with exact rational geometry and read off the
    circular sweep; the rule-based crossing set must be reproduced exactly.

    Up to ten attempts bend the curves differently; an attempt fails when its
    curves are degenerate or their events do not form a valid wiring.
    """
    if any(abs(le.omega) >= 1 for le in cd.lateral):
        raise InvalidDrawing("normalize windings before realization")
    cd2 = _split_common_rays(cd)
    expected = crossing_set(cd)
    reasons = []
    for attempt in range(10):
        try:
            cw = _realize(cd2, attempt)
            break
        except _RetryRealization as exc:
            reasons.append(f"attempt {attempt}: {exc}")
    else:
        raise RealizationMismatch("no clean realization found: " + "; ".join(reasons))
    got = circ.crossing_set(cw)
    if got.pairs != expected.pairs:
        raise RealizationMismatch("realized crossings differ from the rule-based set")
    return cw


def to_strongly_c_monotone(cd: CylindricalDrawing) -> CircularWiring:
    """Choose a direction around the center for every home circle edge so no
    edge pair covers the plane, then realize.

    Lateral edges forbid at most one direction per circle edge; edges with
    both directions free take the side avoiding a fixed ray through the first
    outer-circle gap.
    """
    if not is_strongly_cylindrical(cd):
        raise InvalidDrawing("input must be strongly cylindrical")
    if any(abs(le.omega) >= 1 for le in cd.lateral):
        raise InvalidDrawing("normalize windings first")
    if find_double_spirals(cd):
        raise InvalidDrawing("remove double-spirals first")

    lat_wedges = [_lateral_wedge_raw(cd, le) for le in cd.lateral]

    # a reference ray inside the first outer gap, clear of all vertices
    all_angles = sorted(cd._angle.values())
    outer_sorted = sorted(a for _, a in cd.outer)
    g0 = outer_sorted[0]
    g1 = outer_sorted[1] if len(outer_sorted) > 1 else g0 + 1
    inside = [g0] + [a for a in all_angles if g0 < a < g1] + [g1]
    ray = (inside[0] + inside[1]) / 2

    new_circle = []
    for ce in cd.circle:
        au, av = cd.angle_of(ce.u), cd.angle_of(ce.v)
        options = {
            ArcDir.CCW: (au, frac1(av - au)),
            ArcDir.CW: (av, frac1(au - av)),
        }
        allowed = {
            d: arc
            for d, arc in options.items()
            if not any(_raw_arcs_cover(arc, w) for w in lat_wedges)
        }
        if not allowed:
            raise BothDirectionsForbidden(ce.edge)
        if len(allowed) == 1:
            choice = next(iter(allowed))
        else:
            choice = next(
                d for d, arc in options.items() if not Arc(arc[0], arc[1]).contains(ray)
            )
        new_circle.append(replace(ce, arc=choice))

    assigned = CylindricalDrawing(cd.outer, cd.inner, cd.lateral, tuple(new_circle))
    cw = to_circular_wiring(assigned)
    if circ.crossing_set(cw).pairs != crossing_set(cd).pairs:
        raise RealizationMismatch("conversion changed the crossing set")
    if not circ.is_strongly_c_monotone(cw):
        raise RealizationMismatch("conversion is not strongly c-monotone")
    return cw
