"""Generators for the named drawings and for seeded random test instances.

Point coordinates are exact rationals and cylindrical drawings sit on an
integer slot grid, so every incidence decision is a comparison, never a
guess.  The x-monotone generators sweep no
curves: each reads off its drawing's side data (which side of every vertex
each edge passes, and the order of the edges at every vertex) and hands it to
`wiring.to_x_monotone`, which redraws the wiring strip by strip.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from drawkit import _geom
from drawkit.cylinder import (
    ArcDir,
    CircleEdge,
    CylindricalDrawing,
    Face,
    LateralEdge,
    crossing_set as cyl_crossing_set,
)
from drawkit.errors import DegeneratePointSet, GaveUp, InternalAssertion, InvalidDrawing
from drawkit.rotation import (
    MAX_VERTICES,
    CrossingSet,
    RotationSystem,
    _sorted_pair,
    crossings_from_rotation,
    edge_numbering,
    linked_rule_pairs,
    nested_rule_pairs,
)
from drawkit.wiring import (
    LinearWiring,
    Side,
    XBoundedData,
    crossing_set as wiring_crossing_set,
    to_x_monotone,
)

Edge = tuple[int, int]


@dataclass(frozen=True)
class PointSet:
    """Exact rational points in general position with distinct x-coordinates.

    The points stay Fractions; every test reads them scaled by the lcm of
    their denominators, on one integer grid kept outside the fields.
    """

    points: tuple

    def __post_init__(self):
        pts = tuple((Fraction(x), Fraction(y)) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        D = lcm(*(c.denominator for p in pts for c in p))
        grid = tuple(tuple(c.numerator * (D // c.denominator) for c in p) for p in pts)
        object.__setattr__(self, "_grid", grid)
        xs = [p[0] for p in grid]
        if len(set(xs)) != len(xs):
            raise DegeneratePointSet("two points share an x-coordinate")
        for (a, ga), (b, gb), (c, gc) in combinations(zip(pts, grid), 3):
            if _geom.orient(ga, gb, gc) == 0:
                raise DegeneratePointSet(f"collinear points {a}, {b}, {c}")

    def __len__(self):
        return len(self.points)


def from_points(ps: PointSet):
    """Rotation system and crossing set of the straight-line drawing.

    Vertex i is the i-th point; the two outputs are checked against each
    other through the rotation-to-crossing table.
    """
    pts = dict(enumerate(ps._grid, 1))
    n = len(pts)
    if n < 3:
        raise DegeneratePointSet("need at least 3 points")
    rotations = []
    for v in sorted(pts):
        others = [(u, pts[u]) for u in sorted(pts) if u != v]
        rotations.append(tuple(_geom.clockwise_order(pts[v], others)))
    rs = RotationSystem(n, tuple(rotations))
    pairs = []
    for e, f in combinations(combinations(range(1, n + 1), 2), 2):
        if set(e) & set(f):
            continue
        if _geom.segments_cross(pts[e[0]], pts[e[1]], pts[f[0]], pts[f[1]]):
            pairs.append((e, f))
    cs = CrossingSet(n, pairs)
    if crossings_from_rotation(rs) != cs:
        raise InternalAssertion("rotation-derived crossings disagree with the segments")
    return rs, cs


# ============================================================
# Wirings from side data
# ============================================================

def wiring_from_points(ps: PointSet) -> LinearWiring:
    """Wiring of a straight-line drawing; the points must be x-sorted.

    An edge passes above the vertices right of its direction; edges leave a
    vertex bottom-to-top by ascending slope and arrive by descending slope.
    """
    pts = list(ps._grid)
    if pts != sorted(pts):
        raise DegeneratePointSet("points must be sorted by x for the wiring sweep")
    n = len(pts)
    pt = dict(enumerate(pts, 1))
    edges = list(combinations(range(1, n + 1), 2))
    side = {}
    for a, b in edges:
        for v in range(a + 1, b):
            below = _geom.orient(pt[a], pt[b], pt[v]) < 0
            side[((a, b), v)] = Side.ABOVE if below else Side.BELOW

    def slope(e):
        (x0, y0), (x1, y1) = pt[e[0]], pt[e[1]]
        return Fraction(y1 - y0, x1 - x0)

    left_order = [sorted((e for e in edges if e[1] == v), key=slope, reverse=True)
                  for v in range(1, n + 1)]
    right_order = [sorted((e for e in edges if e[0] == v), key=slope) for v in range(1, n + 1)]
    return to_x_monotone(XBoundedData(n, side, left_order, right_order))


# ============================================================
# Named drawings
# ============================================================

def convex(n: int):
    """Crossing set (all linked pairs) and a realizing wiring from points on
    a parabola."""
    if not 3 <= n <= MAX_VERTICES:
        raise InvalidDrawing(f"convex drawing needs 3 <= n <= {MAX_VERTICES}, got {n}")
    cs = CrossingSet(n, linked_rule_pairs(n))
    ps = PointSet(tuple((Fraction(i), Fraction(i * i)) for i in range(1, n + 1)))
    lw = wiring_from_points(ps)
    if wiring_crossing_set(lw) != cs:
        raise InternalAssertion("parabola wiring does not realize the linked rule")
    return cs, lw


def twisted(n: int) -> CrossingSet:
    """Crossing set of the twisted drawing: all nested pairs."""
    if not 3 <= n <= MAX_VERTICES:
        raise InvalidDrawing(f"twisted drawing needs 3 <= n <= {MAX_VERTICES}, got {n}")
    return CrossingSet(n, nested_rule_pairs(n))


def twisted_rotation(n: int) -> RotationSystem:
    """A rotation system realizing the twisted drawing.

    Vertex i sees i+1, ..., n followed by i-1, ..., 1 in clockwise order; the
    derived crossing set is checked against the nested rule.
    """
    rotations = []
    for i in range(1, n + 1):
        rotations.append(tuple(range(i + 1, n + 1)) + tuple(range(i - 1, 0, -1)))
    rs = RotationSystem(n, tuple(rotations))
    if crossings_from_rotation(rs) != twisted(n):
        raise InternalAssertion("twisted rotation pattern broke")
    return rs


def two_page(n: int, page_of_edge: dict):
    """Crossing set and wiring of a 2-page-book drawing with spine 1..n.

    Crossings are the same-page linked pairs along the spine.
    """
    pages = {}
    for e, page in page_of_edge.items():
        if page not in (0, 1):
            raise InvalidDrawing(f"page of {e} must be 0 or 1")
        pages[_sorted_pair(*e)] = page
    if set(pages) != set(combinations(range(1, n + 1), 2)):
        raise InvalidDrawing(f"pages must be given for exactly the edges of K_{n}")
    pairs = []
    for e, f in combinations(combinations(range(1, n + 1), 2), 2):
        if set(e) & set(f) or pages[e] != pages[f]:
            continue
        (a, b), (c, d) = e, f
        if a < c < b < d:
            pairs.append((e, f))
    cs = CrossingSet(n, pairs)
    # page 0 runs above the spine, page 1 below; near a vertex the page-1
    # edges come first, the longer ones lower, then the page-0 edges, the
    # shorter ones lower
    side = {
        (e, v): Side.ABOVE if pages[e] == 0 else Side.BELOW
        for e in pages
        for v in range(e[0] + 1, e[1])
    }

    def level(e):
        length = e[1] - e[0]
        return (0, -length) if pages[e] == 1 else (1, length)

    left_order = [sorted((e for e in pages if e[1] == v), key=level) for v in range(1, n + 1)]
    right_order = [sorted((e for e in pages if e[0] == v), key=level) for v in range(1, n + 1)]
    lw = to_x_monotone(XBoundedData(n, side, left_order, right_order))
    if wiring_crossing_set(lw) != cs:
        raise InternalAssertion("page arcs do not realize the 2-page rule")
    return cs, lw


def two_page_crossing_minimal_k8():
    """Crossing-minimal 2-page K_8 from the alternating diagonal-band rule:
    edge {i, j} goes to the page of ((i + j) mod 8 < 4).

    Validated by its completely uncrossed spine cycle, the defining property
    of 2-page drawings.
    """
    pages = {e: (1 if (e[0] + e[1]) % 8 < 4 else 0) for e in combinations(range(1, 9), 2)}
    cs, lw = two_page(8, pages)
    eid = edge_numbering(8)[1]
    spine_cycle = [(i, i + 1) for i in range(1, 8)] + [(1, 8)]
    if any(cs.masks[eid[u][v]] for u, v in spine_cycle):
        raise InternalAssertion("spine cycle of the 2-page fixture is crossed")
    return cs, lw


def hill(n: int) -> CylindricalDrawing:
    """Geodesic two-circle drawing: half the vertices equally spaced on each
    circle, lateral edges winding the short way (ties counter-clockwise), all
    circle edges in their home face on their shorter side."""
    if not 3 <= n <= MAX_VERTICES:
        raise InvalidDrawing(f"hill drawing needs 3 <= n <= {MAX_VERTICES}, got {n}")
    p = (n + 1) // 2
    q = n - p
    # outer vertex i at i/p turns, inner vertex j at j/q + 1/(2pq) turns
    m = 2 * p * q
    outer = tuple((i + 1, 2 * q * i) for i in range(p))
    inner = tuple((p + j + 1, 2 * p * j + 1) for j in range(q))
    slots = dict(outer + inner)
    lateral = []
    for u in range(1, p + 1):
        for w in range(p + 1, n + 1):
            d = (slots[w] - slots[u]) % m
            omega = d if 2 * d <= m else d - m
            lateral.append(LateralEdge(u, w, omega))
    circle = []
    for ring in (range(1, p + 1), range(p + 1, n + 1)):
        for u, v in combinations(ring, 2):
            ccw = (slots[v] - slots[u]) % m
            arc = ArcDir.CCW if 2 * ccw <= m else ArcDir.CW
            circle.append(CircleEdge(u, v, Face.HOME, arc))
    return CylindricalDrawing(m, outer, inner, tuple(lateral), tuple(circle))


# ============================================================
# Seeded random instances
# ============================================================

CYLINDRICAL_ATTEMPTS = 400
POINT_SET_ATTEMPTS = 200


def random_cylindrical(n: int, seed: int, strong: bool) -> CylindricalDrawing:
    """Rejection-sample a valid cylindrical drawing of K_n in at most
    CYLINDRICAL_ATTEMPTS attempts, else raise GaveUp.

    Vertices take random slots of a 4096-slot grid; each lateral winding
    picks one of its two lifts under a turn, preferring the short one more
    strongly as attempts accumulate; circle edges are home-only when strong
    is set, and home edges take their shorter side so that any direction
    assignment stays drawable.  Deterministic for a fixed seed.
    """
    if n < 3:
        raise InvalidDrawing("need n >= 3")
    rng = random.Random(("cylindrical", n, seed).__repr__())
    m = 4096
    for attempt in range(CYLINDRICAL_ATTEMPTS):
        p = rng.randint(max(1, n // 2 - 1), min(n - 1, n // 2 + 1))
        nums = dict(zip(range(1, n + 1), rng.sample(range(m), n)))
        outer = tuple((v, nums[v]) for v in range(1, p + 1))
        inner = tuple((v, nums[v]) for v in range(p + 1, n + 1))
        pflip = 0.3 * (0.85 ** attempt)
        lateral = []
        for u in range(1, p + 1):
            for w in range(p + 1, n + 1):
                d = (nums[w] - nums[u]) % m
                short, long_ = (d, d - m) if 2 * d <= m else (d - m, d)
                omega = long_ if rng.random() < pflip else short
                lateral.append(LateralEdge(u, w, omega))
        circle = []
        for ring in (range(1, p + 1), range(p + 1, n + 1)):
            for u, v in combinations(ring, 2):
                if strong:
                    face = Face.HOME
                else:
                    face = Face.LATERAL if rng.random() < 0.35 else Face.HOME
                ccw = (nums[v] - nums[u]) % m
                if face is Face.HOME:
                    arc = ArcDir.CCW if 2 * ccw <= m else ArcDir.CW
                else:
                    arc = rng.choice((ArcDir.CCW, ArcDir.CW))
                circle.append(CircleEdge(u, v, face, arc))
        try:
            cd = CylindricalDrawing(m, outer, inner, tuple(lateral), tuple(circle))
            cyl_crossing_set(cd)  # rejects anything with two crossings on a 4-subset
            return cd
        except InvalidDrawing:
            continue
    raise GaveUp(CYLINDRICAL_ATTEMPTS)


def random_point_set(n: int, seed: int) -> PointSet:
    """Random rational points, x-sorted, in general position; GaveUp after
    POINT_SET_ATTEMPTS degenerate draws."""
    if n < 1:
        raise InvalidDrawing("need n >= 1")
    rng = random.Random(("points", n, seed).__repr__())
    for _ in range(POINT_SET_ATTEMPTS):
        ys = rng.sample(range(-8 * n * n, 8 * n * n + 1), n)
        try:
            return PointSet(tuple((Fraction(i), Fraction(ys[i - 1])) for i in range(1, n + 1)))
        except DegeneratePointSet:
            continue
    raise GaveUp(POINT_SET_ATTEMPTS)


def random_x_monotone(n: int, seed: int) -> LinearWiring:
    """Random x-monotone instance: a straight-line drawing or a 2-page
    drawing, mixed by seed; deterministic for a fixed seed."""
    if n < 2:
        raise InvalidDrawing("need n >= 2")
    rng = random.Random(("xmono", n, seed).__repr__())
    if rng.random() < 0.5:
        return wiring_from_points(random_point_set(n, seed * 1000))
    pages = {e: rng.randint(0, 1) for e in combinations(range(1, n + 1), 2)}
    _, lw = two_page(n, pages)
    return lw
