"""C-monotone drawings as circular wiring diagrams.

A c-monotone drawing has an origin O such that every ray from O meets every
edge at most once.  Combinatorially that is a circular sweep: vertices sit at
distinct rational angles, each edge occupies an angular wedge of length less
than one turn, and the radial (near-to-far) order of the edges met by the
sweeping ray changes only at vertex events and at swap events; every swap is
a crossing.  `wiring.sweep`, which also validates linear wirings, checks the
events; the constructor adds only what is circular: events sorted by angle,
each vertex event at its vertex's angle, and the wedges read off the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from drawkit.errors import CutBlocked, InvalidDrawing
from drawkit.rotation import CrossingSet, _sorted_pair
from drawkit.wiring import LinearWiring, sweep

Edge = tuple[int, int]


def frac1(x: Fraction) -> Fraction:
    """x mod 1 as a Fraction in [0, 1)."""
    whole = x.numerator // x.denominator
    return x - whole if whole else x


@dataclass(frozen=True)
class Arc:
    """Closed angular arc: counter-clockwise from `start`, `length` turns."""

    start: Fraction
    length: Fraction

    def __post_init__(self):
        object.__setattr__(self, "start", frac1(Fraction(self.start)))
        object.__setattr__(self, "length", Fraction(self.length))
        if not 0 <= self.length < 1:
            raise InvalidDrawing(f"arc length must lie in [0, 1), got {self.length}")

    def contains(self, angle: Fraction) -> bool:
        return frac1(Fraction(angle) - self.start) <= self.length


def arcs_cover_circle(arcs) -> bool:
    """True iff the union of the closed arcs is the full circle.

    Closed arcs meeting only at endpoints still count as covering.
    """
    arcs = [a for a in arcs]
    if not arcs:
        return False
    if any(a.length >= 1 for a in arcs):
        return True
    ivals = sorted((a.start, a.start + a.length) for a in arcs)
    s0 = ivals[0][0]
    reach = ivals[0][1]
    for s, e in ivals[1:]:
        if s > reach:
            return False
        reach = max(reach, e)
    return reach >= s0 + 1


@dataclass(frozen=True)
class VertexEvent:
    angle: Fraction
    v: int
    ending: tuple      # edges disappearing here, bottom(near origin)-to-top
    starting: tuple    # edges appearing here, bottom-to-top
    pos: int           # radial position among the passing edges

    def __post_init__(self):
        object.__setattr__(self, "angle", frac1(Fraction(self.angle)))
        object.__setattr__(self, "ending", tuple(map(tuple, self.ending)))
        object.__setattr__(self, "starting", tuple(map(tuple, self.starting)))


@dataclass(frozen=True)
class SwapEvent:
    angle: Fraction
    level: int         # swaps radial levels (level, level+1)

    def __post_init__(self):
        object.__setattr__(self, "angle", frac1(Fraction(self.angle)))


@dataclass(frozen=True)
class CircularWiring:
    """Angular events around the origin plus the radial order on the 0-ray."""

    n: int
    angles: tuple
    base_order: tuple
    events: tuple

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(Fraction(a) for a in self.angles))
        object.__setattr__(self, "base_order", tuple(map(tuple, self.base_order)))
        object.__setattr__(self, "events", tuple(self.events))
        if len(self.angles) != self.n:
            raise InvalidDrawing("one angle per vertex required")
        if len(set(self.angles)) != self.n:
            raise InvalidDrawing("vertex angles must be distinct")
        if any(not 0 <= a < 1 for a in self.angles):
            raise InvalidDrawing("vertex angles must lie in [0, 1)")
        stream = []
        at = {}
        last = 0
        for ev in self.events:
            if ev.angle < last:
                raise InvalidDrawing("events must be sorted by angle")
            last = ev.angle
            if isinstance(ev, SwapEvent):
                stream.append(ev.level)
            elif isinstance(ev, VertexEvent):
                at[ev.v] = ev.angle
                stream.append((ev.v, ev.ending, ev.starting, ev.pos))
            else:
                raise InvalidDrawing(f"unknown event {ev!r}")
        # the validating sweep's results, kept outside the fields so that
        # equality, hashing and serialization see only the events
        columns, vertex_pos, crossings, first = sweep(self.n, self.base_order, stream)
        for v, a in enumerate(self.angles, 1):
            if at[v] != a:
                raise InvalidDrawing(f"vertex event angle mismatch for v{v}")
        supports = {}
        for e, v in first.items():
            w = e[0] + e[1] - v  # where e ends
            start = self.angles[v - 1]
            supports[e] = Arc(start, frac1(self.angles[w - 1] - start))
        object.__setattr__(self, "_crossing_set", CrossingSet(self.n, frozenset(crossings)))
        object.__setattr__(self, "_supports", supports)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_vertex_pos", vertex_pos)
        object.__setattr__(self, "_strong", None)  # set by the first is_strongly_c_monotone()

    def edges(self) -> list:
        return sorted(self._supports)


def crossing_set(cw: CircularWiring) -> CrossingSet:
    """One crossing per swap event."""
    return cw._crossing_set


def wedge(cw: CircularWiring, e: Edge) -> Arc:
    """Angular support of edge e."""
    e = _sorted_pair(*e)
    if e not in cw._supports:
        raise InvalidDrawing(f"edge {e} not present")
    return cw._supports[e]


def _require_complete(model):
    """Raise unless the model (anything with n and edges()) draws K_n."""
    if sorted(model.edges()) != list(combinations(range(1, model.n + 1), 2)):
        raise InvalidDrawing("operation requires a drawing of the complete graph")


def is_strongly_c_monotone(cw: CircularWiring) -> bool:
    """True iff no vertex star covers the plane, i.e. for every vertex the
    wedges of its edges leave some ray from the origin free.

    For a wiring of the complete graph this is equivalent to the paper's two
    other characterizations: no pair of edges, and no pair of incident edges,
    has wedges covering the circle.  Only the star test runs here, once per
    wiring, in O(n * E); the test suite checks the three against each other.
    """
    if cw._strong is None:
        _require_complete(cw)
        stars = {v: [] for v in range(1, cw.n + 1)}
        for (u, v), arc in cw._supports.items():
            stars[u].append(arc)
            stars[v].append(arc)
        covered = any(arcs_cover_circle(star) for star in stars.values())
        object.__setattr__(cw, "_strong", not covered)
    return cw._strong


def circular_vertex_order(cw: CircularWiring) -> list:
    """Vertices in counter-clockwise order of their angles."""
    return sorted(range(1, cw.n + 1), key=lambda v: cw.angles[v - 1])


def gap_edges(cw: CircularWiring) -> list:
    """The n edges between circularly consecutive vertices, each flagged with
    whether its wedge equals its gap."""
    _require_complete(cw)
    supports = cw._supports
    ring = circular_vertex_order(cw)
    out = []
    for i, v in enumerate(ring):
        w = ring[(i + 1) % len(ring)]
        e = _sorted_pair(v, w)
        gap = Arc(cw.angles[v - 1], frac1(cw.angles[w - 1] - cw.angles[v - 1]))
        out.append((e, supports[e] == gap))
    return out


def cut_to_linear(cw: CircularWiring, angle) -> LinearWiring:
    """Unroll the circle into a strip starting just after `angle`.

    Requires that no vertex sits at the cut angle and no edge's wedge spans
    it; the crossing set is preserved exactly (relabeled by the new order).
    """
    angle = frac1(Fraction(angle))
    if angle in cw.angles:
        raise CutBlocked(("vertex", angle))
    for e, arc in cw._supports.items():
        if arc.contains(angle):
            raise CutBlocked(e)

    def shifted(a: Fraction) -> Fraction:
        return frac1(a - angle)

    events = sorted(cw.events, key=lambda ev: shifted(ev.angle))
    ring = sorted(range(1, cw.n + 1), key=lambda v: shifted(cw.angles[v - 1]))
    relabel = {v: i + 1 for i, v in enumerate(ring)}

    def map_edge(e):
        return _sorted_pair(relabel[e[0]], relabel[e[1]])

    strips = []
    vertex_pos = []
    left_order = []
    right_order = []
    cur_swaps: list = []
    seen = 0
    for ev in events:
        if isinstance(ev, VertexEvent):
            if seen:
                strips.append(tuple(cur_swaps))
            cur_swaps = []
            seen += 1
            vertex_pos.append(ev.pos)
            left_order.append(tuple(map_edge(e) for e in ev.ending))
            right_order.append(tuple(map_edge(e) for e in ev.starting))
        else:
            cur_swaps.append(ev.level)
    lw = LinearWiring(cw.n, tuple(strips), tuple(vertex_pos), tuple(left_order), tuple(right_order))
    return lw


def strip_events(lo, hi, swaps, D=1) -> list:
    """Swap events for one strip's swap positions, evenly spaced strictly
    between the angles lo / D and hi / D."""
    k = len(swaps) + 1
    return [SwapEvent(Fraction(lo * k + (hi - lo) * j, D * k), level)
            for j, level in enumerate(swaps, 1)]


def linear_to_circular(lw: LinearWiring, spread=Fraction(1, 2)) -> CircularWiring:
    """Embed an x-monotone wiring as a circular wiring.

    This is the combinatorial form of placing the origin far below the
    drawing: columns become angles inside an arc of the given length, the
    vertical orders become radial orders, and the crossing set carries over
    unchanged.  The arc complement stays event-free, so cutting there
    recovers the wiring.
    """
    spread = Fraction(spread)
    if not 0 < spread < 1:
        raise InvalidDrawing("spread must lie in (0, 1)")
    n = lw.n
    events = []
    angles = {}

    def col_angle(i):
        return Fraction(i - 1) * spread / n

    for v in range(1, n + 1):
        angles[v] = col_angle(v)
        events.append(
            VertexEvent(
                angles[v], v, lw.left_order[v - 1], lw.right_order[v - 1], lw.vertex_pos[v - 1]
            )
        )
        if v < n:
            events += strip_events(col_angle(v), col_angle(v + 1), lw.strips[v - 1])
    return CircularWiring(n, tuple(angles[v] for v in range(1, n + 1)), (), tuple(events))


def rotation_system(cw: CircularWiring):
    """Clockwise rotation of every vertex, read off the sweep events."""
    from drawkit.rotation import RotationSystem

    rotations = {}
    for ev in cw.events:
        if isinstance(ev, VertexEvent):
            arriving = [e[0] + e[1] - ev.v for e in reversed(ev.ending)]
            leaving = [e[0] + e[1] - ev.v for e in ev.starting]
            rotations[ev.v] = tuple(arriving) + tuple(leaving)
    return RotationSystem(cw.n, tuple(rotations[v] for v in range(1, cw.n + 1)))
