"""C-monotone drawings as circular wiring diagrams.

A c-monotone drawing has an origin O such that every ray from O meets every
edge at most once.  Combinatorially that is a circular sweep: vertices sit at
distinct rational angles, each edge occupies an angular wedge of length less
than one turn, and the radial (near-to-far) order of the edges met by the
sweeping ray changes only at vertex events and at swap events; every swap is
a crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from drawkit.errors import CutBlocked, InvalidDrawing, SubsetTooSmall
from drawkit.rotation import CrossingSet, _norm_crossing, _sorted_pair
from drawkit.wiring import LinearWiring

Edge = tuple[int, int]


def frac1(x: Fraction) -> Fraction:
    """x mod 1 as a Fraction in [0, 1)."""
    return x - (x.numerator // x.denominator)


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

    @property
    def end(self) -> Fraction:
        return frac1(self.start + self.length)

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
        # the validating sweep's results, kept outside the fields so that
        # equality, hashing and serialization see only the events
        crossings, supports = _replay(self)
        object.__setattr__(self, "_crossing_set", CrossingSet(self.n, frozenset(crossings)))
        object.__setattr__(self, "_supports", supports)

    def edges(self) -> list:
        return sorted(self._supports)


def _replay(cw: CircularWiring):
    """Walk the events once around; validate and collect swaps and supports.

    Returns (crossings, supports): the ordered list of swapped pairs and a
    map edge -> Arc of its angular wedge.
    """
    last = None
    seen_vertices = set()
    starts = {}
    ends = {}
    order = list(cw.base_order)
    crossings = []
    swapped = set()
    for ev in cw.events:
        if last is not None and ev.angle < last:
            raise InvalidDrawing("events must be sorted by angle")
        last = ev.angle
        if isinstance(ev, VertexEvent):
            v = ev.v
            if v in seen_vertices or not 1 <= v <= cw.n:
                raise InvalidDrawing(f"bad or repeated vertex event for v{v}")
            seen_vertices.add(v)
            if ev.angle != cw.angles[v - 1]:
                raise InvalidDrawing(f"vertex event angle mismatch for v{v}")
            for e in ev.ending + ev.starting:
                if v not in e:
                    raise InvalidDrawing(f"edge {e} not incident to v{v}")
            if ev.ending:
                if any(e not in order for e in ev.ending):
                    raise InvalidDrawing(f"ending edge missing from the radial order at v{v}")
                k = order.index(ev.ending[0])
                if tuple(order[k : k + len(ev.ending)]) != ev.ending:
                    raise InvalidDrawing(f"edges ending at v{v} are not a contiguous block")
                if k != ev.pos:
                    raise InvalidDrawing(f"pos of v{v} inconsistent with its ending block")
                del order[k : k + len(ev.ending)]
            if not 0 <= ev.pos <= len(order):
                raise InvalidDrawing(f"pos of v{v} out of range")
            for e in ev.ending:
                ends[e] = ev.angle
            for e in ev.starting:
                if e in starts or e in order:
                    raise InvalidDrawing(f"edge {e} starts while already alive")
                starts[e] = ev.angle
            order[ev.pos : ev.pos] = list(ev.starting)
        elif isinstance(ev, SwapEvent):
            k = ev.level
            if not 0 <= k < len(order) - 1:
                raise InvalidDrawing(f"swap level {k} invalid")
            e, f = order[k], order[k + 1]
            if set(e) & set(f):
                raise InvalidDrawing(f"incident edges {e}, {f} cannot swap")
            pair = _norm_crossing(e, f)
            if pair in swapped:
                raise InvalidDrawing(f"pair {pair} swaps twice")
            swapped.add(pair)
            crossings.append(pair)
            order[k], order[k + 1] = f, e
        else:
            raise InvalidDrawing(f"unknown event {ev!r}")
    if seen_vertices != set(range(1, cw.n + 1)):
        raise InvalidDrawing("every vertex needs exactly one event")
    if order != list(cw.base_order):
        raise InvalidDrawing("composing all events does not return the base order")
    if set(starts) != set(ends):
        raise InvalidDrawing("every edge must start and end exactly once")
    supports = {}
    for e, s in starts.items():
        supports[e] = Arc(s, frac1(ends[e] - s))
    return crossings, supports


def crossing_set(cw: CircularWiring) -> CrossingSet:
    """One crossing per swap event."""
    return cw._crossing_set


def wedge(cw: CircularWiring, e: Edge) -> Arc:
    """Angular support of edge e."""
    e = _sorted_pair(*e)
    if e not in cw._supports:
        raise InvalidDrawing(f"edge {e} not present")
    return cw._supports[e]


def _require_complete(cw: CircularWiring):
    if len(cw.edges()) != cw.n * (cw.n - 1) // 2:
        raise InvalidDrawing("operation requires a complete-graph wiring")


def is_strongly_c_monotone(cw: CircularWiring) -> bool:
    """True iff no vertex star covers the plane, i.e. for every vertex the
    wedges of its edges leave some ray from the origin free.

    For a wiring of the complete graph this is equivalent to the paper's two
    other characterizations: no pair of edges, and no pair of incident edges,
    has wedges covering the circle.  Only the star test runs here, in
    O(n * E); the test suite checks the three against each other.
    """
    _require_complete(cw)
    stars = {v: [] for v in range(1, cw.n + 1)}
    for (u, v), arc in cw._supports.items():
        stars[u].append(arc)
        stars[v].append(arc)
    return not any(arcs_cover_circle(star) for star in stars.values())


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
    order: list = []

    def col_angle(i, frac_in_strip=Fraction(0)):
        return (Fraction(i - 1) + frac_in_strip) * spread / n

    for v in range(1, n + 1):
        angles[v] = col_angle(v)
        events.append(
            VertexEvent(
                angles[v], v, lw.left_order[v - 1], lw.right_order[v - 1], lw.vertex_pos[v - 1]
            )
        )
        ending = lw.left_order[v - 1]
        if ending:
            k = order.index(ending[0])
            del order[k : k + len(ending)]
        order[lw.vertex_pos[v - 1] : lw.vertex_pos[v - 1]] = list(lw.right_order[v - 1])
        if v < n:
            swaps = lw.strips[v - 1]
            for j, k in enumerate(swaps):
                events.append(
                    SwapEvent(col_angle(v, Fraction(j + 1, len(swaps) + 1)), k)
                )
                order[k], order[k + 1] = order[k + 1], order[k]
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


def induce(cw: CircularWiring, subset) -> CircularWiring:
    """Restriction to `subset`, relabeled 1..k by increasing original label;
    the crossing set restricts accordingly."""
    subset = sorted(set(subset))
    if len(subset) < 2:
        raise SubsetTooSmall("induced wiring needs at least 2 vertices")
    keep = set(subset)
    relabel = {v: i + 1 for i, v in enumerate(subset)}

    def kept(e):
        return e[0] in keep and e[1] in keep

    def map_edge(e):
        return _sorted_pair(relabel[e[0]], relabel[e[1]])

    order = list(cw.base_order)
    new_events = []
    for ev in cw.events:
        if isinstance(ev, VertexEvent):
            if ev.v in keep:
                passing_after = [e for e in order if e not in ev.ending]
                kpos = sum(1 for e in passing_after[: ev.pos] if kept(e))
                new_events.append(
                    VertexEvent(
                        ev.angle,
                        relabel[ev.v],
                        tuple(map_edge(e) for e in ev.ending if kept(e)),
                        tuple(map_edge(e) for e in ev.starting if kept(e)),
                        kpos,
                    )
                )
            if ev.ending:
                k = order.index(ev.ending[0])
                del order[k : k + len(ev.ending)]
            order[ev.pos : ev.pos] = list(ev.starting)
        else:
            k = ev.level
            e, f = order[k], order[k + 1]
            if kept(e) and kept(f):
                klevel = sum(1 for g in order[:k] if kept(g))
                new_events.append(SwapEvent(ev.angle, klevel))
            order[k], order[k + 1] = f, e
    new_base = tuple(map_edge(e) for e in cw.base_order if kept(e))
    new_angles = tuple(cw.angles[v - 1] for v in subset)
    return CircularWiring(len(subset), new_angles, new_base, tuple(new_events))
