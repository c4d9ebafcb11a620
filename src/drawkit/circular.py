"""C-monotone drawings as circular wiring diagrams.

A c-monotone drawing has an origin O such that every ray from O meets every
edge at most once.  Combinatorially that is a circular sweep: vertices sit at
distinct rational angles, each edge occupies an angular wedge of length less
than one turn, and the radial (near-to-far) order of the edges met by the
sweeping ray changes only at vertices and at swaps; every swap is a crossing.
What fixes the drawing is the vertex order around O, the radial orders and
the order of the swaps in each gap between consecutive vertex rays, not
where a swap sits inside its gap, so a `CircularWiring` stores strips of swap
levels, as a `LinearWiring` does.  `wiring.sweep`, which also validates
linear wirings, checks them; the constructor adds only what is circular:
the vertex angles, and the wedges read off the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from drawkit.errors import CutBlocked, InvalidDrawing
from drawkit.rotation import CrossingSet, RotationSystem, _sorted_pair
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
class CircularWiring:
    """A label-indexed twin of `LinearWiring`, swept counter-clockwise from
    the 0-ray.

    The ring visits the vertices by increasing angle.  strips[v-1] lists the
    swap levels in the gap that ends at vertex v, which starts at the
    previous vertex on the ring, or at the 0-ray for the first vertex; a
    level k exchanges the strands at radial levels k and k+1 (near to far).
    The arc from the last vertex back to the 0-ray has no swaps, and
    base_order is the strand order there.  vertex_pos[v-1] is the number of
    passing edges nearer the origin than v; ending[v-1] and starting[v-1]
    give the near-to-far order of the edges ending at / starting at v.
    """

    n: int
    angles: tuple
    base_order: tuple
    strips: tuple
    vertex_pos: tuple
    ending: tuple
    starting: tuple

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(Fraction(a) for a in self.angles))
        object.__setattr__(self, "base_order", tuple(map(tuple, self.base_order)))
        object.__setattr__(self, "strips", tuple(tuple(s) for s in self.strips))
        object.__setattr__(self, "vertex_pos", tuple(self.vertex_pos))
        object.__setattr__(self, "ending", tuple(tuple(map(tuple, o)) for o in self.ending))
        object.__setattr__(self, "starting", tuple(tuple(map(tuple, o)) for o in self.starting))
        if len(self.angles) != self.n:
            raise InvalidDrawing("one angle per vertex required")
        if len(set(self.angles)) != self.n:
            raise InvalidDrawing("vertex angles must be distinct")
        if any(not 0 <= a < 1 for a in self.angles):
            raise InvalidDrawing("vertex angles must lie in [0, 1)")
        fields = (self.strips, self.vertex_pos, self.ending, self.starting)
        if any(len(f) != self.n for f in fields):
            raise InvalidDrawing("field lengths do not match n")
        # the validating sweep's results, kept outside the fields so that
        # equality, hashing and serialization see only the wiring itself
        ring = circular_vertex_order(self)
        columns, crossings, first = sweep(self.n, self.base_order, ring, *fields)
        supports = {}
        for e, v in first.items():
            w = e[0] + e[1] - v  # where e ends
            start = self.angles[v - 1]
            supports[e] = Arc(start, frac1(self.angles[w - 1] - start))
        object.__setattr__(self, "_crossing_set", CrossingSet(self.n, frozenset(crossings)))
        object.__setattr__(self, "_supports", supports)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_strong", None)  # set by the first is_strongly_c_monotone()

    def edges(self) -> list:
        return sorted(self._supports)


def crossing_set(cw: CircularWiring) -> CrossingSet:
    """One crossing per swap."""
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
    No strand passes the cut, so the gap that holds it has no swaps, and
    swap levels and vertex positions carry over unchanged.
    """
    angle = frac1(Fraction(angle))
    if angle in cw.angles:
        raise CutBlocked(("vertex", angle))
    for e, arc in cw._supports.items():
        if arc.contains(angle):
            raise CutBlocked(e)
    ring = sorted(range(1, cw.n + 1), key=lambda v: frac1(cw.angles[v - 1] - angle))
    relabel = {v: i + 1 for i, v in enumerate(ring)}

    def map_block(block):
        return tuple(_sorted_pair(relabel[e[0]], relabel[e[1]]) for e in block)

    return LinearWiring(
        cw.n,
        tuple(cw.strips[v - 1] for v in ring[1:]),
        tuple(cw.vertex_pos[v - 1] for v in ring),
        tuple(map_block(cw.ending[v - 1]) for v in ring),
        tuple(map_block(cw.starting[v - 1]) for v in ring),
    )


def linear_to_circular(lw: LinearWiring) -> CircularWiring:
    """Embed an x-monotone wiring as a circular wiring.

    This is the combinatorial form of placing the origin far below the
    drawing: columns become angles inside a half turn, vertex v at
    (v - 1) / (2n), the vertical orders become radial orders, and the
    crossing set carries over unchanged.  Vertex 1 sits on the 0-ray and the
    other half turn stays swap-free, so cutting there recovers the wiring.
    """
    n = lw.n
    return CircularWiring(
        n,
        tuple(Fraction(v - 1, 2 * n) for v in range(1, n + 1)),
        (),
        ((),) + lw.strips,
        lw.vertex_pos,
        lw.left_order,
        lw.right_order,
    )


def rotation_system(cw: CircularWiring):
    """Clockwise rotation of every vertex, read off its ending and starting
    edges."""
    return RotationSystem(
        cw.n,
        tuple(
            tuple(e[0] + e[1] - v for e in reversed(cw.ending[v - 1]))
            + tuple(e[0] + e[1] - v for e in cw.starting[v - 1])
            for v in range(1, cw.n + 1)
        ),
    )
