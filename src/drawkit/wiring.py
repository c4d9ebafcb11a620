"""X-monotone drawings as wiring diagrams, x-bounded drawings as side data.

A `LinearWiring` is the combinatorial skeleton of an x-monotone drawing: the
left-to-right vertex order plus, per strip between consecutive vertices, the
sequence of adjacent transpositions of the vertical strand order.  Every swap
is a crossing and vice versa.  A linear wiring is a circular one cut open at
a ray that no strand crosses, so one validating sweep, `sweep`, checks the
steps of both models: `LinearWiring` hands it its vertices left to right from
no strands, `CircularWiring` its vertices in ring order from the base order.

An `XBoundedData` drops the strand order and keeps only what an x-bounded
drawing pins down: for every edge and every vertex strictly between its
endpoints, whether the edge passes above or below that vertex, plus the
bottom-to-top order in which edges leave each vertex to the left and right.
`to_x_monotone` rebuilds a strip diagram from that data, strip by strip, so
that the crossing set is reproduced exactly and the vertex order is kept.
Its strip loop, `redraw_strips`, also realizes cylindrical drawings as
circular wirings.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations

from drawkit.errors import (
    IncomparableAtRequiredVertex,
    InconsistentInput,
    InvalidDrawing,
)
from drawkit.rotation import CrossingSet, _require_ints, _sorted_pair

Edge = tuple[int, int]


class Side(Enum):
    BELOW = "below"
    ABOVE = "above"

    def flipped(self) -> "Side":
        return Side.ABOVE if self is Side.BELOW else Side.BELOW


@dataclass(frozen=True)
class LinearWiring:
    """Vertex order 1..n plus per-strip adjacent transpositions.

    strips[i] lists swap positions in the strip between vertices i+1 and i+2;
    position k exchanges the strands at levels k and k+1 (bottom-to-top) of
    the edges alive in that strip.  vertex_pos[v-1] is the number of passing
    edges below vertex v at its column; left_order/right_order give the
    bottom-to-top order of the edges ending at / starting at each vertex.
    """

    n: int
    strips: tuple
    vertex_pos: tuple
    left_order: tuple
    right_order: tuple

    def __post_init__(self):
        object.__setattr__(self, "strips", tuple(tuple(s) for s in self.strips))
        object.__setattr__(self, "vertex_pos", tuple(self.vertex_pos))
        object.__setattr__(
            self, "left_order", tuple(tuple(map(tuple, o)) for o in self.left_order)
        )
        object.__setattr__(
            self, "right_order", tuple(tuple(map(tuple, o)) for o in self.right_order)
        )
        _require_ints("linear wiring", (self.n,), self.vertex_pos, *self.strips,
                      *chain(*self.left_order, *self.right_order))
        if self.n < 1:
            raise InvalidDrawing("wiring needs at least one vertex")
        if len(self.strips) != self.n - 1 or len(self.vertex_pos) != self.n:
            raise InvalidDrawing("field lengths do not match n")
        if len(self.left_order) != self.n or len(self.right_order) != self.n:
            raise InvalidDrawing("field lengths do not match n")
        # the validating sweep's results, kept outside the fields so that
        # equality, hashing and serialization see only the wiring itself
        columns, crossings, _ = sweep(
            self.n,
            (),
            range(1, self.n + 1),
            ((),) + self.strips,
            self.vertex_pos,
            self.left_order,
            self.right_order,
        )
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_crossing_set", CrossingSet(self.n, crossings))

    def edges(self) -> list:
        return [e for block in self.right_order for e in block]


def sweep(n, base, ring, strips, vertex_pos, ending, starting):
    """The validating sweep shared by the linear and circular models.

    Starts from the strand order `base` and visits the vertices in the order
    `ring`, which lists 1..n once each.  Before vertex v it applies the swaps
    strips[v-1]: a level k swaps the strands at levels k and k+1, which must
    be independent edges that have not swapped before.  At v it removes the
    block ending[v-1], which must be exactly the live strands incident to v,
    contiguous and vertex_pos[v-1] strands from the bottom, then inserts
    starting[v-1] there.  Every edge is a sorted pair that starts once, at
    one of its end-vertices, and the sweep must end on `base` again.

    Returns (columns, crossings, first): columns[v-1] is the order of the
    strands passing v, crossings lists the swapped pairs in sweep order, and
    first[e] is the vertex where edge e starts.  Raises InvalidDrawing on
    ill-formed steps.
    """
    order = list(base)
    columns = [None] * n
    crossings = []
    swapped = set()
    first = {}
    for v in ring:
        for k in strips[v - 1]:
            if not 0 <= k < len(order) - 1:
                raise InvalidDrawing(f"swap level {k} invalid among {len(order)} strands")
            e, f = order[k], order[k + 1]
            if not set(e).isdisjoint(f):
                raise InvalidDrawing(f"incident edges {e}, {f} cannot swap")
            pair = (e, f) if e < f else (f, e)
            if pair in swapped:
                raise InvalidDrawing(f"pair {pair} swaps twice")
            swapped.add(pair)
            crossings.append(pair)
            order[k], order[k + 1] = f, e
        ends, pos = ending[v - 1], vertex_pos[v - 1]
        if sorted(ends) != sorted(e for e in order if v in e):
            raise InvalidDrawing(f"edges ending at v{v} are not its live edges")
        if ends:
            k = order.index(ends[0])
            if tuple(order[k : k + len(ends)]) != tuple(ends):
                raise InvalidDrawing(f"edges ending at v{v} are not a contiguous block")
            if k != pos:
                raise InvalidDrawing(f"position of v{v} inconsistent with its ending block")
            del order[k : k + len(ends)]
        if not 0 <= pos <= len(order):
            raise InvalidDrawing(f"position of v{v} out of range")
        columns[v - 1] = tuple(order)
        for e in starting[v - 1]:
            if not (len(e) == 2 and 1 <= e[0] < e[1] <= n and v in e):
                raise InvalidDrawing(f"v{v} starts {e}: not a sorted pair in 1..{n} containing v{v}")
            if e in first:
                raise InvalidDrawing(f"v{v} repeats the edge {e}")
            first[e] = v
        order[pos:pos] = starting[v - 1]
    if order != list(base):
        raise InvalidDrawing("the sweep does not return to the base order")
    for e in base:
        if e not in first:
            raise InvalidDrawing(f"base edge {e} never starts")
    return tuple(columns), crossings, first


def crossing_set(lw: LinearWiring) -> CrossingSet:
    """One crossing per swap."""
    return lw._crossing_set


def side_reader(columns, vertex_pos):
    """Side test for a wiring's sweep: side(e, v) is True iff vertex v lies
    above the strand of edge e, which must pass v's column.

    columns[v-1] is the passing-edge order at v's column (bottom-to-top, or
    near-to-far around the origin) and vertex_pos[v-1] is v's position in it,
    as both wiring constructors keep them.  A vertex's side of an edge is the
    same in every induced sub-drawing that keeps both.
    """

    def side(e, v):
        return columns[v - 1].index(e) < vertex_pos[v - 1]

    return side


def vertex_sides(lw: LinearWiring, e: Edge) -> dict:
    """Side of each strictly interior vertex relative to the strand of e."""
    e = _sorted_pair(*e)
    above = side_reader(lw._columns, lw.vertex_pos)
    return {v: Side.ABOVE if above(e, v) else Side.BELOW for v in range(e[0] + 1, e[1])}


# ============================================================
# X-bounded side data
# ============================================================

@dataclass(frozen=True, eq=True)
class XBoundedData:
    """Side matrix plus vertex-local edge orders of an x-bounded drawing.

    side[(e, v)] says whether edge e crosses the vertical line through v above
    or below v; it must be defined for every vertex strictly x-between the
    endpoints of e.  The underlying graph must be complete.
    """

    n: int
    side: dict
    left_order: tuple
    right_order: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "left_order", tuple(tuple(map(tuple, o)) for o in self.left_order)
        )
        object.__setattr__(
            self, "right_order", tuple(tuple(map(tuple, o)) for o in self.right_order)
        )
        _require_ints("x-bounded data", (self.n,), [v for _, v in self.side],
                      *[e for e, _ in self.side], *chain(*self.left_order, *self.right_order))
        n = self.n
        # every length first, so that no check below grows with a huge n
        if len(self.left_order) != n or len(self.right_order) != n:
            raise InvalidDrawing("field lengths do not match n")
        if {sum(map(len, self.left_order)), sum(map(len, self.right_order))} != {n * (n - 1) // 2}:
            raise InvalidDrawing(f"the orders must list the {n * (n - 1) // 2} edges of K_{n}")
        if len(self.side) != n * (n - 1) * (n - 2) // 6:
            raise InvalidDrawing("side map must cover exactly the interior-vertex domain")
        for v in range(1, n + 1):
            if sorted(self.left_order[v - 1]) != [(u, v) for u in range(1, v)]:
                raise InvalidDrawing(f"left_order of v{v} must list the edges ending there")
            if sorted(self.right_order[v - 1]) != [(v, u) for u in range(v + 1, n + 1)]:
                raise InvalidDrawing(f"right_order of v{v} must list the edges starting there")
        edges = combinations(range(1, n + 1), 2)
        if set(self.side) != {(e, v) for e in edges for v in range(e[0] + 1, e[1])}:
            raise InvalidDrawing("side map must cover exactly the interior-vertex domain")
        for val in self.side.values():
            if not isinstance(val, Side):
                raise InvalidDrawing("side values must be Side members")


def predicted_crossings(xb: XBoundedData) -> CrossingSet:
    """Crossing classification of x-bounded drawings.

    Separated pairs never cross; nested pairs cross iff their order flips
    between the two inner endpoints; linked pairs iff it flips between the
    second left endpoint and the first right endpoint.  At each of these
    checkpoints one edge of the pair ends and the other passes, so the order
    there is the side of the vertex on which the passing edge runs.
    """
    side = xb.side
    pairs = []
    for e, f in combinations(combinations(range(1, xb.n + 1), 2), 2):
        (a, b), (c, d) = e, f  # a <= c
        if b < c or a == c or b == c or b == d:
            continue
        if d < b:
            # nested: e passes c and d, and the order flips iff on two sides
            s, t = side.get((e, c)), side.get((e, d))
            crossed = s is not t
        else:
            # linked: e is below f at c iff e passes below c, and at b iff f
            # passes above b; the order flips iff both sides are the same
            s, t = side.get((e, c)), side.get((f, b))
            crossed = s is t
        if s is None or t is None:
            raise IncomparableAtRequiredVertex(
                f"edges {e}, {f} incomparable at a shared checkpoint"
            )
        if crossed:
            pairs.append((e, f))
    return CrossingSet(xb.n, pairs)


def redraw_strips(ring, base, starting, below):
    """The strip redraw shared by the linear and circular models.

    Sweeps the vertices of `ring` in order, starting from the strand order
    `base`.  Before each vertex v the strip stably partitions the strands
    into those below v, those ending at v and those above v (`below(e, v)`
    tells the passers apart): taking the strands bottom-up, each one sinks
    one level at a time past the strands already placed in a higher part.
    So a strip's swaps are exactly the inversions of its partition, and no
    pair swaps twice within it.  The ending block then makes way for
    `starting[v]`, bottom-to-top.

    Returns (strips, positions, final_order): strips[i] lists the swap
    positions before ring[i], positions[i] is the number of strands below
    ring[i] at its column, and final_order is the strand order after the
    last vertex.
    """
    strips = []
    positions = []
    cur = list(base)
    for v in ring:
        lo, ending, hi, swaps = [], [], [], []
        for k, e in enumerate(cur):
            if v in e:
                ending.append(e)
                passed = len(hi)
            elif below(e, v):
                lo.append(e)
                passed = len(ending) + len(hi)
            else:
                hi.append(e)
                passed = 0
            # e enters at level k, on top of the k strands placed so far
            swaps.extend(range(k - 1, k - 1 - passed, -1))
        strips.append(tuple(swaps))
        positions.append(len(lo))
        cur = lo + list(starting[v]) + hi
    return strips, positions, cur


def to_x_monotone(xb: XBoundedData) -> LinearWiring:
    """Strip-by-strip redraw into an x-monotone wiring with the same vertex
    order and exactly the predicted crossing set.

    `redraw_strips` sweeps the vertices left to right from no strands, each
    vertex's right-leaving edges entering bottom-to-top; the strip before
    vertex 1 is empty and dropped.
    """
    n = xb.n
    predicted = predicted_crossings(xb)
    ring = range(1, n + 1)
    strips, vertex_pos, _ = redraw_strips(
        ring,
        (),
        dict(zip(ring, xb.right_order)),
        lambda e, v: xb.side[(e, v)] is Side.BELOW,
    )
    try:
        # the constructor's sweep checks that each vertex's ending block
        # arrives in the given left order and that no strand is left over
        lw = LinearWiring(n, tuple(strips[1:]), tuple(vertex_pos), xb.left_order, xb.right_order)
    except InvalidDrawing as exc:
        raise InconsistentInput(f"side data is not realizable: {exc}") from exc
    if crossing_set(lw) != predicted:
        raise InconsistentInput("redraw does not reproduce the predicted crossing set")
    return lw


def extract_xbounded(lw: LinearWiring) -> XBoundedData:
    """Read side data and incident orders off the wiring columns.

    This is the canonical way to obtain valid XBoundedData from an existing
    x-monotone drawing.
    """
    side = {}
    for e in lw.edges():
        for v, s in vertex_sides(lw, e).items():
            side[(e, v)] = s.flipped()
    return XBoundedData(lw.n, side, lw.left_order, lw.right_order)
