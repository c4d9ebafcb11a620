"""X-monotone drawings as wiring diagrams, x-bounded drawings as side data.

A `LinearWiring` is the combinatorial skeleton of an x-monotone drawing: the
left-to-right vertex order plus, per strip between consecutive vertices, the
sequence of adjacent transpositions of the vertical strand order.  Every swap
is a crossing and vice versa.

An `XBoundedData` drops the strand order and keeps only what an x-bounded
drawing pins down: for every edge and every vertex strictly between its
endpoints, whether the edge passes above or below that vertex, plus the
bottom-to-top order in which edges leave each vertex to the left and right.
`to_x_monotone` rebuilds a strip diagram from that data, strip by strip, so
that the crossing set is reproduced exactly and the vertex order is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from drawkit.errors import (
    IncomparableAtRequiredVertex,
    InconsistentInput,
    InvalidDrawing,
    SubsetTooSmall,
)
from drawkit.rotation import CrossingSet, _norm_crossing, _sorted_pair

Edge = tuple[int, int]


class Side(Enum):
    BELOW = "below"
    ABOVE = "above"

    def flipped(self) -> "Side":
        return Side.ABOVE if self is Side.BELOW else Side.BELOW


class Ordering(Enum):
    LESS = -1
    INCOMPARABLE = 0
    GREATER = 1


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
        if self.n < 1:
            raise InvalidDrawing("wiring needs at least one vertex")
        if len(self.strips) != self.n - 1 or len(self.vertex_pos) != self.n:
            raise InvalidDrawing("field lengths do not match n")
        if len(self.left_order) != self.n or len(self.right_order) != self.n:
            raise InvalidDrawing("field lengths do not match n")
        # the validating sweep's results, kept outside the fields so that
        # equality, hashing and serialization see only the wiring itself
        columns, crossings = _replay(self)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_crossing_set", CrossingSet(self.n, frozenset(crossings)))

    def edges(self) -> list:
        return [e for block in self.right_order for e in block]


def _replay(lw: LinearWiring):
    """Simulate the wiring column by column.

    Returns (column_orders, crossings) where column_orders[v-1] is the
    bottom-to-top passing-edge order at vertex v's column and crossings is the
    ordered list of swapped pairs.  Raises InvalidDrawing on ill-formed data.
    """
    order: list = []
    crossings: list = []
    swapped = set()
    columns = []
    for v in range(1, lw.n + 1):
        ending = lw.left_order[v - 1]
        actual_ending = [e for e in order if v in e]
        if sorted(actual_ending) != sorted(ending):
            raise InvalidDrawing(f"left_order of v{v} does not match the live edges")
        if ending:
            start = order.index(ending[0])
            if tuple(order[start : start + len(ending)]) != tuple(ending):
                raise InvalidDrawing(f"edges ending at v{v} are not a contiguous block")
            if start != lw.vertex_pos[v - 1]:
                raise InvalidDrawing(f"vertex_pos of v{v} inconsistent with ending block")
            del order[start : start + len(ending)]
        pos = lw.vertex_pos[v - 1]
        if not 0 <= pos <= len(order):
            raise InvalidDrawing(f"vertex_pos of v{v} out of range")
        columns.append(tuple(order))
        starting = lw.right_order[v - 1]
        for a, b in starting:
            if a != v or not (v < b <= lw.n):
                raise InvalidDrawing(f"right_order of v{v} contains a foreign edge {(a, b)}")
        order[pos:pos] = list(starting)
        if v < lw.n:
            for k in lw.strips[v - 1]:
                if not 0 <= k < len(order) - 1:
                    raise InvalidDrawing(f"swap position {k} invalid in strip {v}")
                e, f = order[k], order[k + 1]
                if set(e) & set(f):
                    raise InvalidDrawing(f"incident edges {e}, {f} cannot swap")
                pair = _norm_crossing(e, f)
                if pair in swapped:
                    raise InvalidDrawing(f"pair {pair} swaps twice")
                swapped.add(pair)
                crossings.append(pair)
                order[k], order[k + 1] = f, e
    if order:
        raise InvalidDrawing("edges left over after the last vertex")
    return columns, crossings


def crossing_set(lw: LinearWiring) -> CrossingSet:
    """One crossing per swap."""
    return lw._crossing_set


def vertex_sides(lw: LinearWiring, e: Edge) -> dict:
    """Side of each strictly interior vertex relative to the strand of e."""
    e = _sorted_pair(*e)
    a, b = e
    out = {}
    for v in range(a + 1, b):
        col = lw._columns[v - 1]
        i = col.index(e)
        out[v] = Side.ABOVE if i < lw.vertex_pos[v - 1] else Side.BELOW
    return out


def induce(lw: LinearWiring, subset) -> LinearWiring:
    """Sub-wiring on `subset`, relabeled 1..k preserving the vertex order."""
    subset = sorted(set(subset))
    if len(subset) < 2:
        raise SubsetTooSmall("induced wiring needs at least 2 vertices")
    if subset[0] < 1 or subset[-1] > lw.n:
        raise InvalidDrawing("subset outside vertex range")
    relabel = {v: i + 1 for i, v in enumerate(subset)}
    keep = set(subset)

    def map_edge(e):
        return (relabel[e[0]], relabel[e[1]])

    kept = lambda e: e[0] in keep and e[1] in keep

    new_strips = []
    new_pos = []
    new_left = []
    new_right = []
    order: list = []
    cur_swaps: list = []
    for v in range(1, lw.n + 1):
        ending = lw.left_order[v - 1]
        if ending:
            start = order.index(ending[0])
            del order[start : start + len(ending)]
        if v in keep:
            new_left.append(tuple(map_edge(e) for e in ending if kept(e)))
            below = order[: lw.vertex_pos[v - 1]]
            new_pos.append(sum(1 for e in below if kept(e)))
        order[lw.vertex_pos[v - 1] : lw.vertex_pos[v - 1]] = list(lw.right_order[v - 1])
        if v in keep:
            new_right.append(tuple(map_edge(e) for e in lw.right_order[v - 1] if kept(e)))
            if len(new_pos) > 1:
                new_strips.append(tuple(cur_swaps))
            cur_swaps = []
        if v < lw.n:
            for k in lw.strips[v - 1]:
                e, f = order[k], order[k + 1]
                if kept(e) and kept(f):
                    kpos = sum(1 for g in order[:k] if kept(g))
                    cur_swaps.append(kpos)
                order[k], order[k + 1] = f, e
    return LinearWiring(
        len(subset), tuple(new_strips), tuple(new_pos), tuple(new_left), tuple(new_right)
    )


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
        edges = set(combinations(range(1, self.n + 1), 2))
        for v in range(1, self.n + 1):
            lefts = {e for e in edges if e[1] == v}
            rights = {e for e in edges if e[0] == v}
            if set(self.left_order[v - 1]) != lefts or len(self.left_order[v - 1]) != len(lefts):
                raise InvalidDrawing(f"left_order of v{v} must list the edges ending there")
            if set(self.right_order[v - 1]) != rights or len(self.right_order[v - 1]) != len(rights):
                raise InvalidDrawing(f"right_order of v{v} must list the edges starting there")
        domain = {(e, v) for e in edges for v in range(e[0] + 1, e[1])}
        if set(self.side) != domain:
            raise InvalidDrawing("side map must cover exactly the interior-vertex domain")
        for val in self.side.values():
            if not isinstance(val, Side):
                raise InvalidDrawing("side values must be Side members")


def partial_order_at(xb: XBoundedData, v: int, e: Edge, f: Edge) -> Ordering:
    """Relation of e and f in the edge order at vertex v.

    Implements the four defining conditions; INCOMPARABLE exactly when none
    applies (same-side passers, or edges not both meeting v's vertical line).
    """
    e = _sorted_pair(*e)
    f = _sorted_pair(*f)
    if e == f:
        return Ordering.INCOMPARABLE

    def status(g):
        if v in g:
            return "incident"
        if g[0] < v < g[1]:
            return xb.side[(g, v)]
        return None

    se, sf = status(e), status(f)
    if se is None or sf is None:
        return Ordering.INCOMPARABLE
    if se == "incident" and sf == "incident":
        for block in (xb.left_order[v - 1], xb.right_order[v - 1]):
            if e in block and f in block:
                return Ordering.LESS if block.index(e) < block.index(f) else Ordering.GREATER
        return Ordering.INCOMPARABLE
    if se == "incident":
        return Ordering.LESS if sf is Side.ABOVE else Ordering.GREATER
    if sf == "incident":
        return Ordering.LESS if se is Side.BELOW else Ordering.GREATER
    if se is Side.BELOW and sf is Side.ABOVE:
        return Ordering.LESS
    if se is Side.ABOVE and sf is Side.BELOW:
        return Ordering.GREATER
    return Ordering.INCOMPARABLE


def _pair_kind(e: Edge, f: Edge) -> str:
    (a, b), (c, d) = sorted((e, f))
    if b < c:
        return "separated"
    if c < b < d:
        return "linked"
    return "nested"


def predicted_crossings(xb: XBoundedData) -> CrossingSet:
    """Crossing classification of x-bounded drawings.

    Separated pairs never cross; nested pairs cross iff their order flips
    between the two inner endpoints; linked pairs iff it flips between the
    second left endpoint and the first right endpoint.
    """
    pairs = set()
    for e, f in combinations(combinations(range(1, xb.n + 1), 2), 2):
        if set(e) & set(f):
            continue
        (a, b), (c, d) = sorted((e, f))
        kind = _pair_kind(e, f)
        if kind == "separated":
            continue
        if kind == "nested":
            checkpoints = (c, d)
        else:
            checkpoints = (c, b)
        rels = [partial_order_at(xb, v, (a, b), (c, d)) for v in checkpoints]
        if Ordering.INCOMPARABLE in rels:
            raise IncomparableAtRequiredVertex(
                f"edges {(a, b)}, {(c, d)} incomparable at a shared checkpoint"
            )
        if rels[0] != rels[1]:
            pairs.add(_norm_crossing((a, b), (c, d)))
    return CrossingSet(xb.n, frozenset(pairs))


def _bubble_swaps(cur: list, target_rank: dict) -> list:
    """Adjacent transpositions sorting `cur` by target rank, bottom-up passes."""
    swaps = []
    changed = True
    while changed:
        changed = False
        for k in range(len(cur) - 1):
            if target_rank[cur[k]] > target_rank[cur[k + 1]]:
                cur[k], cur[k + 1] = cur[k + 1], cur[k]
                swaps.append(k)
                changed = True
    return swaps


def to_x_monotone(xb: XBoundedData) -> LinearWiring:
    """Strip-by-strip redraw into an x-monotone wiring with the same vertex
    order and exactly the predicted crossing set.

    Each strip starts from the incoming strand order, inserts the right-leaving
    edges of its left vertex between the below- and above-passers, partitions
    the strands by their relation to the right vertex (below / ending / above,
    keeping relative order), and realizes the resulting permutation as its
    inversions via bottom-up bubble passes.
    """
    n = xb.n
    predicted = predicted_crossings(xb)
    strips = []
    vertex_pos = [0]
    left_order = [()]
    cur: list = []
    for i in range(1, n):
        cur[vertex_pos[i - 1] : vertex_pos[i - 1]] = list(xb.right_order[i - 1])
        below, ending, above = [], [], []
        for e in cur:
            if e[1] == i + 1:
                ending.append(e)
            elif xb.side[(e, i + 1)] is Side.BELOW:
                below.append(e)
            else:
                above.append(e)
        target = below + ending + above
        target_rank = {e: k for k, e in enumerate(target)}
        swaps = _bubble_swaps(cur, target_rank)
        strips.append(tuple(swaps))
        vertex_pos.append(len(below))
        left_order.append(tuple(ending))
        cur = below + above
    try:
        lw = LinearWiring(n, tuple(strips), tuple(vertex_pos), tuple(left_order), xb.right_order)
    except InvalidDrawing as exc:
        raise InconsistentInput(f"side data is not realizable: {exc}") from exc
    if crossing_set(lw).pairs != predicted.pairs:
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
