"""C-monotone drawings as circular wiring diagrams.

A c-monotone drawing has an origin O such that every ray from O meets every
edge at most once.  Combinatorially that is a circular sweep: the vertex rays
come in one cyclic order, the ring, each edge occupies the wedge of less than
one turn between the rays of its end-vertices, and the radial (near-to-far)
order of the edges met by the sweeping ray changes only at vertices and at
swaps; every swap is a crossing.  What fixes the drawing is the ring, the
radial orders and the order of the swaps in each gap between consecutive
vertex rays, not the angle of a vertex or of a swap, so a `CircularWiring`
stores the ring and strips of swap levels, as a `LinearWiring` does, and
every circular decision is integer arithmetic on ring positions.
`wiring.sweep`, which also validates linear wirings, checks them; the
constructor adds only what is circular: the ring, and the wedges read off
the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from drawkit.errors import CutBlocked, InvalidDrawing
from drawkit.rotation import CrossingSet, RotationSystem, _require_ints, _sorted_pair
from drawkit.wiring import LinearWiring, sweep

Edge = tuple[int, int]


@dataclass(frozen=True)
class CircularWiring:
    """A label-indexed twin of `LinearWiring`, swept counter-clockwise.

    ring lists the vertices counter-clockwise from the 0-ray: ring position i
    holds ring[i], and gap i lies between ring[i] and ring[i + 1] (mod n).
    strips[v-1] lists the swap levels in the gap that ends at vertex v; a
    level k exchanges the strands at radial levels k and k+1 (near to far).
    The sweep starts on the 0-ray, in the gap that ends at ring[0] and ahead
    of its swaps, and base_order is the strand order there.  vertex_pos[v-1]
    is the number of passing edges nearer the origin than v; ending[v-1] and
    starting[v-1] give the near-to-far order of the edges ending at /
    starting at v.
    """

    n: int
    ring: tuple
    base_order: tuple
    strips: tuple
    vertex_pos: tuple
    ending: tuple
    starting: tuple

    def __post_init__(self):
        object.__setattr__(self, "ring", tuple(self.ring))
        object.__setattr__(self, "base_order", tuple(map(tuple, self.base_order)))
        object.__setattr__(self, "strips", tuple(tuple(s) for s in self.strips))
        object.__setattr__(self, "vertex_pos", tuple(self.vertex_pos))
        object.__setattr__(self, "ending", tuple(tuple(map(tuple, o)) for o in self.ending))
        object.__setattr__(self, "starting", tuple(tuple(map(tuple, o)) for o in self.starting))
        _require_ints("circular wiring", (self.n,), self.ring, self.vertex_pos, *self.strips,
                      *self.base_order, *chain(*self.ending, *self.starting))
        fields = (self.strips, self.vertex_pos, self.ending, self.starting)
        if any(len(f) != self.n for f in fields):
            raise InvalidDrawing("field lengths do not match n")
        if len(self.ring) != self.n or sorted(self.ring) != list(range(1, self.n + 1)):
            raise InvalidDrawing("the ring must list the vertices 1..n once each")
        # the validating sweep's results, kept outside the fields so that
        # equality, hashing and serialization see only the wiring itself
        columns, crossings, first = sweep(self.n, self.base_order, self.ring, *fields)
        pos = {v: i for i, v in enumerate(self.ring)}
        supports = {}
        for e, v in first.items():
            supports[e] = (pos[v], (pos[e[0] + e[1] - v] - pos[v]) % self.n)
        object.__setattr__(self, "_crossing_set", CrossingSet(self.n, crossings))
        object.__setattr__(self, "_supports", supports)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_strong", None)  # set by the first is_strongly_c_monotone()

    def edges(self) -> list:
        return sorted(self._supports)


def crossing_set(cw: CircularWiring) -> CrossingSet:
    """One crossing per swap."""
    return cw._crossing_set


def wedge(cw: CircularWiring, e: Edge) -> tuple[int, int]:
    """Support of edge e as (p, s): e starts at the vertex on ring position
    p and ends s ring steps counter-clockwise on, 1 <= s < n, so its wedge
    spans the gaps p, ..., p + s - 1 (mod n)."""
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
    wedges of its edges leave some gap between vertex rays free.

    For a wiring of the complete graph this is equivalent to the paper's two
    other characterizations: no pair of edges, and no pair of incident edges,
    has wedges covering the circle.  Only the star test runs here, once per
    wiring: each star ORs the n-bit gap masks of its wedges.  The test suite
    checks the three against each other.
    """
    if cw._strong is None:
        _require_complete(cw)
        n = cw.n
        full = (1 << n) - 1
        stars = dict.fromkeys(range(1, n + 1), 0)
        for e, (p, s) in cw._supports.items():
            gaps = ((1 << s) - 1) << p
            gaps = (gaps | gaps >> n) & full  # gaps past n - 1 wrap to 0
            for v in e:
                stars[v] |= gaps
        object.__setattr__(cw, "_strong", full not in stars.values())
    return cw._strong


def gap_edges(cw: CircularWiring) -> list:
    """The n edges between circularly consecutive vertices, each flagged with
    whether its wedge equals its gap."""
    _require_complete(cw)
    ring, n = cw.ring, cw.n
    out = []
    for i, v in enumerate(ring):
        e = _sorted_pair(v, ring[(i + 1) % n])
        out.append((e, cw._supports[e] == (i, 1)))
    return out


def cut_to_linear(cw: CircularWiring, k: int) -> LinearWiring:
    """Unroll the circle into a strip cut in gap k: the ring read from
    ring[k + 1] becomes the vertex order.

    Requires that no edge's wedge spans gap k; the crossing set is preserved
    exactly (relabeled by the new order).  No strand passes the cut, so gap k
    has no swaps, and swap levels and vertex positions carry over unchanged.
    """
    n = cw.n
    for e, (p, s) in cw._supports.items():
        if (k - p) % n < s:
            raise CutBlocked(e)
    k = (k + 1) % n
    ring = cw.ring[k:] + cw.ring[:k]
    relabel = {v: i + 1 for i, v in enumerate(ring)}

    def map_block(block):
        return tuple(_sorted_pair(relabel[e[0]], relabel[e[1]]) for e in block)

    return LinearWiring(
        n,
        tuple(cw.strips[v - 1] for v in ring[1:]),
        tuple(cw.vertex_pos[v - 1] for v in ring),
        tuple(map_block(cw.ending[v - 1]) for v in ring),
        tuple(map_block(cw.starting[v - 1]) for v in ring),
    )


def linear_to_circular(lw: LinearWiring) -> CircularWiring:
    """Embed an x-monotone wiring as a circular wiring.

    This is the combinatorial form of placing the origin far below the
    drawing: the columns become vertex rays inside a half turn, in the ring
    order 1..n, the vertical orders become radial orders, and the crossing
    set carries over unchanged.  Gap n - 1, from vertex n back to vertex 1,
    holds the other half turn and stays swap-free, so cutting there recovers
    the wiring.
    """
    n = lw.n
    return CircularWiring(
        n,
        tuple(range(1, n + 1)),
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
