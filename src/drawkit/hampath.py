"""Constructive crossing-free Hamiltonian paths with prescribed end-vertices.

Each drawing class gets the constructive procedure its structure supports:
x-monotone wirings recurse on the sides of the edge {v_1, v_n}, on vertex
subsets of the one input drawing, with each side read from the model by a
side reader (a wiring's constructor columns, or an edge's page); strongly
c-monotone wirings either run that recursion in the sweep order from an
escaped gap or combine an inner x-monotone piece, the vertices of one wedge,
with a walk along gap edges; cylindrical drawings stitch rim walks with
lateral edges, and with one circle are 2-page drawings for the recursion.
In the twisted drawing two edges cross iff they nest, so its paths are
written down in O(n) with no search: zigzags of edges spanning at most two,
which cannot be the outer edge of a nested pair, and for the end pairs
(i, i + 1) a path whose right ends never decrease along its sorted edges.  No
engine builds a model below its entry point, and none searches.
Every construction validates its own output and raises InternalAssertion on
failure, so a transcription bug can never return silently.
"""

from __future__ import annotations

from drawkit import circular as circ
from drawkit import cylinder as cyl
from drawkit import wiring as w
from drawkit.circular import CircularWiring
from drawkit.cylinder import CylindricalDrawing
from drawkit.errors import (
    BadRotation,
    EdgeIsCrossed,
    InternalAssertion,
    InvalidDrawing,
    NotStronglyCMonotone,
)
from drawkit.rotation import (
    CrossingSet,
    _sorted_pair,
    edge_numbering,
    relabel_crossing_set,
)
from drawkit.wiring import LinearWiring


def is_crossing_free(cs: CrossingSet, path) -> bool:
    """True iff no two edges of the path, a walk in K_n, cross in cs."""
    if any(not 1 <= v <= cs.n for v in path) or any(u == v for u, v in zip(path, path[1:])):
        raise InvalidDrawing(f"{path} is not a walk in K_{cs.n}")
    eid, masks = edge_numbering(cs.n)[1], cs.masks
    ids = {eid[u][v] for u, v in zip(path, path[1:])}
    used = sum(1 << i for i in ids)
    return not any(masks[i] & used for i in ids)


def _check_ends(n: int, a: int, b: int):
    if not (1 <= a <= n and 1 <= b <= n) or a == b:
        raise InvalidDrawing(f"end-vertices {a}, {b} must be distinct vertices of 1..{n}")


def _check_walk(path, a: int, b: int, n: int):
    if sorted(path) != list(range(1, n + 1)):
        raise InternalAssertion(f"path is not Hamiltonian: {path}")
    if path[0] != a or path[-1] != b:
        raise InternalAssertion(f"path has wrong end-vertices: {path}")


def _check_path(cs: CrossingSet, path, a: int, b: int, n: int):
    _check_walk(path, a, b, n)
    if not is_crossing_free(cs, path):
        raise InternalAssertion(f"path has a crossing: {path}")


# ============================================================
# X-monotone drawings
# ============================================================

def _xmono_rec(vs, a: int, b: int, side):
    """Crossing-free Hamiltonian path from a to b on the vertices vs.

    vs lists a vertex subset of one drawing in its sweep order, and the
    sub-drawing it induces is x-monotone in that order.  side(e, v) reads the
    side of an interior vertex v relative to the edge e of the whole drawing;
    that side is the same in every induced sub-drawing, and only sides of one
    edge are ever compared.  The recursion splits at the sides of the edge
    between the first and last vertex and recurses on sub-lists of vs, in the
    original labels, so no sub-drawing is ever built.
    """
    n = len(vs)
    if n <= 2:
        return [a, b][:n]
    first, last = vs[0], vs[-1]
    if {a, b} == {first, last}:
        return list(vs) if a == first else vs[::-1]
    if n == 3:
        return [a, next(v for v in vs if v not in (a, b)), b]
    inner = vs[1:-1]
    e = _sorted_pair(first, last)
    sides = {v: side(e, v) for v in inner}

    if a not in (first, last) and b not in (first, last) and sides[a] != sides[b]:
        # end-vertices on different sides of {v_1, v_n}: split, join by that edge
        p1 = _xmono_rec([first] + [v for v in inner if sides[v] == sides[a]], a, first, side)
        p2 = _xmono_rec([v for v in inner if sides[v] == sides[b]] + [last], last, b, side)
        return p1 + p2

    # same side (an end at v_1 or v_n counts as either side)
    pos = {v: i for i, v in enumerate(vs)}
    if a in (first, last) or b in (first, last):
        p, q = (a, b) if b in (first, last) else (b, a)
        rightward = q == last
    else:
        p, q = (a, b) if pos[a] < pos[b] else (b, a)
        rightward = True
    group = [v for v in inner if sides[v] == sides[p]]
    other = [first] + [v for v in inner if sides[v] != sides[p]] + [last]
    if rightward:
        p1 = _xmono_rec([first] + [v for v in group if pos[v] < pos[q]], p, first, side)
        p2 = _xmono_rec(other, first, last, side)
        p3 = _xmono_rec([v for v in group if pos[v] >= pos[q]] + [last], last, q, side)
    else:
        p1 = _xmono_rec([v for v in group if pos[v] > pos[q]] + [last], p, last, side)
        p2 = _xmono_rec(other, last, first, side)
        p3 = _xmono_rec([first] + [v for v in group if pos[v] <= pos[q]], first, q, side)
    path = p1 + p2[1:] + p3[1:]
    return path if path[0] == a else path[::-1]


def path_x_monotone(lw: LinearWiring, a: int, b: int):
    """Crossing-free Hamiltonian path from a to b in an x-monotone wiring of
    the complete graph."""
    _check_ends(lw.n, a, b)
    circ._require_complete(lw)
    side = w.side_reader(lw._columns, lw.vertex_pos)
    path = _xmono_rec(list(range(1, lw.n + 1)), a, b, side)
    _check_path(w.crossing_set(lw), path, a, b, lw.n)
    return path


# ============================================================
# Strongly c-monotone drawings
# ============================================================

def path_strong_c_mon(cw: CircularWiring, a: int, b: int):
    """Crossing-free Hamiltonian path from a to b in a strongly c-monotone
    circular wiring of the complete graph."""
    _check_ends(cw.n, a, b)
    if not circ.is_strongly_c_monotone(cw):
        raise NotStronglyCMonotone("input wiring fails the star cover check")
    cs = circ.crossing_set(cw)
    n = cw.n
    if n == 2:
        return [a, b]

    ring = list(cw.ring)
    idx = {v: i for i, v in enumerate(ring)}
    side = w.side_reader(cw._columns, cw.vertex_pos)

    flags = circ.gap_edges(cw)
    escaped = [e for e, inside in flags if not inside]
    if escaped:
        # some gap edge spans the rest of the circle: the whole drawing lives
        # in its wedge and is x-monotone in the sweep order from its start
        p, _ = circ.wedge(cw, escaped[0])
        path = _xmono_rec(ring[p:] + ring[:p], a, b, side)
        _check_path(cs, path, a, b, n)
        return path

    if (idx[a] - idx[b]) % n in (1, n - 1):
        # circular neighbors: take the gap-edge path the long way around
        step = 1 if (idx[a] + 1) % n == idx[b] else -1
        path = [ring[(idx[a] - step * k) % n] for k in range(n)]
        _check_path(cs, path, a, b, n)
        return path

    swapped = False
    for _ in range(2):
        a_next = ring[(idx[a] + 1) % n]
        b_next = ring[(idx[b] + 1) % n]
        start, steps = circ.wedge(cw, _sorted_pair(a_next, b_next))
        if (idx[a] - start) % n <= steps:
            break
        a, b = b, a
        swapped = True
    else:
        raise InternalAssertion("wedge of the predecessor edge contains neither end")

    # the vertices inside the wedge induce an x-monotone drawing in their
    # order along the wedge
    inside = [ring[(start + k) % n] for k in range(steps + 1)]
    path = _xmono_rec(inside, a, a_next, side)
    k = (idx[a_next] + 1) % n
    while ring[(k - 1) % n] != b:
        path.append(ring[k])
        k = (k + 1) % n
    if swapped:
        path = path[::-1]
        a, b = b, a
    _check_path(cs, path, a, b, n)
    return path


# ============================================================
# Cylindrical drawings
# ============================================================

def _cw_ring(cd: CylindricalDrawing, which: str, start: int) -> list:
    """Vertices of one circle in clockwise order from `start`."""
    ring = cd.ring(which)[::-1]
    k = ring.index(start)
    return ring[k:] + ring[:k]


def _first_crossed(vs, cs: CrossingSet):
    """Index j of the first crossed edge {vs[j], vs[j + 1]} along vs, or
    None."""
    eid, masks = edge_numbering(cs.n)[1], cs.masks
    return next((j for j in range(len(vs) - 1) if masks[eid[vs[j]][vs[j + 1]]]), None)


def _rim_walk(cd: CylindricalDrawing, which: str, start: int, cs: CrossingSet):
    """Clockwise rim walk from `start`; at a crossed rim edge it takes the
    chord to the last vertex and comes back counter-clockwise."""
    c = _cw_ring(cd, which, start)
    j = _first_crossed(c, cs)
    return c if j is None else c[: j + 1] + c[:j:-1]


def path_cylindrical(cd: CylindricalDrawing, a: int, b: int):
    """Crossing-free Hamiltonian path from a to b in a cylindrical drawing of
    the complete graph."""
    _check_ends(cd.n, a, b)
    circ._require_complete(cd)
    cs = cyl.crossing_set(cd)
    n = cd.n
    cyl.uncrossed_rim_edges(cd)  # rejects a circle with two crossed rim edges

    if not cd.inner or not cd.outer:
        path = _one_circle_path(cd, a, b)
        _check_path(cs, path, a, b, n)
        return path

    ca, cb = cd.circle_of(a), cd.circle_of(b)
    if ca != cb:
        p1 = _rim_walk(cd, ca, a, cs)
        p2 = _rim_walk(cd, cb, b, cs)
        path = p1 + p2[::-1]
        _check_path(cs, path, a, b, n)
        return path

    path = _same_circle_path(cd, a, b, cs)
    _check_path(cs, path, a, b, n)
    return path


def _one_circle_path(cd: CylindricalDrawing, a: int, b: int):
    """All vertices on one circle: the drawing is a 2-page book drawing along
    the circle, its faces the pages.  Every vertex between the ends of an edge
    lies on the spine, on the same side of it, so the edge's page serves as
    the side."""
    spine = cd.ring("outer" if cd.outer else "inner")
    return _xmono_rec(spine, a, b, lambda e, v: cd.circle_edge(e).face)


def _same_circle_path(cd: CylindricalDrawing, a, b, cs):
    which = cd.circle_of(a)
    other = "inner" if which == "outer" else "outer"

    # rim path across the whole other circle, skipping its crossed rim edge
    ring2 = cd.ring(other)
    j = _first_crossed(ring2, cs)
    p2 = ring2 if j is None else ring2[j + 1 :] + ring2[: j + 1]

    eid, masks = edge_numbering(cd.n)[1], cs.masks
    reversed_out = False
    for _ in range(2):
        c = _cw_ring(cd, which, a)
        t = c.index(b)
        f1 = _first_crossed(c, cs)
        if f1 is not None and f1 >= t or masks[eid[c[-1]][c[0]]]:
            a, b = b, a
            reversed_out = True
            continue
        break
    else:
        raise InternalAssertion("crossed rim edge cannot be oriented between the ends")

    # p1 runs clockwise from a up to the crossed rim edge, p3 clockwise from
    # b round to a's predecessor, then back from b's to that edge
    if f1 is None:
        f1 = t - 1
    p1 = c[: f1 + 1]
    p3 = c[t:] + c[t - 1 : f1 : -1]

    u1 = p1[-1]
    u3 = p3[-1]
    # two ways to stitch the rim pieces through the other circle; at least one
    # pair of lateral edges is non-crossing, ties go to the smaller pair
    valid = []
    for mid in (p2, p2[::-1]):
        e = _sorted_pair(u1, mid[0])
        e2 = _sorted_pair(mid[-1], u3)
        if not masks[eid[u1][mid[0]]] >> eid[mid[-1]][u3] & 1:
            valid.append((tuple(sorted((e, e2))), p1 + mid + p3[::-1]))
    if not valid:
        raise InternalAssertion("both lateral stitch choices cross")
    valid.sort()
    path = valid[0][1]
    return path[::-1] if reversed_out else path


# ============================================================
# Twisted drawings
# ============================================================

def _zigzag(lo: int, n: int, s: int) -> list:
    """Vertices lo..n from s, one of lo and lo + 1: up in steps of two, then
    down the other parity to the other one.  No step spans more than two."""
    t = 2 * lo + 1 - s
    return [*range(s, n + 1, 2), *range(n - (n - t) % 2, lo - 1, -2)]


def _twisted_path(n: int, a: int, b: int) -> list:
    if a > b:
        return _twisted_path(n, b, a)[::-1]
    if b > a + 1 or a == 1 or b == n:
        left = [a + 1 - v for v in _zigzag(1, a, 1)]
        return left + list(range(a + 1, b)) + _zigzag(b, n, min(b + 1, n))
    if 2 * a - 1 > n:
        return [n + 1 - v for v in _twisted_path(n, n - a, n + 1 - a)[::-1]]
    pairs = [v for j in range(2, a) for v in (j, j + a)]
    return [a, 1, *pairs, *_zigzag(2 * a, n, 2 * a + (a > 2)), a + 1]


def path_twisted(n: int, a: int, b: int):
    """Crossing-free Hamiltonian path from a to b in the twisted drawing T_n,
    where two edges cross iff they nest (a < c < d < b).  Built in O(n) for
    a < b (the path for b < a is the reversed path for a < b):

    - Unless a = i and b = i + 1 with 2 <= i <= n - 2: a, a - 2, ... down to
      1 or 2, the other parity up to a - 1, then a + 1, ..., b - 1, then
      b + 1, b + 3, ... up to n or n - 1 and the other parity down to b.  No
      edge spans more than two, and the outer edge of a nested pair spans at
      least three.
    - (i, i + 1) with 2i - 1 <= n: i, 1, then j, j + i for j = 2..i - 1, the
      rest of 2i..n zigzagged as above from 2i + 1 down to 2i (for i = 2
      from 4 down to 5), then i + 1.  Sorted by left end, its edges' right
      ends never decrease, so none nests inside another.
    - (i, i + 1) with 2i - 1 > n: the path for (n - i, n + 1 - i) mirrored
      by v -> n + 1 - v and reversed; the mirror maps T_n onto itself.

    The result is checked against the nested rule, not a crossing set.
    """
    _check_ends(n, a, b)
    path = _twisted_path(n, a, b)
    _check_walk(path, a, b, n)
    edges = [_sorted_pair(u, v) for u, v in zip(path, path[1:])]
    if any(p < q and r < s for p, s in edges if s - p > 2 for q, r in edges):
        raise InternalAssertion(f"path has a nested pair of edges: {path}")
    return path


# ============================================================
# Cycles and the apex duplication
# ============================================================

def cycle_via_uncrossed(cs: CrossingSet, uncrossed, path_fn):
    """Close a crossing-free Hamiltonian path over a completely uncrossed edge
    into a crossing-free Hamiltonian cycle.

    Returns the cycle as a vertex list without repeating the first vertex.
    """
    a, b = e = _sorted_pair(*uncrossed)
    if not 1 <= a < b <= cs.n:
        raise InvalidDrawing(f"{uncrossed} is not an edge of K_{cs.n}")
    if cs.masks[edge_numbering(cs.n)[1][a][b]]:
        raise EdgeIsCrossed(f"edge {e} has crossings")
    path = path_fn(a, b)
    _check_path(cs, path, a, b, cs.n)
    if not is_crossing_free(cs, path + path[:1]):
        raise InternalAssertion("closing edge introduced a crossing")
    return path


def duplicate_apex(cs: CrossingSet, rotation_of_vn) -> CrossingSet:
    """Duplicate the last vertex next to itself.

    rotation_of_vn lists v_1..v_{n-1} in clockwise order around v_n; vertices
    are relabeled so that this rotation is the identity, then the new vertex
    v_{n+1} is inserted so that the edge {v_{n+1}, v_i} crosses all edges
    {v_n, v_j} with i < j < n plus everything {v_n, v_i} crosses, and
    {v_n, v_{n+1}} is completely uncrossed.  The result is returned in the
    relabeled frame.
    """
    n = cs.n
    rotation = list(rotation_of_vn)
    if sorted(rotation) != list(range(1, n)):
        raise BadRotation(f"rotation must list 1..{n - 1}")
    perm = {v: i + 1 for i, v in enumerate(rotation)}
    perm[n] = n
    base = relabel_crossing_set(cs, perm)
    edges, eid = edge_numbering(n)
    pairs = list(base.pairs)
    for i in range(1, n):
        spoke = base.masks[eid[i][n]]
        pairs += (((i, n + 1), (j, n)) for j in range(i + 1, n))
        pairs += (((i, n + 1), f) for k, f in enumerate(edges) if spoke >> k & 1)
    return CrossingSet(n + 1, pairs)
