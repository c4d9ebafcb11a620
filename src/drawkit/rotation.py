"""Rotation systems of complete graphs and their crossing sets.

A rotation system records, for every vertex, the clockwise circular order of
the other vertices.  For simple drawings of K_n this data determines which
pairs of independent edges cross: every 4-subset of vertices induces a
4-vertex subsystem, and each drawable 4-vertex subsystem either has no
crossing or one specific crossing pair.  The lookup table for the 4-vertex
subsystems is built once from exact straight-line reference drawings (a
convex parabola configuration for the crossing class, a triangle with an
interior point for the planar class), closed under relabeling and mirroring.
A crossing set is read off it by four orientation bits per 4-subset, one per
member's rotation on the other three.

A crossing set stores, per edge of the edge numbering `edge_numbering(n)`,
the int mask of the edges it crosses: `CrossingSet.masks`, written by the
one validating pass of its constructor and read by every consumer.  Its
pairs are a view, built on first use for serialization and canonical forms.

Two crossing sets describe the same drawing class exactly when they agree up
to a relabeling of vertices, so equality of canonical forms (lexicographic
minimum over all relabelings) decides weak isomorphism.  Enumeration drops a
duplicate rotation system by one key, its least relabeling under relabeling
and reflection, and canonicalizes the crossing set of each new key only.
Its K4 and K5 prunes read orientation bits too, building no subsystem.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, permutations, product

from drawkit import _geom
from drawkit.errors import (
    InvalidDrawing,
    SubsetTooSmall,
    TooLarge,
    UnrealizableQuadruple,
)

Edge = tuple[int, int]
Pair = tuple[Edge, Edge]


def size_cap(default: int) -> int:
    """Size cap for expensive searches; DRAWKIT_MAX_N overrides every cap."""
    env = os.environ.get("DRAWKIT_MAX_N")
    if env:
        return int(env)
    return default


def _norm_cycle(seq) -> tuple[int, ...]:
    """Rotate a cyclic sequence so its smallest element comes first."""
    seq = tuple(seq)
    k = seq.index(min(seq))
    return seq[k:] + seq[:k]


def _require_ints(what: str, *groups) -> None:
    """Raise InvalidDrawing unless every value of the groups, each a
    sequence, is an int; a bool, float or Fraction is not, even if equal to
    one."""
    if set(map(type, chain(*groups))) - {int}:
        bad = next(x for x in chain(*groups) if type(x) is not int)
        raise InvalidDrawing(f"{bad!r} in the {what} is not an integer")


@dataclass(frozen=True)
class RotationSystem:
    """Per-vertex clockwise circular orders of the other vertices (1-based)."""

    n: int
    rotations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _require_ints("rotation system", (self.n,), *self.rotations)
        if self.n < 3:
            raise InvalidDrawing(f"rotation system needs n >= 3, got {self.n}")
        if len(self.rotations) != self.n:
            raise InvalidDrawing("one rotation per vertex required")
        norm = []
        for v, rot in enumerate(self.rotations, start=1):
            if sorted(rot) != [u for u in range(1, self.n + 1) if u != v]:
                raise InvalidDrawing(f"rotation of v{v} is not a cycle of the other vertices")
            norm.append(_norm_cycle(rot))
        object.__setattr__(self, "rotations", tuple(norm))

    def rotation_of(self, v: int) -> tuple[int, ...]:
        return self.rotations[v - 1]


def _sorted_pair(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def _norm_crossing(e: Edge, f: Edge) -> Pair:
    return (e, f) if e < f else (f, e)


MAX_VERTICES = 1024  # the largest n of an edge numbering; its tables then take about 67 MB


@lru_cache(maxsize=16)
def edge_numbering(n: int):
    """`(edges, eid)`: the edges of K_n in `combinations` order, and
    `eid[u][v]` the index of edge {u, v} in either order.  Row 0 and the
    diagonal read 0, so pass only edges of K_n."""
    if n > MAX_VERTICES:
        raise InvalidDrawing(f"n = {n} is above the limit of {MAX_VERTICES} vertices")
    edges = tuple(combinations(range(1, n + 1), 2))
    eid = [[0] * (n + 1) for _ in range(n + 1)]
    for i, (u, v) in enumerate(edges):
        eid[u][v] = eid[v][u] = i
    return edges, tuple(map(tuple, eid))


@dataclass(frozen=True, init=False)
class CrossingSet:
    """Set of unordered pairs of independent edges that cross, given in any
    order and orientation, repeats allowed, and checked in one pass that
    writes `masks`: `masks[i]` is the int mask of the edges that edge i of
    `edge_numbering(n)` crosses, so edge i is uncrossed iff `masks[i] == 0`."""

    n: int
    masks: tuple[int, ...]

    def __init__(self, n: int, pairs):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InvalidDrawing(f"crossing set needs an integer n >= 1, got {n!r}")
        eid = edge_numbering(n)[1]
        masks = [0] * (n * (n - 1) // 2)
        conflicts = []
        for (a, b), (c, d) in pairs:
            if not (type(a) is int and type(b) is int and type(c) is int and type(d) is int):
                _require_ints("crossing set", (a, b, c, d))
            if a == b or c == d:
                raise InvalidDrawing(f"a loop is not an edge: {(a, b)}, {(c, d)}")
            if a == c or a == d or b == c or b == d:
                raise InvalidDrawing(f"incident edges cannot cross: {(a, b)}, {(c, d)}")
            if not (0 < a <= n and 0 < b <= n and 0 < c <= n and 0 < d <= n):
                v = next(v for v in (a, b, c, d) if not 1 <= v <= n)
                raise InvalidDrawing(f"vertex {v} out of range 1..{n}")
            # a pair written earlier on the quad's other two pairings
            if masks[eid[a][c]] >> eid[b][d] & 1 or masks[eid[a][d]] >> eid[b][c] & 1:
                conflicts.append(sorted((a, b, c, d)))
            i, j = eid[a][b], eid[c][d]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        if conflicts:  # every such 4-subset is met, so the least is named in any input order
            raise InvalidDrawing(f"two crossings on the same 4-subset {min(conflicts)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", tuple(masks))

    @cached_property
    def pairs(self) -> frozenset:
        """The crossings as sorted pairs of sorted edges.  Built on first use
        and kept on the instance, outside the fields."""
        edges = edge_numbering(self.n)[0]
        out = []
        for i, mask in enumerate(self.masks):
            mask >>= i  # the partners above edge i; bit 0, edge i itself, is never set
            while mask:
                out.append((edges[i], edges[i + (mask & -mask).bit_length() - 1]))
                mask &= mask - 1
        return frozenset(out)

    def encode(self) -> tuple[Pair, ...]:
        """Fixed encoding: pairs sorted, each pair sorted, edges sorted."""
        return tuple(sorted(self.pairs))

    def __len__(self):
        return sum(mask.bit_count() for mask in self.masks) // 2

    def __contains__(self, pair):
        (a, b), (c, d) = pair
        if a == b or c == d or not all(type(v) is int and 0 < v <= self.n for v in (a, b, c, d)):
            return False
        eid = edge_numbering(self.n)[1]
        return bool(self.masks[eid[a][b]] >> eid[c][d] & 1)


def relabel_crossing_set(cs: CrossingSet, perm) -> CrossingSet:
    """Apply a vertex relabeling; `perm` maps old label -> new label (dict or
    sequence indexed by old-1)."""
    p = perm if isinstance(perm, dict) else {i + 1: v for i, v in enumerate(perm)}
    return CrossingSet(cs.n, [((p[a], p[b]), (p[c], p[d])) for (a, b), (c, d) in cs.pairs])


# ============================================================
# The K4 class table
# ============================================================

_PARABOLA4 = [(x, x * x) for x in (1, 2, 3, 4)]
_TRIANGLE4 = [(0, 0), (6, 1), (3, 7), (4, 3)]


def _rotation_key_from_points(pts: dict) -> tuple[tuple[int, ...], ...]:
    key = []
    for v in sorted(pts):
        others = [(u, pts[u]) for u in sorted(pts) if u != v]
        key.append(_norm_cycle(_geom.clockwise_order(pts[v], others)))
    return tuple(key)


def _crossing_from_points(pts: dict):
    labels = sorted(pts)
    found = None
    for (a, b), (c, d) in combinations(combinations(labels, 2), 2):
        if len({a, b, c, d}) < 4:
            continue
        if _geom.segments_cross(pts[a], pts[b], pts[c], pts[d]):
            if found is not None:
                raise InvalidDrawing("reference K4 drawing with two crossings")
            found = _norm_crossing((a, b), (c, d))
    return found


def _build_k4_table() -> dict:
    table = {}
    for base in (_PARABOLA4, _TRIANGLE4):
        for mirror in (1, -1):
            mirrored = [(x, mirror * y) for x, y in base]
            for perm in permutations(range(1, 5)):
                pts = {perm[i]: mirrored[i] for i in range(4)}
                key = _rotation_key_from_points(pts)
                crossing = _crossing_from_points(pts)
                prev = table.setdefault(key, crossing)
                if prev != crossing:
                    raise InvalidDrawing("inconsistent K4 table entry")
    return table


# canonical 4-vertex rotation systems -> crossing pair or None
_K4_TABLE = _build_k4_table()


def _restrict_one(rotation: tuple, subset: tuple, v: int):
    """Vertex v's rotation filtered to `subset`, relabeled by subset position,
    rotated to start at the smallest remaining member."""
    members = set(subset)
    filtered = [u for u in rotation if u in members and u != v]
    smallest = subset[0] if subset[0] != v else subset[1]
    k = filtered.index(smallest)
    pos = {u: i + 1 for i, u in enumerate(subset)}
    return tuple(pos[u] for u in filtered[k:] + filtered[:k])


def _restricted_key(rotations, subset: tuple):
    """Induced subsystem key on `subset`, relabeled 1..k preserving order."""
    return tuple(_restrict_one(rotations[v - 1], subset, v) for v in subset)


def induced_subsystem(rs: RotationSystem, subset) -> RotationSystem:
    """Rotations restricted to `subset`, relabeled 1..|subset| preserving order."""
    subset = tuple(sorted(set(subset)))
    if len(subset) < 3:
        raise SubsetTooSmall(f"need at least 3 vertices, got {len(subset)}")
    if subset[0] < 1 or subset[-1] > rs.n:
        raise InvalidDrawing("subset outside vertex range")
    key = _restricted_key(rs.rotations, subset)
    return RotationSystem(len(subset), key)


def _k4_by_orientation() -> list:
    """`_K4_TABLE` indexed by four orientation bits, bit k set when the k-th
    member of a sorted 4-subset sees the other three in descending cyclic
    order; False marks an unrealizable subsystem."""
    others = [tuple(u for u in range(1, 5) if u != v) for v in range(1, 5)]
    return [
        _K4_TABLE.get(tuple((x, z, y) if bits >> k & 1 else (x, y, z)
                            for k, (x, y, z) in enumerate(others)), False)
        for bits in range(16)
    ]


_K4_BY_ORIENTATION = _k4_by_orientation()


def _descending(a: int, b: int, c: int) -> int:
    """1 iff positions a, b, c of three vertices run against the rotation."""
    return (a < b) ^ (b < c) ^ (c < a)


def _k4_class(pos, subset):
    """The `_K4_TABLE` entry of a sorted 4-subset, read from the orientation
    of each member's rotation on the other three; `pos[v][u]` is u's index
    in v's rotation."""
    p, q, r, s = subset
    P, Q, R, S = pos[p], pos[q], pos[r], pos[s]
    return _K4_BY_ORIENTATION[
        _descending(P[q], P[r], P[s]) | _descending(Q[p], Q[r], Q[s]) << 1
        | _descending(R[p], R[q], R[s]) << 2 | _descending(S[p], S[q], S[r]) << 3
    ]


def _positions(rotations) -> list:
    """`pos[v][u]`: u's index in v's rotation; `pos[0]` is None."""
    return [None, *({u: i for i, u in enumerate(rot)} for rot in rotations)]


def _pairs_from_rotations(n: int, rotations):
    pos = _positions(rotations)
    pairs = set()
    for subset in combinations(range(1, n + 1), 4):
        hit = _k4_class(pos, subset)
        if hit is False:
            raise UnrealizableQuadruple(subset)
        if hit is not None:
            (a, b), (c, d) = hit
            e = _sorted_pair(subset[a - 1], subset[b - 1])
            f = _sorted_pair(subset[c - 1], subset[d - 1])
            pairs.add(_norm_crossing(e, f))
    return pairs


def crossings_from_rotation(rs: RotationSystem) -> CrossingSet:
    """Union over all 4-subsets of the table's crossing pair, if any."""
    return CrossingSet(rs.n, _pairs_from_rotations(rs.n, rs.rotations))


# ============================================================
# Canonical forms (weak isomorphism)
# ============================================================

def _canonical_encoding(n: int, pairs) -> tuple:
    pairs = tuple(pairs)
    if not pairs:
        return ()
    best = None
    for perm in permutations(range(1, n + 1)):
        mapped = []
        for (a, b), (c, d) in pairs:
            e = _sorted_pair(perm[a - 1], perm[b - 1])
            f = _sorted_pair(perm[c - 1], perm[d - 1])
            mapped.append((e, f) if e < f else (f, e))
        mapped.sort()
        t = tuple(mapped)
        if best is None or t < best:
            best = t
    return best


def _rotation_key(rotations) -> tuple[tuple[int, ...], ...]:
    """Least relabeling of a rotation system under relabeling and reflection.

    A start vertex s, its first neighbour t and an orientation fix a
    relabeling: s becomes 1, and s's rotation read from t becomes 2..n
    (Kynčl, "Enumeration of simple complete topological graphs", 2009).  Each
    of these 2·n·(n - 1) candidates gives vertex 1 the least rotation
    (2, ..., n), so their least is the least over all relabelings and
    reflections.  The other rows all start at 1 and are compared from their
    second entry, in label order: a candidate stops at its first row above
    the best, and is dropped before its relabeling is built when t's row
    starts too high.
    """
    n = len(rotations)
    best = [(n + 1,)]  # above every row
    for ring in (rotations, [r[::-1] for r in rotations]):
        doubled = [r + r for r in ring]
        for s in range(1, n + 1):
            # tails[u]: u's rotation after s, in the ring's orientation
            tails = [None] * (n + 1)
            for u in range(1, n + 1):
                if u != s:
                    p = ring[u - 1].index(s)
                    tails[u] = doubled[u - 1][p + 1:p + n - 1]
            around = doubled[s - 1]
            for i in range(n - 1):
                order = around[i:i + n - 1]
                # t's row starts with the label of the vertex after s in t's rotation
                if around.index(tails[order[0]][0], i) - i + 2 > best[0][0]:
                    continue
                label = [0] * (n + 1)
                label[s] = 1
                for j, u in enumerate(order, 2):
                    label[u] = j
                relabel = label.__getitem__
                for k, u in enumerate(order):
                    row = tuple(map(relabel, tails[u]))
                    if row != best[k]:
                        if row < best[k]:
                            rest = order[k + 1:]
                            best[k:] = [row] + [tuple(map(relabel, tails[v])) for v in rest]
                        break
    return (tuple(range(2, n + 1)),) + tuple((1,) + row for row in best)


def canonical_crossing_form(cs: CrossingSet) -> CrossingSet:
    """Lexicographically minimal relabeling of the crossing set.

    Two crossing sets are weakly isomorphic iff their canonical forms are
    equal.  Factorial search; capped at n <= 9 by default.
    """
    cap = size_cap(9)
    if cs.n > cap:
        raise TooLarge(cs.n, cap)
    return CrossingSet(cs.n, _canonical_encoding(cs.n, cs.pairs))


# ============================================================
# The five drawable K5 classes, derived from the K4 table
# ============================================================

def _cyclic_orders(items):
    items = sorted(items)
    head, rest = items[0], items[1:]
    for tail in permutations(rest):
        yield (head,) + tail


def linked_rule_pairs(n: int) -> frozenset:
    """Crossings of the convex drawing: two edges cross iff they are linked
    (a < c < b < d) in the vertex order."""
    out = set()
    for a, c, b, d in combinations(range(1, n + 1), 4):
        out.add(_norm_crossing((a, b), (c, d)))
    return frozenset(out)


def nested_rule_pairs(n: int) -> frozenset:
    """Crossings of the twisted drawing: two edges cross iff they are nested
    (a < c < d < b) in the vertex order."""
    out = set()
    for a, c, d, b in combinations(range(1, n + 1), 4):
        out.add(_norm_crossing((a, b), (c, d)))
    return frozenset(out)


@lru_cache(maxsize=None)
def _k5_tables():
    """Drawable labeled 5-vertex subsystem keys, their class forms and the
    keys' `_k5_index` values; built on first use, not at import.

    Candidates are the 5-vertex rotation systems whose 4-subsystems are all in
    the K4 table.  That necessary condition leaves two impostors: both are
    crossing maximal (a crossing on every 4-subset), and the only crossing
    maximal drawings of K_5 are the convex and the twisted one, so candidates
    with five crossings are kept only when they match one of those two forms.
    Exactly five classes remain.  Candidates with one rotation key share one
    form, which is computed once.
    """
    convex5 = _canonical_encoding(5, linked_rule_pairs(5))
    twisted5 = _canonical_encoding(5, nested_rule_pairs(5))
    form_of = {}
    keys = set()
    forms = set()
    for rotations in product(*(_cyclic_orders(set(range(1, 6)) - {v}) for v in range(1, 6))):
        try:
            pairs = _pairs_from_rotations(5, rotations)
        except UnrealizableQuadruple:
            continue
        key = _rotation_key(rotations)
        if key not in form_of:
            form_of[key] = _canonical_encoding(5, pairs)
        form = form_of[key]
        if len(form) == 5 and form not in (convex5, twisted5):
            continue
        keys.add(rotations)
        forms.add(form)
    if len(forms) != 5:
        raise InvalidDrawing(f"K5 class derivation produced {len(forms)} classes")
    by_orientation = frozenset(_k5_index(_positions(key), range(1, 6)) for key in keys)
    return frozenset(keys), frozenset(forms), by_orientation


def k5_reference_forms() -> frozenset:
    """Canonical encodings of the five weak-isomorphism classes of K5."""
    return _k5_tables()[1]


def _k5_index(pos, subset) -> int:
    """Fifteen orientation bits of a sorted 5-subset, three per member: one
    for each triple of the other four that holds the smallest of them.  They
    fix the induced subsystem; `pos` is as in `_k4_class`."""
    index = 0
    for v in subset:
        P = pos[v]
        x, a, b, c = (P[u] for u in subset if u != v)
        index = (index << 3 | _descending(x, a, b) << 2 | _descending(x, a, c) << 1
                 | _descending(x, b, c))
    return index


def _fits_at(pos, k: int) -> bool:
    """Whether every 4-subset of 1..k with largest vertex k induces a K4 table
    entry and every such 5-subset one of the K5 keys, read from `pos`."""
    for rest in combinations(range(1, k), 3):
        if _k4_class(pos, rest + (k,)) is False:
            return False
    k5 = _k5_tables()[2] if k > 4 else ()
    for rest in combinations(range(1, k), 4):
        if _k5_index(pos, rest + (k,)) not in k5:
            return False
    return True


def realizability_filter(rs: RotationSystem) -> bool:
    """Necessary condition for drawability: every 4-subsystem is in the K4
    table and every 5-subsystem matches one of the five K5 reference classes.

    Sufficiency for n >= 6 is not claimed; see `enumerate_realizable`.
    """
    if rs.n < 5:
        raise InvalidDrawing("realizability_filter needs n >= 5")
    pos = _positions(rs.rotations)
    return all(_fits_at(pos, k) for k in range(4, rs.n + 1))


# ============================================================
# Enumeration of drawable classes at small n
# ============================================================

def _dfs_assign(n: int, rotations: list, pos: list, k: int, out: dict, seen: set):
    """Extend rotations[0..k-2] with a rotation for vertex k, prune, recurse;
    `pos` is `_positions(rotations)`, extended and shortened in step.

    A leaf whose rotation key is already in `seen` is a relabeling or a
    reflection of an earlier leaf, so it has that leaf's crossing form.
    """
    if k > n:
        key = _rotation_key(rotations)
        if key not in seen:
            seen.add(key)
            form = _canonical_encoding(n, _pairs_from_rotations(n, rotations))
            out.setdefault(form, tuple(rotations))
        return
    for rot in _cyclic_orders([u for u in range(1, n + 1) if u != k]):
        rotations.append(rot)
        pos.append({u: i for i, u in enumerate(rot)})
        if _fits_at(pos, k):
            _dfs_assign(n, rotations, pos, k + 1, out, seen)
        rotations.pop()
        pos.pop()


def _enumerate_classes(n: int, first_rotation=None) -> dict:
    """Map canonical encoding -> witness rotations, for drawable classes.

    Vertex 1's rotation is fixed to the identity cycle (every class has such a
    representative), optionally restricted further to a fixed rotation of
    vertex 2 for prefix-partitioned parallel runs.
    """
    out: dict = {}
    rotations = [tuple(range(2, n + 1))]
    if first_rotation is not None:
        rotations.append(tuple(first_rotation))
    _dfs_assign(n, rotations, _positions(rotations), len(rotations) + 1, out, set())
    return out


def _enumerate_worker(args):
    n, rot2 = args
    return _enumerate_classes(n, first_rotation=rot2)


def enumerate_realizable(n: int, jobs: int = 1, with_witness: bool = False):
    """Yield each weak-isomorphism class passing the drawability filter once.

    Sequential runs have a deterministic order; parallel runs guarantee set
    equality with the sequential output.  For n <= 5 the filter is exact; for
    larger n unmatched-but-filtered systems cannot be ruled out, so callers
    must treat the output as a superset of the drawable classes.
    """
    cap = size_cap(7)
    if n > cap:
        raise TooLarge(n, cap)
    if n < 3:
        raise InvalidDrawing("enumeration needs n >= 3")
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        tasks = [(n, rot) for rot in _cyclic_orders([u for u in range(1, n + 1) if u != 2])]
        classes: dict = {}
        # the pool starts all its workers at the first submit: none beyond
        # the (n-2)! prefix tasks
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            for part in pool.map(_enumerate_worker, tasks):
                for form, rots in part.items():
                    classes.setdefault(form, rots)
    else:
        classes = _enumerate_classes(n)

    for form, rots in classes.items():
        cs = CrossingSet(n, form)
        if with_witness:
            yield cs, RotationSystem(n, rots)
        else:
            yield cs
