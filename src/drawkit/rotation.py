"""Rotation systems of complete graphs and their crossing sets.

A rotation system records, for every vertex, the clockwise circular order of
the other vertices.  For simple drawings of K_n this data determines which
pairs of independent edges cross: every 4-subset of vertices induces a
4-vertex subsystem, and each drawable 4-vertex subsystem either has no
crossing or one specific crossing pair.  The lookup table for the 4-vertex
subsystems is built once from exact straight-line reference drawings (a
convex parabola configuration for the crossing class, a triangle with an
interior point for the planar class), closed under relabeling and mirroring.

Two crossing sets describe the same drawing class exactly when they agree up
to a relabeling of vertices, so equality of canonical forms (lexicographic
minimum over all relabelings) decides weak isomorphism.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

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


@dataclass(frozen=True)
class RotationSystem:
    """Per-vertex clockwise circular orders of the other vertices (1-based)."""

    n: int
    rotations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
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


@dataclass(frozen=True)
class CrossingSet:
    """Set of unordered pairs of independent edges that cross."""

    n: int
    pairs: frozenset

    def __post_init__(self):
        seen_quads = {}
        norm = set()
        for e, f in self.pairs:
            e = _sorted_pair(*e)
            f = _sorted_pair(*f)
            if set(e) & set(f):
                raise InvalidDrawing(f"incident edges cannot cross: {e}, {f}")
            for v in (*e, *f):
                if not 1 <= v <= self.n:
                    raise InvalidDrawing(f"vertex {v} out of range 1..{self.n}")
            quad = frozenset(e) | frozenset(f)
            pair = _norm_crossing(e, f)
            if seen_quads.setdefault(quad, pair) != pair:
                raise InvalidDrawing(f"two crossings on the same 4-subset {sorted(quad)}")
            norm.add(pair)
        object.__setattr__(self, "pairs", frozenset(norm))

    def encode(self) -> tuple[Pair, ...]:
        """Fixed encoding: pairs sorted, each pair sorted, edges sorted."""
        return tuple(sorted(self.pairs))

    def __len__(self):
        return len(self.pairs)

    def __contains__(self, pair):
        e, f = pair
        return _norm_crossing(_sorted_pair(*e), _sorted_pair(*f)) in self.pairs


def relabel_crossing_set(cs: CrossingSet, perm) -> CrossingSet:
    """Apply a vertex relabeling; `perm` maps old label -> new label (dict or
    sequence indexed by old-1)."""
    if not isinstance(perm, dict):
        perm = {i + 1: p for i, p in enumerate(perm)}
    out = set()
    for e, f in cs.pairs:
        e2 = _sorted_pair(perm[e[0]], perm[e[1]])
        f2 = _sorted_pair(perm[f[0]], perm[f[1]])
        out.add(_norm_crossing(e2, f2))
    return CrossingSet(cs.n, frozenset(out))


# ============================================================
# The K4 class table
# ============================================================

_PARABOLA4 = [(Fraction(x), Fraction(x * x)) for x in (1, 2, 3, 4)]
_TRIANGLE4 = [
    (Fraction(0), Fraction(0)),
    (Fraction(6), Fraction(1)),
    (Fraction(3), Fraction(7)),
    (Fraction(4), Fraction(3)),
]


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


@lru_cache(maxsize=1 << 18)
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


def _pairs_from_rotations(n: int, rotations):
    pairs = set()
    for subset in combinations(range(1, n + 1), 4):
        key = _restricted_key(rotations, subset)
        if key not in _K4_TABLE:
            raise UnrealizableQuadruple(subset)
        hit = _K4_TABLE[key]
        if hit is not None:
            (a, b), (c, d) = hit
            e = _sorted_pair(subset[a - 1], subset[b - 1])
            f = _sorted_pair(subset[c - 1], subset[d - 1])
            pairs.add(_norm_crossing(e, f))
    return pairs


def crossings_from_rotation(rs: RotationSystem) -> CrossingSet:
    """Union over all 4-subsets of the table's crossing pair, if any."""
    return CrossingSet(rs.n, frozenset(_pairs_from_rotations(rs.n, rs.rotations)))


# ============================================================
# Canonical forms (weak isomorphism)
# ============================================================

@lru_cache(maxsize=4)
def _edge_perm_maps(n: int):
    """Edge-index permutation tables for all vertex relabelings of K_n."""
    edges = tuple(combinations(range(1, n + 1), 2))
    index = {e: i for i, e in enumerate(edges)}
    maps = []
    for perm in permutations(range(1, n + 1)):
        maps.append(
            tuple(index[_sorted_pair(perm[a - 1], perm[b - 1])] for a, b in edges)
        )
    return edges, index, tuple(maps)


def _canonical_encoding(n: int, pairs) -> tuple:
    pairs = tuple(pairs)
    if not pairs:
        return ()
    if n <= 7:
        # hot path for enumeration: walk precomputed edge permutations
        edges, index, maps = _edge_perm_maps(n)
        ip = [(index[e], index[f]) for e, f in pairs]
        best = None
        for m in maps:
            mapped = sorted(
                (m[i], m[j]) if m[i] < m[j] else (m[j], m[i]) for i, j in ip
            )
            if best is None or mapped < best:
                best = mapped
        return tuple((edges[i], edges[j]) for i, j in best)
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


def canonical_crossing_form(cs: CrossingSet) -> CrossingSet:
    """Lexicographically minimal relabeling of the crossing set.

    Two crossing sets are weakly isomorphic iff their canonical forms are
    equal.  Factorial search; capped at n <= 9 by default.
    """
    cap = size_cap(9)
    if cs.n > cap:
        raise TooLarge(cs.n, cap)
    return CrossingSet(cs.n, frozenset(_canonical_encoding(cs.n, cs.pairs)))


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


def _k5_tables():
    """Drawable labeled 5-vertex subsystem keys plus their class forms.

    Candidates are the 5-vertex rotation systems whose 4-subsystems are all in
    the K4 table.  That necessary condition leaves two impostors: both are
    crossing maximal (a crossing on every 4-subset), and the only crossing
    maximal drawings of K_5 are the convex and the twisted one, so candidates
    with five crossings are kept only when they match one of those two forms.
    Exactly five classes remain.
    """
    convex5 = _canonical_encoding(5, linked_rule_pairs(5))
    twisted5 = _canonical_encoding(5, nested_rule_pairs(5))
    keys = set()
    forms = set()
    for r1 in _cyclic_orders([2, 3, 4, 5]):
        for r2 in _cyclic_orders([1, 3, 4, 5]):
            for r3 in _cyclic_orders([1, 2, 4, 5]):
                for r4 in _cyclic_orders([1, 2, 3, 5]):
                    for r5 in _cyclic_orders([1, 2, 3, 4]):
                        rotations = (r1, r2, r3, r4, r5)
                        try:
                            pairs = _pairs_from_rotations(5, rotations)
                        except UnrealizableQuadruple:
                            continue
                        form = _canonical_encoding(5, pairs)
                        if len(pairs) == 5 and form not in (convex5, twisted5):
                            continue
                        keys.add(rotations)
                        forms.add(form)
    if len(forms) != 5:
        raise InvalidDrawing(f"K5 class derivation produced {len(forms)} classes")
    return frozenset(keys), frozenset(forms)


_K5_KEYS, _K5_FORMS = _k5_tables()


def k5_reference_forms() -> frozenset:
    """Canonical encodings of the five weak-isomorphism classes of K5."""
    return _K5_FORMS


def realizability_filter(rs: RotationSystem) -> bool:
    """Necessary condition for drawability: every 4-subsystem is in the K4
    table and every 5-subsystem matches one of the five K5 reference classes.

    Sufficiency for n >= 6 is not claimed; see `enumerate_realizable`.
    """
    if rs.n < 5:
        raise InvalidDrawing("realizability_filter needs n >= 5")
    for subset in combinations(range(1, rs.n + 1), 4):
        if _restricted_key(rs.rotations, subset) not in _K4_TABLE:
            return False
    for subset in combinations(range(1, rs.n + 1), 5):
        if _restricted_key(rs.rotations, subset) not in _K5_KEYS:
            return False
    return True


# ============================================================
# Enumeration of drawable classes at small n
# ============================================================

def _dfs_assign(n: int, rotations: list, k: int, out: dict, seen: set):
    """Extend rotations[0..k-2] with a rotation for vertex k, prune, recurse."""
    if k > n:
        pairs = _pairs_from_rotations(n, rotations)
        enc = tuple(sorted(pairs))
        if enc in seen:
            return
        form = _canonical_encoding(n, pairs)
        out.setdefault(form, tuple(rotations))
        if n <= 6:
            # remember every labeling of the new class so later survivors of
            # the same class skip the factorial canonicalization
            edges, index, maps = _edge_perm_maps(n)
            ip = [(index[e], index[f]) for e, f in pairs]
            for m in maps:
                seen.add(
                    tuple(
                        sorted(
                            ((edges[min(m[i], m[j])], edges[max(m[i], m[j])]))
                            for i, j in ip
                        )
                    )
                )
        else:
            seen.add(enc)
        return
    others = [u for u in range(1, n + 1) if u != k]
    for rot in _cyclic_orders(others):
        rotations.append(rot)
        ok = True
        if k >= 4:
            for rest in combinations(range(1, k), 3):
                subset = tuple(sorted(rest + (k,)))
                if _restricted_key(rotations, subset) not in _K4_TABLE:
                    ok = False
                    break
        if ok and k >= 5:
            for rest in combinations(range(1, k), 4):
                subset = tuple(sorted(rest + (k,)))
                if _restricted_key(rotations, subset) not in _K5_KEYS:
                    ok = False
                    break
        if ok:
            _dfs_assign(n, rotations, k + 1, out, seen)
        rotations.pop()


def _enumerate_classes(n: int, first_rotation=None) -> dict:
    """Map canonical encoding -> witness rotations, for drawable classes.

    Vertex 1's rotation is fixed to the identity cycle (every class has such a
    representative), optionally restricted further to a fixed rotation of
    vertex 2 for prefix-partitioned parallel runs.
    """
    out: dict = {}
    seen: set = set()
    rotations = [tuple(range(2, n + 1))]
    if first_rotation is None:
        _dfs_assign(n, rotations, 2, out, seen)
    else:
        rotations.append(tuple(first_rotation))
        _dfs_assign(n, rotations, 3, out, seen)
    return out


def _enumerate_worker(args):
    n, rot2 = args
    out = _enumerate_classes(n, first_rotation=rot2)
    return {form: rots for form, rots in out.items()}


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
    if n == 3:
        cs = CrossingSet(3, frozenset())
        if with_witness:
            yield cs, RotationSystem(3, ((2, 3), (1, 3), (1, 2)))
        else:
            yield cs
        return

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        tasks = [(n, rot) for rot in _cyclic_orders([u for u in range(1, n + 1) if u != 2])]
        merged: dict = {}
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_enumerate_worker, tasks):
                for form, rots in part.items():
                    merged.setdefault(form, rots)
        classes = merged
    else:
        classes = _enumerate_classes(n)

    for form, rots in classes.items():
        cs = CrossingSet(n, frozenset(form))
        if with_witness:
            yield cs, RotationSystem(n, rots)
        else:
            yield cs
