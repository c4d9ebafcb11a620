"""Brute-force search for crossing-free Hamiltonian paths and cycles, plus
conjecture verification over enumerated drawing classes.

One backtracking search serves the oracle's path and cycle queries and the
twisted path engine's fallback: it extends a path in ascending vertex order
with a bitmask of the edges the path crosses, pruning any partial path whose
newest edge crosses an earlier one.  Every path engine's output is still
validated against the crossing set by `hampath._check_path`, independently of
this search.
"""

from __future__ import annotations

from itertools import combinations

from drawkit.errors import InvalidDrawing, TooLarge
from drawkit.rotation import (
    CrossingSet,
    _sorted_pair,
    enumerate_realizable,
    size_cap,
)

ABSENT = None


def _search(cs: CrossingSet, start: int, end=None, leaf=None, forbidden=()):
    """First crossing-free Hamiltonian path from `start`, extended in
    ascending vertex order, that the leaf test accepts; None when none does.

    `end`, when not None, may only come last.  `leaf(path, free)` decides on
    a finished path (every one is accepted without it); `free(e)` tells
    whether edge e crosses none of the path's edges.  The edges in
    `forbidden` are never used.
    """
    n = cs.n
    index = {e: i for i, e in enumerate(combinations(range(1, n + 1), 2))}
    crosses = [0] * len(index)  # per edge, the mask of the edges it crosses
    for e, f in cs.pairs:
        crosses[index[e]] |= 1 << index[f]
        crosses[index[f]] |= 1 << index[e]
    path = [start]
    visited = {start}

    def rec(crossed):
        if len(path) == n:
            return leaf is None or leaf(path, lambda e: not crossed >> index[e] & 1)
        for v in range(1, n + 1):
            if v in visited or (v == end and len(path) != n - 1):
                continue
            i = index[_sorted_pair(path[-1], v)]
            if crossed >> i & 1:
                continue
            path.append(v)
            visited.add(v)
            if rec(crossed | crosses[i]):
                return True
            path.pop()
            visited.remove(v)
        return False

    return list(path) if rec(sum(1 << index[e] for e in forbidden)) else ABSENT


def find_cf_ham_path(cs: CrossingSet, a: int, b: int):
    """First crossing-free Hamiltonian a-b path in deterministic search order,
    or None when none exists."""
    cap = size_cap(14)
    if cs.n > cap:
        raise TooLarge(cs.n, cap)
    if not (1 <= a <= cs.n and 1 <= b <= cs.n):
        raise InvalidDrawing(f"end-vertices {a}, {b} out of range 1..{cs.n}")
    # b may only come last, so the leaf test matters only when a == b
    return _search(cs, a, b, lambda path, free: path[-1] == b)


def find_cf_ham_cycle(cs: CrossingSet):
    """First crossing-free Hamiltonian cycle (as a vertex list starting at 1,
    the closing edge implied), or None.  Direction symmetry is broken by
    requiring the second vertex to be smaller than the last."""
    cap = size_cap(14)
    if cs.n > cap:
        raise TooLarge(cs.n, cap)
    if cs.n < 3:
        raise InvalidDrawing(f"a Hamiltonian cycle needs n >= 3, got n={cs.n}")

    def closes(path, free):
        return path[1] < path[-1] and free(_sorted_pair(path[-1], 1))

    return _search(cs, 1, None, closes)


def verify_all_pairs(cs: CrossingSet) -> bool:
    """True iff a crossing-free Hamiltonian path exists between every vertex
    pair."""
    return all(
        find_cf_ham_path(cs, a, b) is not ABSENT
        for a, b in combinations(range(1, cs.n + 1), 2)
    )


def verify_drawing(cs: CrossingSet) -> tuple[bool, bool]:
    """Both conjectures on one drawing: whether it has a crossing-free
    Hamiltonian cycle (vacuous below 3 vertices), and whether every vertex
    pair has a crossing-free Hamiltonian path."""
    return cs.n < 3 or find_cf_ham_cycle(cs) is not ABSENT, verify_all_pairs(cs)


def verify_enumeration(n: int, jobs: int = 1) -> dict:
    """Check both conjectures over every enumerated class at size n.

    Since the enumeration filter is only a necessary condition for
    drawability, any failing class is reported as inconclusive (it may simply
    not correspond to a drawing), never as a counterexample.
    """
    classes = 0
    failures = []
    for cs in enumerate_realizable(n, jobs=jobs):
        classes += 1
        cycle_ok, paths_ok = verify_drawing(cs)
        if not cycle_ok or not paths_ok:
            failures.append(
                {
                    "class": [list(map(list, pair)) for pair in cs.encode()],
                    "cycle_ok": cycle_ok,
                    "paths_ok": paths_ok,
                    "note": "inconclusive - possibly not drawable",
                }
            )
    failures.sort(key=str)
    return {
        "n": n,
        "classes": classes,
        "conj1_ok": not any(not f["cycle_ok"] for f in failures),
        "conj2_ok": not any(not f["paths_ok"] for f in failures),
        "failures": failures,
    }
