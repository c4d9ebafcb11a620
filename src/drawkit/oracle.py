"""Brute-force search for crossing-free Hamiltonian paths and cycles, plus
conjecture verification over enumerated drawing classes.

One backtracking kernel, `_search`, serves the oracle and the twisted path
engine.  It runs on tables built once per drawing (`_tables`): edge indices
and, per edge, the bitmask of the edges it crosses.  It walks a bitmask of
the unvisited vertices lowest bit first, so the first crossing-free path it
finds is the lexicographically least.  Every path engine's output is still
validated against the crossing set by `hampath._check_path`, independently
of this search.
"""

from __future__ import annotations

from itertools import combinations

from drawkit.errors import InvalidDrawing, TooLarge
from drawkit.rotation import CrossingSet, enumerate_realizable, size_cap


def _tables(cs: CrossingSet):
    """`(eid, crosses)`: `eid[u][v]` is the index of edge {u, v} (either
    order), and `crosses[i]` the bitmask of the edges that edge i crosses."""
    n = cs.n
    eid = [[0] * (n + 1) for _ in range(n + 1)]
    for i, (u, v) in enumerate(combinations(range(1, n + 1), 2)):
        eid[u][v] = eid[v][u] = i
    crosses = [0] * (n * (n - 1) // 2)
    for (a, b), (c, d) in cs.pairs:
        i, j = eid[a][b], eid[c][d]
        crosses[i] |= 1 << j
        crosses[j] |= 1 << i
    return eid, crosses


def _oracle_tables(cs: CrossingSet):
    """`_tables(cs)`, within the oracle's size cap."""
    cap = size_cap(14)
    if cs.n > cap:
        raise TooLarge(cs.n, cap)
    return _tables(cs)


def _search(tables, start: int, end=None, crossed=0):
    """Lexicographically least crossing-free Hamiltonian path from `start` to
    `end` or, with no `end`, cycle through `start` (closing edge implied);
    None when there is none.  `end` is held out of the unvisited mask and
    tried last.  The edges in the starting `crossed` mask are never used."""
    eid, crosses = tables
    n = len(eid) - 1
    last = start if end is None else end
    path = [start]

    def rec(u, unvisited, crossed):
        if not unvisited:
            if crossed >> eid[u][last] & 1:
                return False
            if end is not None:
                path.append(end)
            return True
        row = eid[u]
        rest = unvisited
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            i = row[v]
            if crossed >> i & 1:
                continue
            path.append(v)
            if rec(v, unvisited ^ low, crossed | crosses[i]):
                return True
            path.pop()
        return False

    everyone = (1 << n + 1) - 2  # bits 1..n
    return path if rec(start, everyone & ~(1 << start | 1 << last), crossed) else None


def _all_pairs(tables) -> bool:
    n = len(tables[0]) - 1
    return all(
        _search(tables, a, b) is not None for a, b in combinations(range(1, n + 1), 2)
    )


def find_cf_ham_path(cs: CrossingSet, a: int, b: int):
    """Lexicographically least crossing-free Hamiltonian a-b path, or None
    when none exists."""
    tables = _oracle_tables(cs)
    if not (1 <= a <= cs.n and 1 <= b <= cs.n):
        raise InvalidDrawing(f"end-vertices {a}, {b} out of range 1..{cs.n}")
    if a == b:
        raise InvalidDrawing(f"end-vertices {a}, {b} must be distinct")
    return _search(tables, a, b)


def find_cf_ham_cycle(cs: CrossingSet):
    """Lexicographically least crossing-free Hamiltonian cycle (as a vertex
    list starting at 1, the closing edge implied), or None.  Its second
    vertex is smaller than its last: otherwise its reversal, which has the
    same edges, would come first."""
    tables = _oracle_tables(cs)
    if cs.n < 3:
        raise InvalidDrawing(f"a Hamiltonian cycle needs n >= 3, got n={cs.n}")
    return _search(tables, 1)


def verify_all_pairs(cs: CrossingSet) -> bool:
    """True iff a crossing-free Hamiltonian path exists between every vertex
    pair."""
    return _all_pairs(_oracle_tables(cs))


def verify_drawing(cs: CrossingSet) -> tuple[bool, bool]:
    """Both conjectures on one drawing: whether it has a crossing-free
    Hamiltonian cycle (vacuous below 3 vertices), and whether every vertex
    pair has a crossing-free Hamiltonian path."""
    tables = _oracle_tables(cs)
    return cs.n < 3 or _search(tables, 1) is not None, _all_pairs(tables)


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
