"""Brute-force search for crossing-free Hamiltonian paths and cycles, plus
conjecture verification over enumerated drawing classes.

One backtracking kernel, `_search`, serves every query.  It runs on the
crossing set's own field: per edge of the edge numbering, the bitmask of the
edges it crosses (`CrossingSet.masks`).  It walks a bitmask of the unvisited
vertices lowest bit first, so the first crossing-free path it finds is the
lexicographically least.  It cuts dead ends (see `_search`) and so keeps
that answer.  The constructive engines in `hampath` never run this search;
they validate their own output.

`verify_all_pairs` searches only the end pairs that no path found so far
reaches by end rotations, a closure kept in vertex bitmasks; every other pair
has a checked path, so its answer is exact.
"""

from __future__ import annotations

from functools import lru_cache

from drawkit.errors import InvalidDrawing, TooLarge
from drawkit.rotation import CrossingSet, edge_numbering, enumerate_realizable, size_cap


def _check_cap(cs: CrossingSet):
    """The oracle's size cap, checked before any search table is built."""
    cap = size_cap(14)
    if cs.n > cap:
        raise TooLarge(cs.n, cap)


@lru_cache(maxsize=16)
def _incidence(n: int) -> tuple[int, ...]:
    """`inc[v]`: mask of the edges of `edge_numbering(n)` at vertex v."""
    edges = edge_numbering(n)[0]
    return tuple(sum(1 << i for i, e in enumerate(edges) if v in e) for v in range(n + 1))


def _search(cs: CrossingSet, start: int, end=None):
    """Lexicographically least crossing-free Hamiltonian path from `start` to
    `end` or, with no `end`, cycle through `start` (closing edge implied);
    None when there is none.  `end` is held out of the unvisited mask and
    tried last.  Dead ends are cut: an edge is free when no path edge
    crosses it and it meets no spent vertex (one before the current one, bar
    a cycle's start).  A completion's edges are free, two at each unvisited
    vertex and one at the end, so a node where one of these has fewer has no
    completion: only subtrees without a solution are cut."""
    n = cs.n
    eid = edge_numbering(n)[1]
    inc = _incidence(n)
    crosses = cs.masks
    last = start if end is None else end
    path = [start]

    def rec(u, unvisited, crossed, spent):
        if not unvisited:
            if crossed >> eid[u][last] & 1:
                return False
            if end is not None:
                path.append(end)
            return True
        if spent:  # none spent: every vertex keeps its edges to start and u free
            free = ~(crossed | spent)
            if not inc[last] & free:
                return False
            rest = unvisited
            while rest:
                low = rest & -rest
                rest ^= low
                m = inc[low.bit_length() - 1] & free
                if not m & (m - 1):
                    return False
        if u != last:  # a cycle's start keeps its closing edge
            spent |= inc[u]
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
            if rec(v, unvisited ^ low, crossed | crosses[i], spent):
                return True
            path.pop()
        return False

    everyone = (1 << n + 1) - 2  # bits 1..n
    return path if rec(start, everyone & ~(1 << start | 1 << last), 0, 0) else None


def find_cf_ham_path(cs: CrossingSet, a: int, b: int):
    """Lexicographically least crossing-free Hamiltonian a-b path, or None
    when none exists."""
    _check_cap(cs)
    if not (1 <= a <= cs.n and 1 <= b <= cs.n):
        raise InvalidDrawing(f"end-vertices {a}, {b} out of range 1..{cs.n}")
    if a == b:
        raise InvalidDrawing(f"end-vertices {a}, {b} must be distinct")
    return _search(cs, a, b)


def find_cf_ham_cycle(cs: CrossingSet):
    """Lexicographically least crossing-free Hamiltonian cycle (as a vertex
    list starting at 1, the closing edge implied), or None.  Its second
    vertex is smaller than its last: otherwise its reversal, which has the
    same edges, would come first."""
    _check_cap(cs)
    if cs.n < 3:
        raise InvalidDrawing(f"a Hamiltonian cycle needs n >= 3, got n={cs.n}")
    return _search(cs, 1)


def verify_all_pairs(cs: CrossingSet) -> bool:
    """True iff a crossing-free Hamiltonian path exists between every vertex
    pair.

    A found path covers its end pair and every pair its end rotations reach
    (Pósa, 1976): for a path p_0 … p_{n-1} and k <= n - 3, if edge
    {p_{n-1}, p_k} crosses no edge of the path (it cannot cross the dropped
    edge {p_k, p_{k+1}}, which it meets at p_k), then p_0 … p_k, p_{n-1},
    p_{n-2}, …, p_{k+1} is a crossing-free Hamiltonian path from p_0 to
    p_{k+1}.  Both ends of each path that covers a new pair are rotated in
    turn, bar an end with every partner covered; each path carries its edge
    mask, changed by one edge per rotation.  Only an uncovered pair is
    searched, so False comes only from an exhausted search.
    """
    _check_cap(cs)
    n = cs.n
    eid = edge_numbering(n)[1]
    masks = cs.masks
    everyone = (1 << n + 1) - 2  # bits 1..n
    cov = [1 << v for v in range(n + 1)]  # v and the partners covered for v
    left = n * (n - 1) // 2
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if cov[a] >> b & 1:
                continue
            path = _search(cs, a, b)
            if path is None:
                return False
            cov[a] |= 1 << b
            cov[b] |= 1 << a
            left -= 1
            stack = [(path, sum(1 << eid[u][v] for u, v in zip(path, path[1:])))]
            while stack and left:
                p, used = stack.pop()
                for q in (p, p[::-1]):
                    head, row = q[0], eid[q[-1]]
                    if cov[head] == everyone:
                        continue
                    for k, v in enumerate(q[1:-1]):  # q[k] is the vertex before v
                        if not cov[head] >> v & 1 and not masks[i := row[q[k]]] & used:
                            cov[head] |= 1 << v
                            cov[v] |= 1 << head
                            left -= 1
                            stack.append((q[:k + 1] + q[:k:-1], used ^ 1 << eid[q[k]][v] | 1 << i))
    return True


def verify_drawing(cs: CrossingSet) -> tuple[bool, bool]:
    """Both conjectures on one drawing: whether it has a crossing-free
    Hamiltonian cycle (vacuous below 3 vertices), and whether every vertex
    pair has a crossing-free Hamiltonian path."""
    _check_cap(cs)
    return cs.n < 3 or _search(cs, 1) is not None, verify_all_pairs(cs)


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
