"""Property tests across models.

`circular.is_strongly_c_monotone` runs only the star test, on gap masks.  The
star test and the paper's two other characterizations of strong
c-monotonicity are kept here as reference implementations over the 2n ring
positions and checked against it on wirings from every producer.
"""

import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drawkit import circular as circ
from drawkit import cylinder as cyl
from drawkit import generators as gen
from drawkit import hampath as hp
from drawkit import oracle
from drawkit import serial
from drawkit import wiring as w
from drawkit.errors import (
    BothDirectionsForbidden,
    CutBlocked,
    DegeneratePointSet,
    GaveUp,
    InvalidDrawing,
)
from drawkit.rotation import (
    CrossingSet,
    _sorted_pair,
    crossings_from_rotation,
    edge_numbering,
    relabel_crossing_set,
)
from drawkit.wiring import Side
from tests.test_circular import covering_k4
from tests.test_cylinder import assert_realization_follows_the_drawing
from tests.test_oracle import ABSENT_3_4, CountingMasks
from tests.test_wiring import wiring_to_rotation

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)
F = Fraction

SOURCES = ("cylindrical", "strong-cylindrical", "strongly-c-monotone", "linear", "covering-k4")


def ring_wedges(cw) -> dict:
    """Per edge, the closed wedge read off the fields as the set of the 2n
    ring positions it covers, vertex ring[i] at 2i and the gap after it at
    2i + 1: from the vertex where the edge starts counter-clockwise to its
    other end."""
    n, at = cw.n, {v: i for i, v in enumerate(cw.ring)}
    wedges = {}
    for v, block in enumerate(cw.starting, 1):
        for e in block:
            steps = (at[e[0] + e[1] - v] - at[v]) % n
            wedges[e] = {(2 * at[v] + j) % (2 * n) for j in range(2 * steps + 1)}
    return wedges


def covers(n, wedges) -> bool:
    return len(set().union(*wedges)) == 2 * n


def no_pair_covers(cw) -> bool:
    """No two edges have wedges that together cover the circle."""
    wedges = ring_wedges(cw).values()
    return not any(covers(cw.n, pair) for pair in combinations(wedges, 2))


def no_incident_pair_covers(cw) -> bool:
    """No two edges sharing a vertex have wedges that cover the circle."""
    wedges = ring_wedges(cw)
    return not any(
        covers(cw.n, (wedges[e], wedges[f]))
        for e, f in combinations(wedges, 2)
        if set(e) & set(f)
    )


def covering_stars(cw) -> list:
    """The vertices whose edges' wedges cover the circle."""
    wedges = ring_wedges(cw)
    stars = {v: [s for e, s in wedges.items() if v in e] for v in range(1, cw.n + 1)}
    return [v for v, star in stars.items() if covers(cw.n, star)]


def test_ring_cover_counts_wedges_touching_at_a_vertex():
    # two vertices, one wedge from each to the other: the two closed wedges
    # meet only at the vertices and still cover the circle
    assert covers(2, ({0, 1, 2}, {2, 3, 0}))
    # four vertices, positions 0-4 and 6-0: gap 2 (position 5) stays free
    assert not covers(4, ({0, 1, 2, 3, 4}, {6, 7, 0}))


def wiring_from(source: str, n: int, seed: int):
    if source == "cylindrical":
        return cyl.to_circular_wiring(
            cyl.normalize_winding(gen.random_cylindrical(n, seed, strong=False))
        )
    if source == "strong-cylindrical":
        return cyl.to_circular_wiring(
            cyl.normalize_winding(gen.random_cylindrical(n, seed, strong=True))
        )
    if source == "strongly-c-monotone":
        cd = cyl.remove_double_spirals(
            cyl.normalize_winding(gen.random_cylindrical(n, seed, strong=True))
        )
        return cyl.to_strongly_c_monotone(cd)
    if source == "linear":
        return circ.linear_to_circular(gen.random_x_monotone(n, seed))
    return covering_k4()


def test_cover_characterizations_agree():
    outcomes = set()

    @PROPERTY_SETTINGS
    @given(
        source=st.sampled_from(SOURCES),
        n=st.integers(4, 8),
        seed=st.integers(0, 10**6),
    )
    @example(source="covering-k4", n=4, seed=0)
    @example(source="strongly-c-monotone", n=6, seed=0)
    def check(source, n, seed):
        cw = wiring_from(source, n, seed)
        by_star = circ.is_strongly_c_monotone(cw)
        assert (covering_stars(cw) == []) == by_star
        assert no_pair_covers(cw) == by_star
        assert no_incident_pair_covers(cw) == by_star
        outcomes.add(by_star)

    check()
    assert outcomes == {True, False}


# seeds of random_cylindrical(5, seed, strong=False) whose realization has
# exactly one vertex star covering the circle, for vertices 1..5
SOLE_COVERING_STAR_SEEDS = {1: 49, 2: 1, 3: 0, 4: 21, 5: 4}


@pytest.mark.parametrize("vertex, seed", sorted(SOLE_COVERING_STAR_SEEDS.items()))
def test_star_test_sees_a_sole_covering_star(vertex, seed):
    cw = wiring_from("cylindrical", 5, seed)
    assert covering_stars(cw) == [vertex]
    assert not circ.is_strongly_c_monotone(cw)
    assert not no_pair_covers(cw)


def cuts(cw) -> list:
    """The gaps that no wedge spans."""
    wedges = ring_wedges(cw).values()
    return [k for k in range(cw.n) if not any(2 * k + 1 in s for s in wedges)]


def test_cut_in_every_gap():
    outcomes = set()

    @PROPERTY_SETTINGS
    @given(
        source=st.sampled_from(SOURCES),
        n=st.integers(3, 8),
        seed=st.integers(0, 10**6),
    )
    def check(source, n, seed):
        cw = wiring_from(source, n, seed)
        free = cuts(cw)
        for k in range(cw.n):
            if k not in free:
                with pytest.raises(CutBlocked):
                    circ.cut_to_linear(cw, k)
                continue
            ring = cw.ring[k + 1 :] + cw.ring[: k + 1]
            relabel = {v: i + 1 for i, v in enumerate(ring)}
            lw = circ.cut_to_linear(cw, k)
            assert w.crossing_set(lw) == relabel_crossing_set(circ.crossing_set(cw), relabel)
        outcomes.update(k in free for k in range(cw.n))
        lw = gen.random_x_monotone(n, seed)
        assert circ.cut_to_linear(circ.linear_to_circular(lw), n - 1) == lw

    check()
    assert outcomes == {True, False}


def assert_side_reader_matches(cw, lw, ring):
    """The circular side reader on cw agrees with wiring.vertex_sides on lw,
    whose vertex i is ring[i - 1]."""
    above = w.side_reader(cw._columns, cw.vertex_pos)
    for e in lw.edges():
        edge = _sorted_pair(ring[e[0] - 1], ring[e[1] - 1])
        for v, side in w.vertex_sides(lw, e).items():
            assert above(edge, ring[v - 1]) == (side is Side.ABOVE)


@PROPERTY_SETTINGS
@given(n=st.integers(3, 9), seed=st.integers(0, 10**6))
def test_side_reader_on_linear_to_circular(n, seed):
    lw = gen.random_x_monotone(n, seed)
    assert_side_reader_matches(circ.linear_to_circular(lw), lw, list(range(1, n + 1)))


def test_side_reader_on_cut_to_linear():
    # most realized wirings have every gap spanned by some wedge; scan fixed
    # seeds and check every wiring that can be cut, at every gap it can
    checked = 0
    for source in SOURCES[:3]:
        for seed in range(24):
            cw = wiring_from(source, 4 + seed % 2, seed)
            for k in cuts(cw):
                ring = cw.ring[k + 1 :] + cw.ring[: k + 1]
                assert_side_reader_matches(cw, circ.cut_to_linear(cw, k), ring)
                checked += 1
    assert checked >= 10


def models_from(n: int, seed: int):
    """One model of each of the five kinds, and a second circular wiring
    from `to_circular_wiring`, whose base order can be non-empty and whose
    first gap starts at the 0-ray."""
    lw = gen.random_x_monotone(n, seed)
    cd = gen.random_cylindrical(n, seed, strong=seed % 2 == 0)
    return [
        gen.from_points(gen.random_point_set(n, seed))[0],
        cyl.crossing_set(cd),
        lw,
        circ.linear_to_circular(lw),
        cyl.to_circular_wiring(cyl.normalize_winding(cd)),
        cd,
    ]


@PROPERTY_SETTINGS
@given(n=st.integers(3, 9), seed=st.integers(0, 10**6))
def test_serial_round_trip(n, seed):
    for model in models_from(n, seed):
        text = json.dumps(serial.dump(model))
        assert serial.load(json.loads(text)) == model


@PROPERTY_SETTINGS
@given(n=st.integers(3, 9), seed=st.integers(0, 10**6), strong=st.booleans())
def test_realization_follows_the_drawing(n, seed, strong):
    cd = gen.random_cylindrical(n, seed, strong)
    assert_realization_follows_the_drawing(cd, cyl.to_circular_wiring(cd))


non_integer = st.builds(Fraction, st.integers(-60, 60), st.integers(2, 12)).filter(
    lambda q: q.denominator > 1
)


@st.composite
def rational_point_sets(draw):
    """x-sorted point sets in general position, n = 3..9, whose coordinates
    are all non-integer rationals."""
    n = draw(st.integers(3, 9))
    xs = draw(st.lists(non_integer, min_size=n, max_size=n, unique=True))
    ys = draw(st.lists(non_integer, min_size=n, max_size=n))
    try:
        return gen.PointSet(tuple(zip(sorted(xs), ys)))
    except DegeneratePointSet:
        assume(False)


@PROPERTY_SETTINGS
@given(rational_point_sets())
def test_wiring_from_points_matches_the_segments(ps):
    """The wiring built from side data has the crossing set of the segment
    tests and the clockwise rotations of the point set, and the strip redraw
    of its own side data gives it back."""
    rs, cs = gen.from_points(ps)
    lw = gen.wiring_from_points(ps)
    assert w.crossing_set(lw).pairs == cs.pairs
    assert wiring_to_rotation(lw) == rs
    assert w.to_x_monotone(w.extract_xbounded(lw)) == lw


@PROPERTY_SETTINGS
@given(n=st.integers(3, 9), data=st.data())
def test_two_page_sides_follow_the_pages(n, data):
    edges = list(combinations(range(1, n + 1), 2))
    pages = {e: data.draw(st.integers(0, 1)) for e in edges}
    _, lw = gen.two_page(n, pages)
    side = w.extract_xbounded(lw).side
    assert side.keys() == {(e, v) for e in edges for v in range(e[0] + 1, e[1])}
    for (e, v), s in side.items():
        assert (s is Side.ABOVE) == (pages[e] == 0)
    assert w.to_x_monotone(w.extract_xbounded(lw)) == lw


@PROPERTY_SETTINGS
@given(n=st.integers(1, 8), data=st.data())
def test_each_strip_swaps_exactly_its_inversions(n, data):
    """`redraw_strips` on arbitrary strand orders, rings and `below` answers:
    replaying each strip from its start order gives below + ending + above,
    its length is the partition's inversion count, and it swaps every
    inverted pair once and no other pair."""
    edges = data.draw(st.permutations(list(combinations(range(1, n + 1), 2))))
    ring = data.draw(st.permutations(range(1, n + 1)))
    k = data.draw(st.integers(0, len(edges)))
    base, starting = edges[:k], {v: [] for v in ring}
    for e in edges[k:]:
        starting[e[data.draw(st.integers(0, 1))]].append(e)
    answers = {}

    def below(e, v):
        if (e, v) not in answers:
            answers[e, v] = data.draw(st.booleans())
        return answers[e, v]

    strips, positions, final = w.redraw_strips(ring, base, starting, below)
    assert len(strips) == len(positions) == n
    cur = list(base)
    for v, strip, pos in zip(ring, strips, positions):
        part = {e: 1 if v in e else 0 if below(e, v) else 2 for e in cur}
        partition = sorted(cur, key=part.get)
        inverted = {frozenset((e, f)) for i, e in enumerate(cur) for f in cur[i + 1 :]
                    if part[e] > part[f]}
        order, swapped = list(cur), []
        for level in strip:
            assert 0 <= level < len(order) - 1
            swapped.append(frozenset(order[level : level + 2]))
            order[level], order[level + 1] = order[level + 1], order[level]
        assert order == partition
        assert len(strip) == len(inverted)
        assert len(set(swapped)) == len(swapped) and set(swapped) == inverted
        ending = sum(part[e] == 1 for e in cur)
        assert pos == sum(part[e] == 0 for e in cur)
        cur = partition[:pos] + starting[v] + partition[pos + ending :]
    assert final == cur


# ============================================================
# Cylindrical decisions: the slot grid against Fractions
# ============================================================
#
# `CylindricalDrawing` decides everything on its integer slot grid.  The
# functions below decide the same questions as the rules state them, in
# turns: slot s read as the angle s/m and a winding w as w/m turns, as
# Fractions.  They cover the constructor's window and guard checks, rules
# (i)-(iii), double-spirals and the direction choice of
# `to_strongly_c_monotone`.


def frac1(x):
    """x mod 1, in [0, 1)."""
    return x - math.floor(x)


def in_turns(m, outer, inner, lateral):
    """The drawing's fields with every slot and winding as a Fraction of a
    turn."""
    return (
        tuple((v, F(s, m)) for v, s in outer),
        tuple((v, F(s, m)) for v, s in inner),
        tuple(replace(le, omega=F(le.omega, m)) for le in lateral),
    )


def ref_guarded(angle, ring, ce):
    au, av = angle[ce.u], angle[ce.v]
    start, length = (au, frac1(av - au)) if ce.arc is cyl.ArcDir.CCW else (av, frac1(au - av))
    return {v for v, a in ring if frac1(a - start) <= length}


def ref_rings(outer, inner):
    return {v: outer for v, _ in outer} | {v: inner for v, _ in inner}


def ref_validate(m, outer, inner, lateral, circle):
    """Message of the first window or guard failure, or None."""
    outer, inner, lateral = in_turns(m, outer, inner, lateral)
    angle, ring = dict(outer + inner), ref_rings(outer, inner)
    for e, f in combinations(lateral, 2):
        if e.u == f.u or e.w == f.w:
            if e.u == f.u and not abs(f.omega - e.omega) < 1:
                return f"incident laterals {e.edge}, {f.edge} forced to cross"
            if e.w == f.w:
                val = frac1(angle[f.u] - angle[e.u]) + f.omega - e.omega
                if val not in (0, 1):
                    return f"incident laterals {e.edge}, {f.edge} forced to cross"
            continue
        val = frac1(angle[f.u] - angle[e.u]) + f.omega - e.omega
        if not -1 <= val <= 2:
            return f"laterals {e.edge}, {f.edge} would cross twice"
    lat_circle = [ce for ce in circle if ce.face is cyl.Face.LATERAL]
    for e, f in combinations(lat_circle, 2):
        if set(e.edge) & set(f.edge) or ring[e.u] is not ring[f.u]:
            continue
        if (set(f.edge) <= ref_guarded(angle, ring[e.u], e)
                and set(e.edge) <= ref_guarded(angle, ring[f.u], f)):
            return f"circle edges {e.edge}, {f.edge} mutually guard"
    return None


def ref_crossings(cd):
    """Rules (i)-(iii) in turns: the crossing pairs."""
    outer, inner, lateral = in_turns(cd.m, cd.outer, cd.inner, cd.lateral)
    angle, ring = dict(outer + inner), ref_rings(outer, inner)
    pairs = set()
    for e, f in combinations(lateral, 2):
        if set(e.edge) & set(f.edge):
            continue
        val = frac1(angle[f.u] - angle[e.u]) + f.omega - e.omega
        if not 0 <= val <= 1:
            pairs.add(tuple(sorted((e.edge, f.edge))))
    lat_circle = [ce for ce in cd.circle if ce.face is cyl.Face.LATERAL]
    guarded = {ce.edge: ref_guarded(angle, ring[ce.u], ce) for ce in lat_circle}
    for ce in lat_circle:
        for le in lateral:
            if not set(ce.edge) & set(le.edge) and len(guarded[ce.edge] & set(le.edge)) == 1:
                pairs.add(tuple(sorted((ce.edge, le.edge))))
    home = [ce for ce in cd.circle if ce.face is cyl.Face.HOME]
    for e, f in combinations(lat_circle, 2):
        if set(e.edge) & set(f.edge) or ring[e.u] is not ring[f.u]:
            continue
        hit_ef = len(guarded[e.edge] & set(f.edge)) == 1
        if hit_ef != (len(guarded[f.edge] & set(e.edge)) == 1):
            raise InvalidDrawing(f"guard rule asymmetric for {e.edge}, {f.edge}")
        if hit_ef:
            pairs.add(tuple(sorted((e.edge, f.edge))))
    for e, f in combinations(home, 2):
        if set(e.edge) & set(f.edge) or ring[e.u] is not ring[f.u]:
            continue
        around = [v for _, v in sorted((angle[v], v) for v in (*e.edge, *f.edge))]
        if (around[0] in e.edge) == (around[2] in e.edge):
            pairs.add(tuple(sorted((e.edge, f.edge))))
    return CrossingSet(cd.n, frozenset(pairs)).pairs


def ref_wedge(angle, le):
    a = angle[le.u]
    return (a, le.omega) if le.omega >= 0 else (frac1(a + le.omega), -le.omega)


def ref_contains(arc, angle):
    start, length = arc
    return frac1(angle - start) <= length


def ref_cover(w1, w2):
    """True iff two closed arcs (start, length), in turns, cover the circle:
    sorted by start, each begins where the ones before it reach."""
    (s1, l1), (s2, l2) = sorted((w1, w2))
    if l1 >= 1 or l2 >= 1:
        return True
    return s2 <= s1 + l1 and max(s1 + l1, s2 + l2) >= s1 + 1


def ref_double_spirals(cd):
    outer, inner, lateral = in_turns(cd.m, cd.outer, cd.inner, cd.lateral)
    angle = dict(outer + inner)
    found = []
    for e, f in combinations(lateral, 2):
        if set(e.edge) & set(f.edge) or e.omega == 0 or f.omega == 0:
            continue
        if (e.omega > 0) == (f.omega > 0) and ref_cover(ref_wedge(angle, e), ref_wedge(angle, f)):
            found.append(tuple(sorted((e.edge, f.edge))))
    return sorted(found)


def ref_directions(cd):
    """The arc direction chosen for every circle edge, or None if some edge
    has both directions forbidden.  An edge with both directions free takes
    the one whose arc misses a reference ray half way from the first outer
    vertex (inner, on one circle) to the next vertex counter-clockwise."""
    outer, inner, lateral = in_turns(cd.m, cd.outer, cd.inner, cd.lateral)
    angle = dict(outer + inner)
    wedges = [ref_wedge(angle, le) for le in lateral]
    g0 = min(a for _, a in outer or inner)
    ray = g0 + min(frac1(a - g0) or 1 for a in angle.values()) / 2
    chosen = []
    for ce in cd.circle:
        au, av = angle[ce.u], angle[ce.v]
        options = {cyl.ArcDir.CCW: (au, frac1(av - au)), cyl.ArcDir.CW: (av, frac1(au - av))}
        allowed = [d for d, arc in options.items() if not any(ref_cover(arc, w) for w in wedges)]
        if not allowed:
            return None
        if len(allowed) > 1:
            allowed = [d for d in allowed if not ref_contains(options[d], ray)]
        chosen.append(allowed[0])
    return tuple(chosen)


def outcome(fn, *args):
    """fn's result, or the message of the InvalidDrawing it raises."""
    try:
        return fn(*args)
    except InvalidDrawing as exc:
        return str(exc)


def assert_decides_as_fractions(cd):
    assert ref_validate(cd.m, cd.outer, cd.inner, cd.lateral, cd.circle) is None
    assert outcome(lambda: cyl._derive_crossing_set(cd).pairs) == outcome(ref_crossings, cd)
    outer, inner, _ = in_turns(cd.m, cd.outer, cd.inner, ())
    for ce in cd.circle:
        if ce.face is cyl.Face.LATERAL:
            ring = outer if cd.circle_of(ce.u) == "outer" else inner
            assert cyl.guards(cd, ce.edge) == ref_guarded(dict(outer + inner), ring, ce)
    assert cyl.find_double_spirals(cd) == ref_double_spirals(cd)
    if all(abs(le.omega) < cd.m for le in cd.lateral):
        try:
            got = cyl._assign_directions(cd)
        except BothDirectionsForbidden:
            got = None
        assert got == ref_directions(cd)


def on_a_shared_ray(cd):
    """cd with its inner circle turned, and the windings with it, so that
    the inner end of a lateral edge of middle winding sits on the ray of its
    outer end; None if some winding then reaches a turn."""
    if not cd.lateral:
        return None
    mid = sorted(le.omega for le in cd.lateral)[len(cd.lateral) // 2]
    if any(abs(le.omega - mid) >= cd.m for le in cd.lateral):
        return None
    return cyl.CylindricalDrawing(
        cd.m,
        cd.outer,
        tuple((v, (s - mid) % cd.m) for v, s in cd.inner),
        tuple(replace(le, omega=le.omega - mid) for le in cd.lateral),
        cd.circle,
    )


@PROPERTY_SETTINGS
@given(n=st.integers(3, 9), seed=st.integers(0, 10**6), strong=st.booleans())
def test_integer_grid_decides_as_fractions_on_generated_drawings(n, seed, strong):
    cd = gen.random_cylindrical(n, seed, strong)
    norm = cyl.normalize_winding(cd)
    flat = cyl.remove_double_spirals(norm)
    drawings = [cd, norm, flat, cyl._mirror(cd), cyl._mirror(flat), cyl._split_common_rays(norm)]
    shared = on_a_shared_ray(norm)
    if shared is not None:
        drawings += [shared, cyl._split_common_rays(shared)]
    for d in drawings:
        assert_decides_as_fractions(d)


CIRCLE_EDGE_KINDS = [None] + [(face, arc) for face in cyl.Face for arc in cyl.ArcDir]


@st.composite
def hand_built_fields(draw):
    """Fields of a would-be cylindrical drawing with 1-4 vertices per circle:
    windings of any lift from -2 to +1 turns, circle edges of both faces and
    directions.  Either the slots are spread over a grid of up to 10^15 and
    an inner vertex may share the slot of an outer one, or they all sit on
    one small grid."""
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m = draw(st.integers(max(p, q), 10**15 if draw(st.booleans()) else 9))
    slots = draw(st.lists(st.integers(0, m - 1), min_size=p, max_size=p, unique=True))
    slots += draw(st.lists(st.integers(0, m - 1), min_size=q, max_size=q, unique=True))
    if m > 9 and slots[0] not in slots[p:] and draw(st.booleans()):
        slots[p] = slots[0]
    outer = tuple((v, slots[v - 1]) for v in range(1, p + 1))
    inner = tuple((v, slots[v - 1]) for v in range(p + 1, p + q + 1))
    lateral = []
    for u in range(1, p + 1):
        for w in range(p + 1, p + q + 1):
            lift = draw(st.sampled_from((None, -2, -1, -1, 0, 0, 1)))
            if lift is not None:
                omega = (slots[w - 1] - slots[u - 1]) % m + lift * m
                lateral.append(cyl.LateralEdge(u, w, omega))
    circle = []
    for ring in (range(1, p + 1), range(p + 1, p + q + 1)):
        for u, v in combinations(ring, 2):
            kind = draw(st.sampled_from(CIRCLE_EDGE_KINDS))
            if kind is not None:
                circle.append(cyl.CircleEdge(u, v, *kind))
    return m, outer, inner, tuple(lateral), tuple(circle)


def window_pair(inner3, omega3, inner4, omega4):
    """Fields of two non-incident laterals 1-3 and 2-4 on a grid of 8
    slots, outer vertices at slots 0 and 4."""
    return (
        8,
        ((1, 0), (2, 4)),
        ((3, inner3), (4, inner4)),
        (cyl.LateralEdge(1, 3, omega3), cyl.LateralEdge(2, 4, omega4)),
        (),
    )


# window values one slot past each bound and one slot inside it, in slot
# steps: -9, -7, 17 and 15
WINDOW_EDGES = [
    window_pair(1, 9, 0, -4),
    window_pair(1, 9, 2, -2),
    window_pair(7, -9, 0, 4),
    window_pair(7, -9, 6, 2),
]


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(hand_built_fields())
@example(WINDOW_EDGES[0])
@example(WINDOW_EDGES[1])
@example(WINDOW_EDGES[2])
@example(WINDOW_EDGES[3])
def test_integer_grid_decides_as_fractions_on_hand_built_drawings(fields):
    try:
        cd = cyl.CylindricalDrawing(*fields)
    except InvalidDrawing as exc:
        assert str(exc) == ref_validate(*fields)
        return
    assert ref_validate(*fields) is None
    for d in (cd, cyl._mirror(cd)):
        assert_decides_as_fractions(d)
    if all(abs(le.omega) < cd.m for le in cd.lateral):
        assert_decides_as_fractions(cyl._split_common_rays(cd))


def respaced(cd, gaps):
    """cd's fields on a grid with gaps[k] slots between its slots k and k+1
    (the last gap closing the turn): the same drawing, every winding lifted
    with its ends."""
    at = [sum(gaps[:k]) for k in range(cd.m)]
    m = sum(gaps)

    def lift(x):  # a lifted slot: whole turns plus a slot
        turns, s = divmod(x, cd.m)
        return turns * m + at[s]

    return (
        m,
        tuple((v, at[s]) for v, s in cd.outer),
        tuple((v, at[s]) for v, s in cd.inner),
        tuple(replace(le, omega=lift(cd._slot[le.u] + le.omega) - at[cd._slot[le.u]])
              for le in cd.lateral),
        cd.circle,
    )


@PROPERTY_SETTINGS
@given(n=st.integers(3, 12), seed=st.integers(0, 10**6),
       source=st.sampled_from(("hill", "strong", "nonstrong")), data=st.data())
def test_the_slot_grid_is_canonical(n, seed, source, data):
    """Any increasing re-spacing of a drawing's slots, windings lifted to
    match, constructs the drawing itself: the ranking is canonical and
    idempotent, and the crossing set is that of the drawing."""
    if source == "hill":
        cd = gen.hill(n)
    else:
        try:
            cd = gen.random_cylindrical(n, seed, source == "strong")
        except GaveUp:
            assume(False)
    gaps = data.draw(st.lists(st.integers(1, 10**6), min_size=cd.m, max_size=cd.m))
    spaced = cyl.CylindricalDrawing(*respaced(cd, gaps))
    assert spaced == cd
    assert cyl.crossing_set(spaced) == cyl.crossing_set(cd)


# ============================================================
# The oracle against permutations
# ============================================================

ORACLE_SOURCES = ("xmono", "cylindrical", "strong-cylindrical", "two-page", "twisted")


def ref_crossing_free(cs, walk) -> bool:
    edges = list(zip(walk, walk[1:]))
    return not any((e, f) in cs for e, f in combinations(edges, 2))


def ref_path(cs, a, b):
    """First crossing-free a-b order that permutations() gives over the
    middle vertices, or None."""
    middle = [v for v in range(1, cs.n + 1) if v not in (a, b)]
    return next(
        (p for m in permutations(middle) if ref_crossing_free(cs, p := [a, *m, b])), None
    )


def ref_cycle(cs):
    """First crossing-free cycle from 1 with p[1] < p[-1] that permutations()
    gives, or None."""
    return next(
        (
            p
            for m in permutations(range(2, cs.n + 1))
            if (p := [1, *m])[1] < p[-1] and ref_crossing_free(cs, p + [1])
        ),
        None,
    )


@PROPERTY_SETTINGS
@given(
    source=st.sampled_from(ORACLE_SOURCES),
    n=st.integers(3, 7),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_oracle_agrees_with_permutations(source, n, seed, data):
    if source == "xmono":
        cs = w.crossing_set(gen.random_x_monotone(n, seed))
    elif source in ("cylindrical", "strong-cylindrical"):
        cs = cyl.crossing_set(gen.random_cylindrical(n, seed, source == "strong-cylindrical"))
    elif source == "two-page":
        pages = {e: data.draw(st.integers(0, 1)) for e in combinations(range(1, n + 1), 2)}
        cs, _ = gen.two_page(n, pages)
    else:
        cs = gen.twisted(n)
    assert oracle.find_cf_ham_cycle(cs) == ref_cycle(cs)
    paths = {(a, b): ref_path(cs, a, b) for a, b in permutations(range(1, n + 1), 2)}
    for (a, b), path in paths.items():
        assert oracle.find_cf_ham_path(cs, a, b) == path
    assert oracle.verify_all_pairs(cs) == all(p is not None for p in paths.values())


@st.composite
def arbitrary_pair_lists(draw):
    """n = 4..8 and sorted pairs of sorted edges with none or one of the
    three pairings of each 4-subset, drawn at random: drawable or not."""
    n = draw(st.integers(4, 8))
    pairs = []
    for a, b, c, d in combinations(range(1, n + 1), 4):
        k = draw(st.integers(0, 3))
        if k:
            pairs.append((((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))[k - 1])
    return n, pairs


def arbitrary_crossing_sets():
    return arbitrary_pair_lists().map(lambda drawn: CrossingSet(*drawn))


def flips(pair):
    """The eight ways to write one crossing pair."""
    (a, b), (c, d) = pair
    return [(e, f) for x, y in (((a, b), (c, d)), ((c, d), (a, b)))
            for e in (x, x[::-1]) for f in (y, y[::-1])]


@PROPERTY_SETTINGS
@given(drawn=arbitrary_pair_lists(), seed=st.integers(0, 10**6))
def test_crossing_set_reads_pairs_in_any_order_and_orientation(drawn, seed):
    n, pairs = drawn
    rnd = random.Random(seed)
    written = [rnd.choice(flips(p)) for p in pairs]
    written += rnd.choices(written, k=rnd.randint(0, 5)) if written else []
    rnd.shuffle(written)
    cs = CrossingSet(n, written)
    assert cs == CrossingSet(n, pairs)
    want = frozenset(
        tuple(sorted((tuple(sorted(e)), tuple(sorted(f))))) for e, f in written
    )
    assert cs.pairs == want and len(cs) == len(want)
    edges = list(combinations(range(1, n + 1), 2))
    for e, f in combinations(edges, 2):
        assert (rnd.choice(flips((e, f))) in cs) == ((e, f) in want)
    assert cs.masks == tuple(
        sum(1 << j for j, f in enumerate(edges) if (min(e, f), max(e, f)) in want)
        for e in edges
    )


@PROPERTY_SETTINGS
@given(cs=arbitrary_crossing_sets())
@example(cs=ABSENT_3_4)  # a pair with no path, met on every run
def test_verify_all_pairs_agrees_with_permutations(cs):
    want = all(ref_path(cs, a, b) is not None for a, b in combinations(range(1, cs.n + 1), 2))
    assert oracle.verify_all_pairs(cs) == want


def set_closure_verify_all_pairs(cs):
    """`oracle.verify_all_pairs` with its rotation closure over a set of
    covered tuple pairs, each path's edge mask summed from scratch: the
    reference for the end pairs the bitmask closure searches."""
    n = cs.n
    eid = edge_numbering(n)[1]
    masks = cs.masks
    pairs = list(combinations(range(1, n + 1), 2))
    covered = set()
    for a, b in pairs:
        if (a, b) in covered:
            continue
        path = oracle._search(cs, a, b)
        if path is None:
            return False
        covered.add((a, b))
        stack = [path]
        while stack and len(covered) < len(pairs):
            p = stack.pop()
            used = sum(1 << eid[u][v] for u, v in zip(p, p[1:]))
            for q in (p, p[::-1]):
                head, row = q[0], eid[q[-1]]
                for k in range(n - 2):
                    pair = (head, q[k + 1]) if head < q[k + 1] else (q[k + 1], head)
                    if pair not in covered and not masks[row[q[k]]] & used:
                        covered.add(pair)
                        stack.append(q[:k + 1] + q[:k:-1])
    return True


@PROPERTY_SETTINGS
@given(cs=arbitrary_crossing_sets())
@example(cs=ABSENT_3_4)
def test_verify_all_pairs_searches_as_the_set_closure(cs):
    # the same answer, end pairs searched in the same order and masks reads
    real_search = oracle._search
    runs = []
    for closure in (set_closure_verify_all_pairs, oracle.verify_all_pairs):
        counted = CrossingSet(cs.n, cs.pairs)
        counted.__dict__["masks"] = CountingMasks(cs.masks)
        CountingMasks.reads = 0
        searched = []
        oracle._search = lambda *args: searched.append(args[1:]) or real_search(*args)
        try:
            runs.append((closure(counted), searched, CountingMasks.reads))
        finally:
            oracle._search = real_search
    assert runs[0] == runs[1]


# a hand-frozen crossing set (valid per the type, not drawable) with no
# crossing-free Hamiltonian cycle; the strategy above rarely draws one
NO_CYCLE = CrossingSet(6, frozenset(
    {
        ((1, 2), (4, 5)), ((1, 3), (2, 6)), ((1, 4), (2, 3)), ((1, 5), (2, 3)),
        ((1, 5), (3, 6)), ((1, 6), (2, 5)), ((2, 4), (5, 6)), ((2, 5), (3, 6)),
        ((2, 6), (3, 4)), ((3, 4), (5, 6)),
    }
))


@PROPERTY_SETTINGS
@given(cs=arbitrary_crossing_sets())
@example(cs=ABSENT_3_4)
@example(cs=NO_CYCLE)
def test_oracle_answers_agree_with_permutations_on_arbitrary_sets(cs):
    # dense, mostly undrawable sets: where dead ends are cut most and None
    # answers occur
    assert oracle.find_cf_ham_cycle(cs) == ref_cycle(cs)
    for a, b in permutations(range(1, cs.n + 1), 2):
        assert oracle.find_cf_ham_path(cs, a, b) == ref_path(cs, a, b)


# ============================================================
# Crossing masks against the pairs
# ============================================================

@st.composite
def crossing_sets(draw):
    """Crossing sets at n = 3..9 from the rotation systems of random point
    sets, and the twisted and convex ones under a random relabeling."""
    n = draw(st.integers(3, 9))
    source = draw(st.sampled_from(("points", "twisted", "convex")))
    if source == "points":
        rs, _ = gen.from_points(gen.random_point_set(n, draw(st.integers(0, 10**6))))
        return crossings_from_rotation(rs)
    cs = gen.twisted(n) if source == "twisted" else gen.convex(n)[0]
    return relabel_crossing_set(cs, draw(st.permutations(range(1, n + 1))))


@st.composite
def walks(draw, n):
    """A Hamiltonian path, or a walk in K_n of up to 2n steps."""
    if draw(st.booleans()):
        return draw(st.permutations(range(1, n + 1)))
    walk = [draw(st.integers(1, n))]
    for step in draw(st.lists(st.integers(1, n - 1), max_size=2 * n)):
        walk.append((walk[-1] - 1 + step) % n + 1)
    return walk


@PROPERTY_SETTINGS
@given(cs=crossing_sets(), data=st.data())
def test_is_crossing_free_checks_every_pair_of_walk_edges(cs, data):
    walk = data.draw(walks(cs.n))
    assert hp.is_crossing_free(cs, walk) == ref_crossing_free(cs, walk)


@PROPERTY_SETTINGS
@given(cs=crossing_sets())
def test_masks_hold_exactly_the_pairs(cs):
    edges = list(combinations(range(1, cs.n + 1), 2))
    assert len(cs.masks) == len(edges)
    for i, e in enumerate(edges):
        for j, f in enumerate(edges):
            bit = cs.masks[i] >> j & 1
            assert bit == cs.masks[j] >> i & 1
            assert bit == ((min(e, f), max(e, f)) in cs.pairs)


@PROPERTY_SETTINGS
@given(
    kind=st.sampled_from(("strong", "non-strong", "hill")),
    n=st.integers(3, 12),
    seed=st.integers(0, 10**6),
)
def test_uncrossed_rim_edges_are_the_rims_in_no_pair(kind, n, seed):
    if kind == "hill":
        cd = gen.hill(n)
    else:
        cd = gen.random_cylindrical(n, seed, strong=kind == "strong")
    crossed = {e for pair in cyl.crossing_set(cd).pairs for e in pair}
    want = {which: set(rims) - crossed for which, rims in cyl.rim_edges(cd).items()}
    assert cyl.uncrossed_rim_edges(cd) == want
