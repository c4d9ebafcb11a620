"""Property tests across models.

`circular.is_strongly_c_monotone` runs only the star test.  The paper's two
other characterizations of strong c-monotonicity are kept here as reference
implementations and checked against it on wirings from every producer.
"""

import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drawkit import circular as circ
from drawkit import cylinder as cyl
from drawkit import generators as gen
from drawkit import serial
from drawkit import wiring as w
from drawkit.circular import arcs_cover_circle
from drawkit.errors import CutBlocked, DegeneratePointSet
from drawkit.rotation import _sorted_pair
from drawkit.wiring import Side
from tests.test_circular import covering_k4
from tests.test_cylinder import assert_realization_follows_the_drawing
from tests.test_wiring import wiring_to_rotation

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)

SOURCES = ("cylindrical", "strong-cylindrical", "strongly-c-monotone", "linear", "covering-k4")


def no_pair_covers(cw) -> bool:
    """No two edges have wedges that together cover the circle."""
    wedges = [circ.wedge(cw, e) for e in cw.edges()]
    return not any(arcs_cover_circle(pair) for pair in combinations(wedges, 2))


def no_incident_pair_covers(cw) -> bool:
    """No two edges sharing a vertex have wedges that cover the circle."""
    return not any(
        arcs_cover_circle((circ.wedge(cw, e), circ.wedge(cw, f)))
        for e, f in combinations(cw.edges(), 2)
        if set(e) & set(f)
    )


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
        assert no_pair_covers(cw) == by_star
        assert no_incident_pair_covers(cw) == by_star
        outcomes.add(by_star)

    check()
    assert outcomes == {True, False}


# seeds of random_cylindrical(5, seed, strong=False) whose realization has
# exactly one vertex star covering the circle, for vertices 1..5
SOLE_COVERING_STAR_SEEDS = {1: 49, 2: 1, 3: 0, 4: 21, 5: 4}


def covering_stars(cw):
    stars = {v: [] for v in range(1, cw.n + 1)}
    for e in cw.edges():
        for v in e:
            stars[v].append(circ.wedge(cw, e))
    return [v for v, star in stars.items() if arcs_cover_circle(star)]


@pytest.mark.parametrize("vertex, seed", sorted(SOLE_COVERING_STAR_SEEDS.items()))
def test_star_test_sees_a_sole_covering_star(vertex, seed):
    cw = wiring_from("cylindrical", 5, seed)
    assert covering_stars(cw) == [vertex]
    assert not circ.is_strongly_c_monotone(cw)
    assert not no_pair_covers(cw)


def cuts(cw):
    """Midpoints of the gaps between circularly consecutive vertices that no
    wedge spans."""
    ring = circ.circular_vertex_order(cw)
    out = []
    for u, v in zip(ring, ring[1:] + ring[:1]):
        mid = circ.frac1(cw.angles[u - 1] + circ.frac1(cw.angles[v - 1] - cw.angles[u - 1]) / 2)
        try:
            circ.cut_to_linear(cw, mid)
        except CutBlocked:
            continue
        out.append(mid)
    return out


def assert_side_reader_matches(cw, lw, ring):
    """The circular side reader on cw agrees with wiring.vertex_sides on lw,
    whose vertex i is ring[i - 1]."""
    above = w.side_reader(cw._columns, cw._vertex_pos)
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
            for mid in cuts(cw):
                ring = sorted(range(1, cw.n + 1), key=lambda v: circ.frac1(cw.angles[v - 1] - mid))
                assert_side_reader_matches(cw, circ.cut_to_linear(cw, mid), ring)
                checked += 1
    assert checked >= 10


def models_from(n: int, seed: int):
    """One model of each of the five kinds."""
    lw = gen.random_x_monotone(n, seed)
    cd = gen.random_cylindrical(n, seed, strong=seed % 2 == 0)
    return [
        gen.from_points(gen.random_point_set(n, seed))[0],
        cyl.crossing_set(cd),
        lw,
        circ.linear_to_circular(lw),
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
