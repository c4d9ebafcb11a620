import random
from itertools import combinations

import pytest

from drawkit import generators as gen
from drawkit import rotation as rot
from drawkit import wiring as w
from drawkit.errors import SubsetTooSmall
from drawkit.rotation import RotationSystem
from drawkit.wiring import Ordering, Side


def test_crossing_set_of_convex4_wiring():
    _, lw = gen.convex(4)
    assert w.crossing_set(lw).pairs == {((1, 3), (2, 4))}


def test_wiring_with_empty_strips_has_no_crossings():
    _, lw = gen.convex(3)
    assert all(not s for s in lw.strips)
    assert w.crossing_set(lw).pairs == frozenset()


def test_induce_identity_and_small_subsets():
    _, lw = gen.convex(5)
    assert w.induce(lw, range(1, 6)) == lw
    sub = w.induce(lw, [1, 2, 3])
    assert w.crossing_set(sub).pairs == frozenset()
    with pytest.raises(SubsetTooSmall):
        w.induce(lw, [2])


def test_induce_convex6_onto_four_vertices():
    _, lw = gen.convex(6)
    sub = w.induce(lw, [1, 3, 4, 6])
    got = rot.canonical_crossing_form(w.crossing_set(sub))
    want = rot.canonical_crossing_form(gen.convex(4)[0])
    assert got.encode() == want.encode()


def test_vertex_sides_of_the_parabola_chord():
    _, lw = gen.convex(4)
    sides = w.vertex_sides(lw, (1, 4))
    assert sides == {2: Side.BELOW, 3: Side.BELOW}
    assert w.vertex_sides(lw, (2, 3)) == {}


def test_same_side_edges_never_swap():
    # an edge with both end-vertices on one side of e stays on that side
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(4, 8)
        lw = gen.random_x_monotone(n, rng.randrange(10 ** 6))
        cs = w.crossing_set(lw)
        for e in combinations(range(1, n + 1), 2):
            sides = w.vertex_sides(lw, e)
            for f in combinations(range(1, n + 1), 2):
                if set(e) & set(f):
                    continue
                if f[0] in sides and f[1] in sides and sides[f[0]] == sides[f[1]]:
                    assert (e, f) not in cs


def test_partial_order_conditions():
    _, lw = gen.convex(4)
    xb = w.extract_xbounded(lw)
    # both incident to v2 on the right, ordered by the right_order
    e, f = xb.right_order[1][0], xb.right_order[1][1]
    assert w.partial_order_at(xb, 2, e, f) is Ordering.LESS
    assert w.partial_order_at(xb, 2, f, e) is Ordering.GREATER
    # passing below vs incident
    assert xb.side[((1, 4), 2)] is Side.ABOVE
    assert w.partial_order_at(xb, 2, (2, 3), (1, 4)) is Ordering.LESS
    # both passing the same side are incomparable
    assert w.partial_order_at(xb, 2, (1, 3), (1, 4)) is Ordering.INCOMPARABLE
    # edges entirely on one side of the column are unrelated
    assert w.partial_order_at(xb, 3, (1, 2), (3, 4)) is Ordering.INCOMPARABLE


def test_predicted_crossings_on_convex4_side_data():
    _, lw = gen.convex(4)
    xb = w.extract_xbounded(lw)
    assert w.predicted_crossings(xb).pairs == {((1, 3), (2, 4))}


def test_predicted_crossings_never_contains_separated_pairs():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(4, 8)
        lw = gen.random_x_monotone(n, rng.randrange(10 ** 6))
        xb = w.extract_xbounded(lw)
        for (a, b), (c, d) in w.predicted_crossings(xb).pairs:
            lo, hi = sorted(((a, b), (c, d)))
            assert not lo[1] < hi[0], "separated pair predicted to cross"


def test_predicted_crossings_requires_complete_side_data():
    _, lw = gen.convex(4)
    xb = w.extract_xbounded(lw)
    broken = dict(xb.side)
    broken.pop(((1, 3), 2))
    with pytest.raises(Exception):
        w.XBoundedData(4, broken, xb.left_order, xb.right_order)


def test_to_x_monotone_round_trip_small():
    for seed in range(20):
        n = 4 + seed % 5
        lw = gen.random_x_monotone(n, seed)
        xb = w.extract_xbounded(lw)
        back = w.to_x_monotone(xb)
        assert w.crossing_set(back).pairs == w.crossing_set(lw).pairs


def test_to_x_monotone_planar_k4():
    ps = gen.PointSet(((0, 0), (3, 7), (4, 3), (6, 1)))
    lw = gen.wiring_from_points(ps)
    assert w.crossing_set(lw).pairs == frozenset()
    back = w.to_x_monotone(w.extract_xbounded(lw))
    assert w.crossing_set(back).pairs == frozenset()


def test_outputs_keep_extreme_edges_uncrossed():
    for seed in range(10):
        n = 5 + seed % 4
        lw = gen.random_x_monotone(n, seed)
        back = w.to_x_monotone(w.extract_xbounded(lw))
        crossed = {e for pair in w.crossing_set(back).pairs for e in pair}
        assert (1, 2) not in crossed and (n - 1, n) not in crossed


def wiring_to_rotation(lw):
    """Clockwise rotation of every vertex, read off the wiring columns."""
    rotations = []
    for v in range(1, lw.n + 1):
        right = [b for _, b in lw.right_order[v - 1]]
        left = [a for a, _ in lw.left_order[v - 1]]
        rotations.append(tuple(reversed(right)) + tuple(left))
    return RotationSystem(lw.n, tuple(rotations))


def test_wiring_to_rotation_matches_points():
    ps = gen.PointSet(((1, 1), (2, 4), (3, 9), (4, 16)))
    rs, _ = gen.from_points(ps)
    lw = gen.wiring_from_points(ps)
    assert wiring_to_rotation(lw) == rs
