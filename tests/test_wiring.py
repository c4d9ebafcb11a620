import random
from itertools import combinations

import pytest

from drawkit import generators as gen
from drawkit import wiring as w
from drawkit.errors import IncomparableAtRequiredVertex, InconsistentInput, InvalidDrawing
from drawkit.rotation import RotationSystem
from drawkit.wiring import Side


def test_crossing_set_of_convex4_wiring():
    _, lw = gen.convex(4)
    assert w.crossing_set(lw).pairs == {((1, 3), (2, 4))}


def test_wiring_with_empty_strips_has_no_crossings():
    _, lw = gen.convex(3)
    assert all(not s for s in lw.strips)
    assert w.crossing_set(lw).pairs == frozenset()


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


def test_predicted_crossings_on_convex4_side_data():
    _, lw = gen.convex(4)
    xb = w.extract_xbounded(lw)
    assert xb.side[((1, 4), 2)] is Side.ABOVE
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


def test_predicted_crossings_needs_a_side_at_every_checkpoint():
    _, lw = gen.convex(5)
    xb = w.extract_xbounded(lw)
    del xb.side[((1, 4), 2)]  # where (1, 4) passes the left end of (2, 3)
    with pytest.raises(IncomparableAtRequiredVertex):
        w.predicted_crossings(xb)


def test_to_x_monotone_round_trip_small():
    for seed in range(20):
        n = 4 + seed % 5
        lw = gen.random_x_monotone(n, seed)
        xb = w.extract_xbounded(lw)
        back = w.to_x_monotone(xb)
        assert w.crossing_set(back).pairs == w.crossing_set(lw).pairs


def test_to_x_monotone_rejects_a_wrong_left_order():
    _, lw = gen.convex(5)
    xb = w.extract_xbounded(lw)
    left = list(xb.left_order)
    left[4] = tuple(reversed(left[4]))
    with pytest.raises(InconsistentInput):
        w.to_x_monotone(w.XBoundedData(5, xb.side, left, xb.right_order))


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


# a three-vertex wiring that lists its only edge, (1, 2), twice
REPEATED_EDGE = (3, ((), ()), (0, 0, 0), ((), ((1, 2), (1, 2)), ()), (((1, 2), (1, 2)), (), ()))


def test_repeated_edge_rejected():
    with pytest.raises(InvalidDrawing, match="repeats the edge"):
        w.LinearWiring(*REPEATED_EDGE)


# the rejection table: one malformed wiring per check of the validating sweep
# that a linear wiring can fail, each one field changed in a valid K3 or K4
# wiring (K4 has one crossing, (1, 3) x (2, 4), swapped at level 1 between v2
# and v3).  The check that the sweep returns to its base order has no row:
# every live edge ends at its right end-vertex, so none is left after vertex n.
K3 = dict(
    n=3,
    strips=((), ()),
    vertex_pos=(0, 0, 0),
    left_order=((), ((1, 2),), ((2, 3), (1, 3))),
    right_order=(((1, 2), (1, 3)), ((2, 3),), ()),
)
K4 = dict(
    n=4,
    strips=((), (1,), ()),
    vertex_pos=(0, 0, 0, 0),
    left_order=((), ((1, 2),), ((2, 3), (1, 3)), ((3, 4), (2, 4), (1, 4))),
    right_order=(((1, 2), (1, 3), (1, 4)), ((2, 3), (2, 4)), ((3, 4),), ()),
)


def _with(fields, **changes):
    return {**fields, **changes}


MALFORMED_LINEAR = {
    "ending-block-misses-a-live-edge": _with(K3, left_order=((), (), ((2, 3), (1, 3)))),
    "ending-block-not-contiguous": _with(K4, strips=((), (), ())),
    "vertex-pos-off-the-ending-block": _with(K3, vertex_pos=(0, 1, 0)),
    "vertex-pos-out-of-range": _with(K3, vertex_pos=(1, 0, 0)),
    "foreign-starting-edge": _with(K3, right_order=(((1, 2), (2, 3)), ((2, 3),), ())),
    "edge-starts-twice": _with(K3, right_order=(((1, 2), (1, 2), (1, 3)), ((2, 3),), ())),
    "swap-level-out-of-range": _with(K3, strips=((5,), ())),
    "incident-edges-swap": _with(K3, strips=((0,), ())),
    "pair-swaps-twice": _with(K4, strips=((), (1, 1), ())),
}


def test_rejection_table_bases_are_valid():
    assert w.crossing_set(w.LinearWiring(**K3)).pairs == frozenset()
    assert w.crossing_set(w.LinearWiring(**K4)).pairs == {((1, 3), (2, 4))}


@pytest.mark.parametrize("fields", MALFORMED_LINEAR.values(), ids=MALFORMED_LINEAR)
def test_malformed_linear_wiring_rejected(fields):
    with pytest.raises(InvalidDrawing):
        w.LinearWiring(**fields)
