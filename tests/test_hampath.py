import hashlib
from itertools import combinations, permutations

import pytest

from drawkit import circular as circ
from drawkit import cylinder as cyl
from drawkit import generators as gen
from drawkit import hampath as hp
from drawkit import oracle
from drawkit import rotation as rot
from drawkit import wiring as w
from drawkit.errors import BadRotation, EdgeIsCrossed, InvalidDrawing
from drawkit.rotation import CrossingSet


def test_is_crossing_free_examples():
    c4, _ = gen.convex(4)
    assert hp.is_crossing_free(c4, [1, 2, 3, 4])
    assert hp.is_crossing_free(c4, [2, 1, 3, 4])
    t4 = gen.twisted(4)
    assert not hp.is_crossing_free(t4, [1, 4, 2, 3])


def test_path_x_monotone_examples():
    _, lw5 = gen.convex(5)
    assert hp.path_x_monotone(lw5, 1, 5) == [1, 2, 3, 4, 5]
    assert hp.path_x_monotone(lw5, 5, 1) == [5, 4, 3, 2, 1]
    _, lw4 = gen.convex(4)
    p = hp.path_x_monotone(lw4, 2, 3)
    assert p[0] == 2 and p[-1] == 3 and sorted(p) == [1, 2, 3, 4]
    _, lw3 = gen.convex(3)
    assert hp.path_x_monotone(lw3, 1, 2) == [1, 3, 2]


def test_path_x_monotone_all_pairs_random():
    for seed in range(15):
        n = 4 + seed % 6
        lw = gen.random_x_monotone(n, seed)
        for a, b in combinations(range(1, n + 1), 2):
            hp.path_x_monotone(lw, a, b)  # validates internally


def test_path_strong_c_mon_adjacent_ends_use_gap_edges():
    cw = cyl.to_strongly_c_monotone(gen.hill(6))
    ring = circ.circular_vertex_order(cw)
    a, b = ring[0], ring[1]
    path = hp.path_strong_c_mon(cw, a, b)
    ring_set = {tuple(sorted((ring[i], ring[(i + 1) % len(ring)]))) for i in range(len(ring))}
    used = {tuple(sorted((path[i], path[i + 1]))) for i in range(len(path) - 1)}
    assert used <= ring_set


def test_path_strong_c_mon_all_pairs_hill8():
    cw = cyl.to_strongly_c_monotone(gen.hill(8))
    for a, b in combinations(range(1, 9), 2):
        hp.path_strong_c_mon(cw, a, b)


def test_path_strong_c_mon_x_monotone_case():
    lw = gen.random_x_monotone(6, 3)
    cw = circ.linear_to_circular(lw)
    for a, b in combinations(range(1, 7), 2):
        hp.path_strong_c_mon(cw, a, b)


def test_path_strong_c_mon_rejects_non_strong():
    from tests.test_circular import covering_k4

    with pytest.raises(Exception):
        hp.path_strong_c_mon(covering_k4(), 1, 2)


def test_path_cylindrical_hill9():
    h9 = gen.hill(9)
    p = hp.path_cylindrical(h9, 1, 6)  # outer to inner
    assert p[0] == 1 and p[-1] == 6
    p2 = hp.path_cylindrical(h9, 1, 2)  # both outer
    assert p2[0] == 1 and p2[-1] == 2
    p3 = hp.path_cylindrical(h9, 6, 7)  # both inner
    assert p3[0] == 6 and p3[-1] == 7


def test_path_cylindrical_one_circle_delegates():
    from drawkit.cylinder import ArcDir, CircleEdge, CylindricalDrawing, Face
    from fractions import Fraction as F

    outer = tuple((i + 1, F(i, 4)) for i in range(4))
    circle = tuple(
        CircleEdge(u, v, Face.HOME, ArcDir.CCW if circ.frac1(F(v - u, 4)) <= F(1, 2) else ArcDir.CW)
        for u, v in combinations(range(1, 5), 2)
    )
    cd = CylindricalDrawing(outer, (), (), circle)
    for a, b in combinations(range(1, 5), 2):
        hp.path_cylindrical(cd, a, b)


def test_path_cylindrical_all_pairs_random():
    for seed in range(10):
        n = 4 + seed % 6
        cd = gen.random_cylindrical(n, seed, strong=(seed % 2 == 0))
        for a, b in combinations(range(1, n + 1), 2):
            hp.path_cylindrical(cd, a, b)


def test_path_twisted_examples():
    assert hp.path_twisted(5, 1, 5) == [1, 2, 3, 4, 5]
    assert hp.path_twisted(5, 2, 4) == [2, 1, 3, 5, 4]
    assert hp.path_twisted(4, 2, 3) == [2, 1, 4, 3]


def test_path_twisted_all_pairs_to_n8():
    for n in range(2, 9):
        for a, b in combinations(range(1, n + 1), 2):
            p = hp.path_twisted(n, a, b)
            assert hp.is_crossing_free(CrossingSet(n, rot.nested_rule_pairs(n)), p)


# sha256 of repr() of the list of path_twisted(n, a, b) over n = 2..12 and
# every ordered pair (a, b), in permutations() order; pins the search order
# of the short-span pass and of the fallback
TWISTED_PATHS_DIGEST = "201c126268b5680aa49853b8e4b2a281b07dc58c64aea283011729321c8bdb41"


def test_path_twisted_outputs_are_pinned():
    paths = [
        hp.path_twisted(n, a, b) for n in range(2, 13) for a, b in permutations(range(1, n + 1), 2)
    ]
    assert hashlib.sha256(repr(paths).encode()).hexdigest() == TWISTED_PATHS_DIGEST


def test_path_twisted_fallback_example():
    # no short-span 2..3 path exists at n = 12; the nested-crossing search
    # returns the oracle's first path
    expected = [2, 1, 4, 6, 8, 10, 12, 11, 9, 7, 5, 3]
    assert hp.path_twisted(12, 2, 3) == expected
    assert oracle.find_cf_ham_path(gen.twisted(12), 2, 3) == expected


@pytest.mark.parametrize("a, b", [(0, 2), (1, 6), (3, 3)])
def test_engines_reject_bad_ends(a, b):
    lw = gen.convex(5)[1]
    calls = [
        lambda: hp.path_x_monotone(lw, a, b),
        lambda: hp.path_strong_c_mon(circ.linear_to_circular(lw), a, b),
        lambda: hp.path_cylindrical(gen.hill(5), a, b),
        lambda: hp.path_twisted(5, a, b),
    ]
    for call in calls:
        with pytest.raises(InvalidDrawing, match="end-vertices"):
            call()


def test_short_span_paths_are_always_crossing_free():
    # any Hamiltonian path over distance <= 2 edges avoids nested pairs
    for n in range(4, 11):
        cs = CrossingSet(n, rot.nested_rule_pairs(n))
        path = list(range(1, n + 1))
        assert hp.is_crossing_free(cs, path)
        zig = [2, 1, 3, 5, 4][:n]
        if n == 5:
            assert hp.is_crossing_free(cs, zig)


def test_cycle_via_uncrossed_convex5():
    cs, lw = gen.convex(5)
    cycle = hp.cycle_via_uncrossed(cs, (1, 2), lambda a, b: hp.path_x_monotone(lw, a, b))
    assert sorted(cycle) == [1, 2, 3, 4, 5]
    closed = cycle + [cycle[0]]
    assert hp.is_crossing_free(cs, closed)


def test_cycle_via_uncrossed_hill9_rim():
    h9 = gen.hill(9)
    cs = cyl.crossing_set(h9)
    rim = sorted(cyl.uncrossed_rim_edges(h9)["outer"])[0]
    cycle = hp.cycle_via_uncrossed(cs, rim, lambda a, b: hp.path_cylindrical(h9, a, b))
    assert sorted(cycle) == list(range(1, 10))


def test_cycle_via_uncrossed_rejects_crossed_edge():
    cs, lw = gen.convex(5)
    with pytest.raises(EdgeIsCrossed):
        hp.cycle_via_uncrossed(cs, (1, 3), lambda a, b: hp.path_x_monotone(lw, a, b))


def test_duplicate_apex_planar_triangle():
    cs = CrossingSet(3, frozenset())
    dup = hp.duplicate_apex(cs, [1, 2])
    assert dup.pairs == {((1, 4), (2, 3))}


def test_duplicate_apex_new_edge_uncrossed():
    cs, _ = gen.convex(4)
    dup = hp.duplicate_apex(cs, [1, 2, 3])
    assert all((4, 5) not in pair for pair in dup.pairs)


def test_duplicate_apex_bad_rotation():
    cs, _ = gen.convex(4)
    with pytest.raises(BadRotation):
        hp.duplicate_apex(cs, [1, 2])


def test_duplicate_apex_contraction_on_convex4():
    cs, _ = gen.convex(4)
    dup = hp.duplicate_apex(cs, [1, 2, 3])
    path = oracle.find_cf_ham_path(dup, 4, 5)
    assert path is not None
    cycle = [v for v in path if v != 5]
    assert hp.is_crossing_free(cs, cycle + [cycle[0]])
