import hashlib
import random
from itertools import combinations, permutations

import pytest

from drawkit import circular as circ
from drawkit import cylinder as cyl
from drawkit import generators as gen
from drawkit import hampath as hp
from drawkit import oracle
from drawkit import rotation as rot
from drawkit import wiring as w
from drawkit.cylinder import ArcDir, CircleEdge, CylindricalDrawing, Face
from drawkit.errors import BadRotation, EdgeIsCrossed, InvalidDrawing
from drawkit.rotation import CrossingSet
from drawkit.wiring import LinearWiring

# valid drawings that are not drawings of a complete graph: x-monotone
# wirings of K_3 minus {1, 3} and of K_4 minus {2, 3}, and hill(6) minus
# {3, 5}, {3, 6} and {5, 6}
K3_MINUS_13 = LinearWiring(
    3, ((), ()), (0, 0, 0), ((), ((1, 2),), ((2, 3),)), (((1, 2),), ((2, 3),), ())
)
K4_MINUS_23 = LinearWiring(
    4,
    ((), (), ()),
    (0, 2, 1, 0),
    ((), ((1, 2),), ((1, 3),), ((1, 4), (3, 4), (2, 4))),
    (((1, 4), (1, 3), (1, 2)), ((2, 4),), ((3, 4),), ()),
)


def hill6_minus_three_edges() -> CylindricalDrawing:
    h6 = gen.hill(6)
    gone = {(3, 5), (3, 6), (5, 6)}
    return CylindricalDrawing(
        h6.m,
        h6.outer,
        h6.inner,
        tuple(le for le in h6.lateral if le.edge not in gone),
        tuple(ce for ce in h6.circle if ce.edge not in gone),
    )


def all_pairs_digest(models, engine):
    """sha256 of repr() of engine(model, a, b) over the models and, for each,
    every ordered pair (a, b) in permutations() order."""
    paths = [
        engine(model, a, b) for model in models for a, b in permutations(range(1, model.n + 1), 2)
    ]
    return hashlib.sha256(repr(paths).encode()).hexdigest()


def one_circle(n: int, seed: int) -> CylindricalDrawing:
    """Seeded cylindrical drawing with all vertices on one circle (the outer
    one for odd seeds): random slots, faces and arc directions, resampled
    until valid."""
    rng = random.Random(repr(("one-circle", n, seed)))
    while True:
        nums = rng.sample(range(64), n)
        ring = tuple((v, nums[v - 1]) for v in range(1, n + 1))
        circle = tuple(
            CircleEdge(
                u,
                v,
                Face.LATERAL if rng.random() < 0.4 else Face.HOME,
                rng.choice((ArcDir.CW, ArcDir.CCW)),
            )
            for u, v in combinations(range(1, n + 1), 2)
        )
        rings = (ring, ()) if seed % 2 else ((), ring)
        try:
            cd = CylindricalDrawing(64, *rings, (), circle)
            cyl.crossing_set(cd)
            return cd
        except InvalidDrawing:
            continue


def test_is_crossing_free_examples():
    c4, _ = gen.convex(4)
    assert hp.is_crossing_free(c4, [1, 2, 3, 4])
    assert hp.is_crossing_free(c4, [2, 1, 3, 4])
    t4 = gen.twisted(4)
    assert not hp.is_crossing_free(t4, [1, 4, 2, 3])


@pytest.mark.parametrize("walk", [[1, 5], [0, 1], [2, 2], [1, 2, 2, 3]])
def test_is_crossing_free_rejects_a_walk_outside_k_n(walk):
    c4, _ = gen.convex(4)
    with pytest.raises(InvalidDrawing, match="not a walk"):
        hp.is_crossing_free(c4, walk)


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


# all_pairs_digest of each engine on fixed seeded instances, computed with
# the earlier recursion that built an induced sub-model at every node; they
# pin that reading sides from the input model changed no path.  The strong
# value was taken again when the direction choice's reference ray became half
# a slot past the first outer vertex, which changed the wiring of
# random_cylindrical(5, 1, strong=True) (see REALIZATION_SIDE_DIGESTS)
XMONO_PATHS_DIGEST = "3ba1c71cdb36814251cc3c458a2db6f58748c2dd01bd39f55ad0ced8054ccce8"
STRONG_PATHS_DIGEST = "5d8e959265cde30e29a352f941e22a8dadc9d12844e7e303c22217d95d6cc8fe"
ONE_CIRCLE_PATHS_DIGEST = "35c25f8ff47b7afaba8d27b50693c54ef4ef9ff705a3f2686c11dd9ee4694217"
CYLINDRICAL_PATHS_DIGEST = "66ec6c34627b639832d6865bf45a928d5c0a131c1bb779eb741300d10aeb86c2"


def test_path_x_monotone_outputs_are_pinned():
    models = [gen.random_x_monotone(n, seed) for n in range(4, 13) for seed in (0, 1)]
    assert all_pairs_digest(models, hp.path_x_monotone) == XMONO_PATHS_DIGEST


def test_path_strong_c_mon_outputs_are_pinned():
    # wedge and escaped-gap cases from realized drawings, the wedge case on
    # hills, the escaped-gap case on embedded x-monotone wirings
    models = []
    for n in range(5, 9):
        for seed in (0, 1):
            cd = gen.random_cylindrical(n, seed, strong=True)
            cd = cyl.remove_double_spirals(cyl.normalize_winding(cd))
            models.append(cyl.to_strongly_c_monotone(cd))
        models.append(cyl.to_strongly_c_monotone(gen.hill(n)))
        models.append(circ.linear_to_circular(gen.random_x_monotone(n, 0)))
    assert all_pairs_digest(models, hp.path_strong_c_mon) == STRONG_PATHS_DIGEST


def test_path_cylindrical_one_circle_outputs_are_pinned():
    models = [one_circle(n, seed) for n in range(3, 9) for seed in range(4)]
    assert all_pairs_digest(models, hp.path_cylindrical) == ONE_CIRCLE_PATHS_DIGEST


def test_path_cylindrical_two_circle_outputs_are_pinned():
    models = [
        gen.random_cylindrical(n, seed, strong)
        for strong in (True, False)
        for n in range(3, 11)
        for seed in range(4)
    ] + [gen.hill(n) for n in range(3, 12)]
    assert all_pairs_digest(models, hp.path_cylindrical) == CYLINDRICAL_PATHS_DIGEST


def test_path_strong_c_mon_adjacent_ends_use_gap_edges():
    cw = cyl.to_strongly_c_monotone(gen.hill(6))
    ring = cw.ring
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
    outer = tuple((i + 1, i) for i in range(4))
    circle = tuple(
        CircleEdge(u, v, Face.HOME, ArcDir.CCW if v - u <= 2 else ArcDir.CW)
        for u, v in combinations(range(1, 5), 2)
    )
    cd = CylindricalDrawing(4, outer, (), (), circle)
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


def nest_free_twisted_path(path, n, a, b):
    """Whether path is a Hamiltonian a-b path in T_n with no nested pair of
    edges (p < q < r < s for edges {p, s} and {q, r}).  With the edges
    sorted, an edge nests inside an earlier one exactly when its right end is
    below an earlier right end, so no pair nests iff the right ends never
    decrease."""
    edges = sorted(tuple(sorted(e)) for e in zip(path, path[1:]))
    rights = [d for _, d in edges]
    return sorted(path) == list(range(1, n + 1)) and path[0] == a and path[-1] == b \
        and rights == sorted(rights)


def test_path_twisted_every_pair_to_n64():
    for n in range(2, 65):
        for a, b in permutations(range(1, n + 1), 2):
            assert nest_free_twisted_path(hp.path_twisted(n, a, b), n, a, b), (n, a, b)


def test_oracle_finds_a_twisted_path_for_every_pair_to_n9():
    for n in range(3, 10):
        cs = gen.twisted(n)
        for a, b in permutations(range(1, n + 1), 2):
            assert oracle.find_cf_ham_path(cs, a, b) is not None


def least_short_span_path(n, a, b):
    """Lexicographically least Hamiltonian a-b path whose edges span at most
    two, or None."""
    def rec(path, seen):
        if len(path) == n:
            return path
        u = path[-1]
        for v in range(max(1, u - 2), min(n, u + 2) + 1):
            if v not in seen and (v != b or len(path) == n - 1):
                found = rec(path + [v], seen | {v})
                if found:
                    return found
        return None

    return rec([a], {a})


# sha256 of repr() of the list of path_twisted(n, a, b) over n = 2..12 and
# every ordered pair (a, b), in permutations() order; pins the closed form
TWISTED_PATHS_DIGEST = "6f723c549f631cb62136615da109a32cafb88a9003a02010cbbd9ab538e8ab08"


def test_path_twisted_outputs_are_pinned():
    paths = []
    for n in range(2, 13):
        for a, b in permutations(range(1, n + 1), 2):
            path = hp.path_twisted(n, a, b)
            if a < b and not (b == a + 1 and 2 <= a <= n - 2):
                # the rows kept from the search engine, whose short-span pass
                # returned the least path over edges spanning at most two
                assert path == least_short_span_path(n, a, b), (n, a, b)
            else:
                assert nest_free_twisted_path(path, n, a, b), (n, a, b)
            paths.append(path)
    assert hashlib.sha256(repr(paths).encode()).hexdigest() == TWISTED_PATHS_DIGEST


def test_path_twisted_fallback_example():
    # the closed form for the end pair (2, 3) is the oracle's first path
    expected = [2, 1, 4, 6, 8, 10, 12, 11, 9, 7, 5, 3]
    assert hp.path_twisted(12, 2, 3) == expected
    assert oracle.find_cf_ham_path(gen.twisted(12), 2, 3) == expected


def test_path_twisted_has_no_size_cap(monkeypatch):
    monkeypatch.delenv("DRAWKIT_MAX_N", raising=False)
    for n, a, b in ((15, 2, 3), (64, 31, 32)):
        path = hp.path_twisted(n, a, b)
        assert nest_free_twisted_path(path, n, a, b)
    assert hp.is_crossing_free(gen.twisted(15), hp.path_twisted(15, 2, 3))
    assert hp.path_twisted(20, 1, 20) == list(range(1, 21))


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


@pytest.mark.parametrize(
    "engine, model",
    [
        (hp.path_x_monotone, K3_MINUS_13),
        (hp.path_x_monotone, K4_MINUS_23),
        (hp.path_cylindrical, hill6_minus_three_edges()),
    ],
    ids=["xmono-K3-minus-13", "xmono-K4-minus-23", "cylindrical-hill6-minus-3"],
)
def test_engines_reject_incomplete_drawings(engine, model):
    for a, b in permutations(range(1, model.n + 1), 2):
        with pytest.raises(InvalidDrawing, match="complete graph"):
            engine(model, a, b)


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


@pytest.mark.parametrize("edge", [(3, 3), (0, 5), (1, 6)])
def test_cycle_via_uncrossed_rejects_a_non_edge(edge):
    # row 0 and the diagonal of the edge numbering would read as edge {1, 2}
    cs, _ = gen.convex(5)
    with pytest.raises(InvalidDrawing, match="is not an edge of K_5"):
        hp.cycle_via_uncrossed(cs, edge, lambda a, b: pytest.fail("path_fn was called"))


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
