import random
import pytest

from drawkit import generators as gen
from drawkit import rotation as rot
from drawkit.errors import SubsetTooSmall, TooLarge, UnrealizableQuadruple
from drawkit.rotation import CrossingSet, RotationSystem


def identity_rotations(n):
    return tuple(tuple(u for u in range(1, n + 1) if u != v) for v in range(1, n + 1))


def test_k4_table_has_the_two_classes():
    table = dict(rot._K4_TABLE)
    assert len(table) == 8
    values = {v for v in table.values()}
    crossings = {v for v in values if v is not None}
    assert None in values
    # every labeled crossing pair occurs
    assert crossings == {((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))}


def test_crossings_from_parabola_points():
    rs, cs = gen.from_points(gen.PointSet(((1, 1), (2, 4), (3, 9), (4, 16))))
    assert rot.crossings_from_rotation(rs).pairs == {((1, 3), (2, 4))}
    assert cs.pairs == {((1, 3), (2, 4))}


def test_crossings_triangle_has_no_independent_pairs():
    rs, cs = gen.from_points(gen.PointSet(((0, 0), (3, 5), (6, 1))))
    assert rot.crossings_from_rotation(rs).pairs == frozenset()


def test_crossings_of_twisted_rotation_are_the_nested_pairs():
    rs = gen.twisted_rotation(5)
    assert rot.crossings_from_rotation(rs).pairs == gen.twisted(5).pairs


def test_unrealizable_quadruple_raises():
    rots = list(identity_rotations(5))
    rots[3] = (1, 3, 2, 5)
    bad = RotationSystem(5, tuple(rots))
    with pytest.raises(UnrealizableQuadruple):
        rot.crossings_from_rotation(bad)


def test_induced_subsystem_identity_and_small():
    rs = gen.twisted_rotation(6)
    assert rot.induced_subsystem(rs, range(1, 7)) == rs
    with pytest.raises(SubsetTooSmall):
        rot.induced_subsystem(rs, [1, 2])


def test_induced_convex_subsystem_stays_convex():
    rs, _ = gen.from_points(gen.PointSet(tuple((i, i * i) for i in range(1, 6))))
    sub = rot.induced_subsystem(rs, [1, 2, 3, 4])
    cs = rot.crossings_from_rotation(sub)
    assert rot.canonical_crossing_form(cs).encode() == rot.canonical_crossing_form(
        CrossingSet(4, rot.linked_rule_pairs(4))
    ).encode()


def test_induced_twisted_6_on_tail_is_twisted_5():
    rs = gen.twisted_rotation(6)
    sub = rot.induced_subsystem(rs, [2, 3, 4, 5, 6])
    got = rot.canonical_crossing_form(rot.crossings_from_rotation(sub))
    want = rot.canonical_crossing_form(gen.twisted(5))
    assert got.encode() == want.encode()


def test_restriction_commutes_with_crossing_restriction():
    rng = random.Random(11)
    for _ in range(10):
        pts = gen.random_point_set(7, rng.randrange(10 ** 6))
        rs, cs = gen.from_points(pts)
        subset = sorted(rng.sample(range(1, 8), 5))
        relabel = {v: i + 1 for i, v in enumerate(subset)}
        sub_cs = rot.crossings_from_rotation(rot.induced_subsystem(rs, subset))
        expected = {
            pair
            for pair in cs.pairs
            if all(v in relabel for e in pair for v in e)
        }
        expected = {
            tuple(sorted((tuple(sorted((relabel[e[0]], relabel[e[1]]))),
                          tuple(sorted((relabel[f[0]], relabel[f[1]]))))))
            for e, f in expected
        }
        assert sub_cs.pairs == frozenset(expected)


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(3)
    cs = CrossingSet(5, rot.linked_rule_pairs(5))
    want = rot.canonical_crossing_form(cs).encode()
    for _ in range(12):
        perm = list(range(1, 6))
        rng.shuffle(perm)
        relabeled = rot.relabel_crossing_set(cs, perm)
        assert rot.canonical_crossing_form(relabeled).encode() == want


def test_canonical_encoding_matches_brute_force():
    from itertools import permutations

    rng = random.Random(21)
    for cs in rot.enumerate_realizable(5):
        best = None
        for perm in permutations(range(1, 6)):
            mapped = []
            for (a, b), (c, d) in cs.pairs:
                e = tuple(sorted((perm[a - 1], perm[b - 1])))
                f = tuple(sorted((perm[c - 1], perm[d - 1])))
                mapped.append(tuple(sorted((e, f))))
            mapped.sort()
            if best is None or mapped < best:
                best = mapped
        assert rot.canonical_crossing_form(cs).encode() == tuple(best)


def test_convex_and_twisted_k5_are_different_classes():
    c = rot.canonical_crossing_form(CrossingSet(5, rot.linked_rule_pairs(5)))
    t = rot.canonical_crossing_form(CrossingSet(5, rot.nested_rule_pairs(5)))
    assert c.encode() != t.encode()


def test_empty_crossing_set_is_the_planar_class():
    empty = rot.canonical_crossing_form(CrossingSet(4, frozenset()))
    _, planar = gen.from_points(gen.PointSet(((0, 0), (3, 7), (4, 3), (6, 1))))
    assert empty.encode() == rot.canonical_crossing_form(planar).encode()


def test_canonical_form_size_cap():
    with pytest.raises(TooLarge):
        rot.canonical_crossing_form(CrossingSet(10, frozenset()))


def test_straight_line_crossings_match_segment_oracle():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(4, 8)
        ps = gen.random_point_set(n, rng.randrange(10 ** 6))
        rs, cs = gen.from_points(ps)
        # from_points already cross-checks; re-assert through the public API
        assert rot.crossings_from_rotation(rs).pairs == cs.pairs


def test_realizability_filter_accepts_convex_6():
    rs, _ = gen.from_points(gen.PointSet(tuple((i, i * i) for i in range(1, 7))))
    assert rot.realizability_filter(rs)


def test_realizability_filter_rejects_corrupted_system():
    rots = list(identity_rotations(5))
    rots[3] = (1, 3, 2, 5)
    assert not rot.realizability_filter(RotationSystem(5, tuple(rots)))


def test_k5_reference_forms_number_five():
    forms = rot.k5_reference_forms()
    assert len(forms) == 5
    sizes = sorted(len(f) for f in forms)
    assert sizes == [1, 3, 3, 5, 5]


def test_enumerate_n4_two_classes():
    classes = list(rot.enumerate_realizable(4))
    assert len(classes) == 2
    assert sorted(len(c) for c in classes) == [0, 1]


def test_enumerate_n5_five_classes_with_convex_and_twisted():
    classes = {c.encode() for c in rot.enumerate_realizable(5)}
    assert len(classes) == 5
    assert rot.canonical_crossing_form(CrossingSet(5, rot.linked_rule_pairs(5))).encode() in classes
    assert rot.canonical_crossing_form(CrossingSet(5, rot.nested_rule_pairs(5))).encode() in classes


def test_enumerate_parallel_matches_sequential():
    seq = {c.encode() for c in rot.enumerate_realizable(5)}
    par = {c.encode() for c in rot.enumerate_realizable(5, jobs=2)}
    assert seq == par


class InlinePool:
    """Stand-in for ProcessPoolExecutor: records max_workers, runs inline."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def inline_pools(monkeypatch):
    """Make every ProcessPoolExecutor an InlinePool; returns the sizes asked for."""
    import concurrent.futures

    sizes = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda max_workers: InlinePool(sizes, max_workers)
    )
    return sizes


def test_enumerate_starts_no_more_workers_than_prefix_tasks(monkeypatch):
    sizes = inline_pools(monkeypatch)
    par = {c.encode() for c in rot.enumerate_realizable(5, jobs=32)}
    assert sizes == [6]  # (5 - 2)! rotations of vertex 2
    assert par == {c.encode() for c in rot.enumerate_realizable(5)}
    list(rot.enumerate_realizable(5, jobs=4))
    assert sizes == [6, 4]


def test_enumerate_size_cap():
    with pytest.raises(TooLarge):
        list(rot.enumerate_realizable(8))


def test_at_most_one_crossing_per_quadruple_on_enumerated():
    for cs in rot.enumerate_realizable(5):
        quads = {}
        for e, f in cs.pairs:
            q = frozenset(e) | frozenset(f)
            assert q not in quads
            quads[q] = (e, f)
