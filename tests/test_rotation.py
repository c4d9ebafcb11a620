import hashlib
import os
import random
import re
import subprocess
import sys
from functools import cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drawkit import generators as gen
from drawkit import rotation as rot
from drawkit.errors import InvalidDrawing, SubsetTooSmall, TooLarge, UnrealizableQuadruple
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


def restricted_key_pairs(n, rotations):
    """Crossing pairs from each 4-subset's restricted subsystem looked up in
    the K4 table by its key, the lookup the orientation bits replace."""
    pairs = set()
    for subset in combinations(range(1, n + 1), 4):
        key = rot._restricted_key(rotations, subset)
        if key not in rot._K4_TABLE:
            raise UnrealizableQuadruple(subset)
        hit = rot._K4_TABLE[key]
        if hit is not None:
            (a, b), (c, d) = ((subset[i - 1] for i in e) for e in hit)
            pairs.add(tuple(sorted((tuple(sorted((a, b))), tuple(sorted((c, d)))))))
    return pairs


def first_unrealizable_or_pairs(read, n, rotations):
    try:
        return read(n, rotations)
    except UnrealizableQuadruple as exc:
        return exc.subset


@cache
def seeded_systems():
    """Rotation systems at n = 4..9: twisted, from random point sets, and
    with shuffled rotations (mostly unrealizable)."""
    rng = random.Random(4)
    systems = [gen.twisted_rotation(n).rotations for n in range(4, 10)]
    systems += [gen.from_points(gen.random_point_set(n, seed))[0].rotations
                for n in range(4, 10) for seed in range(3)]
    for n in range(4, 10):
        for _ in range(6):
            rots = [[u for u in range(1, n + 1) if u != v] for v in range(1, n + 1)]
            for r in rots:
                rng.shuffle(r)
            systems.append(tuple(map(tuple, rots)))
    return systems


def test_orientation_bits_match_restricted_keys():
    outcomes = set()
    for rots in seeded_systems():
        n = len(rots)
        pos = rot._positions(rots)
        for subset in combinations(range(1, n + 1), 4):
            want = rot._K4_TABLE.get(rot._restricted_key(rots, subset), False)
            assert rot._k4_class(pos, subset) == want
        got = first_unrealizable_or_pairs(rot._pairs_from_rotations, n, rots)
        assert got == first_unrealizable_or_pairs(restricted_key_pairs, n, rots)
        outcomes.add(type(got))
    assert outcomes == {set, tuple}  # realizable and unrealizable systems both met


def test_k5_orientation_bits_match_restricted_keys():
    outcomes = set()
    keys, _, by_orientation = rot._k5_tables()
    for rots in seeded_systems():
        pos = rot._positions(rots)
        for subset in combinations(range(1, len(rots) + 1), 5):
            want = rot._restricted_key(rots, subset) in keys
            assert (rot._k5_index(pos, subset) in by_orientation) == want
            outcomes.add(want)
    assert outcomes == {False, True}


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


# one malformed pair list per check of CrossingSet, in the order they run
MALFORMED_CROSSINGS = {
    **{
        f"n {n!r}": (n, [], f"crossing set needs an integer n >= 1, got {n!r}")
        for n in (-3, 0, 5.0, "5", True)
    },
    "loop first": (4, [((1, 1), (2, 3))], "a loop is not an edge: (1, 1), (2, 3)"),
    "loop second": (4, [((1, 2), (3, 3))], "a loop is not an edge: (1, 2), (3, 3)"),
    "incident pair": (4, [((1, 2), (2, 3))], "incident edges cannot cross: (1, 2), (2, 3)"),
    "vertex 0": (4, [((0, 2), (3, 4))], "vertex 0 out of range 1..4"),
    "vertex n + 1": (4, [((1, 5), (2, 3))], "vertex 5 out of range 1..4"),
    "two pairings of one quad": (
        4,
        [((1, 3), (2, 4)), ((1, 2), (3, 4))],
        "two crossings on the same 4-subset [1, 2, 3, 4]",
    ),
    "two other pairings of one quad": (
        4,
        [((1, 4), (2, 3)), ((1, 2), (3, 4))],
        "two crossings on the same 4-subset [1, 2, 3, 4]",
    ),
}

# two 4-subsets with two crossings each: the later one in the list comes
# first in the order of the vertices
TWO_CONFLICTS = [((2, 4), (3, 5)), ((2, 3), (4, 5)), ((1, 3), (2, 4)), ((1, 2), (3, 4))]


@pytest.mark.parametrize("pairs", [TWO_CONFLICTS, TWO_CONFLICTS[::-1]], ids=["given", "reversed"])
def test_conflict_names_the_least_4_subset_in_any_order(pairs):
    with pytest.raises(InvalidDrawing, match=re.escape("the same 4-subset [1, 2, 3, 4]")):
        CrossingSet(5, pairs)
    # a malformed pair is named even after a conflict
    with pytest.raises(InvalidDrawing, match="vertex 6 out of range"):
        CrossingSet(5, pairs + [((1, 6), (2, 3))])


ACCEPTED_CROSSINGS = {
    "unsorted edges": (4, [((3, 1), (4, 2))], {((1, 3), (2, 4))}),
    "one pair in both orders": (4, [((1, 3), (2, 4)), ((4, 2), (3, 1))], {((1, 3), (2, 4))}),
    "two quads sharing an edge": (
        5,
        [((1, 3), (2, 4)), ((2, 5), (1, 3))],
        {((1, 3), (2, 4)), ((1, 3), (2, 5))},
    ),
}


@pytest.mark.parametrize("n, pairs, message", MALFORMED_CROSSINGS.values(), ids=MALFORMED_CROSSINGS)
def test_malformed_crossing_set_rejected(n, pairs, message):
    with pytest.raises(InvalidDrawing, match=re.escape(message)):
        CrossingSet(n, pairs)


@pytest.mark.parametrize("n, pairs, want", ACCEPTED_CROSSINGS.values(), ids=ACCEPTED_CROSSINGS)
def test_crossing_set_normalizes_pairs(n, pairs, want):
    assert CrossingSet(n, frozenset(pairs)).pairs == want


# sha256 of repr([[(cs.encode(), rs.rotations) for cs, rs in
# enumerate_realizable(n, with_witness=True)] for n in (3, 4, 5, 6)]): pins the
# classes, their order and their witnesses
ENUMERATION_DIGEST = "688442767e35e7728f128b19bd66f9b2abb389fdcd11ac3b0f359b3218f6a6fa"
# sha256 of repr((sorted(keys), sorted(forms))) for keys, forms of _k5_tables()
K5_TABLES_DIGEST = "2474b6ee9fece473026f59cfeccb1f81014756b7b812508870c9ff1f0af32a2a"


@cache
def classes_with_witnesses(n):
    return tuple(rot.enumerate_realizable(n, with_witness=True))


def test_enumeration_is_pinned():
    got = [
        [(cs.encode(), rs.rotations) for cs, rs in classes_with_witnesses(n)] for n in (3, 4, 5, 6)
    ]
    assert hashlib.sha256(repr(got).encode()).hexdigest() == ENUMERATION_DIGEST


def test_k5_tables_are_pinned():
    keys, forms, _ = rot._k5_tables()
    got = repr((sorted(keys), sorted(forms)))
    assert hashlib.sha256(got.encode()).hexdigest() == K5_TABLES_DIGEST


def test_importing_the_cli_builds_no_k5_table():
    code = (
        "import drawkit.cli\n"
        "from drawkit import rotation as rot\n"
        "print(rot._k5_tables.cache_info().currsize)\n"
    )
    # the child imports the same drawkit as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(rot.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True,
    )
    assert out.returncode == 0 and out.stdout.split() == ["0"], out.stderr


def test_n3_has_one_class_with_its_witness():
    assert classes_with_witnesses(3) == (
        (CrossingSet(3, frozenset()), RotationSystem(3, ((2, 3), (1, 3), (1, 2)))),
    )


def relabel_rotations(rotations, perm, reflect):
    """Vertex v becomes perm[v - 1]; `reflect` reverses every rotation."""
    out = [None] * len(rotations)
    for v, r in enumerate(rotations, start=1):
        out[perm[v - 1] - 1] = tuple(perm[u - 1] for u in (r[::-1] if reflect else r))
    return tuple(out)


def least_relabeling(rotations):
    """Brute force: the least normalized relabeling over all n! relabelings
    and both orientations."""
    n = len(rotations)
    return min(
        tuple(map(rot._norm_cycle, relabel_rotations(rotations, perm, reflect)))
        for perm in permutations(range(1, n + 1))
        for reflect in (False, True)
    )


@st.composite
def rotation_systems(draw, n):
    others = [[u for u in range(1, n + 1) if u != v] for v in range(1, n + 1)]
    return tuple(tuple(draw(st.permutations(row))) for row in others)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data(), n=st.integers(3, 7), reflect=st.booleans())
def test_rotation_key_ignores_relabeling_and_reflection(data, n, reflect):
    rotations = data.draw(rotation_systems(n))
    perm = data.draw(st.permutations(range(1, n + 1)))
    key = rot._rotation_key(rotations)
    assert rot._rotation_key(relabel_rotations(rotations, perm, reflect)) == key
    assert RotationSystem(n, key).rotations == key
    if n <= 5:
        assert key == least_relabeling(rotations)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data(), n=st.integers(5, 6), reflect=st.booleans())
def test_equal_rotation_keys_give_equal_crossing_forms(data, n, reflect):
    cs, rs = data.draw(st.sampled_from(classes_with_witnesses(n)))
    perm = data.draw(st.permutations(range(1, n + 1)))
    moved = RotationSystem(n, relabel_rotations(rs.rotations, perm, reflect))
    assert rot._rotation_key(moved.rotations) == rot._rotation_key(rs.rotations)
    assert rot.canonical_crossing_form(rot.crossings_from_rotation(moved)) == cs


def test_n6_witnesses_have_distinct_rotation_keys():
    keys = {rot._rotation_key(rs.rotations) for _, rs in classes_with_witnesses(6)}
    assert len(keys) == 102
