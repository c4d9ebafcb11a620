import hashlib
import json
from itertools import combinations

import pytest

from drawkit import cylinder as cyl
from drawkit import generators as gen
from drawkit import rotation as rot
from drawkit import serial
from drawkit import wiring as w
from drawkit.errors import DegeneratePointSet, InvalidDrawing


def binom4(n):
    return n * (n - 1) * (n - 2) * (n - 3) // 24


def test_convex_sizes_match_binomial():
    for n in range(3, 11):
        cs, lw = gen.convex(n)
        assert len(cs) == binom4(n)
        assert w.crossing_set(lw).pairs == cs.pairs


def test_convex_4_single_pair():
    cs, _ = gen.convex(4)
    assert cs.pairs == {((1, 3), (2, 4))}


def test_twisted_sizes_and_pairs():
    assert gen.twisted(4).pairs == {((1, 4), (2, 3))}
    assert gen.twisted(5).pairs == {
        ((1, 4), (2, 3)),
        ((1, 5), (2, 3)),
        ((1, 5), (2, 4)),
        ((1, 5), (3, 4)),
        ((2, 5), (3, 4)),
    }
    for n in range(3, 11):
        assert len(gen.twisted(n)) == binom4(n)


def test_twisted_rotation_matches_rule_up_to_8():
    for n in range(3, 9):
        rs = gen.twisted_rotation(n)
        assert rot.crossings_from_rotation(rs).pairs == gen.twisted(n).pairs


def test_point_set_invariants():
    with pytest.raises(DegeneratePointSet):
        gen.PointSet(((0, 0), (1, 1), (2, 2)))
    with pytest.raises(DegeneratePointSet):
        gen.PointSet(((0, 0), (0, 1), (2, 5)))


def test_from_points_parabola_and_triangle():
    _, cs = gen.from_points(gen.PointSet(((1, 1), (2, 4), (3, 9), (4, 16))))
    assert cs.pairs == {((1, 3), (2, 4))}
    _, cs2 = gen.from_points(gen.PointSet(((0, 0), (3, 7), (4, 3), (6, 1))))
    assert cs2.pairs == frozenset()


def test_from_points_parabola_5_is_the_convex_class():
    _, cs = gen.from_points(gen.PointSet(tuple((i, i * i) for i in range(1, 6))))
    assert len(cs) == 5
    assert (
        rot.canonical_crossing_form(cs).encode()
        == rot.canonical_crossing_form(gen.convex(5)[0]).encode()
    )


def test_two_page_one_page_degenerates_to_convex_rule():
    cs, _ = gen.two_page(4, {e: 0 for e in combinations(range(1, 5), 2)})
    assert cs.pairs == {((1, 3), (2, 4))}


def test_two_page_separating_the_linked_pair():
    pages = {e: 0 for e in combinations(range(1, 5), 2)}
    pages[(2, 4)] = 1
    cs, lw = gen.two_page(4, pages)
    assert cs.pairs == frozenset()
    assert w.crossing_set(lw).pairs == frozenset()


@pytest.mark.parametrize(
    "change, message",
    [("drop", "edges of K_4"), ("extra", "edges of K_4"), ("page", "must be 0 or 1")],
)
def test_two_page_rejects_a_bad_page_map(change, message):
    pages = {e: 0 for e in combinations(range(1, 5), 2)}
    if change == "drop":
        del pages[(2, 4)]
    elif change == "extra":
        pages[(1, 9)] = 1
    else:
        pages[(2, 4)] = 2
    with pytest.raises(InvalidDrawing, match=message):
        gen.two_page(4, pages)


def test_two_page_k8_fixture_has_uncrossed_spine_cycle():
    cs, lw = gen.two_page_crossing_minimal_k8()
    crossed = {e for pair in cs.pairs for e in pair}
    spine = [(i, i + 1) for i in range(1, 8)] + [(1, 8)]
    assert all(e not in crossed for e in spine)
    assert len(cs) == 18  # the known minimum for a book drawing on 8 vertices
    assert w.crossing_set(lw).pairs == cs.pairs


def test_hill_is_strongly_cylindrical():
    for n in (3, 5, 8, 9):
        assert cyl.is_strongly_cylindrical(gen.hill(n))


def test_hill_crossing_counts_match_the_geodesic_values():
    def zvalue(n):
        return (n // 2) * ((n - 1) // 2) * ((n - 2) // 2) * ((n - 3) // 2) // 4

    for n in range(3, 10):
        assert len(cyl.crossing_set(gen.hill(n))) == zvalue(n)


def test_hill5_is_one_of_the_five_classes():
    cs = cyl.crossing_set(gen.hill(5))
    assert rot.canonical_crossing_form(cs).encode() in rot.k5_reference_forms()


def test_hill5_matches_the_three_two_point_configuration():
    cs = cyl.crossing_set(gen.hill(5))
    # three hull points with two interior points: the unique 1-crossing class
    ps = gen.PointSet(((0, 0), (2, 3), (3, 1), (5, 9), (10, 2)))
    _, cs2 = gen.from_points(ps)
    assert len(cs2) == 1
    assert (
        rot.canonical_crossing_form(cs).encode()
        == rot.canonical_crossing_form(cs2).encode()
    )


def test_four_plus_one_configuration_is_a_third_class():
    ps = gen.PointSet(((0, 0), (4, 0 + 1), (5, 6), (1, 5), (3, 3)))
    _, cs = gen.from_points(ps)
    assert len(cs) == 3
    assert rot.canonical_crossing_form(cs).encode() in rot.k5_reference_forms()


def test_generator_classes_cover_four_of_the_five():
    forms = {
        rot.canonical_crossing_form(gen.convex(5)[0]).encode(),
        rot.canonical_crossing_form(gen.twisted(5)).encode(),
        rot.canonical_crossing_form(cyl.crossing_set(gen.hill(5))).encode(),
        rot.canonical_crossing_form(
            gen.from_points(gen.PointSet(((0, 0), (4, 1), (5, 6), (1, 5), (3, 3))))[1]
        ).encode(),
    }
    assert len(forms) == 4
    assert forms <= rot.k5_reference_forms()


def test_random_cylindrical_deterministic_and_valid():
    a = gen.random_cylindrical(6, 1, strong=True)
    b = gen.random_cylindrical(6, 1, strong=True)
    assert a == b
    assert cyl.is_strongly_cylindrical(a)
    cs = cyl.crossing_set(a)
    quads = set()
    for e, f in cs.pairs:
        q = frozenset(e) | frozenset(f)
        assert q not in quads
        quads.add(q)


def test_random_x_monotone_deterministic():
    a = gen.random_x_monotone(6, 9)
    b = gen.random_x_monotone(6, 9)
    assert a == b


def test_random_x_monotone_small_instances_have_at_most_one_crossing():
    for seed in range(6):
        lw = gen.random_x_monotone(4, seed)
        assert len(w.crossing_set(lw)) <= 1


def test_random_x_monotone_extreme_edges_uncrossed():
    for seed in range(10):
        n = 5 + seed % 4
        lw = gen.random_x_monotone(n, seed)
        crossed = {e for pair in w.crossing_set(lw).pairs for e in pair}
        assert (1, 2) not in crossed
        assert (n - 1, n) not in crossed


def side_record(lw):
    """What the strip redraw keeps of a wiring: sides, incident orders,
    vertex positions and crossings; the swap order inside strips is left out."""
    xb = w.extract_xbounded(lw)
    sides = sorted((e, v, s.value) for (e, v), s in xb.side.items())
    return (lw.n, sides, xb.left_order, xb.right_order, lw.vertex_pos,
            sorted(w.crossing_set(lw).pairs))


# sha256 of repr() of the side records of random_x_monotone(n, seed) for
# n = 3..14 and seeds 0..19, convex(3..12) and the 2-page K8 fixture,
# computed with the earlier generators that swept exact curves; it pins that
# building the wirings from side data changed no side, order or crossing,
# and that every seed still maps to the same instance
SIDE_DATA_DIGEST = "4a8401f32fe0e773cf96f4022e849a85aaac9d55e5f1d3a5c0411abaf8e11d32"


def test_x_monotone_side_data_is_pinned():
    lws = [gen.random_x_monotone(n, seed) for n in range(3, 15) for seed in range(20)]
    lws += [gen.convex(n)[1] for n in range(3, 13)]
    lws.append(gen.two_page_crossing_minimal_k8()[1])
    records = [side_record(lw) for lw in lws]
    assert hashlib.sha256(repr(records).encode()).hexdigest() == SIDE_DATA_DIGEST


# sha256 of the JSON (sorted keys) of the serial.dump() of
# random_cylindrical(n, seed, strong), its normalize_winding result and that
# result's remove_double_spirals result, for both flags, n = 3..14 and seeds
# 0..9.  It equals the digest of the documents of the earlier model, which
# kept Fraction angles, with every drawing ranked onto its slot grid; it
# pins that the slot grid changed no drawing and kept every seed's instance.
# One ranked document differs: the spiral result of the non-strong n = 7,
# seed 0 drawing moves a block of inner vertices across the 0-ray, so the
# earlier one is this one with every slot turned one step counter-clockwise
CYLINDRICAL_CHAIN_DIGEST = "9fb56b67ca426dd31ad9eb5bf9555b80b693b61709b0531017c83db39982f424"


def test_random_cylindrical_and_its_spiral_chain_are_pinned():
    docs = []
    for strong in (False, True):
        for n in range(3, 15):
            for seed in range(10):
                cd = gen.random_cylindrical(n, seed, strong)
                norm = cyl.normalize_winding(cd)
                docs += [serial.dump(d) for d in (cd, norm, cyl.remove_double_spirals(norm))]
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == CYLINDRICAL_CHAIN_DIGEST
