import pytest

from drawkit import circular as circ
from drawkit import cylinder as cyl
from drawkit import generators as gen
from drawkit import serial
from drawkit import wiring as w
from drawkit.circular import CircularWiring
from drawkit.errors import CutBlocked, InvalidDrawing


def short_way_triangle():
    """K_3 with all edges on their short arcs (origin outside the triangle)."""
    return CircularWiring(
        n=3,
        ring=(1, 2, 3),
        base_order=(),
        strips=((), (), ()),
        vertex_pos=(0, 0, 0),
        ending=((), ((1, 2),), ((2, 3), (1, 3))),
        starting=(((1, 2), (1, 3)), ((2, 3),), ()),
    )


def long_way_triangle():
    """K_3 where edge {1,2} takes the long way around the origin."""
    return CircularWiring(
        n=3,
        ring=(1, 2, 3),
        base_order=((1, 2),),
        strips=((), (), ()),
        vertex_pos=(0, 0, 1),
        ending=(((1, 2),), (), ((2, 3), (1, 3))),
        starting=(((1, 3),), ((1, 2), (2, 3)), ()),
    )


def covering_k4():
    """K_4 whose edges {1,2} and {3,4} have wedges of three ring steps each
    that together cover the circle; one crossing, swapped in the gap from
    vertex 4 to vertex 2."""
    return CircularWiring(
        n=4,
        ring=(1, 3, 4, 2),
        base_order=((3, 4),),
        strips=((), (2,), (), ()),
        vertex_pos=(1, 0, 0, 1),
        ending=((), ((2, 3), (2, 4), (1, 2)), ((3, 4), (1, 3)), ((1, 4),)),
        starting=(((1, 3), (1, 4), (1, 2)), (), ((2, 3),), ((2, 4), (3, 4))),
    )


def test_wedges_short_and_long_way():
    cw = short_way_triangle()
    assert circ.wedge(cw, (1, 2)) == (0, 1)  # from vertex 1, one step
    cw2 = long_way_triangle()
    assert circ.wedge(cw2, (1, 2)) == (1, 2)  # from vertex 2, two steps
    for cw in (short_way_triangle(), long_way_triangle(), covering_k4()):
        for e in cw.edges():
            p, s = circ.wedge(cw, e)
            assert cw.ring[p] in e and 1 <= s < cw.n
            assert {cw.ring[p], cw.ring[(p + s) % cw.n]} == set(e)
    # gaps 0, 1, 2 and gaps 2, 3, 0
    assert circ.wedge(covering_k4(), (1, 2)) == (0, 3)
    assert circ.wedge(covering_k4(), (3, 4)) == (2, 3)


def test_crossing_sets_of_triangles_are_empty():
    assert circ.crossing_set(short_way_triangle()).pairs == frozenset()
    assert circ.crossing_set(long_way_triangle()).pairs == frozenset()


def test_strongly_c_monotone_checks():
    assert circ.is_strongly_c_monotone(short_way_triangle())
    assert not circ.is_strongly_c_monotone(covering_k4())


def test_star_test_is_derived_once(monkeypatch):
    from tests.test_hampath import K4_MINUS_23

    calls = []
    real = circ._require_complete
    monkeypatch.setattr(circ, "_require_complete", lambda cw: calls.append(1) or real(cw))
    for make, strong in ((short_way_triangle, True), (covering_k4, False)):
        cw = make()
        calls.clear()
        assert circ.is_strongly_c_monotone(cw) is strong
        assert circ.is_strongly_c_monotone(cw) is strong
        assert circ.is_strongly_c_monotone(cw) is strong
        assert len(calls) == 1
        # the kept result is no part of the wiring's value
        assert cw == make() and hash(cw) == hash(make())
        assert serial.dump(cw) == serial.dump(make())
    # an incomplete wiring keeps nothing and raises on every call
    incomplete = circ.linear_to_circular(K4_MINUS_23)
    for _ in range(3):
        with pytest.raises(InvalidDrawing, match="complete graph"):
            circ.is_strongly_c_monotone(incomplete)


def test_covering_k4_has_one_crossing():
    assert circ.crossing_set(covering_k4()).pairs == {((1, 2), (3, 4))}


def test_conversion_is_strongly_c_monotone_for_points_far_below():
    for seed in range(6):
        lw = gen.random_x_monotone(5 + seed % 3, seed)
        cw = circ.linear_to_circular(lw)
        assert circ.is_strongly_c_monotone(cw)


def test_gap_edges_of_hill6_conversion():
    cw = cyl.to_strongly_c_monotone(gen.hill(6))
    flags = circ.gap_edges(cw)
    assert len(flags) == 6
    assert all(inside for _, inside in flags)


def test_gap_edges_form_crossing_free_cycle_when_inside():
    cw = cyl.to_strongly_c_monotone(gen.hill(8))
    flags = circ.gap_edges(cw)
    assert all(inside for _, inside in flags)
    # the cycle is crossing-free: no two gap edges cross each other
    cs = circ.crossing_set(cw)
    gap = [e for e, _ in flags]
    for i in range(len(gap)):
        for j in range(i + 1, len(gap)):
            assert (gap[i], gap[j]) not in cs
    ring = cw.ring
    assert sorted(gap) == sorted(
        tuple(sorted((ring[i], ring[(i + 1) % len(ring)]))) for i in range(len(ring))
    )


def test_cut_recovers_x_monotone_wiring():
    for seed in range(8):
        n = 4 + seed % 5
        lw = gen.random_x_monotone(n, seed)
        assert circ.cut_to_linear(circ.linear_to_circular(lw), n - 1) == lw


def test_cut_blocked_inside_a_wedge():
    cw = short_way_triangle()
    with pytest.raises(CutBlocked):
        circ.cut_to_linear(cw, 0)  # inside the wedge of {1,2}
    lw = circ.cut_to_linear(cw, 2)
    assert w.crossing_set(lw).pairs == frozenset()


def test_composition_invariant_enforced():
    # a sweep that does not return to the base order must be rejected
    with pytest.raises(InvalidDrawing):
        CircularWiring(**_with(K3, base_order=((1, 2),)))


# the rejection table: one malformed circular wiring per check of the
# validating sweep and of the constructor, each one field or two changed in
# a valid K3 or K4 wiring.  K3 is the short-way triangle; K4 has one
# crossing, (1, 3) x (2, 4), swapped at level 1 in the gap that ends at v3.
K3 = dict(
    n=3,
    ring=(1, 2, 3),
    base_order=(),
    strips=((), (), ()),
    vertex_pos=(0, 0, 0),
    ending=((), ((1, 2),), ((2, 3), (1, 3))),
    starting=(((1, 2), (1, 3)), ((2, 3),), ()),
)
K4 = dict(
    n=4,
    ring=(1, 2, 3, 4),
    base_order=(),
    strips=((), (), (1,), ()),
    vertex_pos=(0, 0, 0, 0),
    ending=((), ((1, 2),), ((2, 3), (1, 3)), ((3, 4), (2, 4), (1, 4))),
    starting=(((1, 2), (1, 3), (1, 4)), ((2, 3), (2, 4)), ((3, 4),), ()),
)


def _with(fields, **changes):
    return {**fields, **changes}


MALFORMED_CIRCULAR = {
    # a vertex 4 of the K3, with no place on the ring
    "vertex-out-of-range": _with(K3, vertex_pos=(0, 0, 0, 0)),
    "ring-repeats-a-vertex": _with(K3, ring=(1, 2, 2)),
    "ring-misses-a-vertex": _with(K3, ring=(1, 3)),
    "ring-has-a-vertex-out-of-range": _with(K3, ring=(1, 2, 4)),
    "edge-not-incident": _with(K3, starting=(((1, 2), (2, 3)), ((2, 3),), ())),
    "ending-edge-not-alive": _with(K3, ending=((), ((2, 3),), ((2, 3), (1, 3)))),
    "ending-block-not-contiguous": _with(K4, strips=((), (), (), ())),
    "pos-off-the-ending-block": _with(K3, vertex_pos=(0, 1, 0)),
    "pos-out-of-range": _with(K3, vertex_pos=(1, 0, 0)),
    "edge-starts-while-alive": _with(K3, starting=(((1, 2), (1, 2), (1, 3)), ((2, 3),), ())),
    "swap-level-out-of-range": _with(K3, strips=((), (5,), ())),
    "incident-edges-swap": _with(K3, strips=((), (0,), ())),
    "pair-swaps-twice": _with(K4, strips=((), (), (1, 1), ())),
    # vertex 3 of the K3 has a place on the ring and nothing else
    "vertex-without-event": dict(
        n=3,
        ring=(1, 2, 3),
        base_order=(),
        strips=((), ()),
        vertex_pos=(0, 0),
        ending=((), ((1, 2),)),
        starting=(((1, 2),), ()),
    ),
    "sweep-misses-the-base-order": dict(
        n=2,
        ring=(1, 2),
        base_order=(),
        strips=((), ()),
        vertex_pos=(0, 0),
        ending=((), ()),
        starting=((), ((1, 2),)),
    ),
}


def test_rejection_table_bases_are_valid():
    assert circ.crossing_set(CircularWiring(**K3)).pairs == frozenset()
    assert circ.crossing_set(CircularWiring(**K4)).pairs == {((1, 3), (2, 4))}


@pytest.mark.parametrize("fields", MALFORMED_CIRCULAR.values(), ids=MALFORMED_CIRCULAR)
def test_malformed_circular_wiring_rejected(fields):
    with pytest.raises(InvalidDrawing):
        CircularWiring(**fields)


# edge (1, 2) leaves vertex 1 and comes back to it after a full turn, passing
# the ray of its own end-vertex 2 on the way
FULL_TURN = dict(
    n=3,
    ring=(1, 2, 3),
    base_order=((1, 2),),
    strips=((), (), ()),
    vertex_pos=(0, 2, 1),
    ending=(((1, 2),), (), ((1, 3), (2, 3))),
    starting=(((1, 2), (1, 3)), ((2, 3),), ()),
)


def test_full_turn_edge_rejected():
    with pytest.raises(InvalidDrawing):
        CircularWiring(**FULL_TURN)


def test_unsorted_edge_rejected():
    # the short-way triangle with edge (1, 2) written as (2, 1)
    with pytest.raises(InvalidDrawing):
        CircularWiring(
            **_with(
                K3,
                ending=((), ((2, 1),), ((2, 3), (1, 3))),
                starting=(((2, 1), (1, 3)), ((2, 3),), ()),
            )
        )


def test_base_edge_that_never_starts_rejected():
    # (7, 9) is carried once around the circle but is no edge of the K3
    with pytest.raises(InvalidDrawing):
        CircularWiring(**_with(K3, base_order=((7, 9),)))
