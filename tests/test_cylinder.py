from fractions import Fraction

import pytest

from drawkit import circular as circ
from drawkit import cylinder as cyl
from drawkit import generators as gen
from drawkit.cylinder import ArcDir, CircleEdge, CylindricalDrawing, Face, LateralEdge
from drawkit.errors import InvalidDrawing, RangeTooWide, RealizationMismatch, WrongFace

F = Fraction


def five_outer(extra_circle=()):
    outer = tuple((i + 1, F(i, 5)) for i in range(5))
    return CylindricalDrawing(outer, (), (), tuple(extra_circle))


def test_guards_both_arcs():
    cd = five_outer([CircleEdge(1, 3, Face.LATERAL, ArcDir.CCW)])
    assert cyl.guards(cd, (1, 3)) == {1, 2, 3}
    cd2 = five_outer([CircleEdge(1, 3, Face.LATERAL, ArcDir.CW)])
    assert cyl.guards(cd2, (1, 3)) == {1, 3, 4, 5}


def test_guards_whole_circle():
    cd = five_outer([CircleEdge(1, 2, Face.LATERAL, ArcDir.CW)])
    assert cyl.guards(cd, (1, 2)) == {1, 2, 3, 4, 5}


def test_guards_rejects_home_edges():
    cd = five_outer([CircleEdge(1, 3, Face.HOME, ArcDir.CCW)])
    with pytest.raises(WrongFace):
        cyl.guards(cd, (1, 3))


def lateral_pair(omega_e, omega_f, theta_f=F(1, 2)):
    """Two outer and two inner vertices carrying just two lateral edges."""
    outer = ((1, F(0)), (2, theta_f))
    inner = ((3, circ.frac1(F(0) + omega_e)), (4, circ.frac1(theta_f + omega_f)))
    lateral = (LateralEdge(1, 3, omega_e), LateralEdge(2, 4, omega_f))
    return CylindricalDrawing(outer, inner, lateral, ())


def test_lateral_rule_examples():
    cd = lateral_pair(F(9, 10), F(9, 10))
    assert cyl.crossing_set(cd).pairs == frozenset()  # delta + 0 = 1/2
    cd2 = lateral_pair(F(9, 10), F(-4, 10))
    # 1/2 - 4/10 - 9/10 = -8/10: outside [0, 1], so they cross
    assert cyl.crossing_set(cd2).pairs == {((1, 3), (2, 4))}


def geodesic_crossing_count(cd):
    """Independent crossing counter for home-face-only drawings.

    Lateral pairs: a crossing for every integer strictly between the angular
    gaps at the two rims, counted by floor differences of the lifted gap.
    Home circle pairs: endpoint interleaving around their circle.  Edges in
    different faces never meet.
    """
    import math
    from itertools import combinations as comb

    angles = {v: a for v, a in cd.outer + cd.inner}
    count = 0
    for e, f in comb(cd.lateral, 2):
        if e.u == f.u or e.w == f.w:
            continue
        g0 = circ.frac1(angles[f.u] - angles[e.u])
        g1 = g0 + f.omega - e.omega
        count += abs(math.floor(g1) - math.floor(g0))
    home = [ce for ce in cd.circle if ce.face is Face.HOME]
    for e, f in comb(home, 2):
        if set(e.edge) & set(f.edge):
            continue
        if cd.circle_of(e.u) != cd.circle_of(f.u):
            continue
        ring = sorted((angles[v], v) for v in (*e.edge, *f.edge))
        owners = [v in e.edge for _, v in ring]
        if owners[0] != owners[1] and owners[1] != owners[2]:
            count += 1
    return count


def test_hill9_crossings_against_independent_counter():
    h9 = gen.hill(9)
    assert geodesic_crossing_count(h9) == len(cyl.crossing_set(h9)) == 36


def test_independent_counter_agrees_on_strong_random_instances():
    for seed in range(10):
        cd = gen.random_cylindrical(5 + seed % 5, seed, strong=True)
        assert geodesic_crossing_count(cd) == len(cyl.crossing_set(cd))


def test_hill5_is_the_fig_class():
    cs = cyl.crossing_set(gen.hill(5))
    from drawkit import rotation as rot

    assert rot.canonical_crossing_form(cs).encode() in rot.k5_reference_forms()
    assert len(cs) == 1


def test_uncrossed_rim_edges_hill9():
    ur = cyl.uncrossed_rim_edges(gen.hill(9))
    rims = cyl.rim_edges(gen.hill(9))
    assert ur["outer"] == set(rims["outer"])
    assert ur["inner"] == set(rims["inner"])


def test_rim_edge_guarding_whole_circle_is_the_only_crossed_one():
    outer = ((1, F(0)),)
    inner = ((2, F(1, 10)), (3, F(2, 10)), (4, F(3, 10)))
    lateral = tuple(
        LateralEdge(1, v, circ.frac1(a)) for v, a in inner
    )
    circle = (
        CircleEdge(2, 3, Face.LATERAL, ArcDir.CW),  # guards the whole circle
        CircleEdge(3, 4, Face.HOME, ArcDir.CCW),
        CircleEdge(2, 4, Face.HOME, ArcDir.CW),
    )
    cd = CylindricalDrawing(outer, inner, lateral, circle)
    assert cyl.guards(cd, (2, 3)) == {2, 3, 4}
    cs = cyl.crossing_set(cd)
    assert ((1, 4), (2, 3)) in cs.pairs  # the guarded lateral edge crosses it
    ur = cyl.uncrossed_rim_edges(cd)
    assert (3, 4) in ur["inner"] and (2, 4) in ur["inner"]
    assert (2, 3) not in ur["inner"]


def test_normalize_winding_example():
    cd = CylindricalDrawing(
        ((1, F(0)), (2, F(2, 10))),
        ((3, F(8, 10)), (4, F(7, 10))),
        (LateralEdge(1, 3, F(-12, 10)), LateralEdge(2, 4, F(5, 10))),
        (),
    )
    nd = cyl.normalize_winding(cd)
    omegas = sorted(le.omega for le in nd.lateral)
    assert omegas == [F(-85, 100), F(85, 100)]
    assert cyl.crossing_set(nd).pairs == cyl.crossing_set(cd).pairs


def test_normalize_winding_noop_and_hill():
    h = gen.hill(7)
    assert cyl.normalize_winding(h) == h
    cd = lateral_pair(F(1, 4), F(-1, 8))
    assert cyl.normalize_winding(cd) == cd


def test_normalize_winding_range_too_wide():
    outer = ((1, F(0)), (2, F(1, 2)))
    inner = ((3, F(3, 10)), (4, F(4, 10)))
    with pytest.raises((RangeTooWide, InvalidDrawing)):
        cd = CylindricalDrawing(
            outer,
            inner,
            (LateralEdge(1, 3, F(13, 10)), LateralEdge(2, 4, F(-11, 10))),
            (),
        )
        cyl.normalize_winding(cd)


def test_find_double_spirals_example():
    cd = lateral_pair(F(9, 10), F(9, 10))
    assert cyl.find_double_spirals(cd) == [((1, 3), (2, 4))]


def test_hill_has_no_double_spirals():
    for n in (5, 8, 9):
        assert cyl.find_double_spirals(gen.hill(n)) == []


def test_incident_lateral_pairs_never_reported_as_spirals():
    outer = ((1, F(0)),)
    inner = ((2, F(45, 100)), (3, F(55, 100)))
    cd = CylindricalDrawing(
        outer,
        inner,
        (LateralEdge(1, 2, F(45, 100)), LateralEdge(1, 3, F(55, 100))),
        (CircleEdge(2, 3, Face.HOME, ArcDir.CCW),),
    )
    assert cyl.find_double_spirals(cd) == []


def spiral_k4():
    """Complete K_4 on two circles whose lateral edges (1,3), (2,4) form a
    counter-clockwise double-spiral; the drawing has no crossings at all."""
    outer = ((1, F(0)), (2, F(1, 2)))
    inner = ((3, F(9, 10)), (4, F(4, 10)))
    lateral = (
        LateralEdge(1, 3, F(9, 10)),
        LateralEdge(2, 4, F(9, 10)),
        LateralEdge(1, 4, F(4, 10)),
        LateralEdge(2, 3, F(4, 10)),
    )
    circle = (
        CircleEdge(1, 2, Face.HOME, ArcDir.CCW),
        CircleEdge(3, 4, Face.HOME, ArcDir.CW),
    )
    return CylindricalDrawing(outer, inner, lateral, circle)


def both_spirals_k8():
    """K_8 with one clockwise and one counter-clockwise double-spiral."""
    outer = tuple((i + 1, F(i, 4)) for i in range(4))
    inner = ((5, F(4, 10)), (6, F(9, 10)), (7, F(85, 100)), (8, F(35, 100)))
    angles = dict(outer + inner)
    special = {(1, 5): F(-6, 10), (3, 6): F(-6, 10), (2, 7): F(6, 10), (4, 8): F(6, 10)}
    lateral = []
    for u in range(1, 5):
        for v in range(5, 9):
            if (u, v) in special:
                omega = special[(u, v)]
            else:
                d = circ.frac1(angles[v] - angles[u])
                omega = d if d <= F(1, 2) else d - 1
            lateral.append(LateralEdge(u, v, omega))
    circle = []
    from itertools import combinations

    for ring in (range(1, 5), range(5, 9)):
        for u, v in combinations(ring, 2):
            ccw = circ.frac1(angles[v] - angles[u])
            arc = ArcDir.CCW if ccw <= F(1, 2) else ArcDir.CW
            circle.append(CircleEdge(u, v, Face.HOME, arc))
    return CylindricalDrawing(outer, inner, tuple(lateral), tuple(circle))


def test_remove_double_spirals_on_the_k4_fixture():
    cd = spiral_k4()
    before = cyl.crossing_set(cd)
    assert before.pairs == frozenset()
    assert len(cyl.find_double_spirals(cd)) == 1
    after = cyl.remove_double_spirals(cd)
    assert cyl.find_double_spirals(after) == []
    assert cyl.crossing_set(after).pairs == before.pairs


def test_remove_double_spirals_handles_both_directions():
    cd = both_spirals_k8()
    spirals = cyl.find_double_spirals(cd)
    by_edge = {le.edge: le for le in cd.lateral}
    signs = {by_edge[p[0]].omega > 0 for p in spirals}
    assert signs == {True, False}
    before = cyl.crossing_set(cd)
    after = cyl.remove_double_spirals(cd)
    assert cyl.find_double_spirals(after) == []
    assert cyl.crossing_set(after).pairs == before.pairs


def test_remove_double_spirals_identity_on_hill():
    h = gen.hill(8)
    assert cyl.remove_double_spirals(h) == h


def test_to_circular_wiring_preserves_crossings():
    for n in (3, 5, 6, 9):
        h = gen.hill(n)
        cw = cyl.to_circular_wiring(h)
        assert circ.crossing_set(cw).pairs == cyl.crossing_set(h).pairs


def test_to_circular_wiring_with_lateral_face_circle_edges():
    hit_lateral_face = 0
    for seed in range(14):
        cd = gen.random_cylindrical(5 + seed % 4, seed, strong=False)
        if not cyl.is_strongly_cylindrical(cd):
            hit_lateral_face += 1
        dd = cyl.remove_double_spirals(cyl.normalize_winding(cd))
        cw = cyl.to_circular_wiring(dd)
        assert circ.crossing_set(cw).pairs == cyl.crossing_set(cd).pairs
    assert hit_lateral_face >= 3


def test_realization_retries_when_curves_meet_at_a_breakpoint():
    # on the first attempt two laterals meet exactly at a shared polyline
    # breakpoint, so their swap is not reported and the events do not form a
    # valid wiring; a later attempt realizes the drawing
    cd = cyl.normalize_winding(gen.random_cylindrical(7, 32301026, strong=False))
    cw = cyl.to_circular_wiring(cd)
    assert circ.crossing_set(cw).pairs == cyl.crossing_set(cd).pairs


def test_strong_chain_retries_when_curves_meet_at_a_breakpoint():
    cd = gen.random_cylindrical(10, 253775303, strong=True)
    dd = cyl.remove_double_spirals(cyl.normalize_winding(cd))
    cw = cyl.to_strongly_c_monotone(dd)
    assert circ.is_strongly_c_monotone(cw)
    assert circ.crossing_set(cw).pairs == cyl.crossing_set(cd).pairs


def test_realization_mismatch_lists_every_attempt(monkeypatch):
    def degenerate(cd, attempt):
        raise cyl._RetryRealization(f"degenerate {attempt}")

    monkeypatch.setattr(cyl, "_realize", degenerate)
    with pytest.raises(RealizationMismatch) as info:
        cyl.to_circular_wiring(gen.hill(5))
    for attempt in range(10):
        assert f"attempt {attempt}: degenerate {attempt}" in str(info.value)


def test_to_circular_wiring_rim_only_drawing():
    outer = ((1, F(0)), (2, F(1, 3)), (3, F(2, 3)))
    inner = ()
    circle = (
        CircleEdge(1, 2, Face.HOME, ArcDir.CCW),
        CircleEdge(2, 3, Face.HOME, ArcDir.CCW),
        CircleEdge(1, 3, Face.HOME, ArcDir.CW),
    )
    cd = CylindricalDrawing(outer, inner, (), circle)
    cw = cyl.to_circular_wiring(cd)
    assert circ.crossing_set(cw).pairs == frozenset()


def test_is_strongly_cylindrical():
    assert cyl.is_strongly_cylindrical(gen.hill(9))
    cd = five_outer([CircleEdge(1, 3, Face.LATERAL, ArcDir.CCW)])
    assert not cyl.is_strongly_cylindrical(cd)


def test_to_strongly_c_monotone_hill9():
    cw = cyl.to_strongly_c_monotone(gen.hill(9))
    assert circ.is_strongly_c_monotone(cw)
    assert circ.crossing_set(cw).pairs == cyl.crossing_set(gen.hill(9)).pairs


def test_to_strongly_c_monotone_no_laterals_uses_the_free_ray():
    outer = ((1, F(0)), (2, F(1, 3)), (3, F(2, 3)))
    circle = tuple(
        CircleEdge(u, v, Face.HOME, ArcDir.CCW) for u, v in ((1, 2), (2, 3), (1, 3))
    )
    cd = CylindricalDrawing(outer, (), (), circle)
    cw = cyl.to_strongly_c_monotone(cd)
    assert circ.is_strongly_c_monotone(cw)


def test_mutual_guarding_rejected():
    outer = tuple((i + 1, F(i, 6)) for i in range(6))
    with pytest.raises(InvalidDrawing):
        CylindricalDrawing(
            outer,
            (),
            (),
            (
                CircleEdge(1, 4, Face.LATERAL, ArcDir.CCW),  # guards 1,2,3,4
                CircleEdge(2, 3, Face.LATERAL, ArcDir.CW),  # guards 3,...,1,2
            ),
        )


def test_guard_rule_symmetric_for_same_circle_pairs():
    outer = tuple((i + 1, F(i, 6)) for i in range(6))
    cd = CylindricalDrawing(
        outer,
        (),
        (),
        (
            CircleEdge(1, 4, Face.LATERAL, ArcDir.CCW),  # guards 1..4
            CircleEdge(2, 6, Face.LATERAL, ArcDir.CW),  # guards 6,1,2
        ),
    )
    assert cyl.crossing_set(cd).pairs == {((1, 4), (2, 6))}
