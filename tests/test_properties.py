"""Property tests across models.

`circular.is_strongly_c_monotone` runs only the star test.  The paper's two
other characterizations of strong c-monotonicity are kept here as reference
implementations and checked against it on wirings from every producer.
"""

import json
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from drawkit import circular as circ
from drawkit import cylinder as cyl
from drawkit import generators as gen
from drawkit import serial
from drawkit.circular import arcs_cover_circle
from tests.test_circular import covering_k4

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
