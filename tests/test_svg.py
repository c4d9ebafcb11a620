import hashlib
import math
import re
from itertools import combinations

import pytest

from drawkit import cylinder as cyl
from drawkit import generators as gen
from drawkit import svg
from drawkit.errors import InvalidDrawing


def zigzag(n):
    """The vertex path 1, n, 2, n-1, ...: every vertex once."""
    lo, hi, out = 1, n, []
    while lo <= hi:
        out.append(lo)
        if lo != hi:
            out.append(hi)
        lo, hi = lo + 1, hi - 1
    return tuple(out)


def strong_chain(cd):
    return cyl.to_strongly_c_monotone(cyl.remove_double_spirals(cyl.normalize_winding(cd)))


def models(family):
    if family == "x-monotone":
        out = [gen.random_x_monotone(n, seed) for n in range(3, 10) for seed in range(3)]
        return out + [gen.convex(n)[1] for n in range(3, 10)]
    if family == "x-monotone-small-strips":
        return [lw for lw in models("x-monotone") if all(len(s) <= 4 for s in lw.strips)]
    if family == "c-monotone":
        cds = [gen.random_cylindrical(n, seed, False) for n in range(3, 9) for seed in range(3)]
        out = [cyl.to_circular_wiring(cyl.normalize_winding(cd)) for cd in cds + [gen.hill(7)]]
        return out + [cyl.to_circular_wiring(gen.hill(8))]
    if family == "strongly-c-monotone":
        cds = [gen.random_cylindrical(n, seed, True) for n in range(3, 9) for seed in range(3)]
        out = [strong_chain(cd) for cd in cds + [gen.hill(7)]]
        return out + [cyl.to_strongly_c_monotone(gen.hill(8))]
    if family == "cylindrical":
        out = [gen.hill(n) for n in range(3, 10)]
        return out + [gen.random_cylindrical(n, seed, strong)
                      for strong in (False, True) for n in range(3, 9) for seed in range(2)]
    if family == "crossing-set":
        return [gen.twisted(n) for n in range(3, 10)] + [gen.convex(6)[0]]
    raise ValueError(family)


# sha256 of the concatenated svg.render output of every model of the family at
# canvas 100 and 600, each without and with the zigzag highlight; they pin the
# output bytes of all four renderers.  The wiring digests were taken when one
# replay of the sweep first drew each edge as one polyline; the small-strip
# x-monotone digest is older and held across that rewrite, as did the
# crossing-set one.  The cylindrical digest was taken again when drawings
# moved onto a slot grid: it is the earlier renders' with each angle set to
# its rank over the slot count, each winding to its rank distance over it.
# The strongly c-monotone one was taken again when the direction choice's
# reference ray became half a slot past the first outer vertex (see
# tests/test_cylinder.py).  The x-monotone, c-monotone and strongly
# c-monotone ones were taken again when each strip's swaps came to be
# emitted from its inversions: they are the earlier models' with every strip
# replaced by that emission between the same start and end orders
# (REALIZATION_SWAP_SETS_DIGEST pins the pairs each strip swaps)
RENDER_DIGESTS = {
    "x-monotone": "a3ee641ecc32fafadf77fcde24858547c7529804bebb0c41931c90b8c983ae99",
    "x-monotone-small-strips": "a1ce1b8a92f4a21eda4c4d15e61a72167d3ea3c116f010c3ea6ddb6067cb6cd4",
    "c-monotone": "c075503cd1ba439e1753f191383e342248160594743c93e341d5545e05a66634",
    "strongly-c-monotone": "877fd583e0b89d2d499a7cd63488fcce27636c0f6308d721b312b056b3bb877c",
    "cylindrical": "d6997b3ee7bb1dab3bc769664f79140385bad9d621b615f6df8f3ffd8190a5ef",
    "crossing-set": "853629392d88625fea2f1e6f9e5090a706bb78d3d5a1249e6d32101dbc2b2880",
}


@pytest.mark.parametrize("family", sorted(RENDER_DIGESTS))
def test_render_bytes_are_pinned(family):
    h = hashlib.sha256()
    for model in models(family):
        for canvas in (100, 600):
            for highlight in ((), zigzag(model.n)):
                h.update(svg.render(model, svg.RenderSpec(canvas, highlight=highlight)).encode())
    assert h.hexdigest() == RENDER_DIGESTS[family]


@pytest.mark.parametrize("family", sorted(RENDER_DIGESTS))
@pytest.mark.parametrize("highlight", [(1, 99), (0, 1), (2, 2), (1, 3, 3)])
def test_highlight_outside_or_repeated_is_rejected(family, highlight):
    model = models(family)[-1]
    with pytest.raises(InvalidDrawing, match="highlight"):
        svg.render(model, svg.RenderSpec(highlight=highlight))


def test_highlight_skips_edges_the_drawing_lacks():
    from tests.test_hampath import K4_MINUS_23

    plain = svg.render(K4_MINUS_23, svg.RenderSpec())
    marked = svg.render(K4_MINUS_23, svg.RenderSpec(highlight=(1, 2, 3, 4)))
    # (1, 2) and (3, 4) are drawn twice, the absent (2, 3) not at all
    assert marked.count("<polyline") == plain.count("<polyline") + 2


# a vertex's circle and its label
SPOT = re.compile(r'<circle cx="([^"]*)" cy="([^"]*)" r="4\.000000"[^>]*/>\n<text[^>]*>(\d+)</text>')


def drawn(model):
    """The spot of every vertex and the polyline of every edge in the
    model's SVG, as (x, y) pairs read back from the point text."""
    doc = svg.render(model)
    spots = {int(v): (float(x), float(y)) for x, y, v in SPOT.findall(doc)}
    lines = re.findall(r'<polyline points="([^"]*)"', doc)
    assert len(lines) == len(model.edges())
    lines = [[tuple(map(float, p.split(","))) for p in line.split()] for line in lines]
    return spots, dict(zip(sorted(model.edges()), lines))


@pytest.mark.parametrize("family", ["x-monotone", "c-monotone", "strongly-c-monotone"])
def test_edges_run_monotone_from_spot_to_spot(family):
    """Every edge is one polyline from an end-vertex's spot to the other's
    that never steps back: in x for linear wirings, in polar angle around
    the centre for circular ones."""
    centre = svg.RenderSpec().canvas / 2
    for model in models(family):
        spots, lines = drawn(model)
        for (u, v), xy in lines.items():
            assert {xy[0], xy[-1]} == {spots[u], spots[v]}, (model, (u, v))
            if family == "x-monotone":
                steps = [b[0] - a[0] for a, b in zip(xy, xy[1:])]
            else:
                turns = [math.atan2(centre - y, x - centre) / (2 * math.pi) for x, y in xy]
                steps = [(b - a + 0.5) % 1 - 0.5 for a, b in zip(turns, turns[1:])]
            assert min(steps) >= -1e-9, (model, (u, v))


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _meetings(a, b):
    """The distinct points where polylines a and b meet: proper crossings of
    two segments, and points of one polyline on a segment of the other."""
    def box(p, q):
        return min(p[0], q[0]), max(p[0], q[0]), min(p[1], q[1]), max(p[1], q[1])

    segs = [(r, t, box(r, t)) for r, t in zip(b, b[1:])]
    hits = set()
    for p, q in zip(a, a[1:]):
        x0, x1, y0, y1 = box(p, q)
        for r, t, (u0, u1, v0, v1) in segs:
            if u1 < x0 or u0 > x1 or v1 < y0 or v0 > y1:
                continue
            if _orient(p, q, r) * _orient(p, q, t) < 0 and _orient(r, t, p) * _orient(r, t, q) < 0:
                hits.add((p, q, r, t))
            for z, (g, h) in ((p, (r, t)), (q, (r, t)), (r, (p, q)), (t, (p, q))):
                lo_x, hi_x, lo_y, hi_y = box(g, h)
                if _orient(g, h, z) == 0 and lo_x <= z[0] <= hi_x and lo_y <= z[1] <= hi_y:
                    hits.add(z)
    return hits


@pytest.mark.parametrize("family", ["x-monotone", "c-monotone", "strongly-c-monotone"])
def test_edges_meet_only_where_they_cross(family):
    """Two edges' polylines meet once if the model crosses them, and
    otherwise only at a shared end-vertex's spot."""
    for model in models(family):
        spots, lines = drawn(model)
        crossed = model._crossing_set.pairs
        for e, f in combinations(sorted(lines), 2):
            shared = {spots[v] for v in set(e) & set(f)}
            assert len(_meetings(lines[e], lines[f]) - shared) == ((e, f) in crossed), (model, e, f)


def test_points_grow_with_swaps_not_swaps_times_strands():
    """Points follow the knots (four per swap, two per vertex a strand
    passes) and the samples along each edge's turn, not swaps times the live
    strands, as sampling every strand in every gap between swaps did."""
    n = 16
    cw = strong_chain(gen.random_cylindrical(n, 0, True))
    doc = svg.render(cw)
    points = sum(len(line.split()) for line in re.findall(r'<polyline points="([^"]*)"', doc))
    swaps, edges = sum(map(len, cw.strips)), len(cw.edges())
    assert points <= 4 * swaps + 2 * n * edges + 100 * edges
