import hashlib

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
    if family == "c-monotone":
        cds = [gen.random_cylindrical(n, seed, False) for n in range(3, 9) for seed in range(3)]
        return [cyl.to_circular_wiring(cyl.normalize_winding(cd)) for cd in cds + [gen.hill(7)]]
    if family == "strongly-c-monotone":
        cds = [gen.random_cylindrical(n, seed, True) for n in range(3, 9) for seed in range(3)]
        return [strong_chain(cd) for cd in cds + [gen.hill(7)]]
    if family == "cylindrical":
        out = [gen.hill(n) for n in range(3, 10)]
        return out + [gen.random_cylindrical(n, seed, strong)
                      for strong in (False, True) for n in range(3, 9) for seed in range(2)]
    if family == "crossing-set":
        return [gen.twisted(n) for n in range(3, 10)] + [gen.convex(6)[0]]
    raise ValueError(family)


# sha256 of the concatenated svg.render output of every model of the family at
# canvas 100 and 600, each without and with the zigzag highlight, computed
# with the renderers that formatted each point through _fmt and _polar; they
# pin the output bytes of all four renderers
RENDER_DIGESTS = {
    "x-monotone": "34764abe7a352cf3d4c4c412e6e5dadb522ebeb9a998d2374a62f8ef08bf73fd",
    "c-monotone": "a05b8d02f8d38370f8debffc1a46986874137b712f5e74bbe8b95b5fd3b6154d",
    "strongly-c-monotone": "5b5b772df3acbaf70076dafc7781ea95542fa5a5cebc53eb2b0744a66e215a9e",
    "cylindrical": "668a3f82bfb2e4266f1df3cf4b0b56464611d91eaad287f06074377d2cf3da7d",
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


# sha256 of the concatenated renders of hill(8) as a c-monotone and as a
# strongly c-monotone wiring at canvas 100 and 600, computed when every swap
# carried an exact Fraction angle; some of hill(8)'s swap angles round
# differently in plain float arithmetic, which changes the bytes
HILL8_CIRCULAR_DIGEST = "b32280c470008b89ec80845a73c50416cd6eaea516608a49e3ad5bfaf1d7219c"


def test_swap_angles_round_as_exact_fractions():
    h = hashlib.sha256()
    for cw in (cyl.to_circular_wiring(gen.hill(8)), cyl.to_strongly_c_monotone(gen.hill(8))):
        for canvas in (100, 600):
            h.update(svg.render(cw, svg.RenderSpec(canvas)).encode())
    assert h.hexdigest() == HILL8_CIRCULAR_DIGEST
