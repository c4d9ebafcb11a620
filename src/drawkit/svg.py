"""Deterministic SVG 1.1 rendering of the drawing models.

A wiring draws each edge as one polyline between its end-vertices, monotone
in x (linear) or in angle around the origin (circular), and meeting another
edge once if the two cross.  Both come from one replay of the sweep,
`_knots`, mapped to the page by an affine or a polar map; a circular
wiring's ring position k sits at k/n turns around the origin.

Geometry here is display only: a cylindrical drawing's slot k sits at k/m
turns and a winding of w slot steps turns w/m, as floats; each point is
formatted once at a fixed 6-decimal precision and nothing is read back from
the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from drawkit import cylinder as cyl
from drawkit.circular import CircularWiring
from drawkit.cylinder import CylindricalDrawing, Face
from drawkit.errors import InvalidDrawing, UnrenderableModel
from drawkit.rotation import CrossingSet, _sorted_pair, edge_numbering
from drawkit.wiring import LinearWiring

PALETTE = {
    "edge": "#5577aa",
    "muted": "#b8c4d4",
    "vertex": "#202020",
    "highlight": "#cc5500",
    "frame": "#999999",
}


@dataclass(frozen=True)
class RenderSpec:
    canvas: int = 600
    highlight: tuple = ()

    def __post_init__(self):
        if self.canvas < 100:
            raise InvalidDrawing("canvas must be at least 100 px")
        object.__setattr__(self, "highlight", tuple(self.highlight))

    def highlight_edges(self, n) -> list:
        """Sorted edges of the highlighted vertex path on n vertices; a vertex
        outside 1..n, or one vertex twice in a row, is InvalidDrawing."""
        path = self.highlight
        steps = list(zip(path, path[1:]))
        if any(not 1 <= v <= n for v in path):
            raise InvalidDrawing(f"highlight vertices must lie in 1..{n}, got {path}")
        if any(u == v for u, v in steps):
            raise InvalidDrawing(f"highlight has a vertex twice in a row: {path}")
        return sorted({_sorted_pair(u, v) for u, v in steps})


def _pt(x, y) -> str:
    return f"{x:.6f},{y:.6f}"


class _Canvas:
    def __init__(self, size):
        self.size = size
        self.body = []

    def line(self, points, color, width):
        """`points` is the polyline's ready point text, "x,y x,y ..."."""
        self.body.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="{width:.6f}"/>'
        )

    def circle(self, x, y, r, fill):
        self.body.append(
            f'<circle cx="{x:.6f}" cy="{y:.6f}" r="{r:.6f}" fill="{fill}"/>'
        )

    def ring(self, x, y, r, color, width, dash):
        self.body.append(
            f'<circle cx="{x:.6f}" cy="{y:.6f}" r="{r:.6f}" fill="none" '
            f'stroke="{color}" stroke-width="{width:.6f}" stroke-dasharray="{dash}"/>'
        )

    def text(self, x, y, s, color):
        self.body.append(
            f'<text x="{x:.6f}" y="{y:.6f}" fill="{color}" '
            f'font-size="12" font-family="monospace">{s}</text>'
        )

    def finish(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{self.size}" height="{self.size}" '
            f'viewBox="0 0 {self.size} {self.size}">\n'
            f'<rect width="{self.size}" height="{self.size}" fill="#ffffff"/>\n'
        )
        return head + "\n".join(self.body) + "\n</svg>\n"


def _polar(cx, cy, r, angle_turns):
    a = 2 * math.pi * float(angle_turns)
    return (cx + r * math.cos(a), cy - r * math.sin(a))


def _draw(cv, spec, n, lines, spots, width, wide, muted=()) -> str:
    """Every edge in sorted order, the highlighted edges over them, then the
    labelled vertices; `lines` maps each edge to its point text and `spots`
    each vertex to its (x, y)."""
    for e in sorted(lines):
        cv.line(lines[e], PALETTE["muted"] if e in muted else PALETTE["edge"], width)
    for e in spec.highlight_edges(n):
        if e in lines:
            cv.line(lines[e], PALETTE["highlight"], wide)
    for v, (x, y) in sorted(spots.items()):
        cv.circle(x, y, 4, PALETTE["vertex"])
        cv.text(x + 5, y - 6, str(v), PALETTE["vertex"])
    return cv.finish()


# ============================================================
# Linear and circular wirings
# ============================================================

def _knots(base, ring, ts, period, strips, vertex_pos, ending, starting):
    """Replay a wiring's sweep, as `wiring.sweep` takes its tables, into
    (t, level) knots: t is the sweep coordinate (a column, or an angle in
    turns) and level the strand's place from the bottom, or from the origin.

    ts[v-1] is vertex v's coordinate and the sweep repeats after `period`:
    the gap before the first vertex on the ring opens one period before the
    last one.  A strand passes a vertex between two knots 0.18 of the
    narrower gap beside it away, so that it stays clear of the vertex's spot,
    and a swap between two knots on either side of the swap's place in its
    gap.  Returns (knots, spots, top): knots[e] runs from the spot of the
    vertex where e starts to the spot of the one where it ends, spots[v] is
    vertex v's (t, level) and top the highest level used.
    """
    his = [ts[v - 1] for v in ring]
    gaps = [hi - lo for lo, hi in zip([his[-1] - period] + his, his)]
    near = [0.18 * min(g, h) for g, h in zip(gaps, gaps[1:] + gaps[:1])]
    order = list(base)
    knots = {e: [] for e in base}
    wrapped = {}  # a base edge's knots from the sweep's start to its last vertex
    spots = {}
    lo, d = his[-1] - period, near[-1]
    for v, hi, g, dv in zip(ring, his, gaps, near):
        t = lo + d
        for i, e in enumerate(order):
            knots[e].append((t, i))
        swaps = strips[v - 1]
        k = len(swaps)
        # under half the spacing of the swaps, so that their knots never tie
        hw = min(0.04, 0.24 / (k + 2)) * g
        start = lo + 0.25 * g
        for j, lv in enumerate(swaps):
            t = start + (j + 1) / (k + 2) * 0.5 * g
            a, b = t - hw, t + hw
            e, f = order[lv], order[lv + 1]
            knots[e].extend(((a, lv), (b, lv + 1)))
            knots[f].extend(((a, lv + 1), (b, lv)))
            order[lv], order[lv + 1] = f, e
        t = hi - dv
        for i, e in enumerate(order):
            knots[e].append((t, i))
        ends, pos = ending[v - 1], vertex_pos[v - 1]
        block = max(len(ends), len(starting[v - 1]), 1)
        spots[v] = spot = (hi, pos + (block - 1) / 2.0)
        for e in ends:
            knots[e].append(spot)
        del order[pos : pos + len(ends)]
        for e in starting[v - 1]:
            if e in knots:
                wrapped[e] = knots[e]
            knots[e] = [spot]
        order[pos:pos] = starting[v - 1]
        lo, d = hi, dv
    for e, head in wrapped.items():
        knots[e] += head
    levels = [lv for pts in knots.values() for _, lv in pts]
    return knots, spots, max(levels + [lv for _, lv in spots.values()] + [1])


def _render_wiring(lw: LinearWiring, spec: RenderSpec) -> str:
    size = spec.canvas
    # a circle of n unit gaps, the one from vertex n back to vertex 1 empty
    cols = range(1, lw.n + 1)
    knots, spots, top = _knots((), cols, cols, lw.n, ((),) + lw.strips, lw.vertex_pos,
                               lw.left_order, lw.right_order)
    pad = size * 0.08
    span = size - 2 * pad
    xd = max(lw.n - 1, 1)

    # operand order kept as `pad + (col - 1) * span / xd`: dividing span
    # first rounds differently and changes the output bytes
    lines = {
        e: " ".join(f"{pad + (x - 1) * span / xd:.6f},{size - pad - y * span / top:.6f}"
                    for x, y in pts)
        for e, pts in knots.items()
    }
    spots = {v: (pad + (x - 1) * span / xd, size - pad - y * span / top)
             for v, (x, y) in spots.items()}
    return _draw(_Canvas(size), spec, lw.n, lines, spots, 1.2, 2.6)


def _render_circular(cw: CircularWiring, spec: RenderSpec) -> str:
    size = spec.canvas
    cx = cy = size / 2
    ts = [0.0] * cw.n  # ring position k at k / n turns
    for k, v in enumerate(cw.ring):
        ts[v - 1] = k / cw.n
    knots, spots, top = _knots(cw.base_order, cw.ring, ts, 1,
                               cw.strips, cw.vertex_pos, cw.ending, cw.starting)
    r_lo, r_hi = size * 0.10, size * 0.42
    dr = (r_hi - r_lo) / (top + 2)  # from one level to the next
    tau, cos, sin = 2 * math.pi, math.cos, math.sin

    def at(t, level):
        r, a = r_lo + (level + 1) * dr, tau * t
        return cx + r * cos(a), cy - r * sin(a)

    def line(pts):
        # each step between knots as its polar image, in pieces of at most
        # 1/96 turn and 2 levels, since one chord would bow inwards and meet
        # strands it does not cross; the last knot ends a step of length 0
        out = []
        for (t0, l0), (t1, l1) in zip(pts, pts[1:] + pts[-1:]):
            turn = (t1 - t0) % 1
            m = int(turn * 96) + 1 + int(abs(l1 - l0) // 2)
            dt, dl = turn / m, (l1 - l0) / m
            for s in range(m):  # `at` inlined: this loop makes every point
                r, a = r_lo + (l0 + dl * s + 1) * dr, tau * (t0 + dt * s)
                out.append(f"{cx + r * cos(a):.6f},{cy - r * sin(a):.6f}")
        return " ".join(out)

    cv = _Canvas(size)
    cv.circle(cx, cy, 3, PALETTE["frame"])
    lines = {e: line(pts) for e, pts in knots.items()}
    spots = {v: at(*p) for v, p in spots.items()}
    return _draw(cv, spec, cw.n, lines, spots, 1.1, 2.4)


# ============================================================
# Cylindrical drawings
# ============================================================

def _render_cylindrical(cd: CylindricalDrawing, spec: RenderSpec) -> str:
    size = spec.canvas
    cx = cy = size / 2
    r_in, r_out = size * 0.16, size * 0.32
    band = size * 0.10
    angles = {v: cd.slot_of(v) / cd.m for v in range(1, cd.n + 1)}
    radius = {v: (r_out if cd.circle_of(v) == "outer" else r_in) for v in angles}

    def edge_polyline(points):  # (angle in turns, radius) samples -> point text
        return " ".join(_pt(*_polar(cx, cy, r, a)) for a, r in points)

    lines = {}
    for le in cd.lateral:
        a0, turn = angles[le.u], le.omega / cd.m
        pts = []
        steps = max(12, int(abs(turn) * 96) + 2)
        for s in range(steps + 1):
            t = s / steps
            pts.append((a0 + t * turn, r_out + t * (r_in - r_out)))
        lines[le.edge] = edge_polyline(pts)
    for ce in cd.circle:
        base = radius[ce.u]
        start, length = (k / cd.m for k in cyl.home_side_arc(cd, ce.edge))
        # home arcs bulge away from the annulus, lateral-face arcs into it
        sign = 1 if (base == r_out) == (ce.face is Face.HOME) else -1
        amp = band * (0.3 + 0.6 * length)
        pts = []
        steps = max(12, int(length * 96) + 2)
        for s in range(steps + 1):
            t = s / steps
            bump = math.sin(math.pi * t)
            pts.append((start + t * length, base + sign * amp * bump))
        lines[ce.edge] = edge_polyline(pts)

    cv = _Canvas(size)
    cv.ring(cx, cy, r_in, PALETTE["frame"], 0.8, dash="4 4")
    cv.ring(cx, cy, r_out, PALETTE["frame"], 0.8, dash="4 4")
    spots = {v: _polar(cx, cy, radius[v], angles[v]) for v in angles}
    return _draw(cv, spec, cd.n, lines, spots, 1.1, 2.4)


# ============================================================
# Crossing sets (schematic chord view)
# ============================================================

def _render_crossing_set(cs: CrossingSet, spec: RenderSpec) -> str:
    size = spec.canvas
    cx = cy = size / 2
    r = size * 0.4
    spots = {v: _polar(cx, cy, r, (v - 1) / cs.n) for v in range(1, cs.n + 1)}
    text = {v: _pt(x, y) for v, (x, y) in spots.items()}
    edges = edge_numbering(cs.n)[0]
    lines = {(u, v): f"{text[u]} {text[v]}" for u, v in edges}
    clean = {e for e, mask in zip(edges, cs.masks) if not mask}
    return _draw(_Canvas(size), spec, cs.n, lines, spots, 1.1, 2.4, clean)


def render(obj, spec: RenderSpec = None) -> str:
    """Model -> SVG document string; byte-identical for identical inputs.

    A highlight vertex outside 1..n, or one vertex twice in a row, is
    InvalidDrawing."""
    spec = spec or RenderSpec()
    if isinstance(obj, LinearWiring):
        return _render_wiring(obj, spec)
    if isinstance(obj, CircularWiring):
        return _render_circular(obj, spec)
    if isinstance(obj, CylindricalDrawing):
        return _render_cylindrical(obj, spec)
    if isinstance(obj, CrossingSet):
        return _render_crossing_set(obj, spec)
    raise UnrenderableModel(f"cannot render {type(obj).__name__}")
