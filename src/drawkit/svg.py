"""Deterministic SVG 1.1 rendering of the drawing models.

Geometry here is display only: rational angles and radii become floats, each
point is formatted once at a fixed 6-decimal precision (never from a Fraction,
which Python 3.12 rounds its own way) and nothing is read back from the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from drawkit import cylinder as cyl
from drawkit.circular import CircularWiring, circular_vertex_order
from drawkit.cylinder import CylindricalDrawing, Face
from drawkit.errors import InvalidDrawing, UnrenderableModel
from drawkit.rotation import CrossingSet, _sorted_pair
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
    palette: dict = field(default_factory=lambda: dict(PALETTE))
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
    pal = spec.palette
    for e in sorted(lines):
        cv.line(lines[e], pal["muted"] if e in muted else pal["edge"], width)
    for e in spec.highlight_edges(n):
        if e in lines:
            cv.line(lines[e], pal["highlight"], wide)
    for v, (x, y) in sorted(spots.items()):
        cv.circle(x, y, 4, pal["vertex"])
        cv.text(x + 5, y - 6, str(v), pal["vertex"])
    return cv.finish()


# ============================================================
# Linear wirings
# ============================================================

def _wiring_geometry(lw: LinearWiring):
    """Per-edge polylines in (column, level) coordinates plus vertex spots."""
    paths = {e: [] for e in lw.edges()}
    spots = {}
    order = []
    delta = 0.18
    for v in range(1, lw.n + 1):
        x = float(v)
        for i, e in enumerate(order):
            paths[e].append((x - delta, i))
        ending = lw.left_order[v - 1]
        pos = lw.vertex_pos[v - 1]
        if ending:
            del order[pos : pos + len(ending)]
        block = max(len(ending), len(lw.right_order[v - 1]), 1)
        vy = pos + (block - 1) / 2.0
        spots[v] = (x, vy)
        for e in ending:
            paths[e].append((x, vy))
        order[pos:pos] = list(lw.right_order[v - 1])
        for e in lw.right_order[v - 1]:
            paths[e].append((x, vy))
        for i, e in enumerate(order):
            paths[e].append((x + delta, i))
        if v < lw.n:
            swaps = lw.strips[v - 1]
            for j, k in enumerate(swaps):
                sx = x + 0.25 + (j + 1) / (len(swaps) + 2) * 0.5
                e, f = order[k], order[k + 1]
                paths[e].append((sx - 0.04, k))
                paths[e].append((sx + 0.04, k + 1))
                paths[f].append((sx - 0.04, k + 1))
                paths[f].append((sx + 0.04, k))
                order[k], order[k + 1] = f, e
    return paths, spots


def _render_wiring(lw: LinearWiring, spec: RenderSpec) -> str:
    size = spec.canvas
    paths, spots = _wiring_geometry(lw)
    levels = [p[1] for pts in paths.values() for p in pts]
    top = max(levels + [s[1] for s in spots.values()] + [1])
    pad = size * 0.08
    span = size - 2 * pad
    xd = max(lw.n - 1, 1)
    # operand order kept as `pad + (col - 1) * span / xd`: dividing span
    # first rounds differently and changes the output bytes
    lines = {
        e: " ".join(f"{pad + (x - 1) * span / xd:.6f},{size - pad - y * span / top:.6f}"
                    for x, y in pts)
        for e, pts in paths.items()
    }
    spots = {v: (pad + (x - 1) * span / xd, size - pad - y * span / top)
             for v, (x, y) in spots.items()}
    return _draw(_Canvas(size), spec, lw.n, lines, spots, 1.2, 2.6)


# ============================================================
# Circular wirings
# ============================================================

def _render_circular(cw: CircularWiring, spec: RenderSpec) -> str:
    size = spec.canvas
    cx = cy = size / 2
    ring = circular_vertex_order(cw)
    # live edges change only at vertices: column plus starting edges
    max_live = max(
        [len(cw.base_order)] + [len(cw._columns[v - 1]) + len(cw.starting[v - 1]) for v in ring]
    )
    r_lo, r_hi = size * 0.10, size * 0.42

    def rad(level):
        return r_lo + (level + 1) * (r_hi - r_lo) / (max_live + 1)

    radii = [rad(i) for i in range(max_live)]

    paths = {e: [] for e in cw.edges()}
    spots = {}
    order = list(cw.base_order)

    def segment(a0, a1):  # every live strand from the angle a0 to a1, in turns
        steps = max(2, int((a1 - a0) * 96))
        # one cosine and sine per sample angle, shared by the segment's strands
        angs = [2 * math.pi * (a0 + (a1 - a0) * s / steps) for s in range(steps + 1)]
        trig = [(math.cos(a), math.sin(a)) for a in angs]
        for i, e in enumerate(order):
            rr = radii[i]
            paths[e] += [f"{cx + rr * c:.6f},{cy - rr * s:.6f}" for c, s in trig]

    prev = 0.0
    lo_num, lo_den = 0, 1  # the gap's start: the previous vertex, or the 0-ray
    for v in ring:
        hi = cw.angles[v - 1]
        # swap j of the k - 1 in the gap (lo, hi) sits at lo + (hi - lo) j / k;
        # int / int division rounds exactly as float(Fraction) does
        k = len(cw.strips[v - 1]) + 1
        a, b = lo_num * hi.denominator, hi.numerator * lo_den
        den = lo_den * hi.denominator * k
        for j, level in enumerate(cw.strips[v - 1], 1):
            ang = (a * k + (b - a) * j) / den
            segment(prev, ang)
            order[level], order[level + 1] = order[level + 1], order[level]
            prev = ang
        ang = float(hi)
        segment(prev, ang)
        ending, pos = cw.ending[v - 1], cw.vertex_pos[v - 1]
        del order[pos : pos + len(ending)]
        spots[v] = _polar(cx, cy, rad(pos - 0.5), ang)
        spot = _pt(*spots[v])
        for e in ending:
            paths[e].append(spot)
        order[pos:pos] = cw.starting[v - 1]
        for e in cw.starting[v - 1]:
            paths[e].append(spot)
        prev, lo_num, lo_den = ang, hi.numerator, hi.denominator
    segment(prev, 1.0)
    cv = _Canvas(size)
    cv.circle(cx, cy, 3, spec.palette["frame"])
    lines = {e: " ".join(pts) for e, pts in paths.items()}
    return _draw(cv, spec, cw.n, lines, spots, 1.1, 2.4)


# ============================================================
# Cylindrical drawings
# ============================================================

def _render_cylindrical(cd: CylindricalDrawing, spec: RenderSpec) -> str:
    size = spec.canvas
    pal = spec.palette
    cx = cy = size / 2
    r_in, r_out = size * 0.16, size * 0.32
    band = size * 0.10
    angles = {v: float(cd.angle_of(v)) for v in range(1, cd.n + 1)}
    radius = {v: (r_out if cd.circle_of(v) == "outer" else r_in) for v in angles}

    def edge_polyline(points):  # (angle in turns, radius) samples -> point text
        return " ".join(_pt(*_polar(cx, cy, r, a)) for a, r in points)

    lines = {}
    for le in cd.lateral:
        a0 = angles[le.u]
        pts = []
        steps = max(12, int(abs(float(le.omega)) * 96) + 2)
        for s in range(steps + 1):
            t = s / steps
            pts.append((a0 + t * float(le.omega), r_out + t * (r_in - r_out)))
        lines[le.edge] = edge_polyline(pts)
    for ce in cd.circle:
        base = radius[ce.u]
        if ce.face is Face.HOME:
            arc = cyl.home_side_arc(cd, ce.edge)
            sign = 1 if base == r_out else -1
        else:
            arc = cyl.guarded_arc(cd, ce.edge)
            sign = -1 if base == r_out else 1
        amp = band * (0.3 + 0.6 * float(arc.length))
        pts = []
        steps = max(12, int(float(arc.length) * 96) + 2)
        for s in range(steps + 1):
            t = s / steps
            bump = math.sin(math.pi * t)
            pts.append((float(arc.start) + t * float(arc.length), base + sign * amp * bump))
        lines[ce.edge] = edge_polyline(pts)

    cv = _Canvas(size)
    cv.ring(cx, cy, r_in, pal["frame"], 0.8, dash="4 4")
    cv.ring(cx, cy, r_out, pal["frame"], 0.8, dash="4 4")
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
    lines = {(u, v): f"{text[u]} {text[v]}" for u, v in combinations(range(1, cs.n + 1), 2)}
    crossed = {e for pair in cs.pairs for e in pair}
    return _draw(_Canvas(size), spec, cs.n, lines, spots, 1.1, 2.4, set(lines) - crossed)


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
