"""Deterministic SVG 1.1 rendering of the drawing models.

Geometry here is display only: rational angles and radii are formatted at a
fixed 6-decimal precision and nothing is ever read back from the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from drawkit import cylinder as cyl
from drawkit.circular import CircularWiring, VertexEvent
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

    def highlight_edges(self):
        return {
            _sorted_pair(self.highlight[i], self.highlight[i + 1])
            for i in range(len(self.highlight) - 1)
        }


def _fmt(x) -> str:
    return f"{float(x):.6f}"


class _Canvas:
    def __init__(self, size):
        self.size = size
        self.body = []

    def line(self, pts, color, width, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.body.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}"{d}/>'
        )

    def circle(self, x, y, r, fill):
        self.body.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{fill}"/>'
        )

    def ring(self, x, y, r, color, width, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.body.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" '
            f'fill="none" stroke="{color}" stroke-width="{_fmt(width)}"{d}/>'
        )

    def text(self, x, y, s, color):
        self.body.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" fill="{color}" '
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
    pal = spec.palette
    paths, spots = _wiring_geometry(lw)
    levels = [p[1] for pts in paths.values() for p in pts]
    max_level = max(levels + [s[1] for s in spots.values()] + [1])
    pad = size * 0.08

    def tx(col):
        return pad + (col - 1) * (size - 2 * pad) / max(lw.n - 1, 1)

    def ty(lvl):
        return size - pad - lvl * (size - 2 * pad) / max(max_level, 1)

    cv = _Canvas(size)
    for e in sorted(paths):
        cv.line([(tx(x), ty(y)) for x, y in paths[e]], pal["edge"], 1.2)
    for e in sorted(spec.highlight_edges()):
        if e in paths:
            cv.line([(tx(x), ty(y)) for x, y in paths[e]], pal["highlight"], 2.6)
    for v in range(1, lw.n + 1):
        x, y = spots[v]
        cv.circle(tx(x), ty(y), 4, pal["vertex"])
        cv.text(tx(x) + 5, ty(y) - 6, str(v), pal["vertex"])
    return cv.finish()


# ============================================================
# Circular wirings
# ============================================================

def _render_circular(cw: CircularWiring, spec: RenderSpec) -> str:
    size = spec.canvas
    pal = spec.palette
    cx = cy = size / 2
    # live edges change only at vertex events: column plus starting edges
    max_live = max(
        [len(cw.base_order)]
        + [len(cw._columns[ev.v - 1]) + len(ev.starting)
           for ev in cw.events if isinstance(ev, VertexEvent)]
    )
    r_lo, r_hi = size * 0.10, size * 0.42

    def rad(level):
        return r_lo + (level + 1) * (r_hi - r_lo) / (max_live + 1)

    paths = {e: [] for e in cw.edges()}
    spots = {}
    order = list(cw.base_order)
    prev = 0.0
    stream = list(cw.events) + [None]
    for ev in stream:
        ang = 1.0 if ev is None else float(ev.angle)
        steps = max(2, int((ang - prev) * 96))
        for i, e in enumerate(order):
            rr = rad(i)
            for s in range(steps + 1):
                paths[e].append(_polar(cx, cy, rr, prev + (ang - prev) * s / steps))
        if ev is None:
            break
        if isinstance(ev, VertexEvent):
            if ev.ending:
                del order[ev.pos : ev.pos + len(ev.ending)]
            spot = _polar(cx, cy, rad(ev.pos - 0.5), ang)
            spots[ev.v] = spot
            for e in ev.ending:
                paths[e].append(spot)
            order[ev.pos : ev.pos] = list(ev.starting)
            for e in ev.starting:
                paths[e].append(spot)
        else:
            k = ev.level
            order[k], order[k + 1] = order[k + 1], order[k]
        prev = ang
    cv = _Canvas(size)
    cv.circle(cx, cy, 3, pal["frame"])
    for e in sorted(paths):
        cv.line(paths[e], pal["edge"], 1.1)
    for e in sorted(spec.highlight_edges()):
        if e in paths:
            cv.line(paths[e], pal["highlight"], 2.4)
    for v, (x, y) in sorted(spots.items()):
        cv.circle(x, y, 4, pal["vertex"])
        cv.text(x + 5, y - 6, str(v), pal["vertex"])
    return cv.finish()


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

    def edge_polyline(points):
        return [_polar(cx, cy, r, a) for a, r in points]

    paths = {}
    for le in cd.lateral:
        a0 = angles[le.u]
        pts = []
        steps = max(12, int(abs(float(le.omega)) * 96) + 2)
        for s in range(steps + 1):
            t = s / steps
            pts.append((a0 + t * float(le.omega), r_out + t * (r_in - r_out)))
        paths[le.edge] = edge_polyline(pts)
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
        paths[ce.edge] = edge_polyline(pts)

    cv = _Canvas(size)
    cv.ring(cx, cy, r_in, pal["frame"], 0.8, dash="4 4")
    cv.ring(cx, cy, r_out, pal["frame"], 0.8, dash="4 4")
    for e in sorted(paths):
        cv.line(paths[e], pal["edge"], 1.1)
    for e in sorted(spec.highlight_edges()):
        if e in paths:
            cv.line(paths[e], pal["highlight"], 2.4)
    for v in sorted(angles):
        x, y = _polar(cx, cy, radius[v], angles[v])
        cv.circle(x, y, 4, pal["vertex"])
        cv.text(x + 5, y - 6, str(v), pal["vertex"])
    return cv.finish()


# ============================================================
# Crossing sets (schematic chord view)
# ============================================================

def _render_crossing_set(cs: CrossingSet, spec: RenderSpec) -> str:
    size = spec.canvas
    pal = spec.palette
    cx = cy = size / 2
    r = size * 0.4
    pos = {v: _polar(cx, cy, r, (v - 1) / cs.n) for v in range(1, cs.n + 1)}
    crossed = {e for pair in cs.pairs for e in pair}
    cv = _Canvas(size)
    from itertools import combinations

    for e in combinations(range(1, cs.n + 1), 2):
        color = pal["edge"] if e in crossed else pal["muted"]
        cv.line([pos[e[0]], pos[e[1]]], color, 1.1)
    for e in sorted(spec.highlight_edges()):
        cv.line([pos[e[0]], pos[e[1]]], pal["highlight"], 2.4)
    for v in range(1, cs.n + 1):
        x, y = pos[v]
        cv.circle(x, y, 4, pal["vertex"])
        cv.text(x + 5, y - 6, str(v), pal["vertex"])
    return cv.finish()


def render(obj, spec: RenderSpec = None) -> str:
    """Model -> SVG document string; byte-identical for identical inputs."""
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
