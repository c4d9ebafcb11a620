"""JSON serialization for every model, wrapped in a {"kind", "payload"}
envelope so pipelines can dispatch on file content.

Rationals are encoded as "p/q" strings; vertices are 1-based everywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction

from drawkit.circular import CircularWiring, SwapEvent, VertexEvent
from drawkit.cylinder import ArcDir, CircleEdge, CylindricalDrawing, Face, LateralEdge
from drawkit.errors import InvalidDrawing
from drawkit.rotation import CrossingSet, RotationSystem
from drawkit.wiring import LinearWiring, Side, XBoundedData


def _frac(x: Fraction) -> str:
    return str(Fraction(x))


def dump(obj) -> dict:
    """Model -> envelope dict."""
    if isinstance(obj, RotationSystem):
        return {
            "kind": "rotation_system",
            "payload": {"n": obj.n, "rotations": [list(r) for r in obj.rotations]},
        }
    if isinstance(obj, CrossingSet):
        return {
            "kind": "crossing_set",
            "payload": {
                "n": obj.n,
                "crossings": [[list(e), list(f)] for e, f in obj.encode()],
            },
        }
    if isinstance(obj, LinearWiring):
        return {
            "kind": "linear_wiring",
            "payload": {
                "n": obj.n,
                "strips": [list(s) for s in obj.strips],
                "vertex_pos": list(obj.vertex_pos),
                "left_order": [[list(e) for e in o] for o in obj.left_order],
                "right_order": [[list(e) for e in o] for o in obj.right_order],
            },
        }
    if isinstance(obj, XBoundedData):
        return {
            "kind": "x_bounded",
            "payload": {
                "n": obj.n,
                "side": sorted(
                    [list(e), v, s.value] for (e, v), s in obj.side.items()
                ),
                "left_order": [[list(e) for e in o] for o in obj.left_order],
                "right_order": [[list(e) for e in o] for o in obj.right_order],
            },
        }
    if isinstance(obj, CircularWiring):
        events = []
        for ev in obj.events:
            if isinstance(ev, VertexEvent):
                events.append(
                    {
                        "kind": "vertex",
                        "angle": _frac(ev.angle),
                        "v": ev.v,
                        "ending": [list(e) for e in ev.ending],
                        "starting": [list(e) for e in ev.starting],
                        "pos": ev.pos,
                    }
                )
            else:
                events.append({"kind": "swap", "angle": _frac(ev.angle), "level": ev.level})
        return {
            "kind": "circular_wiring",
            "payload": {
                "n": obj.n,
                "angles": [_frac(a) for a in obj.angles],
                "base_order": [list(e) for e in obj.base_order],
                "events": events,
            },
        }
    if isinstance(obj, CylindricalDrawing):
        return {
            "kind": "cylindrical_drawing",
            "payload": {
                "outer": [{"v": v, "angle": _frac(a)} for v, a in obj.outer],
                "inner": [{"v": v, "angle": _frac(a)} for v, a in obj.inner],
                "lateral": [
                    {"u": le.u, "w": le.w, "omega": _frac(le.omega)} for le in obj.lateral
                ],
                "circle": [
                    {"u": ce.u, "v": ce.v, "face": ce.face.value, "arc": ce.arc.value}
                    for ce in obj.circle
                ],
            },
        }
    raise InvalidDrawing(f"cannot serialize {type(obj).__name__}")


def dump_path(vertices, closed: bool = False) -> dict:
    return {"kind": "path", "payload": {"vertices": list(vertices), "closed": bool(closed)}}


def dump_report(report: dict) -> dict:
    return {"kind": "report", "payload": dict(report)}


def load(doc: dict):
    """Envelope dict -> model (paths and reports load as plain payloads).

    A payload with missing keys or values of the wrong type raises
    InvalidDrawing, like any other invalid model.
    """
    if not isinstance(doc, dict) or "kind" not in doc or "payload" not in doc:
        raise InvalidDrawing("expected a {kind, payload} envelope")
    kind = doc["kind"]
    try:
        return _load_payload(kind, doc["payload"])
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidDrawing(f"malformed {kind!r} payload: {exc!r}") from exc


def _load_payload(kind, p):
    if kind == "rotation_system":
        return RotationSystem(p["n"], tuple(tuple(r) for r in p["rotations"]))
    if kind == "crossing_set":
        return CrossingSet(
            p["n"], frozenset((tuple(e), tuple(f)) for e, f in p["crossings"])
        )
    if kind == "linear_wiring":
        return LinearWiring(
            p["n"],
            tuple(tuple(s) for s in p["strips"]),
            tuple(p["vertex_pos"]),
            tuple(tuple(tuple(e) for e in o) for o in p["left_order"]),
            tuple(tuple(tuple(e) for e in o) for o in p["right_order"]),
        )
    if kind == "x_bounded":
        side = {(tuple(e), v): Side(s) for e, v, s in p["side"]}
        return XBoundedData(
            p["n"],
            side,
            tuple(tuple(tuple(e) for e in o) for o in p["left_order"]),
            tuple(tuple(tuple(e) for e in o) for o in p["right_order"]),
        )
    if kind == "circular_wiring":
        events = []
        for ev in p["events"]:
            if ev["kind"] == "vertex":
                events.append(
                    VertexEvent(
                        Fraction(ev["angle"]),
                        ev["v"],
                        tuple(tuple(e) for e in ev["ending"]),
                        tuple(tuple(e) for e in ev["starting"]),
                        ev["pos"],
                    )
                )
            elif ev["kind"] == "swap":
                events.append(SwapEvent(Fraction(ev["angle"]), ev["level"]))
            else:
                raise InvalidDrawing(f"unknown event kind {ev['kind']!r}")
        return CircularWiring(
            p["n"],
            tuple(Fraction(a) for a in p["angles"]),
            tuple(tuple(e) for e in p["base_order"]),
            tuple(events),
        )
    if kind == "cylindrical_drawing":
        return CylindricalDrawing(
            tuple((d["v"], Fraction(d["angle"])) for d in p["outer"]),
            tuple((d["v"], Fraction(d["angle"])) for d in p["inner"]),
            tuple(
                LateralEdge(d["u"], d["w"], Fraction(d["omega"])) for d in p["lateral"]
            ),
            tuple(
                CircleEdge(d["u"], d["v"], Face(d["face"]), ArcDir(d["arc"]))
                for d in p["circle"]
            ),
        )
    if kind == "path":
        if isinstance(p, list):
            return {"vertices": list(p), "closed": False}
        return {"vertices": list(p["vertices"]), "closed": bool(p.get("closed", False))}
    if kind == "report":
        return dict(p)
    raise InvalidDrawing(f"unknown kind {kind!r}")


def write_file(path, obj_or_doc):
    doc = obj_or_doc if isinstance(obj_or_doc, dict) else dump(obj_or_doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_file(path):
    """Load a model file; unreadable or non-JSON files raise InvalidDrawing."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidDrawing(f"cannot read {path}: {exc}") from exc
    return load(doc)
