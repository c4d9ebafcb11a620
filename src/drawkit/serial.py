"""JSON serialization for every model, wrapped in a {"kind", "payload"}
envelope so pipelines can dispatch on file content.

Every number in a payload is an int, and vertices are 1-based everywhere.  A
model file therefore holds no JSON float, and `read_file` rejects one.
"""

from __future__ import annotations

import json

from drawkit.circular import CircularWiring
from drawkit.cylinder import ArcDir, CircleEdge, CylindricalDrawing, Face, LateralEdge
from drawkit.errors import InvalidDrawing
from drawkit.rotation import CrossingSet, RotationSystem
from drawkit.wiring import LinearWiring, Side, XBoundedData


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
        return {
            "kind": "circular_wiring",
            "payload": {
                "n": obj.n,
                "ring": list(obj.ring),
                "base_order": [list(e) for e in obj.base_order],
                "strips": [list(s) for s in obj.strips],
                "vertex_pos": list(obj.vertex_pos),
                "ending": [[list(e) for e in o] for o in obj.ending],
                "starting": [[list(e) for e in o] for o in obj.starting],
            },
        }
    if isinstance(obj, CylindricalDrawing):
        return {
            "kind": "cylindrical_drawing",
            "payload": {
                "m": obj.m,
                "outer": [{"v": v, "slot": s} for v, s in obj.outer],
                "inner": [{"v": v, "slot": s} for v, s in obj.inner],
                "lateral": [{"u": le.u, "w": le.w, "omega": le.omega} for le in obj.lateral],
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
    # the constructors turn JSON lists into tuples; only dict keys and enum
    # values are converted here
    if kind == "rotation_system":
        return RotationSystem(p["n"], p["rotations"])
    if kind == "crossing_set":
        return CrossingSet(p["n"], p["crossings"])
    if kind == "linear_wiring":
        return LinearWiring(p["n"], p["strips"], p["vertex_pos"], p["left_order"], p["right_order"])
    if kind == "x_bounded":
        side = {(tuple(e), v): Side(s) for e, v, s in p["side"]}
        return XBoundedData(p["n"], side, p["left_order"], p["right_order"])
    if kind == "circular_wiring":
        return CircularWiring(p["n"], p["ring"], p["base_order"], p["strips"], p["vertex_pos"],
                              p["ending"], p["starting"])
    if kind == "cylindrical_drawing":
        return CylindricalDrawing(
            p["m"],
            tuple((d["v"], d["slot"]) for d in p["outer"]),
            tuple((d["v"], d["slot"]) for d in p["inner"]),
            tuple(LateralEdge(d["u"], d["w"], d["omega"]) for d in p["lateral"]),
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


def _no_float(token):
    raise ValueError(f"{token} is not an integer")


def read_file(path):
    """Load a model file; unreadable or non-JSON files, and files with a
    float, NaN or Infinity in them, raise InvalidDrawing."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_no_float, parse_constant=_no_float)
    except (OSError, ValueError) as exc:
        raise InvalidDrawing(f"cannot read {path}: {exc}") from exc
    return load(doc)
