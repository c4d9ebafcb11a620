"""Command-line surface: generators, paths, verification, conversions,
rendering, and summary statistics over JSON model files.

Exit codes: 0 success, 1 verification or model failure, 2 oracle found no
path, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import combinations
from math import comb

from drawkit import circular as circ
from drawkit import cylinder as cyl
from drawkit import generators as gen
from drawkit import hampath as hp
from drawkit import oracle, serial, svg
from drawkit import wiring as w
from drawkit.circular import CircularWiring
from drawkit.cylinder import CylindricalDrawing
from drawkit.errors import DrawkitError, InvalidDrawing
from drawkit.rotation import (
    CrossingSet,
    RotationSystem,
    crossings_from_rotation,
)
from drawkit.wiring import LinearWiring, XBoundedData


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(doc: dict, out):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _crossings_of(model) -> CrossingSet:
    if isinstance(model, CrossingSet):
        return model
    if isinstance(model, RotationSystem):
        return crossings_from_rotation(model)
    if isinstance(model, LinearWiring):
        return w.crossing_set(model)
    if isinstance(model, XBoundedData):
        return w.predicted_crossings(model)
    if isinstance(model, CircularWiring):
        return circ.crossing_set(model)
    if isinstance(model, CylindricalDrawing):
        return cyl.crossing_set(model)
    raise InvalidDrawing(f"no crossing set for {type(model).__name__}")


# ============================================================
# Subcommands
# ============================================================

# the forms each generator can write with --as; without it each writes its first
# form, hill and random-cyl a cylindrical drawing, points a rotation system
_GEN_FORMS = {
    "convex": ("cs", "wiring"),
    "twisted": ("cs", "rotation"),
    "hill": (),
    "two-page": ("cs", "wiring"),
    "points": ("rotation", "cs", "wiring"),
    "random-cyl": (),
    "random-xmono": ("wiring",),
}


def _cmd_gen(args) -> int:
    kind, n = args.kind, args.n
    if args.as_ is not None and args.as_ not in _GEN_FORMS[kind]:
        raise _UsageError(f"generator {kind} cannot write --as {args.as_}")
    if kind == "convex":
        cs, lw = gen.convex(n)
        obj = lw if args.as_ == "wiring" else cs
    elif kind == "twisted":
        obj = gen.twisted_rotation(n) if args.as_ == "rotation" else gen.twisted(n)
    elif kind == "hill":
        obj = gen.hill(n)
    elif kind == "two-page":
        if n == 8 and args.seed is None:
            obj = gen.two_page_crossing_minimal_k8()[1 if args.as_ == "wiring" else 0]
        else:
            rng = random.Random(("twopage", n, args.seed or 0).__repr__())
            pages = {e: rng.randint(0, 1) for e in combinations(range(1, n + 1), 2)}
            cs, lw = gen.two_page(n, pages)
            obj = lw if args.as_ == "wiring" else cs
    elif kind == "points":
        ps = gen.random_point_set(n, args.seed or 0)
        if args.as_ == "wiring":
            obj = gen.wiring_from_points(ps)
        else:
            obj = gen.from_points(ps)[1 if args.as_ == "cs" else 0]
    elif kind == "random-cyl":
        obj = gen.random_cylindrical(n, args.seed or 0, strong=args.strong)
    else:
        obj = gen.random_x_monotone(n, args.seed or 0)
    _emit(serial.dump(obj), args.out)
    return 0


_ENGINES = ("auto", "xmono", "strongcmon", "cylindrical", "twisted", "oracle")


def _cmd_path(args) -> int:
    model = serial.read_file(args.infile)
    a, b = args.a, args.b
    engine = args.engine
    if engine == "auto":
        engine = {
            LinearWiring: "xmono",
            CircularWiring: "strongcmon",
            CylindricalDrawing: "cylindrical",
            CrossingSet: "oracle",
            RotationSystem: "oracle",
            XBoundedData: "oracle",
        }.get(type(model), "oracle")
    cs = _crossings_of(model)
    try:
        hp._check_ends(cs.n, a, b)
    except InvalidDrawing as exc:
        raise _UsageError(str(exc)) from None
    if engine == "xmono":
        if not isinstance(model, LinearWiring):
            raise InvalidDrawing("engine xmono needs a linear wiring")
        path = hp.path_x_monotone(model, a, b)
    elif engine == "strongcmon":
        if not isinstance(model, CircularWiring):
            raise InvalidDrawing("engine strongcmon needs a circular wiring")
        path = hp.path_strong_c_mon(model, a, b)
    elif engine == "cylindrical":
        if not isinstance(model, CylindricalDrawing):
            raise InvalidDrawing("engine cylindrical needs a cylindrical drawing")
        path = hp.path_cylindrical(model, a, b)
    elif engine == "twisted":
        if len(cs) != comb(cs.n, 4) or cs != gen.twisted(cs.n):
            raise InvalidDrawing("engine twisted needs the twisted crossing set")
        path = hp.path_twisted(cs.n, a, b)
    elif engine == "oracle":
        path = oracle.find_cf_ham_path(cs, a, b)
        if path is None:
            print(f"HAMILTONIAN CROSSING-FREE {a}..{b}: ABSENT")
            return 2
    else:
        raise _UsageError(f"unknown engine {engine!r}")
    if not hp.is_crossing_free(cs, path):
        raise InvalidDrawing("constructed path has a crossing")
    _emit(serial.dump_path(path), args.out)
    print(f"HAMILTONIAN CROSSING-FREE {a}..{b}: OK")
    return 0


def _cmd_verify(args) -> int:
    if args.infile:
        model = serial.read_file(args.infile)
        cs = _crossings_of(model)
        cycle_ok, paths_ok = oracle.verify_drawing(cs)
        report = {
            "n": cs.n,
            "classes": 1,
            "conj1_ok": cycle_ok,
            "conj2_ok": paths_ok,
            "failures": []
            if cycle_ok and paths_ok
            else [{"cycle_ok": cycle_ok, "paths_ok": paths_ok}],
        }
    else:
        report = oracle.verify_enumeration(args.n, jobs=args.jobs)
    _emit(serial.dump_report(report), args.out)
    return 0 if not report["failures"] else 1


_TARGETS = ("xmono", "xbounded", "normalized", "despiraled", "cmon", "strongcmon")


def _cmd_convert(args) -> int:
    model = serial.read_file(args.infile)
    before = _crossings_of(model)
    to = args.to
    if to == "xmono":
        if not isinstance(model, XBoundedData):
            raise InvalidDrawing("target xmono needs x-bounded side data")
        result = w.to_x_monotone(model)
    elif to == "xbounded":
        if not isinstance(model, LinearWiring):
            raise InvalidDrawing("target xbounded needs a linear wiring")
        result = w.extract_xbounded(model)
    elif to in ("normalized", "despiraled", "cmon", "strongcmon"):
        if not isinstance(model, CylindricalDrawing):
            raise InvalidDrawing(f"target {to} needs a cylindrical drawing")
        result = cyl.normalize_winding(model)
        if to == "despiraled":
            result = cyl.remove_double_spirals(result)
        elif to == "cmon":
            result = cyl.to_circular_wiring(result)
        elif to == "strongcmon":
            result = cyl.to_strongly_c_monotone(cyl.remove_double_spirals(result))
    else:
        raise _UsageError(f"unknown target {to!r}")
    after = _crossings_of(result)
    if after != before:
        raise InvalidDrawing("conversion changed the crossing set")
    _emit(serial.dump(result), args.out)
    print("crossing set preserved: yes")
    return 0


def _cmd_render(args) -> int:
    model = serial.read_file(args.infile)
    try:
        highlight = tuple(int(t) for t in args.highlight.split(",")) if args.highlight else ()
    except ValueError:
        raise _UsageError(
            f"--highlight needs comma-separated vertices, got {args.highlight!r}"
        ) from None
    try:
        spec = svg.RenderSpec(canvas=args.size, highlight=highlight)
        if not isinstance(model, dict):  # path and report payloads are not drawings
            spec.highlight_edges(model.n)
    except InvalidDrawing as exc:
        raise _UsageError(str(exc)) from None
    text = svg.render(model, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_stats(args) -> int:
    model = serial.read_file(args.infile)
    rows = [("kind", type(model).__name__)]
    if isinstance(model, dict):  # path or report payloads
        for k in sorted(model):
            rows.append((k, model[k]))
    else:
        cs = _crossings_of(model)
        # the wirings and cylindrical drawings may draw a subgraph of K_n
        edges = len(model.edges()) if hasattr(model, "edges") else comb(cs.n, 2)
        rows.append(("n", cs.n))
        rows.append(("edges", edges))
        rows.append(("crossings", len(cs)))
        if isinstance(model, LinearWiring):
            rows.append(("swaps", sum(len(s) for s in model.strips)))
        if isinstance(model, CylindricalDrawing):
            rows.append(("outer_vertices", len(model.outer)))
            rows.append(("inner_vertices", len(model.inner)))
            rows.append(("strongly_cylindrical", cyl.is_strongly_cylindrical(model)))
            rows.append(("double_spirals", len(cyl.find_double_spirals(model))))
        if isinstance(model, CircularWiring) and edges == comb(cs.n, 2):
            rows.append(("strongly_c_monotone", circ.is_strongly_c_monotone(model)))
    for key, val in rows:
        sys.stdout.write(f"{key}\t{val}\n")
    return 0


# ============================================================
# Parser
# ============================================================

def build_parser() -> _Parser:
    p = _Parser(prog="drawkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a drawing model")
    g.add_argument("kind", choices=tuple(_GEN_FORMS))
    g.add_argument("n", type=int)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--strong", action="store_true")
    g.add_argument("--as", dest="as_", choices=("cs", "wiring", "rotation"), default=None)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)

    q = sub.add_parser("path", help="crossing-free Hamiltonian path between two vertices")
    q.add_argument("infile")
    q.add_argument("a", type=int)
    q.add_argument("b", type=int)
    q.add_argument("--engine", choices=_ENGINES, default="auto")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_path)

    v = sub.add_parser("verify", help="verify the Hamiltonicity conjectures")
    v.add_argument("n", type=int, nargs="?")
    v.add_argument("--in", dest="infile")
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--out")
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("convert", help="convert between drawing models")
    c.add_argument("infile")
    c.add_argument("--to", choices=_TARGETS, required=True)
    c.add_argument("--out")
    c.set_defaults(func=_cmd_convert)

    r = sub.add_parser("render", help="render a model to SVG")
    r.add_argument("infile")
    r.add_argument("--out")
    r.add_argument("--size", type=int, default=600)
    r.add_argument("--highlight", help="comma-separated vertex path to stroke last")
    r.set_defaults(func=_cmd_render)

    s = sub.add_parser("stats", help="tab-separated model summary")
    s.add_argument("infile")
    s.set_defaults(func=_cmd_stats)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and args.n is None and not args.infile:
            raise _UsageError("verify needs a size or --in file")
        if args.command == "verify" and args.jobs < 1:
            raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except (DrawkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
