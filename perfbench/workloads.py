"""The three benchmark workloads and the independent checks on their outputs.

Each workload is a function ``build(seed, tracer) -> (ops, once)``: two
lists of ``(label, op)``.  Building runs the untimed set-up: it derives every
input from the seed, so the library only ever sees generated inputs.  Each
``op`` is a closure that performs one operation, checks its output, and
raises ``WrongOutput`` when a check fails.  The worker times ``ops`` in
repeated passes; it runs each of ``once`` a single time after them, checked
but outside the timed metrics.  Every call into a ``drawkit`` layer goes
through ``tracer.call`` under the name ``<module>.<function>``, which is how the
traced run attributes time to layers.

Sizes per stratum are fixed and only the instances vary with the seed, so the
mix of work per pass is the same on every seed.  They are smaller than the
largest sizes the paper's constructions reach: one operation must take well
under a second so that one run holds enough operations for a stable median
and tail.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from xml.etree import ElementTree

from drawkit import circular as circ
from drawkit import cylinder as cyl
from drawkit import generators as gen
from drawkit import hampath as hp
from drawkit import oracle, rotation, serial, svg
from drawkit import wiring as w
from drawkit.errors import DrawkitError

# Published class counts (Ábrego et al., "All good drawings of small complete
# graphs", EuroCG 2015), pinned as gates on `verify N`.
CLASS_COUNTS = {5: 5, 6: 102}


class WrongOutput(Exception):
    """An operation returned a result that fails an independent check."""


def _expect(ok: bool, layer: str, msg: str, tracer):
    if not ok:
        tracer.wrong(layer)
        raise WrongOutput(f"{layer}: {msg}")


def _edges(walk):
    return [tuple(sorted(walk[i : i + 2])) for i in range(len(walk) - 1)]


def _check_walk(walk, n, ends, pairs, layer, tracer, closed=False):
    """Hamiltonian, with the requested ends, and no two of its edges in
    `pairs` (the crossing set of the source model)."""
    _expect(sorted(walk) == list(range(1, n + 1)), layer, f"not Hamiltonian: {walk}", tracer)
    if ends is not None:
        _expect((walk[0], walk[-1]) == ends, layer, f"ends {ends} not met: {walk}", tracer)
    edges = _edges(walk + walk[:1] if closed else walk)
    for e, f in combinations(edges, 2):
        _expect(
            (min(e, f), max(e, f)) not in pairs, layer, f"edges {e} and {f} cross", tracer
        )


def _round_trip(tracer, model):
    """The CLI's file hop: serial.dump -> JSON text -> serial.load."""
    text = tracer.call("serial.dump", lambda m: json.dumps(serial.dump(m)), model)
    loaded = tracer.call("serial.load", lambda t: serial.load(json.loads(t)), text)
    _expect(loaded == model, "serial.load", "round trip changed the model", tracer)
    return loaded


def _end_pairs(rng, n, k):
    """k distinct unordered end pairs, drawn from the seed."""
    return rng.sample(list(combinations(range(1, n + 1), 2)), k)


def _gen_seed(rng):
    return rng.randrange(1 << 30)


def _model(tracer, rng, make, tries=5):
    """`make(generator_seed)` for a set-up model.  A library error counts as
    a failed attempt and the next seed is drawn, so that every run builds
    the same number of models."""
    for attempt in range(tries):
        gseed = _gen_seed(rng)
        try:
            return make(gseed)
        except DrawkitError as exc:
            tracer.setup_failures.append(f"set-up, generator seed {gseed}: "
                                         f"{type(exc).__name__}: {exc}")
            if attempt == tries - 1:
                raise


# ============================================================
# convert: gen -> file -> convert -> path -> render
# ============================================================

# (chain, n, instances per pass).  The sizes give the three chains costs of
# the same order (about 20-130 ms each), so the median and the tail fall in
# one blend of all three instead of at a seam between two tiers, and a pass
# is short enough for each instance to be repeated about ten times a run.
CONVERT_MIX = (("xmono", 10, 16), ("nonstrong", 7, 16), ("strong", 7, 16))


def _convert_op(tracer, chain, n, gseed, ends):
    def op():
        if chain == "xmono":
            src = tracer.call("generators.random_x_monotone", gen.random_x_monotone, n, gseed)
            want = tracer.call("wiring.crossing_set", w.crossing_set, src).pairs
        else:
            src = tracer.call(
                "generators.random_cylindrical", gen.random_cylindrical, n, gseed, chain == "strong"
            )
            want = tracer.call("cylinder.crossing_set", cyl.crossing_set, src).pairs
        model = _round_trip(tracer, src)

        if chain == "xmono":
            xb = tracer.call("wiring.extract_xbounded", w.extract_xbounded, model)
            result = tracer.call("wiring.to_x_monotone", w.to_x_monotone, xb)
            got = tracer.call("wiring.crossing_set", w.crossing_set, result).pairs
            _expect(got == want, "wiring.to_x_monotone", "crossing set changed", tracer)
            path = tracer.call("hampath.path_x_monotone", hp.path_x_monotone, result, *ends)
            layer = "hampath.path_x_monotone"
        else:
            norm = tracer.call("cylinder.normalize_winding", cyl.normalize_winding, model)
            if chain == "strong":
                flat = tracer.call("cylinder.remove_double_spirals", cyl.remove_double_spirals, norm)
                result = tracer.call(
                    "cylinder.to_strongly_c_monotone", cyl.to_strongly_c_monotone, flat
                )
                layer = "cylinder.to_strongly_c_monotone"
                strong = tracer.call(
                    "circular.is_strongly_c_monotone", circ.is_strongly_c_monotone, result
                )
                _expect(strong, layer, "result is not strongly c-monotone", tracer)
            else:
                result = tracer.call("cylinder.to_circular_wiring", cyl.to_circular_wiring, norm)
                layer = "cylinder.to_circular_wiring"
            got = tracer.call("circular.crossing_set", circ.crossing_set, result).pairs
            _expect(got == want, layer, "crossing set changed", tracer)
            if chain == "strong":
                path = tracer.call("hampath.path_strong_c_mon", hp.path_strong_c_mon, result, *ends)
                layer = "hampath.path_strong_c_mon"
            else:
                # a c-monotone wiring that is not strongly c-monotone has no
                # constructive engine of its own; the cylindrical one answers
                path = tracer.call("hampath.path_cylindrical", hp.path_cylindrical, norm, *ends)
                layer = "hampath.path_cylindrical"
        _check_walk(path, n, ends, want, layer, tracer)

        doc = tracer.call("svg.render", svg.render, result)
        _expect(ElementTree.fromstring(doc).tag == "{http://www.w3.org/2000/svg}svg",
                "svg.render", "not an SVG document", tracer)

    return op


def build_convert(seed: int, tracer):
    rng = random.Random(f"convert/{seed}")
    ops = []
    for chain, n, count in CONVERT_MIX:
        for _ in range(count):
            ends = _end_pairs(rng, n, 1)[0]
            ops.append((f"{chain}-{n}", _convert_op(tracer, chain, n, _gen_seed(rng), ends)))
    return ops, []


# ============================================================
# paths: engine queries on models built during set-up
# ============================================================

# (n, models, end pairs per model).  Several models per size, so that no
# single random model sets a size's cost.
PATHS_XMONO = ((12, 2, 8), (14, 2, 8), (16, 2, 8))
PATHS_STRONG_CMON = ((9, 2, 8), (10, 2, 8))
# (strong, n, models, end pairs per model); each model also closes one cycle
PATHS_CYLINDRICAL = ((True, 9, 2, 6), (True, 11, 2, 6), (True, 13, 2, 6),
                     (False, 10, 2, 6), (False, 12, 2, 6))
# every end pair: the twisted drawing is fixed by n, and the twelve pairs
# whose fallback search takes longest at n = 13 and 14 are slower than any
# query above, so they alone form the workload's tail
PATHS_TWISTED = (12, 13, 14)


def _path_op(tracer, layer, engine, model, n, ends, pairs):
    def op():
        path = tracer.call(layer, engine, model, *ends)
        _check_walk(path, n, ends, pairs, layer, tracer)

    return op


def _cycle_op(tracer, cd, cs, edge, pairs):
    def op():
        cycle = tracer.call(
            "hampath.cycle_via_uncrossed",
            hp.cycle_via_uncrossed,
            cs,
            edge,
            lambda a, b: tracer.call("hampath.path_cylindrical", hp.path_cylindrical, cd, a, b),
        )
        _check_walk(cycle, cd.n, None, pairs, "hampath.cycle_via_uncrossed", tracer, closed=True)
        _expect(edge in _edges(cycle + cycle[:1]), "hampath.cycle_via_uncrossed",
                f"cycle does not close over {edge}", tracer)

    return op


def _strong_c_monotone(tracer, n, gseed):
    """A random strongly cylindrical drawing and its strongly c-monotone wiring."""
    cd = tracer.call("generators.random_cylindrical", gen.random_cylindrical, n, gseed, True)
    norm = tracer.call("cylinder.normalize_winding", cyl.normalize_winding, cd)
    flat = tracer.call("cylinder.remove_double_spirals", cyl.remove_double_spirals, norm)
    return cd, tracer.call("cylinder.to_strongly_c_monotone", cyl.to_strongly_c_monotone, flat)


def build_paths(seed: int, tracer):
    rng = random.Random(f"paths/{seed}")
    ops = []
    for n, models, k in PATHS_XMONO:
        for _ in range(models):
            lw = _model(tracer, rng, lambda g: tracer.call(
                "generators.random_x_monotone", gen.random_x_monotone, n, g))
            pairs = tracer.call("wiring.crossing_set", w.crossing_set, lw).pairs
            for ends in _end_pairs(rng, n, k):
                ops.append((f"xmono-{n}", _path_op(
                    tracer, "hampath.path_x_monotone", hp.path_x_monotone, lw, n, ends, pairs)))

    for n, models, k in PATHS_STRONG_CMON:
        for _ in range(models):
            cd, cw = _model(tracer, rng, lambda g: _strong_c_monotone(tracer, n, g))
            pairs = tracer.call("cylinder.crossing_set", cyl.crossing_set, cd).pairs
            for ends in _end_pairs(rng, n, k):
                ops.append((f"strongcmon-{n}", _path_op(
                    tracer, "hampath.path_strong_c_mon", hp.path_strong_c_mon, cw, n, ends, pairs)))

    for strong, n, models, k in PATHS_CYLINDRICAL:
        label = f"{'strong' if strong else 'nonstrong'}cyl-{n}"
        for _ in range(models):
            cd = _model(tracer, rng, lambda g: tracer.call(
                "generators.random_cylindrical", gen.random_cylindrical, n, g, strong))
            cs = tracer.call("cylinder.crossing_set", cyl.crossing_set, cd)
            for ends in _end_pairs(rng, n, k):
                ops.append((label, _path_op(
                    tracer, "hampath.path_cylindrical", hp.path_cylindrical, cd, n, ends, cs.pairs)))
            clean = tracer.call("cylinder.uncrossed_rim_edges", cyl.uncrossed_rim_edges, cd)
            edge = rng.choice(sorted(clean["outer"] | clean["inner"]))
            ops.append((f"cycle-{label}", _cycle_op(tracer, cd, cs, edge, cs.pairs)))

    for n in PATHS_TWISTED:
        rs = tracer.call("generators.twisted_rotation", gen.twisted_rotation, n)
        pairs = tracer.call("rotation.crossings_from_rotation", rotation.crossings_from_rotation, rs).pairs
        for ends in combinations(range(1, n + 1), 2):
            ops.append((f"twisted-{n}", _path_op(
                tracer, "hampath.path_twisted", hp.path_twisted, n, n, ends, pairs)))
    return ops, []


# ============================================================
# verify: enumeration and the oracle
# ============================================================

# The heavy oracle work is on fixed named drawings, so that the slowest
# operations are the same on every seed: the twisted drawing given as a
# rotation system, the convex drawing as an x-monotone wiring and the hill
# drawing as a cylindrical drawing.  The oracle's cost on random drawings is
# heavy-tailed from n = 10 on; seeded random drawings of each kind therefore
# stay at n = 8, where they form the bulk that sets the median.
# The named drawings stop below the sizes where the oracle takes about a
# second (convex 12: 0.8 s, twisted 13: 0.5 s), so that a pass takes about
# a second and a run holds some thirty of them.
VERIFY_TWISTED = (9, 10, 11, 12)
VERIFY_CONVEX = (9, 10, 11)
VERIFY_HILL = (10, 11, 12, 13)
VERIFY_RANDOM_N = 8
# (kind, drawings), cheapest kind first: the median falls in the middle of
# the strongly cylindrical drawings, not at a seam between two kinds
VERIFY_RANDOM = (("twopage", 30), ("xmono", 30), ("strongcyl", 40), ("nonstrongcyl", 45))


def _verify_n_op(tracer, n):
    def op():
        classes = tracer.call(
            "rotation.enumerate_realizable", lambda k: list(rotation.enumerate_realizable(k)), n
        )
        tracer.count("rotation.enumerate_realizable.classes", len(classes))
        _expect(len(classes) == CLASS_COUNTS[n], "rotation.enumerate_realizable",
                f"{len(classes)} classes at n={n}, expected {CLASS_COUNTS[n]}", tracer)
        for cs in classes:
            _verify_one(tracer, cs)

    return op


def _verify_one(tracer, cs):
    cycle = tracer.call("oracle.find_cf_ham_cycle", oracle.find_cf_ham_cycle, cs)
    _expect(cycle is not None, "oracle.find_cf_ham_cycle", "no Hamiltonian cycle", tracer)
    _check_walk(cycle, cs.n, None, cs.pairs, "oracle.find_cf_ham_cycle", tracer, closed=True)
    ok = tracer.call("oracle.verify_all_pairs", oracle.verify_all_pairs, cs)
    _expect(ok, "oracle.verify_all_pairs", "some end pair has no path", tracer)


def _verify_in_op(tracer, layer, derive, model):
    """`verify --in`: derive the crossing set from the model, run the oracle."""

    def op():
        _verify_one(tracer, tracer.call(layer, derive, model))

    return op


def build_verify(seed: int, tracer):
    rng = random.Random(f"verify/{seed}")
    ops = [("verify-5", _verify_n_op(tracer, 5))]
    # `verify 6` is one 4-6 s computation whose time follows the load on
    # the host, not the code: a 30-second run cannot time it steadily.  It
    # runs once, untimed, and its output is checked like every other.
    once = [("verify-6", _verify_n_op(tracer, 6))]

    for n in VERIFY_TWISTED:
        rs = tracer.call("generators.twisted_rotation", gen.twisted_rotation, n)
        ops.append((f"twisted-{n}", _verify_in_op(
            tracer, "rotation.crossings_from_rotation", rotation.crossings_from_rotation, rs)))
    for n in VERIFY_CONVEX:
        _, lw = tracer.call("generators.convex", gen.convex, n)
        ops.append((f"convex-{n}", _verify_in_op(tracer, "wiring.crossing_set", w.crossing_set, lw)))
    for n in VERIFY_HILL:
        cd = tracer.call("generators.hill", gen.hill, n)
        ops.append((f"hill-{n}", _verify_in_op(tracer, "cylinder.crossing_set", cyl.crossing_set, cd)))

    n = VERIFY_RANDOM_N
    for kind, count in VERIFY_RANDOM:
        for _ in range(count):
            if kind == "xmono":
                lw = _model(tracer, rng, lambda g: tracer.call(
                    "generators.random_x_monotone", gen.random_x_monotone, n, g))
            elif kind == "twopage":
                pages = {e: rng.randint(0, 1) for e in combinations(range(1, n + 1), 2)}
                _, lw = tracer.call("generators.two_page", gen.two_page, n, pages)
            else:
                cd = _model(tracer, rng, lambda g: tracer.call(
                    "generators.random_cylindrical", gen.random_cylindrical, n, g,
                    kind == "strongcyl"))
                ops.append((f"{kind}-{n}", _verify_in_op(
                    tracer, "cylinder.crossing_set", cyl.crossing_set, cd)))
                continue
            ops.append((f"{kind}-{n}", _verify_in_op(
                tracer, "wiring.crossing_set", w.crossing_set, lw)))
    return ops, once


WORKLOADS = {"convert": build_convert, "paths": build_paths, "verify": build_verify}
