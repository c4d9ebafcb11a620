import io
import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drawkit import circular as circ
from drawkit import cli
from drawkit import cylinder as cyl
from drawkit import generators as gen
from drawkit import serial
from drawkit import svg
from drawkit import wiring as w
from drawkit.errors import InvalidDrawing
from drawkit.rotation import CrossingSet


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------
# serialization round trips
# ------------------------------------------------------------------

def test_roundtrip_all_kinds(tmp_path):
    h6 = gen.hill(6)
    models = [
        gen.twisted_rotation(5),
        gen.convex(5)[0],
        gen.convex(5)[1],
        w.extract_xbounded(gen.convex(4)[1]),
        h6,
        cyl.to_circular_wiring(h6),
    ]
    for i, model in enumerate(models):
        path = tmp_path / f"m{i}.json"
        serial.write_file(path, model)
        back = serial.read_file(path)
        assert back == model


def test_crossing_set_schema_ordering(tmp_path):
    doc = serial.dump(gen.convex(5)[0])
    crossings = doc["payload"]["crossings"]
    assert crossings == sorted(crossings)
    for e, f in crossings:
        assert e[0] < e[1] and f[0] < f[1] and tuple(e) < tuple(f)


def test_path_payload_accepts_bare_arrays():
    assert serial.load({"kind": "path", "payload": [1, 2, 3]}) == {
        "vertices": [1, 2, 3],
        "closed": False,
    }


# ------------------------------------------------------------------
# CLI commands
# ------------------------------------------------------------------

def test_gen_and_path_pipeline(tmp_path, capsys):
    f = tmp_path / "c5.json"
    code, _, _ = run(["gen", "convex", "5", "--as", "wiring", "--out", str(f)], capsys)
    assert code == 0
    code, out, _ = run(["path", str(f), "1", "5"], capsys)
    assert code == 0
    assert "HAMILTONIAN CROSSING-FREE 1..5: OK" in out
    assert json.loads(out[: out.rindex("HAMILTONIAN")])["payload"]["vertices"] == [1, 2, 3, 4, 5]


def test_gen_crossing_set_default(tmp_path, capsys):
    code, out, _ = run(["gen", "convex", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "crossing_set"
    assert len(doc["payload"]["crossings"]) == 5
    code, out, _ = run(["gen", "twisted", "4"], capsys)
    assert len(json.loads(out)["payload"]["crossings"]) == 1


CS, RS, LW, CD = "crossing_set", "rotation_system", "linear_wiring", "cylindrical_drawing"

# per generator, the kind written without --as and with --as cs, rotation,
# wiring; 64 where the generator cannot write that form
GEN_FORMS = {
    "convex": (CS, CS, 64, LW),
    "twisted": (CS, CS, RS, 64),
    "hill": (CD, 64, 64, 64),
    "two-page": (CS, CS, 64, LW),
    "points": (RS, CS, RS, LW),
    "random-cyl": (CD, 64, 64, 64),
    "random-xmono": (LW, 64, 64, LW),
}


@pytest.mark.parametrize("kind", sorted(GEN_FORMS))
@pytest.mark.parametrize("form", [None, "cs", "rotation", "wiring"])
def test_gen_writes_the_forms_it_can(kind, form, capsys):
    expected = GEN_FORMS[kind][[None, "cs", "rotation", "wiring"].index(form)]
    code, out, err = run(["gen", kind, "6"] + (["--as", form] if form else []), capsys)
    if expected == 64:
        assert code == 64 and out == ""
        assert kind in err and form in err
    else:
        assert code == 0
        assert json.loads(out)["kind"] == expected


def test_gen_points_as_cs_is_the_rotation_systems_crossing_set(capsys):
    _, out, _ = run(["gen", "points", "6", "--seed", "1", "--as", "cs"], capsys)
    _, cs = gen.from_points(gen.random_point_set(6, 1))
    assert serial.load(json.loads(out)) == cs


def test_gen_hill_is_strongly_cylindrical(tmp_path, capsys):
    f = tmp_path / "h9.json"
    code, _, _ = run(["gen", "hill", "9", "--out", str(f)], capsys)
    assert code == 0
    assert cyl.is_strongly_cylindrical(serial.read_file(f))


def test_path_engines(tmp_path, capsys):
    f = tmp_path / "h9.json"
    run(["gen", "hill", "9", "--out", str(f)], capsys)
    code, out, _ = run(["path", str(f), "1", "6", "--engine", "cylindrical"], capsys)
    assert code == 0 and "OK" in out
    t = tmp_path / "t4.json"
    run(["gen", "twisted", "4", "--out", str(t)], capsys)
    code, out, _ = run(["path", str(t), "2", "3", "--engine", "twisted"], capsys)
    assert code == 0
    assert json.loads(out[: out.rindex("HAMILTONIAN")])["payload"]["vertices"] == [2, 1, 4, 3]


def test_path_twisted_engine_checks_the_nested_rule(tmp_path, capsys):
    t = gen.twisted(7)
    f = tmp_path / "t7.json"
    serial.write_file(f, t)
    code, out, _ = run(["path", str(f), "3", "6", "--engine", "twisted"], capsys)
    assert code == 0 and "OK" in out
    # the nested pair of {2, 3, 5, 6} swapped for its linked pair, or dropped
    dropped = t.pairs - {((2, 6), (3, 5))}
    for pairs in (dropped | {((2, 5), (3, 6))}, dropped):
        serial.write_file(f, CrossingSet(7, pairs))
        code, _, err = run(["path", str(f), "3", "6", "--engine", "twisted"], capsys)
        assert code == 1 and err.startswith("error:") and "twisted" in err


def test_path_oracle_absent_exits_2(tmp_path, capsys):
    pairs = frozenset(
        {
            ((1, 2), (3, 6)), ((1, 3), (2, 4)), ((1, 3), (4, 5)), ((1, 4), (2, 5)),
            ((1, 5), (2, 6)), ((1, 6), (2, 4)), ((1, 6), (3, 4)), ((1, 6), (4, 5)),
            ((2, 3), (4, 5)), ((2, 3), (4, 6)), ((2, 5), (4, 6)), ((2, 6), (3, 5)),
        }
    )
    f = tmp_path / "absent.json"
    serial.write_file(f, CrossingSet(6, pairs))
    code, out, _ = run(["path", str(f), "3", "4"], capsys)
    assert code == 2
    assert "ABSENT" in out


def test_verify_number_and_file(tmp_path, capsys):
    code, out, _ = run(["verify", "4"], capsys)
    assert code == 0
    rep = json.loads(out)["payload"]
    assert rep["classes"] == 2 and rep["conj1_ok"] and rep["conj2_ok"]
    f = tmp_path / "c6.json"
    run(["gen", "convex", "6", "--out", str(f)], capsys)
    code, out, _ = run(["verify", "--in", str(f)], capsys)
    assert code == 0
    assert json.loads(out)["payload"]["conj2_ok"]


def test_convert_pipeline(tmp_path, capsys):
    f = tmp_path / "h9.json"
    run(["gen", "hill", "9", "--out", str(f)], capsys)
    out_f = tmp_path / "scm.json"
    code, out, _ = run(["convert", str(f), "--to", "strongcmon", "--out", str(out_f)], capsys)
    assert code == 0
    assert "crossing set preserved: yes" in out
    cw = serial.read_file(out_f)
    assert circ.is_strongly_c_monotone(cw)

    lwf = tmp_path / "lw.json"
    run(["gen", "random-xmono", "6", "--seed", "5", "--out", str(lwf)], capsys)
    xbf = tmp_path / "xb.json"
    code, out, _ = run(["convert", str(lwf), "--to", "xbounded", "--out", str(xbf)], capsys)
    assert code == 0
    code, out, _ = run(["convert", str(xbf), "--to", "xmono", "--out", str(tmp_path / "back.json")], capsys)
    assert code == 0
    back = serial.read_file(tmp_path / "back.json")
    orig = serial.read_file(lwf)
    assert w.crossing_set(back).pairs == w.crossing_set(orig).pairs


def test_cylindrical_convert_targets(tmp_path, capsys):
    f = tmp_path / "rc.json"
    run(["gen", "random-cyl", "7", "--seed", "3", "--out", str(f)], capsys)
    for target in ("normalized", "despiraled", "cmon"):
        code, out, _ = run(["convert", str(f), "--to", target], capsys)
        assert code == 0 and "crossing set preserved: yes" in out


def test_render_deterministic_and_valid(tmp_path, capsys):
    f = tmp_path / "h6.json"
    run(["gen", "hill", "6", "--out", str(f)], capsys)
    s1 = tmp_path / "a.svg"
    s2 = tmp_path / "b.svg"
    assert run(["render", str(f), "--out", str(s1)], capsys)[0] == 0
    assert run(["render", str(f), "--out", str(s2)], capsys)[0] == 0
    assert s1.read_bytes() == s2.read_bytes()
    ET.parse(s1)


def test_render_highlight_and_models(tmp_path, capsys):
    f = tmp_path / "c5.json"
    run(["gen", "convex", "5", "--as", "wiring", "--out", str(f)], capsys)
    out = tmp_path / "c5.svg"
    code, _, _ = run(
        ["render", str(f), "--out", str(out), "--highlight", "1,2,3,4,5"], capsys
    )
    assert code == 0
    text = out.read_text()
    assert svg.PALETTE["highlight"] in text
    ET.parse(out)
    csf = tmp_path / "cs.json"
    run(["gen", "twisted", "5", "--out", str(csf)], capsys)
    assert run(["render", str(csf), "--out", str(tmp_path / "t5.svg")], capsys)[0] == 0


def test_render_rejects_rotation_systems(tmp_path, capsys):
    f = tmp_path / "rot.json"
    serial.write_file(f, gen.twisted_rotation(5))
    code, _, err = run(["render", str(f), "--out", str(tmp_path / "x.svg")], capsys)
    assert code == 1
    assert "render" in err or "error" in err


def test_render_spec_canvas_floor():
    with pytest.raises(InvalidDrawing):
        svg.RenderSpec(canvas=50)


def test_stats(tmp_path, capsys):
    f = tmp_path / "h9.json"
    run(["gen", "hill", "9", "--out", str(f)], capsys)
    code, out, _ = run(["stats", str(f)], capsys)
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows["n"] == "9"
    assert rows["crossings"] == "36"
    assert rows["strongly_cylindrical"] == "True"


def test_usage_errors_exit_64(capsys):
    assert run(["gen", "unknown-kind", "5"], capsys)[0] == 64
    assert run(["verify"], capsys)[0] == 64
    assert run(["path"], capsys)[0] == 64


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_is_a_usage_error(jobs, monkeypatch, capsys):
    from tests.test_rotation import inline_pools

    sizes = inline_pools(monkeypatch)
    code, out, err = run(["verify", "5", "--jobs", jobs], capsys)
    assert code == 64 and out == ""
    assert err.startswith("usage error:") and "--jobs" in err
    assert sizes == []


def test_verify_jobs_bounded_by_prefix_tasks(monkeypatch, capsys):
    from tests.test_rotation import inline_pools

    sizes = inline_pools(monkeypatch)
    code, out, _ = run(["verify", "5", "--jobs", "32"], capsys)
    assert code == 0
    assert json.loads(out)["payload"]["classes"] == 5
    assert sizes == [6]


RENDERABLE = {
    "lw": lambda: gen.convex(5)[1],
    "cw": lambda: cyl.to_circular_wiring(cyl.normalize_winding(gen.hill(5))),
    "cd": lambda: gen.hill(5),
    "cs": lambda: gen.twisted(5),
}
# on each renderable kind at n = 5: a --highlight vertex outside 1..5, or
# one vertex twice in a row
BAD_HIGHLIGHTS = {
    f"highlight-{h}-{kind}": (kind, h)
    for kind in RENDERABLE
    for h in ("1,9", "0,1", "2,2", "1,3,3")
}
# crossing-set payloads whose n is not an integer >= 1, or with a loop in
# either edge of a pair, through `verify --in` and `stats`
BAD_CROSSING_SETS = {
    **{
        f"cs-n-{n}-{command}": (command, {"n": n, "crossings": []})
        for command, values in (("verify", (-3, 0, 5.0, "5", True)), ("stats", (5.0, True)))
        for n in values
    },
    **{
        f"cs-loop-{at}-{command}": (command, {"n": 4, "crossings": [pair]})
        for command in ("verify", "stats")
        for at, pair in (("first", [[1, 1], [2, 3]]), ("second", [[1, 2], [3, 3]]))
    },
}


@pytest.mark.parametrize(
    "case, code",
    [
        ("bad-highlight", 64),
        *[(case, 64) for case in BAD_HIGHLIGHTS],
        ("size-50", 64),
        ("size-0", 64),
        ("missing-file", 1),
        ("points-negative", 1),
        ("points-negative-wiring", 1),
        ("not-json", 1),
        ("missing-key", 1),
        ("unwritable-out", 1),
        *[(case, 1) for case in BAD_CROSSING_SETS],
    ],
)
def test_bad_input_exits_without_traceback(case, code, tmp_path, capsys):
    model = str(tmp_path / "c5.json")
    serial.write_file(model, gen.convex(5)[1])
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    (tmp_path / "nokey.json").write_text(
        '{"kind": "linear_wiring", "payload": {"n": 3}}', encoding="utf-8"
    )
    if case in BAD_CROSSING_SETS:
        command, payload = BAD_CROSSING_SETS[case]
        doc = {"kind": "crossing_set", "payload": payload}
        (tmp_path / "cs.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, *(["--in"] if command == "verify" else []), str(tmp_path / "cs.json")]
    elif case in BAD_HIGHLIGHTS:
        kind, h = BAD_HIGHLIGHTS[case]
        serial.write_file(tmp_path / "m.json", RENDERABLE[kind]())
        argv = ["render", str(tmp_path / "m.json"), "--highlight", h]
    else:
        argv = {
            "bad-highlight": ["render", model, "--highlight", "1,x"],
            "size-50": ["render", model, "--size", "50"],
            "size-0": ["render", model, "--size", "0"],
            "missing-file": ["stats", str(tmp_path / "absent.json")],
            "points-negative": ["gen", "points", "-1"],
            "points-negative-wiring": ["gen", "points", "-1", "--as", "wiring"],
            "not-json": ["stats", str(tmp_path / "bad.json")],
            "missing-key": ["path", str(tmp_path / "nokey.json"), "1", "3"],
            "unwritable-out": ["gen", "convex", "5", "--out", str(tmp_path / "absent" / "c.json")],
        }[case]
    got, out, err = run(argv, capsys)
    assert got == code
    assert out == ""
    assert err.startswith("usage error:" if code == 64 else "error:")


# files of some 200 bytes whose n asks for unbounded memory unless each
# field's length, or the count of crossings, is compared with n first
HUGE_N = {
    "circular-n-1e9": (["stats"], "circular_wiring", {
        "n": 10**9, "ring": [1], "base_order": [], "strips": [[]], "vertex_pos": [0],
        "ending": [[]], "starting": [[]],
    }),
    "x-bounded-n-1e5": (["stats"], "x_bounded", {
        "n": 10**5, "side": [], "left_order": [[]], "right_order": [[]],
    }),
    "crossing-set-n-1e6": (["render"], "crossing_set", {"n": 10**6, "crossings": []}),
    "twisted-n-1024": (
        ["path", "1", "2", "--engine", "twisted"], "crossing_set", {"n": 1024, "crossings": []},
    ),
}


def assert_capped_run_fails_cleanly(argv):
    """Run the CLI in a child that caps its own address space at 1 GiB, so a
    regression fails with a MemoryError instead of exhausting the host."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from drawkit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


@pytest.mark.parametrize("case", HUGE_N)
def test_huge_n_file_exits_without_traceback(case, tmp_path):
    argv, kind, payload = HUGE_N[case]
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"kind": kind, "payload": payload}), encoding="utf-8")
    assert_capped_run_fails_cleanly([argv[0], str(f), *argv[1:]])


# each would build some C(n, 4) crossing pairs or n^2 / 4 lateral edges
@pytest.mark.parametrize("kind", ["twisted", "convex", "hill"])
def test_named_drawing_above_the_vertex_limit_exits_without_traceback(kind):
    assert_capped_run_fails_cleanly(["gen", kind, "3000"])


@pytest.mark.parametrize(
    "model, a, b",
    [("c5", "0", "3"), ("h6", "3", "3"), ("s6", "1", "9"), ("c5", "1", "9")],
)
def test_path_bad_ends_are_usage_errors(model, a, b, tmp_path, capsys):
    h6 = gen.hill(6)
    models = {
        "c5": gen.convex(5)[0],
        "h6": h6,
        "s6": cyl.to_strongly_c_monotone(cyl.remove_double_spirals(cyl.normalize_winding(h6))),
    }
    f = str(tmp_path / f"{model}.json")
    serial.write_file(f, models[model])
    code, out, err = run(["path", f, a, b], capsys)
    assert code == 64
    assert out == ""
    assert err.startswith("usage error:") and "end-vertices" in err


@pytest.mark.parametrize("which", ["xmono", "cylindrical"])
def test_path_on_incomplete_drawing_exits_1(which, tmp_path, capsys):
    from tests.test_hampath import K4_MINUS_23, hill6_minus_three_edges

    model = K4_MINUS_23 if which == "xmono" else hill6_minus_three_edges()
    f = tmp_path / "m.json"
    serial.write_file(f, model)
    code, _, err = run(["path", str(f), "2", "3"], capsys)
    assert code == 1
    assert "complete graph" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["convert", "--to", "xbounded"], ["render"]])
def test_repeated_edge_wiring_exits_1(argv, tmp_path, capsys):
    from tests.test_wiring import REPEATED_EDGE

    n, strips, vertex_pos, left, right = REPEATED_EDGE
    doc = {
        "kind": "linear_wiring",
        "payload": {
            "n": n,
            "strips": [list(s) for s in strips],
            "vertex_pos": list(vertex_pos),
            "left_order": [[list(e) for e in o] for o in left],
            "right_order": [[list(e) for e in o] for o in right],
        },
    }
    f = tmp_path / "lw.json"
    f.write_text(json.dumps(doc))
    code, _, err = run([argv[0], str(f), *argv[1:]], capsys)
    assert code == 1
    assert "repeats the edge" in err and "Traceback" not in err


def test_gen_deterministic(tmp_path, capsys):
    a = run(["gen", "random-cyl", "6", "--seed", "7"], capsys)[1]
    b = run(["gen", "random-cyl", "6", "--seed", "7"], capsys)[1]
    assert a == b


@pytest.mark.parametrize("command", ["stats", "render"])
def test_full_turn_wiring_exits_1(command, tmp_path, capsys):
    from tests.test_circular import FULL_TURN

    doc = {
        "kind": "circular_wiring",
        "payload": FULL_TURN,
    }
    f = tmp_path / "cw.json"
    f.write_text(json.dumps(doc))
    code, out, err = run([command, str(f)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert "malformed" not in err  # the sweep rejects it, not the loader


# the short-way triangle as a circular_wiring payload with an event list in
# place of strips, a format that `serial.load` does not read
EVENT_LIST_PAYLOAD = {
    "n": 3,
    "angles": ["1/10", "3/10", "3/5"],
    "base_order": [],
    "events": [
        {"kind": "vertex", "angle": a, "v": v, "ending": ending, "starting": starting, "pos": 0}
        for a, v, ending, starting in (
            ("1/10", 1, [], [[1, 2], [1, 3]]),
            ("3/10", 2, [[1, 2]], [[2, 3]]),
            ("3/5", 3, [[2, 3], [1, 3]], []),
        )
    ],
}


@pytest.mark.parametrize(
    "argv",
    [["stats"], ["render"], ["path", "1", "3"], ["convert", "--to", "xbounded"]],
    ids=["stats", "render", "path", "convert"],
)
def test_event_list_circular_wiring_exits_1(argv, tmp_path, capsys):
    f = tmp_path / "cw.json"
    f.write_text(json.dumps({"kind": "circular_wiring", "payload": EVENT_LIST_PAYLOAD}))
    code, out, err = run([argv[0], str(f), *argv[1:]], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "malformed 'circular_wiring' payload" in err
    assert "Traceback" not in err


def test_angles_payload_exits_1(tmp_path, capsys):
    # a circular wiring written with vertex angles in place of the ring
    from tests.test_circular import K3

    payload = {**K3, "angles": ["1/10", "3/10", "3/5"]}
    del payload["ring"]
    f = tmp_path / "cw.json"
    f.write_text(json.dumps({"kind": "circular_wiring", "payload": payload}))
    code, out, err = run(["stats", str(f)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "malformed 'circular_wiring' payload" in err


def test_rational_angle_cylinder_payload_exits_1(tmp_path, capsys):
    # hill(3) written with "p/q" angles and windings in place of the slots
    p = serial.dump(gen.hill(3))["payload"]
    m = p.pop("m")
    for d in p["outer"] + p["inner"]:
        d["angle"] = f"{d.pop('slot')}/{m}"
    for d in p["lateral"]:
        d["omega"] = f"{d['omega']}/{m}"
    assert any(d["angle"] == "1/3" for d in p["outer"] + p["inner"])
    f = tmp_path / "cd.json"
    f.write_text(json.dumps({"kind": "cylindrical_drawing", "payload": p}))
    code, out, err = run(["stats", str(f)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "malformed 'cylindrical_drawing' payload" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("form", ["linear", "circular"])
def test_stats_counts_the_edges_of_an_incomplete_wiring(form, tmp_path, capsys):
    from tests.test_hampath import K4_MINUS_23

    model = K4_MINUS_23 if form == "linear" else circ.linear_to_circular(K4_MINUS_23)
    f = tmp_path / "m.json"
    serial.write_file(f, model)
    code, out, _ = run(["stats", str(f)], capsys)
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows["n"] == "4" and rows["edges"] == "5"
    assert "strongly_c_monotone" not in rows


def test_stats_of_a_complete_circular_wiring(tmp_path, capsys):
    f = tmp_path / "cw.json"
    serial.write_file(f, cyl.to_circular_wiring(gen.hill(6)))
    code, out, _ = run(["stats", str(f)], capsys)
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert code == 0 and rows["edges"] == "15" and rows["strongly_c_monotone"] == "True"


# one valid document of each model kind, at n = 4 or 5, and the places of
# their payload leaves: a scalar, or an empty list
MUTATED_MODELS = {
    "rotation_system": gen.twisted_rotation(5),
    "crossing_set": gen.convex(5)[0],
    "linear_wiring": gen.random_x_monotone(5, 1),
    "x_bounded": w.extract_xbounded(gen.convex(4)[1]),
    "circular_wiring": cyl.to_circular_wiring(gen.hill(5)),
    "cylindrical_drawing": gen.hill(5),
}


# a vertex's place in each kind's payload
VERTEX_LEAF = {
    "rotation_system": ("rotations", 0, 0),
    "crossing_set": ("crossings", 0, 0, 0),
    "linear_wiring": ("right_order", 0, 0, 0),
    "x_bounded": ("side", 0, 1),
    "circular_wiring": ("ring", 0),
    "cylindrical_drawing": ("outer", 0, "v"),
}


@pytest.mark.parametrize("value", [1.5, 2.0, True], ids=["1.5", "2.0", "True"])
@pytest.mark.parametrize("kind", sorted(MUTATED_MODELS))
def test_non_integer_vertex_is_rejected_by_the_model(kind, value):
    """A dict payload, which `read_file`'s float guard never sees, with one
    vertex a float or a bool: the model's constructor rejects it."""
    doc = serial.dump(MUTATED_MODELS[kind])
    node = doc["payload"]
    *path, last = VERTEX_LEAF[kind]
    for key in path:
        node = node[key]
    assert type(node[last]) is int
    node[last] = value
    with pytest.raises(InvalidDrawing, match="is not an integer"):
        serial.load(doc)


def _leaves(node, at=()):
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaves(value, at + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaves(value, at + (i,))
    else:
        yield at


LEAVES = [
    (kind, at)
    for kind, model in MUTATED_MODELS.items()
    for at in _leaves(serial.dump(model)["payload"])
]
LEAF_VALUES = (2.0, 1.5, -1, 0, None, "x", [], {}, True)
COMMANDS = (
    ["stats", "{}"],
    ["render", "{}"],
    ["path", "{}", "1", "3"],
    ["verify", "--in", "{}"],
    ["convert", "{}", "--to", "xmono"],
    ["convert", "{}", "--to", "xbounded"],
    ["convert", "{}", "--to", "strongcmon"],
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(leaf=st.sampled_from(LEAVES), value=st.sampled_from(LEAF_VALUES))
@example(leaf=("crossing_set", ("crossings", 0, 0, 0)), value=1.5)
@example(leaf=("linear_wiring", ("right_order", 0, 0, 0)), value=2.0)
@example(leaf=("circular_wiring", ("base_order", 0, 0)), value=2.0)
@example(leaf=("cylindrical_drawing", ("lateral", 0, "u")), value=2.0)
def test_one_bad_payload_leaf_never_escapes_the_cli(leaf, value):
    """Every command on a document with one payload leaf replaced exits with
    one of the CLI's codes; no exception escapes `cli.main`."""
    kind, at = leaf
    doc = serial.dump(MUTATED_MODELS[kind])
    node = doc["payload"]
    for key in at[:-1]:
        node = node[key]
    node[at[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "m.json")
        with open(f, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in COMMANDS:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = cli.main([a.format(f) for a in argv])
            assert code in (0, 1, 2, 64), (argv, code)
