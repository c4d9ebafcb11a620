import json
import xml.etree.ElementTree as ET

import pytest

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


@pytest.mark.parametrize(
    "case, code",
    [
        ("bad-highlight", 64),
        ("missing-file", 1),
        ("not-json", 1),
        ("missing-key", 1),
        ("unwritable-out", 1),
    ],
)
def test_bad_input_exits_without_traceback(case, code, tmp_path, capsys):
    model = str(tmp_path / "c5.json")
    serial.write_file(model, gen.convex(5)[1])
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    (tmp_path / "nokey.json").write_text(
        '{"kind": "linear_wiring", "payload": {"n": 3}}', encoding="utf-8"
    )
    argv = {
        "bad-highlight": ["render", model, "--highlight", "1,x"],
        "missing-file": ["stats", str(tmp_path / "absent.json")],
        "not-json": ["stats", str(tmp_path / "bad.json")],
        "missing-key": ["path", str(tmp_path / "nokey.json"), "1", "3"],
        "unwritable-out": ["gen", "convex", "5", "--out", str(tmp_path / "absent" / "c.json")],
    }[case]
    got, out, err = run(argv, capsys)
    assert got == code
    assert out == ""
    assert err.startswith("usage error:" if code == 64 else "error:")


def test_gen_deterministic(tmp_path, capsys):
    a = run(["gen", "random-cyl", "6", "--seed", "7"], capsys)[1]
    b = run(["gen", "random-cyl", "6", "--seed", "7"], capsys)[1]
    assert a == b
