"""Cross-module structural invariants beyond the per-module unit tests."""

import os
import subprocess
import sys
from itertools import combinations, permutations

import pytest

import drawkit
from drawkit import circular as circ
from drawkit import cylinder as cyl
from drawkit import generators as gen
from drawkit import hampath as hp
from drawkit import oracle
from drawkit import rotation as rot
from drawkit import serial
from drawkit import wiring as w
from drawkit.rotation import CrossingSet


def test_despiraled_lateral_subdrawing_has_no_covering_pair():
    from drawkit.cylinder import _lateral_wedge_raw, _raw_arcs_cover

    for seed in range(12):
        cd = gen.random_cylindrical(5 + seed % 5, seed, strong=(seed % 2 == 0))
        dd = cyl.remove_double_spirals(cyl.normalize_winding(cd))
        wedges = {le.edge: _lateral_wedge_raw(dd, le) for le in dd.lateral}
        for e, f in combinations(sorted(wedges), 2):
            if set(e) & set(f):
                continue
            assert not _raw_arcs_cover(wedges[e], wedges[f], dd.m)


def test_every_short_path_contraction_for_planar_k4():
    # every crossing-free Hamiltonian path between the duplicated pair
    # contracts to a crossing-free Hamiltonian cycle, not just the first
    for n in (4,):
        for cs, rs in rot.enumerate_realizable(n, with_witness=True):
            rotation = rs.rotation_of(n)
            dup = hp.duplicate_apex(cs, rotation)
            perm = {v: i + 1 for i, v in enumerate(rotation)}
            perm[n] = n
            base = rot.relabel_crossing_set(cs, perm)
            found = 0
            for middle in permutations(range(1, n)):
                path = [n, *middle, n + 1]
                if hp.is_crossing_free(dup, path):
                    found += 1
                    cycle = [v for v in path if v != n + 1]
                    assert hp.is_crossing_free(base, cycle + [cycle[0]])
            assert found > 0


def test_short_span_twisted_paths_sampled_up_to_10():
    for n in range(4, 11):
        cs = CrossingSet(n, rot.nested_rule_pairs(n))
        budget = 200

        def dfs(path, seen):
            nonlocal budget
            if budget <= 0:
                return
            if len(path) == n:
                budget -= 1
                assert hp.is_crossing_free(cs, path)
                return
            for v in range(1, n + 1):
                if v not in seen and abs(v - path[-1]) <= 2:
                    dfs(path + [v], seen | {v})

        dfs([1], {1})
        assert budget < 200  # at least one path sampled


def test_escaped_gap_edge_unrolls_through_its_gap():
    lw = gen.random_x_monotone(6, 4)
    cw = circ.linear_to_circular(lw)
    flags = circ.gap_edges(cw)
    escaped = [e for e, inside in flags if not inside]
    assert escaped == [(1, 6)]
    ring = cw.ring
    k = next(
        k for k, v in enumerate(ring)
        if tuple(sorted((v, ring[(k + 1) % len(ring)]))) == escaped[0]
    )
    back = circ.cut_to_linear(cw, k)
    assert w.crossing_set(back).pairs == w.crossing_set(lw).pairs


def test_max_n_env_override(tmp_path):
    code = (
        "from drawkit import rotation as rot\n"
        "from drawkit.rotation import CrossingSet\n"
        "rot.canonical_crossing_form(CrossingSet(10, frozenset()))\n"
        "print('ok')\n"
    )
    # the child imports the same drawkit as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(drawkit.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, DRAWKIT_MAX_N="10", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0 and "ok" in out.stdout


def test_closed_path_serialization():
    doc = serial.dump_path([1, 2, 3], closed=True)
    assert doc["payload"]["closed"] is True
    back = serial.load(doc)
    assert back == {"vertices": [1, 2, 3], "closed": True}


def test_rotation_extraction_round_trip_through_all_models():
    # cylinder rules -> realization -> sweep rotations -> 4-subset table
    for seed in (0, 2, 4):
        cd = gen.random_cylindrical(6, seed, strong=True)
        nd = cyl.remove_double_spirals(cyl.normalize_winding(cd))
        cw = cyl.to_circular_wiring(nd)
        rs = circ.rotation_system(cw)
        assert rot.crossings_from_rotation(rs).pairs == cyl.crossing_set(cd).pairs
        assert rot.realizability_filter(rs)


@pytest.mark.skipif(
    not os.environ.get("DRAWKIT_RUN_N7"),
    reason="long-running optional target; set DRAWKIT_RUN_N7=1",
)
def test_optional_enumeration_at_7():
    report = oracle.verify_enumeration(7, jobs=int(os.environ.get("DRAWKIT_JOBS", "4")))
    assert report["conj1_ok"] and report["conj2_ok"]
    print(f"n=7 classes: {report['classes']}")
