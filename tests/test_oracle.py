import hashlib
from itertools import combinations, permutations

import pytest

from drawkit import cylinder as cyl
from drawkit import generators as gen
from drawkit import hampath as hp
from drawkit import oracle
from drawkit import rotation as rot
from drawkit.errors import InvalidDrawing, TooLarge
from drawkit.rotation import CrossingSet


def test_find_path_examples():
    c4, _ = gen.convex(4)
    assert oracle.find_cf_ham_path(c4, 1, 3) == [1, 2, 4, 3]
    t4 = gen.twisted(4)
    assert oracle.find_cf_ham_path(t4, 2, 3) == [2, 1, 4, 3]
    cs2 = CrossingSet(2, frozenset())
    assert oracle.find_cf_ham_path(cs2, 1, 2) == [1, 2]


def test_find_cycle_examples():
    c5, _ = gen.convex(5)
    assert oracle.find_cf_ham_cycle(c5) == [1, 2, 3, 4, 5]
    t5 = gen.twisted(5)
    cycle = oracle.find_cf_ham_cycle(t5)
    assert cycle is not None and hp.is_crossing_free(t5, cycle + [cycle[0]])
    c3 = CrossingSet(3, frozenset())
    assert oracle.find_cf_ham_cycle(c3) == [1, 2, 3]


def test_returned_paths_are_crossing_free():
    for seed in range(8):
        cd = gen.random_cylindrical(6, seed, strong=False)
        cs = cyl.crossing_set(cd)
        for a, b in combinations(range(1, 7), 2):
            p = oracle.find_cf_ham_path(cs, a, b)
            assert p is not None
            assert hp.is_crossing_free(cs, p)
            assert p[0] == a and p[-1] == b and sorted(p) == list(range(1, 7))


def test_verify_all_pairs():
    assert oracle.verify_all_pairs(gen.convex(6)[0])
    assert oracle.verify_all_pairs(CrossingSet(2, frozenset()))
    for cs in rot.enumerate_realizable(5):
        assert oracle.verify_all_pairs(cs)


# a hand-frozen crossing set (valid per the type, not drawable) where no
# crossing-free Hamiltonian path from 3 to 4 exists
ABSENT_3_4 = CrossingSet(6, frozenset(
    {
        ((1, 2), (3, 6)), ((1, 3), (2, 4)), ((1, 3), (4, 5)), ((1, 4), (2, 5)),
        ((1, 5), (2, 6)), ((1, 6), (2, 4)), ((1, 6), (3, 4)), ((1, 6), (4, 5)),
        ((2, 3), (4, 5)), ((2, 3), (4, 6)), ((2, 5), (4, 6)), ((2, 6), (3, 5)),
    }
))


def test_an_absent_instance_is_reported():
    assert oracle.find_cf_ham_path(ABSENT_3_4, 3, 4) is None
    assert not oracle.verify_all_pairs(ABSENT_3_4)


@pytest.mark.parametrize("cs", [gen.convex(12)[0], gen.twisted(13)], ids=["convex-12", "twisted-13"])
def test_verify_all_pairs_searches_few_pairs(cs, monkeypatch):
    # every other pair is reached by rotating the paths found
    searched = []
    search = oracle._search
    monkeypatch.setattr(oracle, "_search", lambda *args: searched.append(args[1:]) or search(*args))
    assert oracle.verify_all_pairs(cs)
    assert len(searched) <= cs.n


class CountingMasks(tuple):
    """A `CrossingSet.masks` view that counts its reads: one per search node
    past the root, plus the rotation checks of `verify_all_pairs`."""

    reads = 0

    def __getitem__(self, i):
        CountingMasks.reads += 1
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize(
    "query, cs, bound",
    [
        # 84 reads with dead ends cut, 21,882 without
        (oracle.find_cf_ham_cycle, gen.twisted(12), 200),
        # 666 reads with dead ends cut, 9,979 without
        (oracle.verify_all_pairs, gen.convex(11)[0], 1200),
    ],
    ids=["cycle-twisted-12", "all-pairs-convex-11"],
)
def test_search_effort(query, cs, bound, monkeypatch):
    cs.__dict__["masks"] = CountingMasks(cs.masks)
    monkeypatch.setattr(CountingMasks, "reads", 0)
    assert query(cs)
    assert CountingMasks.reads <= bound


# the end pairs verify_all_pairs searches, in order, and its masks reads
ALL_PAIRS_WORK = {
    "convex-9": ([(1, 2)], 197),
    "convex-10": ([(1, 2)], 355),
    "convex-11": ([(1, 2)], 666),
    "convex-12": ([(1, 2)], 1301),
    "twisted-9": ([(1, 2)], 113),
    "twisted-10": ([(1, 2)], 178),
    "twisted-11": ([(1, 2)], 257),
    "twisted-12": ([(1, 2)], 346),
    "twisted-13": ([(1, 2)], 459),
    "hill-10": ([(1, 2)], 82),
    "hill-11": ([(1, 2)], 103),
    "hill-12": ([(1, 2)], 147),
    "hill-13": ([(1, 2)], 176),
    "absent-3-4": ([(1, 2), (1, 3), (2, 5), (3, 4)], 109),
}


def named_crossing_set(name):
    if name == "absent-3-4":
        return CrossingSet(ABSENT_3_4.n, ABSENT_3_4.pairs)
    kind, n = name.rsplit("-", 1)
    n = int(n)
    return {
        "convex": lambda: gen.convex(n)[0],
        "twisted": lambda: gen.twisted(n),
        "hill": lambda: cyl.crossing_set(gen.hill(n)),
    }[kind]()


@pytest.mark.parametrize("name", ALL_PAIRS_WORK)
def test_verify_all_pairs_work_is_pinned(name, monkeypatch):
    cs = named_crossing_set(name)
    cs.__dict__["masks"] = CountingMasks(cs.masks)
    monkeypatch.setattr(CountingMasks, "reads", 0)
    searched = []
    search = oracle._search
    monkeypatch.setattr(oracle, "_search", lambda *args: searched.append(args[1:]) or search(*args))
    assert oracle.verify_all_pairs(cs) == (name != "absent-3-4")
    assert (searched, CountingMasks.reads) == ALL_PAIRS_WORK[name]


def test_size_cap():
    with pytest.raises(TooLarge):
        oracle.find_cf_ham_path(CrossingSet(15, frozenset()), 1, 2)
    # a crossing set writes its masks when built, so a huge n is refused
    # there, before any oracle entry point
    with pytest.raises(InvalidDrawing, match="above the limit of 1024 vertices"):
        CrossingSet(100000, ())


@pytest.mark.parametrize("n", [1, 2])
def test_cycle_below_three_vertices_is_invalid(n):
    with pytest.raises(InvalidDrawing, match="needs n >= 3"):
        oracle.find_cf_ham_cycle(CrossingSet(n, frozenset()))


@pytest.mark.parametrize("a, b", [(0, 3), (1, 6), (6, 6)])
def test_path_ends_out_of_range_are_invalid(a, b):
    with pytest.raises(InvalidDrawing, match="out of range"):
        oracle.find_cf_ham_path(gen.convex(5)[0], a, b)


@pytest.mark.parametrize("n, a", [(5, 3), (1, 1)])
def test_path_equal_ends_are_invalid(n, a):
    with pytest.raises(InvalidDrawing, match="must be distinct"):
        oracle.find_cf_ham_path(CrossingSet(n, frozenset()), a, a)


# sha256 of repr() of find_cf_ham_cycle on every class of
# enumerate_realizable(5), on twisted(9), on convex(9) and on the crossing set
# of hill(10), followed by find_cf_ham_path on those drawings for every
# ordered pair of distinct ends in permutations() order; pins the search order
ORACLE_OUTPUTS_DIGEST = "ce7ab6c66bd0dd984dc19748a2618cdecfc59e8445d0f64f99e084fdb1a2b834"


def test_oracle_outputs_are_pinned():
    drawings = list(rot.enumerate_realizable(5)) + [
        gen.twisted(9),
        gen.convex(9)[0],
        cyl.crossing_set(gen.hill(10)),
    ]
    outputs = [oracle.find_cf_ham_cycle(cs) for cs in drawings] + [
        oracle.find_cf_ham_path(cs, a, b)
        for cs in drawings
        for a, b in permutations(range(1, cs.n + 1), 2)
    ]
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == ORACLE_OUTPUTS_DIGEST


def test_determinism():
    t6 = gen.twisted(6)
    assert oracle.find_cf_ham_path(t6, 2, 5) == oracle.find_cf_ham_path(t6, 2, 5)
    assert oracle.find_cf_ham_cycle(t6) == oracle.find_cf_ham_cycle(t6)


def test_verify_enumeration_n4_and_n5():
    r4 = oracle.verify_enumeration(4)
    assert r4["classes"] == 2 and r4["conj1_ok"] and r4["conj2_ok"] and not r4["failures"]
    r5 = oracle.verify_enumeration(5)
    assert r5["classes"] == 5 and r5["conj1_ok"] and r5["conj2_ok"]


def test_cycle_minus_any_edge_is_a_crossing_free_path():
    for n in (4, 5):
        for cs in rot.enumerate_realizable(n):
            cycle = oracle.find_cf_ham_cycle(cs)
            assert cycle is not None
            closed = cycle + [cycle[0]]
            for k in range(n):
                path = closed[k + 1 :] + closed[1 : k + 1]
                assert hp.is_crossing_free(cs, path)
