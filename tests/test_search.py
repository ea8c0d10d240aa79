from __future__ import annotations

from math import comb

import pytest

from hfpc import _scan_py, hadamard, search
from hfpc.gf2 import BitVector
from hfpc.hadamard import profile
from hfpc.search import (
    DEEP_GATE,
    SearchTask,
    analytic_nonexistence,
    candidate_count,
    reproduce_table,
    run_search,
)
from helpers import (
    EXPECTED_CELLS,
    GENERATOR_B,
    all_weight_w,
    brute_force_accepted,
    candidate_stream,
    quaternion_power_survivor_count,
    rebuild_code,
)

V = BitVector.from_string


def test_candidate_stream_small_sets():
    assert {str(v) for v in candidate_stream("2t22u", 1)} == {"1100", "0011"}
    assert {str(v) for v in candidate_stream("2t4u", 1)} == {"1100", "0011"}
    assert {str(v) for v in candidate_stream("4tu2", 1)} == {
        "1001", "1010", "0101", "0110"
    }
    vals = [v.value for v in candidate_stream("4tu2", 1)]
    assert vals == sorted(vals)  # ascending lexicographic order


def test_candidate_stream_matches_weight_and_parity_oracle():
    for tag, t in (("4tu2", 2), ("2t22u", 2), ("2t4u", 2), ("tqu", 3)):
        n, w = 4 * t, 2 * t
        got = [v.value for v in candidate_stream(tag, t)]
        expect = []
        for x in all_weight_w(n, w):
            if tag == "tqu":
                ok = all(
                    bin(x & int(m * t, 2)).count("1") % 2 == 0
                    for m in ("1000", "0100", "0010", "0001")
                )
            else:
                hi = bin(x >> (2 * t)).count("1") % 2
                lo = bin(x & ((1 << (2 * t)) - 1)).count("1") % 2
                want = 1 if tag == "4tu2" else 0
                ok = hi == want and lo == want
            if ok:
                expect.append(x)
        assert got == expect
        assert len(got) == candidate_count(tag, t)


def test_candidate_count_closed_form():
    # convolution identity: the two parity classes split C(4t, 2t)
    for t in (1, 2, 3, 4, 8):
        total = candidate_count("4tu2", t) + candidate_count("2t22u", t)
        assert total == comb(4 * t, 2 * t)
        assert candidate_count("2t4u", t) == candidate_count("2t22u", t)
    assert candidate_count("2t4u", 8) == 300546630
    assert candidate_count("4tu2", 8) == 300533760
    assert candidate_count("tqu", 1) == 0
    assert candidate_count("tqu", 3) == 108
    assert candidate_count("tqu", 7) == 5013288
    assert candidate_count("4tu2", 10) > DEEP_GATE  # desk-scale cutoff


def test_run_search_known_cells():
    res = run_search(SearchTask("tqu", 3, mode="all"))
    assert res.accepted and all(a.profile.rk == (11, 1) for a in res.accepted)
    assert run_search(SearchTask("4tu2", 4, mode="all")).accepted == []
    res22 = run_search(SearchTask("2t22u", 4, mode="all"))
    assert {a.profile.rk for a in res22.accepted} == {(5, 5), (6, 3)}
    assert res22.counters["examined"] == candidate_count("2t22u", 4)


def test_run_search_first_mode():
    full = run_search(SearchTask("2t22u", 4, mode="all"))
    first = run_search(SearchTask("2t22u", 4, mode="first"))
    assert len(first.accepted) == 1
    assert first.accepted[0].candidate == full.accepted[0].candidate
    assert first.counters["examined"] <= full.counters["examined"]


def test_run_search_first_mode_t8_counters():
    # first-mode counters stop at the first accepted candidate in stream order,
    # far below the end of the 300,546,630-candidate space
    first = run_search(SearchTask("2t4u", 8, mode="first"))
    assert [a.candidate for a in first.accepted] == [GENERATOR_B]
    assert first.counters == {
        "examined": 1135031,
        "rejected_power": 1135005,
        "rejected_hadamard": 25,
        "accepted": 1,
    }


def test_run_search_quaternion_t9_first_mode_counters():
    # first accept of the 1,134,373,680-candidate tqu t = 9 stream, in stream order
    first = run_search(SearchTask("tqu", 9, mode="first"))
    assert first.counters == {
        "examined": 11858,
        "rejected_power": 11753,
        "rejected_no_b": 0,
        "rejected_relation": 0,
        "rejected_hadamard": 416,
        "accepted": 1,
    }
    assert [int(a.candidate, 2) for a in first.accepted] == [15981887]
    assert first.accepted[0].profile.rk == (35, 1)


def test_quaternion_t9_full_scan_counters():
    # the whole 1,134,373,680-candidate tqu t = 9 stream in one call, every
    # code re-assembled
    res = run_search(SearchTask("tqu", 9, mode="all"))
    assert res.counters == {
        "examined": 1134373680,
        "rejected_power": 1114716924,
        "rejected_no_b": 0,
        "rejected_relation": 0,
        "rejected_hadamard": 78620544,
        "accepted": 3240,
    }
    assert len(res.accepted) == res.distinct_code_sets == 3240
    profiles = tuple(sorted({a.profile.rk for a in res.accepted}))
    assert profiles == EXPECTED_CELLS[("tqu", 9)] == ((35, 1),)


def test_quaternion_t11_full_scan_counters():
    # the t = 11 row: tqu over its whole 263,012,105,928-candidate stream in
    # one call, every code re-assembled; the other three cells are analytic
    res = run_search(SearchTask("tqu", 11, mode="all"))
    assert res.counters == {
        "examined": 263_012_105_928,
        "rejected_power": 262_363_802_448,
        "rejected_no_b": 0,
        "rejected_relation": 0,
        "rejected_hadamard": 2_593_208_640,
        "accepted": 2640,
    }
    survivors = res.counters["examined"] - res.counters["rejected_power"]
    assert survivors == quaternion_power_survivor_count(11) == 648_303_480
    assert len(res.accepted) == res.distinct_code_sets == 2640
    profiles = tuple(sorted({a.profile.rk for a in res.accepted}))
    assert profiles == EXPECTED_CELLS[("tqu", 11)] == ((43, 1),)
    # the accepted d are closed under rot4, a rotation by one nibble
    ds = {a.candidate for a in res.accepted}
    assert {d[-4:] + d[:-4] for d in ds} == ds
    for tag in ("4tu2", "2t22u", "2t4u"):
        assert EXPECTED_CELLS[(tag, 11)] == "analytic" and analytic_nonexistence(tag, 11)


def test_two_generator_t10_cells_are_empty():
    # the t = 10 row: both searched cells, exact counters
    for tag, counters in (
        ("2t4u", (68923356788, 68922639988, 716800)),
        ("4tu2", (68923172032, 68922128832, 1043200)),
    ):
        res = run_search(SearchTask(tag, 10, mode="all"))
        assert res.counters == {
            "examined": counters[0],
            "rejected_power": counters[1],
            "rejected_hadamard": counters[2],
            "accepted": 0,
        }, tag
        assert res.counters["examined"] == candidate_count(tag, 10)
        assert res.accepted == [] and res.distinct_code_sets == 0
        assert EXPECTED_CELLS[(tag, 10)] == ()
    assert analytic_nonexistence("2t22u", 10)
    assert EXPECTED_CELLS[("2t22u", 10)] == "analytic"


def test_run_search_4tu2_t8_exact_counts():
    res = run_search(SearchTask("4tu2", 8, mode="all"))
    assert res.counters == {
        "examined": 300533760,
        "rejected_power": 300394496,
        "rejected_hadamard": 139264,
        "accepted": 0,
    }
    assert res.counters["examined"] == candidate_count("4tu2", 8)
    assert res.accepted == [] and res.distinct_code_sets == 0


def test_one_worker_scans_its_range_in_one_call(monkeypatch):
    import hfpc._backend as backend

    calls = []

    def recording(kernel):
        def wrapped(*args):
            calls.append(args[-3:-1])  # (lo, hi) of the call
            return kernel(*args)
        return wrapped

    for name in ("scan_two_generator", "scan_quaternion"):
        monkeypatch.setattr(backend, name, recording(getattr(backend, name)))
    for task in (
        SearchTask("2t4u", 4, mode="all"),
        SearchTask("tqu", 5, mode="all"),
        SearchTask("tqu", 7, mode="first"),
    ):
        calls.clear()
        run_search(task, workers=1)
        assert calls == [(0, 1 << (4 * task.t))], task


def test_dedup():
    res = run_search(SearchTask("2t4u", 4, mode="all"))
    assert len({a.vector_values for a in res.accepted}) == res.distinct_code_sets
    assert res.distinct_code_sets < len(res.accepted)
    # complement generators produce the same code, so they collapse
    by_set = {}
    for acc in res.accepted:
        by_set.setdefault(acc.vector_values, []).append(acc.candidate)
    for cands in by_set.values():
        comps = {str(V(c).complement()) for c in cands}
        assert comps == set(cands)


def test_one_profile_per_translate_class(monkeypatch):
    # run_search profiles one code per class of translates x + C and gives
    # the others that profile with their own generators: every report must
    # equal the direct profile of its code, with the profile counts pinned
    pinned = {("tqu", 3): 8, ("tqu", 5): 24, ("tqu", 7): 120, ("2t4u", 8): 96}
    cells = [("tqu", 3), ("tqu", 5), ("tqu", 7), ("2t22u", 4), ("4tu2", 1), ("4tu2", 2)]
    cells += [("2t4u", t) for t in (1, 2, 4, 8)]
    calls = []

    def counted(code):
        calls.append(code)
        return profile(code)

    monkeypatch.setattr(search, "profile", counted)
    for tag, t in cells:
        calls.clear()
        res = run_search(SearchTask(tag, t, mode="all"))
        assert res.accepted, (tag, t)
        assert len(calls) <= res.distinct_code_sets, (tag, t)
        assert len(calls) == pinned.get((tag, t), len(calls)), (tag, t)
        for acc in res.accepted:
            assert acc.profile == profile(rebuild_code(acc)), (tag, t, acc.candidate)


def test_pairwise_check_runs_in_the_reverifier_only(monkeypatch):
    # both scan filters accept on weights; the reference constructor still
    # runs the pairwise check, once on every accepted code
    assert "_orthogonal_rows" not in vars(_scan_py)
    pairwise = hadamard._orthogonal_rows
    calls = []

    def counted(masks, n):
        calls.append(n)
        return pairwise(masks, n)

    monkeypatch.setattr(hadamard, "_orthogonal_rows", counted)
    for tag, t, codes in (("tqu", 5, 120), ("2t4u", 4, 32), ("2t22u", 4, 96), ("4tu2", 2, 8)):
        calls.clear()
        res = run_search(SearchTask(tag, t, mode="all"))
        assert len(res.accepted) == codes, (tag, t)
        assert calls == [4 * t] * codes, (tag, t)


def test_filter_soundness_small():
    """Filtered search equals assembling every word of F^n (lengths <= 8)."""
    for tag, t in (("4tu2", 1), ("2t22u", 1), ("2t4u", 1), ("4tu2", 2), ("2t4u", 2)):
        res = run_search(SearchTask(tag, t, mode="all"))
        brute = brute_force_accepted(tag, t)
        assert [a.candidate for a in res.accepted] == [
            str(BitVector(4 * t, raw)) for raw, _ in brute
        ]
        assert [a.vector_values for a in res.accepted] == [
            c.vector_values for _, c in brute
        ]


def test_analytic_rules():
    assert not analytic_nonexistence("4tu2", 1)
    assert not analytic_nonexistence("4tu2", 2)
    assert analytic_nonexistence("4tu2", 3)
    assert analytic_nonexistence("2t4u", 5)
    assert not analytic_nonexistence("2t4u", 8)
    assert analytic_nonexistence("2t22u", 2)
    assert not analytic_nonexistence("2t22u", 4)
    assert analytic_nonexistence("2t22u", 8)  # not a square
    assert not analytic_nonexistence("2t22u", 16)  # 16 = 4^2, even square
    assert not analytic_nonexistence("tqu", 9)


def test_analytic_agrees_with_search_at_t3():
    for tag in ("4tu2", "2t22u", "2t4u"):
        assert analytic_nonexistence(tag, 3)
        assert run_search(SearchTask(tag, 3, mode="all")).accepted == []


def test_reproduce_table_matches_expected():
    rows = reproduce_table(4)
    for row in rows:
        for cell in row:
            expected = EXPECTED_CELLS[(cell.family, cell.t)]
            if expected == "analytic":
                assert cell.status == "analytic"
            elif expected == "na":
                assert cell.status == "not-applicable"
            else:
                assert cell.status == "searched"
                assert cell.profiles == expected


def test_reproduce_table_budget_gate(monkeypatch):
    assert candidate_count("2t4u", 8) > DEEP_GATE  # the length-32 cells need --deep
    import hfpc.search as search_mod

    monkeypatch.setattr(search_mod, "DEEP_GATE", 10)
    rows = search_mod.reproduce_table(2)
    gated = {(c.family, c.t): c.status for row in rows for c in row}
    assert gated[("2t22u", 1)] == "searched"  # 2 candidates, under the tiny gate
    assert gated[("4tu2", 2)] == "skipped-budget"
    deep_rows = search_mod.reproduce_table(2, deep=True)
    deep_cells = {(c.family, c.t): c for row in deep_rows for c in row}
    assert deep_cells[("4tu2", 2)].status == "searched"
    assert deep_cells[("4tu2", 2)].profiles == ((4, 4),)


def test_stream_rejects_bad_tags():
    with pytest.raises(ValueError):
        list(candidate_stream("cyclic4tu", 1))
    with pytest.raises(ValueError):
        candidate_count("nope", 1)
    with pytest.raises(ValueError):
        run_search(SearchTask("tqu", 2, mode="all"))


def test_first_mode_scans_in_one_call_for_any_worker_count(monkeypatch):
    # every search runs in one process: the inert workers keyword changes
    # neither the kernel calls nor the result, in both modes
    import concurrent.futures

    import hfpc._backend as backend

    calls = []

    def recording(kernel):
        def wrapped(*args):
            calls.append(args[-3:-1])  # (lo, hi) of the call
            return kernel(*args)
        return wrapped

    def no_pool(*args, **kwargs):
        raise AssertionError("a search started a process pool")

    for name in ("scan_two_generator", "scan_quaternion"):
        monkeypatch.setattr(backend, name, recording(getattr(backend, name)))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for task in (
        SearchTask("2t4u", 4, mode="first"),
        SearchTask("tqu", 5, mode="first"),
        SearchTask("2t4u", 4, mode="all"),
        SearchTask("tqu", 5, mode="all"),
    ):
        want = None
        for workers in (1, 2, 3):
            calls.clear()
            res = run_search(task, workers=workers)
            assert calls == [(0, 1 << (4 * task.t))], (task, workers)
            got = ([a.candidate for a in res.accepted], res.counters)
            assert got == (want or got), (task, workers)
            want = got
        if task.mode == "first":
            assert len(want[0]) == 1, task
