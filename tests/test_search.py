from __future__ import annotations

from math import comb

import pytest

from hfpc import _scan_py
from hfpc.gf2 import BitVector
from hfpc.search import (
    DEEP_GATE,
    SearchTask,
    _partition,
    analytic_nonexistence,
    candidate_count,
    dedup,
    reproduce_table,
    run_search,
)
from helpers import (
    EXPECTED_CELLS,
    GENERATOR_B,
    all_weight_w,
    brute_force_accepted,
    candidate_stream,
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
    # the whole 1,134,373,680-candidate tqu t = 9 stream, scanned as 64 chunks
    accepted, counters = 0, [0] * 5
    for lo, hi in _partition(0, 1 << 36, 64):
        acc, ctr = _scan_py.scan_quaternion(9, lo, hi)
        accepted += len(acc)
        counters = [x + y for x, y in zip(counters, ctr)]
    assert counters == [1134373680, 1114716924, 0, 0, 78620544]
    assert accepted == 3240


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


def test_run_search_deterministic_across_workers():
    def strip(res):
        return (
            [a.candidate for a in res.accepted],
            [a.profile.to_json_dict() for a in res.accepted],
            res.counters,
            res.distinct_code_sets,
        )

    base = strip(run_search(SearchTask("tqu", 3, mode="all"), workers=1))
    for workers in (2, 3):
        assert strip(run_search(SearchTask("tqu", 3, mode="all"), workers=workers)) == base
    f1 = strip(run_search(SearchTask("2t4u", 4, mode="first"), workers=1))
    f4 = strip(run_search(SearchTask("2t4u", 4, mode="first"), workers=4))
    assert f1 == f4


def test_subrange_tasks_partition_the_space():
    mid = 1 << 15
    low = run_search(SearchTask("2t22u", 4, 0, mid, mode="all"))
    high = run_search(SearchTask("2t22u", 4, mid, 1 << 16, mode="all"))
    full = run_search(SearchTask("2t22u", 4, mode="all"))
    assert [a.candidate for a in low.accepted] + [a.candidate for a in high.accepted] == [
        a.candidate for a in full.accepted
    ]
    for key in full.counters:
        assert low.counters[key] + high.counters[key] == full.counters[key]


def test_dedup():
    res = run_search(SearchTask("2t4u", 4, mode="all"))
    distinct = dedup(res.accepted)
    assert len(distinct) == res.distinct_code_sets < len(res.accepted)
    assert dedup([]) == []
    # complement generators produce the same code, so they collapse
    by_set = {}
    for acc in res.accepted:
        by_set.setdefault(acc.vector_values, []).append(acc.candidate)
    for cands in by_set.values():
        comps = {str(V(c).complement()) for c in cands}
        assert comps == set(cands)


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


def test_checkpoint_resume(tmp_path):
    from hfpc.search import _CheckpointState, _partition, _scan_chunk

    path = str(tmp_path / "ckpt.json")
    task = SearchTask("2t4u", 4, mode="all")
    lo, hi = task.bounds()
    bounds = _partition(lo, hi, 128)
    state = _CheckpointState.load(path, task, 128)
    for i in range(3):  # pretend an interrupted run finished three chunks
        state.record(i, _scan_chunk(("2t4u", 4, bounds[i][0], bounds[i][1], False)))
    state.flush(path)
    # resuming adopts the recorded partition, for any worker count
    resumed = run_search(task, workers=2, checkpoint=path)
    fresh = run_search(task, workers=1)
    assert resumed.counters == fresh.counters
    assert [a.candidate for a in resumed.accepted] == [
        a.candidate for a in fresh.accepted
    ]
    # a checkpoint for a different task is refused
    with pytest.raises(ValueError):
        run_search(SearchTask("2t22u", 4, mode="all"), checkpoint=path)


def test_stream_rejects_bad_tags():
    with pytest.raises(ValueError):
        list(candidate_stream("cyclic4tu", 1))
    with pytest.raises(ValueError):
        candidate_count("nope", 1)
    with pytest.raises(ValueError):
        run_search(SearchTask("tqu", 2, mode="all"))
