"""Acceptance criteria, one test per criterion, exact assertions throughout.

Each test prints a PASS line when it completes; the conftest terminal summary
additionally reports one line per criterion.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from hfpc.cchm import QuaternaryRow, cchm_equivalent, code_to_cchm, is_cchm, sylvester_double
from hfpc.cli import main as cli_main
from hfpc.families import assemble
from hfpc.gf2 import BitVector
from hfpc.hadamard import bound_violations, is_hadamard_code, kernel, profile
from hfpc.propelinear import (
    associated_group_order,
    element_power,
    is_full_propelinear,
    is_propelinear,
)
from hfpc.search import SearchTask, candidate_count, reproduce_table, run_search
from helpers import (
    EXPECTED_CELLS,
    GENERATOR_A,
    GENERATOR_B,
    ORDER16_ROW_A,
    ORDER16_ROW_B,
    PROFILE_A,
    PROFILE_B,
    brute_force_accepted,
    kernel_all_words,
    rebuild_code,
    span_of,
    star_powers,
)

V = BitVector.from_string
WORKERS = 4


def _report(n: int, text: str) -> None:
    print("criterion %d PASS: %s" % (n, text))


@pytest.fixture(scope="module")
def t7_result():
    return run_search(SearchTask("tqu", 7, mode="all"), workers=WORKERS)


def test_criterion_01_order16_example_one():
    t0 = time.perf_counter()
    code = assemble("2t4u", 8, V(GENERATOR_A))
    prof = profile(code)
    elapsed = time.perf_counter() - t0
    assert prof.rk == PROFILE_A
    assert prof.length == 32 and prof.size == 64
    assert is_hadamard_code(code.vectors(), 8)
    assert elapsed < 1.0
    _report(1, "generator A verifies to (11,2) in %.3fs" % elapsed)


def test_criterion_02_order16_example_two():
    t0 = time.perf_counter()
    code = assemble("2t4u", 8, V(GENERATOR_B))
    prof = profile(code)
    elapsed = time.perf_counter() - t0
    assert prof.rk == PROFILE_B
    assert elapsed < 1.0
    _report(2, "generator B verifies to (13,1) in %.3fs" % elapsed)


def test_criterion_03_cchm_checks():
    t0 = time.perf_counter()
    row_a = QuaternaryRow.parse(ORDER16_ROW_A)
    row_b = QuaternaryRow.parse(ORDER16_ROW_B)
    assert is_cchm(row_a)
    assert is_cchm(row_b)
    out = code_to_cchm(assemble("2t4u", 8, V(GENERATOR_A)))
    assert cchm_equivalent(out, row_a)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(3, "both order-16 rows check; conversion is equivalent to the printed row")


def test_criterion_04_table_reproduction():
    t0 = time.perf_counter()
    rows = reproduce_table(5, workers=WORKERS)
    elapsed = time.perf_counter() - t0
    for row in rows:
        for cell in row:
            expected = EXPECTED_CELLS[(cell.family, cell.t)]
            if expected == "analytic":
                assert cell.status == "analytic", cell
            elif expected == "na":
                assert cell.status == "not-applicable", cell
            else:
                assert cell.status == "searched", cell
                assert cell.profiles == expected, cell
    assert elapsed < 600
    _report(4, "table rows t=1..5 match cell for cell in %.1fs" % elapsed)


def test_criterion_05_quaternion_t7(t7_result):
    t0 = time.perf_counter()
    res = t7_result
    assert res.accepted
    assert {a.profile.rk for a in res.accepted} == {(27, 1)}
    assert res.counters["examined"] == candidate_count("tqu", 7) == 5013288
    assert res.counters["rejected_power"] == 4677148
    assert res.counters["rejected_no_b"] == 0
    assert res.counters["rejected_relation"] == 0
    assert res.counters["rejected_hadamard"] == 1342880
    assert len(res.accepted) == res.distinct_code_sets == 840
    assert res.wall_time < 1800
    _report(
        5,
        "t=7 search: %d accepted, %d distinct, all (27,1), %.1fs"
        % (len(res.accepted), res.distinct_code_sets, res.wall_time),
    )


def test_criterion_06_deep_t8_enumeration():
    t0 = time.perf_counter()
    res = run_search(SearchTask("2t4u", 8, mode="all"), workers=WORKERS)
    elapsed = time.perf_counter() - t0
    assert {a.profile.rk for a in res.accepted} == {(11, 2), (13, 1)}
    assert res.counters["examined"] == 300546630
    assert res.counters["rejected_power"] == 300489286
    assert res.counters["rejected_hadamard"] == 55808
    assert len(res.accepted) == 1536
    assert res.distinct_code_sets == 640
    assert elapsed < 12 * 3600
    _report(6, "deep t=8 enumeration: exactly {(11,2),(13,1)} in %.1fs" % elapsed)


def _pool_codes(accepted_pool, t7_result):
    for result in list(accepted_pool.values()) + [t7_result]:
        for acc in result.accepted:
            yield acc


def test_criterion_07a_power_expansion(accepted_pool, t7_result):
    checked = 0
    for acc in _pool_codes(accepted_pool, t7_result):
        code = rebuild_code(acc)
        for e in code.elements:
            for i, power in enumerate(star_powers(e, 8 * acc.t), start=1):
                assert element_power(e, i) == power
        checked += 1
    _report(7, "power expansion agrees with iterated star on %d codes" % checked)


def test_criterion_07b_propelinear_axioms(accepted_pool, t7_result):
    checked = 0
    for acc in _pool_codes(accepted_pool, t7_result):
        code = rebuild_code(acc)
        assert is_propelinear(code)
        assert is_full_propelinear(code)
        assert associated_group_order(code) == 4 * acc.t
        checked += 1
    _report(7, "propelinear axioms hold on %d codes" % checked)


def test_criterion_07c_kernel_oracle(accepted_pool, t7_result):
    checked = 0
    for acc in _pool_codes(accepted_pool, t7_result):
        if acc.profile.length > 16:
            continue
        vecs = rebuild_code(acc).vectors()
        basis, k = kernel(vecs)
        oracle = kernel_all_words(vecs)
        assert span_of([r.value for r in basis.rows]) == oracle
        assert 1 << k == len(oracle)
        checked += 1
    _report(7, "definitional kernel equals optimized kernel on %d short codes" % checked)


def test_criterion_07d_bound_suite(accepted_pool, t7_result):
    checked = 0
    for acc in _pool_codes(accepted_pool, t7_result):
        p = acc.profile
        assert bound_violations(p.length, p.size, p.rank, p.kernel_dim) == []
        if acc.family in ("4tu2", "2t22u", "2t4u") and p.rank > p.kernel_dim:
            assert p.kernel_dim <= 3
        if acc.t % 2 == 1 and p.rank > p.kernel_dim:
            assert p.rk == (4 * acc.t - 1, 1)
        checked += 1
    _report(7, "bound suite clean on %d codes" % checked)


def test_criterion_07e_filter_soundness(accepted_pool):
    cases = [(tag, t) for tag in ("4tu2", "2t22u", "2t4u") for t in (1, 2, 3, 4)]
    cases += [("tqu", 1), ("tqu", 3)]
    for tag, t in cases:
        brute = brute_force_accepted(tag, t)
        filtered = (
            accepted_pool[(tag, t)]
            if (tag, t) in accepted_pool
            else run_search(SearchTask(tag, t, mode="all"))
        )
        assert [a.vector_values for a in filtered.accepted] == [
            c.vector_values for _, c in brute
        ], (tag, t)
    _report(7, "filtered search equals unfiltered brute force for all short cells")


def test_criterion_08_sylvester_doubling():
    t0 = time.perf_counter()
    code = sylvester_double(V("0110"))
    elapsed = time.perf_counter() - t0
    assert code.length == 8 and code.size == 16
    assert is_hadamard_code(code.vectors(), 2)
    basis, k = kernel(code.vectors())
    spanned = span_of([r.value for r in basis.rows])
    assert V("00001111").value in spanned and V("11111111").value in spanned
    assert k >= 2
    assert elapsed < 1.0
    _report(8, "doubling 0110 gives a 16-word length-8 code with 00001111 in the kernel")


def _cli_bytes(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli_main(argv)
    assert rc == 0, argv
    return out.getvalue()


def test_criterion_09_determinism():
    commands = [
        ["verify", "--family", "2t4u", "--t", "8", "--a", GENERATOR_A],
        ["verify", "--family", "2t4u", "--t", "8", "--a", GENERATOR_B],
        ["cchm", "check", "--row", ORDER16_ROW_A],
        ["cchm", "from-code", "--t", "8", "--a", GENERATOR_A],
        ["search", "--family", "tqu", "--t", "3", "--all"],
        ["search", "--family", "2t22u", "--t", "4", "--all"],
        ["search", "--family", "4tu2", "--t", "4", "--all"],
        ["search", "--family", "2t4u", "--t", "4", "--all"],
        ["search", "--family", "tqu", "--t", "5", "--all"],
        ["table", "--tmax", "5", "--format", "csv"],
    ]
    for argv in commands:
        runs = []
        for workers in ("1", "3"):
            full = list(argv)
            if argv[0] in ("search", "table"):
                full += ["--workers", workers]
            runs.append(_cli_bytes(full))
        assert runs[0] == runs[1], argv
        for line in runs[0].splitlines():
            if line.startswith("{"):
                json.loads(line)  # every JSON line stays parseable
    _report(9, "all reference commands byte-identical across worker counts")
