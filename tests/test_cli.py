from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

from hfpc.cchm import QuaternaryRow, cchm_to_code
from hfpc.cli import main
from hfpc.hadamard import is_hadamard_code, kernel, rank
from helpers import GENERATOR_A, GENERATOR_B, ORDER16_ROW_A, ORDER16_ROW_B


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_verify_known_generators():
    code, out, _ = run_cli("verify", "--family", "2t4u", "--t", "8", "--a", GENERATOR_A)
    assert code == 0
    prof = json.loads(out)
    assert (prof["rank"], prof["kernel_dim"]) == (11, 2)
    code, out, _ = run_cli("verify", "--family", "2t4u", "--t", "8", "--a", GENERATOR_B)
    assert code == 0
    assert json.loads(out)["rank"] == 13


def test_verify_rejects_degenerate():
    code, out, _ = run_cli("verify", "--family", "2t4u", "--t", "1", "--a", "0000")
    assert code == 1
    assert json.loads(out)["rejected"] == "weight"


def test_verify_quaternion_via_d():
    first, out, _ = run_cli("search", "--family", "tqu", "--t", "3", "--first")
    assert first == 0
    rec = json.loads(out.splitlines()[0])
    code, vout, _ = run_cli("verify", "--family", "tqu", "--t", "3", "--d", rec["generator_d"])
    assert code == 0
    assert json.loads(vout)["rank"] == 11
    code, vout, _ = run_cli(
        "verify", "--family", "tqu", "--t", "3",
        "--d", rec["generator_d"], "--a", rec["generator_a"], "--b", rec["generator_b"],
    )
    assert code == 0
    assert json.loads(vout)["kernel_dim"] == 1


def test_usage_errors_exit_64():
    assert run_cli("search", "--family", "nope", "--t", "3")[0] == 64
    assert run_cli("verify", "--family", "2t4u", "--t", "8", "--a", "01")[0] == 64
    assert run_cli("verify", "--family", "tqu", "--t", "3")[0] == 64
    assert run_cli("nonsense")[0] == 64
    assert run_cli("search", "--family", "2t4u", "--t", "0")[0] == 64
    # deep-range searches refuse to start without --deep
    assert run_cli("search", "--family", "2t4u", "--t", "8", "--all")[0] == 64
    # quaternion family needs odd t
    assert run_cli("search", "--family", "tqu", "--t", "2", "--all")[0] == 64
    assert run_cli("verify", "--family", "tqu", "--t", "2", "--d", "10100101")[0] == 64
    # a search is one pass; there is no resume file to name
    assert run_cli("search", "--family", "tqu", "--t", "3", "--all", "--checkpoint", "x")[0] == 64
    assert run_cli("table", "--tmax", "2", "--checkpoint-dir", "x")[0] == 64


def test_search_json_lines():
    code, out, err = run_cli("search", "--family", "tqu", "--t", "3", "--all")
    assert code == 0
    lines = out.splitlines()
    records = [json.loads(line) for line in lines]
    summary = records[-1]
    assert summary["type"] == "summary"
    assert summary["accepted"] == len(records) - 1 > 0
    assert summary["candidates"] == 108
    assert summary["counters"]["examined"] == 108
    for rec in records[:-1]:
        assert rec["family"] == "tqu" and rec["t"] == 3
        assert (rec["rank"], rec["kernel_dim"]) == (11, 1)
        assert set(rec) == {
            "family", "t", "length", "size", "rank", "kernel_dim",
            "kernel_basis", "generator_a", "generator_b", "generator_d",
        }
    assert "search tqu t=3" in err


def test_search_deterministic_bytes():
    _, out1, _ = run_cli("search", "--family", "2t22u", "--t", "4", "--all")
    _, out2, _ = run_cli("search", "--family", "2t22u", "--t", "4", "--all")
    assert out1 and out1 == out2


def test_workers_flag_is_a_usage_error():
    # every search runs in one process; a worker count is not an option
    for argv in (
        ("search", "--family", "2t22u", "--t", "4", "--all", "--workers", "2"),
        ("table", "--tmax", "3", "--format", "csv", "--workers", "2"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 64 and out == "", argv
        assert "unrecognized arguments: --workers 2" in err, argv


def test_cchm_cli():
    code, out, _ = run_cli("cchm", "check", "--row", ORDER16_ROW_A)
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli("cchm", "check", "--row", "1,1")
    assert code == 0 and out.strip() == "false"
    code, out, _ = run_cli("cchm", "to-code", "--row", ORDER16_ROW_A)
    assert code == 0
    rec = json.loads(out)
    assert rec["is_hadamard_code"] and (rec["rank"], rec["kernel_dim"]) == (11, 2)
    assert len(rec["codewords"]) == 64
    code, out, _ = run_cli("cchm", "from-code", "--t", "8", "--a", GENERATOR_A)
    assert code == 0
    from hfpc.cchm import QuaternaryRow, cchm_equivalent, is_cchm

    row = QuaternaryRow.parse(out.strip())
    assert is_cchm(row)
    assert cchm_equivalent(row, QuaternaryRow.parse(ORDER16_ROW_A))
    assert run_cli("cchm", "check", "--row", "1,q")[0] == 64


def test_table_text_and_csv():
    code, out, _ = run_cli("table", "--tmax", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("|")[0].strip() == "t"
    assert "(3,3)" in lines[2]
    assert "analytic" in lines[3] and "-" in lines[3]
    code, out, _ = run_cli("table", "--tmax", "2", "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "t,family,status,profiles,candidates,accepted,distinct"
    cells = {tuple(r.split(",")[:2]): r.split(",")[2:] for r in rows[1:]}
    assert cells[("1", "4tu2")][0] == "searched"
    assert cells[("1", "4tu2")][1] == "3:3"
    assert cells[("2", "2t22u")][0] == "analytic"
    assert cells[("2", "tqu")][0] == "not-applicable"


def test_table_deterministic_bytes():
    _, out1, _ = run_cli("table", "--tmax", "3", "--format", "csv")
    _, out2, _ = run_cli("table", "--tmax", "3", "--format", "csv")
    assert out1 and out1 == out2


def test_output_file(tmp_path):
    path = tmp_path / "res.jsonl"
    code, out, _ = run_cli(
        "search", "--family", "2t4u", "--t", "2", "--all", "--output", str(path)
    )
    assert code == 0 and out == ""
    lines = path.read_text().splitlines()
    assert json.loads(lines[-1])["type"] == "summary"


def test_conjecture_flagging(monkeypatch):
    """Accepted 2t4u codes beyond t = 8 are dumped as counterexample candidates."""
    import hfpc.cli as cli_mod
    from hfpc.hadamard import CodeProfile
    from hfpc.search import AcceptedCode, SearchResult

    prof = CodeProfile(
        family="2t4u", t=10, length=40, size=80, rank=20, kernel_dim=1,
        kernel_basis=("1" * 40,), min_distance=20,
        generator_a="01" * 20, generator_b="0011" * 10, generator_d=None,
    )
    fake = SearchResult(
        family="2t4u", t=10,
        accepted=[AcceptedCode("2t4u", 10, "01" * 20, prof, frozenset({0, (1 << 40) - 1}))],
        counters={"examined": 1}, distinct_code_sets=1, wall_time=0.0,
    )
    monkeypatch.setattr(cli_mod, "run_search", lambda task: fake)
    monkeypatch.setattr(cli_mod, "candidate_count", lambda f, t: 1)
    code, out, _ = run_cli("search", "--family", "2t4u", "--t", "10", "--all", "--deep")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["conjecture_counterexample_candidate"] is True
    assert "codewords" in records[0]
    assert records[-1]["conjecture_counterexample_candidates"] == 1


def test_verify_refuses_generator_flags_it_would_ignore():
    for argv in (
        # tqu with only one of --a and --b
        ("--family", "tqu", "--t", "3", "--d", "000001110111", "--a", "111111111111"),
        ("--family", "tqu", "--t", "3", "--d", "000001110111", "--b", "111111111111"),
        # a two-generator family with --b or --d
        ("--family", "2t4u", "--t", "2", "--a", "00110011", "--b", "11111111"),
        ("--family", "4tu2", "--t", "2", "--a", "00011110", "--d", "00011110"),
        ("--family", "2t22u", "--t", "1", "--a", "0110", "--b", "0110", "--d", "0110"),
    ):
        code, out, err = run_cli("verify", *argv)
        assert code == 64, argv
        assert out == "" and "error: family" in err, argv


def test_unopenable_output_exits_64_before_any_search(monkeypatch, tmp_path):
    import hfpc.cli as cli_mod
    import hfpc.search as search_mod

    def no_search(*args, **kwargs):
        raise AssertionError("searched before opening the output")

    monkeypatch.setattr(cli_mod, "run_search", no_search)
    monkeypatch.setattr(search_mod, "run_search", no_search)
    missing = str(tmp_path / "missing" / "x.json")
    for argv in (
        ("search", "--family", "tqu", "--t", "3", "--all", "--output", missing),
        ("table", "--tmax", "3", "--output", missing),
    ):
        code, out, err = run_cli(*argv)
        assert code == 64, argv
        assert out == "" and "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_parser_is_built_once_and_carries_nothing_between_calls(monkeypatch):
    import hfpc.cli as cli_mod

    built = []

    class CountingParser(cli_mod._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.prog == "hfpc":  # the subcommand parsers are "hfpc <name>"
                built.append(self)

    monkeypatch.setattr(cli_mod, "_Parser", CountingParser)
    cli_mod.build_parser.cache_clear()
    try:
        verify = ("verify", "--family", "2t4u", "--t", "8", "--a", GENERATOR_A)
        code, first_out, _ = run_cli(*verify)
        assert code == 0

        code, out, _ = run_cli("search", "--family", "tqu", "--t", "3", "--all")
        assert code == 0 and json.loads(out.splitlines()[-1])["mode"] == "all"
        code, out, _ = run_cli("search", "--family", "tqu", "--t", "3")
        assert code == 0 and json.loads(out.splitlines()[-1])["mode"] == "first"

        bad = ("verify", "--family", "2t4u", "--t", "8", "--a", "2" + GENERATOR_A[1:])
        assert run_cli(*bad)[0] == 64
        assert run_cli(*verify)[:2] == (0, first_out)

        code, out, _ = run_cli("table", "--tmax", "2", "--format", "csv")
        assert code == 0 and out.startswith("t,family,status,")
        code, out, _ = run_cli("table", "--tmax", "2")
        assert code == 0 and out.splitlines()[0].split("|")[0].strip() == "t"

        assert run_cli("nonsense")[0] == 64
        assert len(built) == 1
    finally:
        cli_mod.build_parser.cache_clear()


def test_cchm_to_code_reports_the_checks_of_the_codewords():
    # the report from one int list equals the public checks on the codeword
    # vectors, for both order-16 rows and 10 seeded images of each
    rng = random.Random(186)
    rows = [QuaternaryRow.parse(r) for r in (ORDER16_ROW_A, ORDER16_ROW_B)]
    for row in list(rows):
        c = row.exponents
        n = len(c)
        for _ in range(10):
            m = rng.choice([m for m in range(1, n) if gcd(m, n) == 1])
            eps, s, g = rng.choice((1, -1)), rng.randrange(n), rng.randrange(4)
            rows.append(QuaternaryRow(tuple((eps * c[(m * j + s) % n] + g) % 4 for j in range(n))))
    for row in rows:
        code, out, _ = run_cli("cchm", "to-code", "--row=%s" % row)
        assert code == 0, row
        vecs = cchm_to_code(row)
        want = {
            "length": vecs[0].n,
            "size": len(vecs),
            "is_hadamard_code": is_hadamard_code(vecs, vecs[0].n // 4),
            "rank": rank(vecs),
            "kernel_dim": kernel(vecs)[1],
            "codewords": [str(v) for v in vecs],
        }
        assert out == json.dumps(want) + "\n", row
