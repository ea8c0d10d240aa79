"""The four benchmark workloads: their inputs, one operation each, and the
correctness check of every operation.

Everything here reaches the program through its stable interfaces only:
``hfpc.cli.main`` (the ``hfpc`` command, called in-process with stdout
captured) and the public functions of ``hfpc.cchm``.  Both are looked up as
module attributes at call time, so the traced run can wrap them.

An operation is one table cell (``table6``), one search (``tqu7``,
``first-deep``) or one request (``verify-cchm``).  ``run_search_pass`` and
``run_requests`` run one pass of a workload and return ``(attempted, failed,
wall seconds, latencies)``; a latency is the time of one request on
``verify-cchm`` and of the whole pass elsewhere.  Outputs are checked after
the clock stops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from math import gcd
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data" / "expected.json"

WORKLOADS = ("table6", "tqu7", "first-deep", "verify-cchm")

SEARCH_ARGV = {
    "table6": [["table", "--tmax", "6", "--format", "csv"]],
    "tqu7": [["search", "--family", "tqu", "--t", "7", "--all"]],
    "first-deep": [
        ["search", "--family", "2t4u", "--t", "8", "--first", "--deep"],
        ["search", "--family", "tqu", "--t", "9", "--first", "--deep"],
    ],
}


def load_data() -> dict:
    with open(DATA) as fh:
        return json.load(fh)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli(argv: list[str]) -> tuple[int, str]:
    """One ``hfpc`` command in this process; returns (exit code, stdout)."""
    import hfpc.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = hfpc.cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------- searches


def check_search(name: str, index: int, rc: int, stdout: str, data: dict) -> int:
    """Failed operations among those of one search command."""
    exp = data[name][index]
    if name == "table6":
        # one operation per cell line; a wrong header fails every cell
        want = exp["csv"].splitlines()
        got = stdout.splitlines() if rc == 0 else []
        if got[:1] != want[:1]:
            return len(want) - 1
        got += [None] * (len(want) - len(got))
        return sum(1 for g, e in zip(got[1:], want[1:]) if g != e)
    if rc != 0 or sha(stdout) != exp["sha256"]:
        return 1
    lines = stdout.splitlines()
    summary = json.loads(lines[-1])
    records = [json.loads(line) for line in lines[:-1]]
    profiles = sorted({(r["rank"], r["kernel_dim"]) for r in records})
    first = {k: records[0][k] for k in exp["first"]} if records else None
    return int(
        summary["counters"] != exp["counters"]
        or summary["distinct_code_sets"] != exp["distinct"]
        or [list(p) for p in profiles] != exp["profiles"]
        or first != exp["first"]
    )


def search_ops(name: str, data: dict) -> int:
    if name == "table6":
        return len(data[name][0]["csv"].splitlines()) - 1
    return len(SEARCH_ARGV[name])


def run_search_pass(name: str, data: dict, tracer=None) -> tuple[int, int, float, list[float]]:
    """(operations attempted, failed, wall seconds, [wall seconds])."""
    outputs = []
    t0 = time.perf_counter()
    for i, argv in enumerate(SEARCH_ARGV[name]):
        if tracer is not None:
            tracer.request = i
        outputs.append(cli(argv))
    wall = time.perf_counter() - t0
    failed = sum(
        check_search(name, i, rc, stdout, data) for i, (rc, stdout) in enumerate(outputs)
    )
    return search_ops(name, data), failed, wall, [wall]


# ------------------------------------------------------------- verify-cchm
#
# A request is (kind, call, expect).  ``call`` is an argv list for the CLI,
# or a pair of rows for ``cchm_equivalent``.  Every expectation follows from
# the recorded data and the construction of the input:
#   * accepted generators: the recorded stdout digest or CCHM row;
#   * random weight-2t candidates: drawn from cells whose accepted set is
#     recorded in full and not in it, so the reference constructor rejects;
#   * images of a CCHM row under shift, i^k, conjugation and decimation are
#     CCHM rows, equivalent to it, and give a code with the same (rank,
#     kernel dimension);
#   * perturbed rows are labelled by an independent Gaussian-integer check.

# (kind, family, t, count); a loop of requests is the concatenation of these
# quotas in seeded order, so every seed gives the same mix of work.
STRATA = (
    [("verify_acc", f, t, 16) for f, t in
     (("4tu2", 1), ("4tu2", 2), ("2t22u", 1), ("2t22u", 4), ("2t4u", 1),
      ("2t4u", 2), ("2t4u", 4), ("tqu", 3), ("tqu", 5))]
    + [("verify_acc", "2t4u", 8, 100)]
    + [("verify_rej", f, t, 11) for f, t in
       (("4tu2", 1), ("4tu2", 2), ("4tu2", 4), ("4tu2", 6), ("2t22u", 1),
        ("2t22u", 4), ("2t4u", 1), ("2t4u", 2), ("2t4u", 4), ("2t4u", 6),
        ("tqu", 1), ("tqu", 3), ("tqu", 5), ("tqu", 7))]
    + [("from_code", "2t4u", t, 20) for t in (1, 2, 4)]
    + [("from_code", "2t4u", 8, 90)]
    + [("from_code_rej", "2t4u", t, 20) for t in (2, 4, 6)]
    + [("to_code", "2t4u", t, 15) for t in (1, 2, 4)]
    + [("to_code", "2t4u", 8, 55)]
    + [("to_code_rej", "2t4u", t, 20) for t in (2, 4, 8)]
    + [("check", "2t4u", t, 20) for t in (1, 2, 4, 8)]
    + [("check_perturbed", "2t4u", t, 20) for t in (2, 4, 8)]
    + [("equiv_true", "2t4u", t, 20) for t in (2, 4, 8)]
    + [("equiv_false", "2t4u", 8, 60)]
)

SYMBOLS = ("1", "i", "-1", "-i")


def row_text(exps) -> str:
    return ",".join(SYMBOLS[c] for c in exps)


def row_exps(text: str) -> list[int]:
    return [SYMBOLS.index(p) for p in text.split(",")]


def is_cchm_oracle(exps: list[int]) -> bool:
    """Every off-diagonal periodic autocorrelation, as a Gaussian integer."""
    unit = ((1, 0), (0, 1), (-1, 0), (0, -1))
    n = len(exps)
    for s in range(1, n):
        re = im = 0
        for j in range(n):
            x, y = unit[(exps[j] - exps[(j + s) % n]) % 4]
            re += x
            im += y
        if re or im:
            return False
    return True


def row_image(exps: list[int], rng: random.Random) -> list[int]:
    """j -> eps * r[(m j + s) mod n] + g, with gcd(m, n) = 1."""
    n = len(exps)
    eps = rng.choice((1, -1))
    m = rng.choice([m for m in range(1, n) if gcd(m, n) == 1] or [1])
    s = rng.randrange(n)
    g = rng.randrange(4)
    return [(eps * exps[(m * j + s) % n] + g) % 4 for j in range(n)]


def _random_weight_word(n: int, rng: random.Random) -> str:
    ones = set(rng.sample(range(n), n // 2))
    return "".join("1" if i in ones else "0" for i in range(n))


def _rejected_candidate(t: int, accepted: set[str], rng: random.Random) -> str:
    while True:
        word = _random_weight_word(4 * t, rng)
        if word not in accepted:
            return word


def _verify_argv(family: str, t: int, gens: dict) -> list[str]:
    argv = ["verify", "--family", family, "--t", str(t)]
    for name in ("d", "a", "b"):
        if name in gens:
            argv += ["--" + name, gens[name]]
    return argv


def build_requests(seed: int, data: dict) -> list[tuple]:
    """The seeded request list of one closed loop; no call into the program."""
    rng = random.Random(seed)
    vc = data["verify-cchm"]
    cells = {(c["family"], c["t"]): c for c in vc["cells"]}
    accepted_words = {key: set(c["accepted_words"]) for key, c in cells.items()}
    rows = {}
    for r in vc["rows"]:
        rows.setdefault(r["t"], []).append(r)
    requests = []
    for kind, family, t, count in STRATA:
        cell = cells.get((family, t))
        accepted = accepted_words.get((family, t))
        for _ in range(count):
            if kind == "verify_acc":
                acc = rng.choice(cell["accepted"])
                requests.append((kind, _verify_argv(family, t, acc["gens"]),
                                 ("sha", acc["verify_sha256"])))
            elif kind == "verify_rej":
                word = _rejected_candidate(t, accepted, rng)
                gen = "d" if family == "tqu" else "a"
                requests.append((kind, _verify_argv(family, t, {gen: word}),
                                 ("rejected",)))
            elif kind == "from_code":
                acc = rng.choice(cell["accepted"])
                requests.append((kind, ["cchm", "from-code", "--t", str(t),
                                        "--a", acc["gens"]["a"]],
                                 ("text", acc["row"] + "\n")))
            elif kind == "from_code_rej":
                word = _rejected_candidate(t, accepted, rng)
                requests.append((kind, ["cchm", "from-code", "--t", str(t),
                                        "--a", word], ("rejected",)))
            elif kind == "to_code":
                base = rng.choice(rows[t])
                if rng.random() < 0.5:
                    expect = ("sha", base["to_code_sha256"])
                    text = base["row"]
                else:
                    expect = ("code", 4 * t, base["rank"], base["kernel_dim"])
                    text = row_text(row_image(row_exps(base["row"]), rng))
                requests.append((kind, ["cchm", "to-code", "--row=" + text], expect))
            elif kind in ("to_code_rej", "check_perturbed"):
                base = row_exps(rng.choice(rows[t])["row"])
                while True:
                    row = list(base)
                    pos = rng.randrange(len(row))
                    row[pos] = (row[pos] + rng.randrange(1, 4)) % 4
                    label = is_cchm_oracle(row)
                    if kind == "check_perturbed" or not label:
                        break
                text = row_text(row)
                if kind == "to_code_rej":
                    requests.append((kind, ["cchm", "to-code", "--row=" + text],
                                     ("exit", 1)))
                else:
                    requests.append((kind, ["cchm", "check", "--row=" + text],
                                     ("text", "true\n" if label else "false\n")))
            elif kind == "check":
                base = row_exps(rng.choice(rows[t])["row"])
                text = row_text(row_image(base, rng))
                requests.append((kind, ["cchm", "check", "--row=" + text],
                                 ("text", "true\n")))
            elif kind == "equiv_true":
                base = rng.choice(rows[t])["row"]
                image = row_text(row_image(row_exps(base), rng))
                requests.append((kind, (base, image), ("bool", True)))
            elif kind == "equiv_false":
                r1 = rng.choice(rows[t])
                r2 = rng.choice([r for r in rows[t]
                                 if (r["rank"], r["kernel_dim"])
                                 != (r1["rank"], r1["kernel_dim"])])
                pair = (row_text(row_image(row_exps(r1["row"]), rng)),
                        row_text(row_image(row_exps(r2["row"]), rng)))
                requests.append((kind, pair, ("bool", False)))
            else:
                raise ValueError("unknown request kind %r" % kind)
    rng.shuffle(requests)
    return requests


def run_request(call) -> tuple:
    if isinstance(call, tuple):
        import hfpc.cchm

        r1, r2 = (hfpc.cchm.QuaternaryRow.parse(r) for r in call)
        return (hfpc.cchm.cchm_equivalent(r1, r2),)
    return cli(call)


def request_ok(expect: tuple, result: tuple) -> bool:
    how = expect[0]
    if how == "bool":
        return result == (expect[1],)
    rc, stdout = result
    if how == "sha":
        return rc == 0 and sha(stdout) == expect[1]
    if how == "text":
        return rc == 0 and stdout == expect[1]
    if how == "rejected":
        return rc == 1 and "rejected" in json.loads(stdout)
    if how == "exit":
        return rc == expect[1] and stdout == ""
    if how == "code":
        if rc != 0:
            return False
        out = json.loads(stdout)
        n = expect[1]
        return (
            out["length"] == n
            and out["size"] == 2 * n
            and len(set(out["codewords"])) == 2 * n
            and out["is_hadamard_code"] is True
            and (out["rank"], out["kernel_dim"]) == (expect[2], expect[3])
        )
    raise ValueError("unknown expectation %r" % how)


def run_requests(requests: list[tuple], tracer=None) -> tuple[int, int, float, list[float]]:
    """One closed loop: (requests, failed, wall seconds, per-request seconds)."""
    latencies = []
    results = []
    clock = time.perf_counter
    t0 = clock()
    for i, (_, call, _) in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        start = clock()
        results.append(run_request(call))
        latencies.append(clock() - start)
    wall = clock() - t0
    failed = sum(
        not request_ok(expect, res) for (_, _, expect), res in zip(requests, results)
    )
    return len(requests), failed, wall, latencies
