#!/usr/bin/env python3
"""Regenerate ``data/expected.json``, the recorded expected outputs.

Usage (from the repository root; takes about two minutes, pure Python):

    PYTHONPATH=src python3 perfbench/make_data.py

It runs every search workload once and records its output digest and
counters, and collects the fixed inputs of ``verify-cchm``: the complete
accepted lists of the small cells, and the accepted images of the two known
order-16 generators under the coordinate symmetries of the 2t4u family.
Before writing, it checks the assumptions the request generator relies on,
so a benchmark run never needs the scan to know its expected results.
"""

from __future__ import annotations

import json
import random
from math import gcd

import workloads as w
from hfpc.cchm import QuaternaryRow, cchm_equivalent
from hfpc.families import Reject, assemble
from hfpc.gf2 import BitVector
from hfpc.search import SearchTask, run_search

GENERATOR_A = "00011000111001111011110101000010"
GENERATOR_B = "00000010010101111000111111011010"

SMALL_CELLS = (
    ("4tu2", 1), ("4tu2", 2), ("4tu2", 4), ("4tu2", 6),
    ("2t22u", 1), ("2t22u", 4),
    ("2t4u", 1), ("2t4u", 2), ("2t4u", 4), ("2t4u", 6),
    ("tqu", 1), ("tqu", 3), ("tqu", 5), ("tqu", 7),
)


def search_expectations(name: str) -> list[dict]:
    out = []
    for argv in w.SEARCH_ARGV[name]:
        rc, stdout = w.cli(argv)
        assert rc == 0, (argv, rc)
        if name == "table6":
            out.append({"csv": stdout})
            continue
        lines = stdout.splitlines()
        summary = json.loads(lines[-1])
        records = [json.loads(line) for line in lines[:-1]]
        first = records[0]
        out.append({
            "argv": argv,
            "sha256": w.sha(stdout),
            "counters": summary["counters"],
            "distinct": summary["distinct_code_sets"],
            "profiles": sorted({(r["rank"], r["kernel_dim"]) for r in records}),
            "first": {k: first[k] for k in ("generator_a", "generator_b", "generator_d")},
        })
    return out


def halves_image(word: str, s: int, m: int, swap: bool) -> str:
    """Coordinate symmetry of the 2t4u family: the same rotation by s and
    decimation by m on both halves, optionally exchanging the halves."""
    h = len(word) // 2
    halves = [word[:h], word[h:]]
    if swap:
        halves.reverse()
    return "".join("".join(x[(m * j + s) % h] for j in range(h)) for x in halves)


def accepted_entry(family: str, t: int, gens: dict) -> dict:
    rc, stdout = w.cli(w._verify_argv(family, t, gens))
    assert rc == 0, (family, t, gens)
    entry = {"gens": gens, "verify_sha256": w.sha(stdout)}
    if family == "2t4u":
        rc, row = w.cli(["cchm", "from-code", "--t", str(t), "--a", gens["a"]])
        assert rc == 0
        entry["row"] = row.strip()
    return entry


def small_cell(family: str, t: int) -> dict:
    result = run_search(SearchTask(family, t, mode="all"), workers=1)
    accepted = []
    for acc in result.accepted:
        p = acc.profile
        gens = {"a": p.generator_a} if family != "tqu" else {
            "d": p.generator_d, "a": p.generator_a, "b": p.generator_b}
        if t <= 5:
            accepted.append(accepted_entry(family, t, gens))
    words = sorted({acc.candidate for acc in result.accepted})
    if t <= 4 or (family == "tqu" and t == 5):
        # every other weight-2t word is rejected by the reference constructor
        n = 4 * t
        for v in range(1 << n):
            if v.bit_count() == 2 * t:
                word = format(v, "0%db" % n)
                got = assemble(family, t, BitVector(n, v))
                assert isinstance(got, Reject) == (word not in words), word
    return {"family": family, "t": t, "accepted": accepted, "accepted_words": words}


def images_t8() -> dict:
    h = 16
    units = [m for m in range(1, h) if gcd(m, h) == 1]
    words = set()
    for base in (GENERATOR_A, GENERATOR_B):
        for s in range(h):
            for m in units:
                for swap in (False, True):
                    word = halves_image(base, s, m, swap)
                    if not isinstance(assemble("2t4u", 8, BitVector.from_string(word)), Reject):
                        words.add(word)
    accepted = [accepted_entry("2t4u", 8, {"a": word}) for word in sorted(words)]
    return {"family": "2t4u", "t": 8, "accepted": accepted, "accepted_words": sorted(words)}


def row_records(cells: list[dict]) -> list[dict]:
    rows = {}
    for cell in cells:
        if cell["family"] != "2t4u":
            continue
        for acc in cell["accepted"]:
            if acc["row"] in rows:
                continue
            rc, stdout = w.cli(["cchm", "to-code", "--row=" + acc["row"]])
            assert rc == 0
            out = json.loads(stdout)
            rows[acc["row"]] = {
                "t": cell["t"], "row": acc["row"], "rank": out["rank"],
                "kernel_dim": out["kernel_dim"], "to_code_sha256": w.sha(stdout)}
    return sorted(rows.values(), key=lambda r: (r["t"], r["row"]))


def check_row_images(rows: list[dict]) -> None:
    """Images keep the CCHM predicate, equivalence and the code profile."""
    rng = random.Random(0)
    for r in rows:
        base = w.row_exps(r["row"])
        for _ in range(8):
            img = w.row_image(base, rng)
            text = w.row_text(img)
            assert w.is_cchm_oracle(img)
            assert cchm_equivalent(QuaternaryRow.parse(r["row"]), QuaternaryRow.parse(text))
            rc, stdout = w.cli(["cchm", "to-code", "--row=" + text])
            out = json.loads(stdout)
            assert rc == 0 and (out["rank"], out["kernel_dim"]) == (r["rank"], r["kernel_dim"])


def main() -> None:
    data = {name: search_expectations(name) for name in ("table6", "tqu7", "first-deep")}
    cells = [small_cell(f, t) for f, t in SMALL_CELLS] + [images_t8()]
    rows = row_records(cells)
    check_row_images(rows)
    data["verify-cchm"] = {"cells": cells, "rows": rows}
    with open(w.DATA, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s: %d t=8 images, %d rows" % (w.DATA, len(cells[-1]["accepted"]), len(rows)))


if __name__ == "__main__":
    main()
