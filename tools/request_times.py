#!/usr/bin/env python3
"""Time the README's cchm and verify requests in this one process.

    python3 tools/request_times.py

Imports ``hfpc`` from the ``src/`` beside this script and runs a fixed list
of requests through ``hfpc.cli.main`` with stdout captured: ``cchm to-code``
and ``cchm check`` on both order-16 rows of the README, and ``cchm
from-code`` and ``verify --family 2t4u --t 8`` on both length-32 generators.
Each request runs once untimed, then REPEATS times, each timed with
``perf_counter`` around the one call.  Prints one JSON object with the
median milliseconds per request and the Python version.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hfpc.cli import main as hfpc_main  # noqa: E402

ROWS = {
    "A": "1,1,i,-i,i,1,1,i,-1,1,-i,-i,-i,1,-1,i",
    "B": "i,i,i,i,1,i,-i,-1,-i,i,i,-i,-1,i,-i,1",
}
GENERATORS = {
    "A": "00011000111001111011110101000010",
    "B": "00000010010101111000111111011010",
}
REQUESTS = (
    [("cchm to-code " + k, ["cchm", "to-code", "--row", r]) for k, r in ROWS.items()]
    + [("cchm check " + k, ["cchm", "check", "--row", r]) for k, r in ROWS.items()]
    + [("cchm from-code " + k, ["cchm", "from-code", "--t", "8", "--a", a])
       for k, a in GENERATORS.items()]
    + [("verify " + k, ["verify", "--family", "2t4u", "--t", "8", "--a", a])
       for k, a in GENERATORS.items()]
)
REPEATS = 200


def run(argv: list[str]) -> float:
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = hfpc_main(argv)
        elapsed = time.perf_counter() - start
    if rc != 0:
        raise SystemExit("exit code %d from %s" % (rc, " ".join(argv)))
    return elapsed


def main() -> None:
    medians = {}
    for name, argv in REQUESTS:
        run(argv)
        times = [run(argv) for _ in range(REPEATS)]
        medians[name] = round(1000 * statistics.median(times), 3)
    print(json.dumps(
        {"python": platform.python_version(), "repeats": REPEATS, "median_ms": medians}
    ))


if __name__ == "__main__":
    main()
