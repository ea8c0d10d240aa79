#!/usr/bin/env python3
"""Time the scan tables and one full-range scan in this one process.

    python3 tools/table_times.py --join 16
    python3 tools/table_times.py --quaternion 9
    python3 tools/table_times.py --scan 4tu2 12

Imports ``hfpc`` from the ``src/`` beside this script.  ``--join H`` times
``_scan_py._join_table(H)``, ``--quaternion T`` times
``_scan_py._quaternion_tables(T)``, and ``--scan FAMILY T`` (4tu2, 2t22u
or 2t4u) builds that cell's join table (timed as above), then times the
two-generator kernel in all mode over the whole range [0, 2^4t).  Each
stage is timed with ``perf_counter`` around the one call, so run one
invocation per measurement: the tables are memoised for the life of the
process.  Prints one JSON object with the times in seconds, the scan
counters and accepted count, and ``ru_maxrss`` in MB at the end.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hfpc import _scan_py  # noqa: E402

FAMILIES = {"4tu2": 0, "2t22u": 1, "2t4u": 2}


def timed(call, *args):
    start = time.perf_counter()
    result = call(*args)
    return result, round(time.perf_counter() - start, 4)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--join", type=int, metavar="H", help="half-word length 2t")
    parser.add_argument("--quaternion", type=int, metavar="T")
    parser.add_argument("--scan", nargs=2, metavar=("FAMILY", "T"))
    args = parser.parse_args()
    if args.scan and args.scan[0] not in FAMILIES:
        parser.error("FAMILY is one of 4tu2, 2t22u, 2t4u")
    out: dict = {"python": platform.python_version()}
    if args.join is not None:
        _, out["join_table_s"] = timed(_scan_py._join_table, args.join)
    if args.quaternion is not None:
        _, out["quaternion_tables_s"] = timed(_scan_py._quaternion_tables, args.quaternion)
    if args.scan:
        family, t = FAMILIES[args.scan[0]], int(args.scan[1])
        _, out["join_table_s"] = timed(_scan_py._join_table, 2 * t)
        (accepted, counters), out["scan_s"] = timed(
            _scan_py.scan_two_generator, family, t, 0, 1 << (4 * t)
        )
        out["counters"] = list(counters)
        out["accepted"] = len(accepted)
    out["ru_maxrss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
