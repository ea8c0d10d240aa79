#!/usr/bin/env python3
"""Time the scan tables and one full-range scan in this one process.

    python3 tools/table_times.py --join 16
    python3 tools/table_times.py --quaternion 9
    python3 tools/table_times.py --scan 4tu2 12
    python3 tools/table_times.py --scan tqu 9
    python3 tools/table_times.py --first tqu 9

Imports ``hfpc`` from the ``src/`` beside this script.  ``--join H`` times
``_scan_py._join_table(H)``.  ``--quaternion T`` times
``_scan_py._quaternion_tables(T)`` as ``quaternion_tables_s``, then the
class tables that the scan otherwise fills in on first use, in two stages:
``class_tables_s`` walks the left parts once, listing those least in their
rot4 orbit with their a-weight signatures, and ``a_buckets_s`` fills in the
right parts of each one's signature class and files them by a-weight
signature, in bulk.  ``--scan FAMILY T``
builds that cell's tables (the join table for 4tu2, 2t22u or 2t4u, the
quaternion and class tables for tqu; timed as above), so that ``scan_s``
covers the walk alone, then times the scan kernel in all mode
over the whole range [0, 2^4t) in one ``search._scan`` call, then
what ``search.run_search`` and ``hfpc search`` do with the accepted items,
in three stages: ``verify_s`` re-assembles each through ``search._verify``,
``profile_s`` runs ``search._accepted_codes`` on those codes, which profiles
one code per translate class (``profiles`` of them), and ``report_s`` formats
the JSON lines ``hfpc search`` writes for them, into a string.  ``--first
FAMILY T`` times a cold first-mode scan, ``search._scan(FAMILY, T, True)``,
before anything else runs, so that it builds every table it uses on demand:
a tqu scan fills each class only below the window it walks, and
``right_parts`` counts the right parts stored after it.  Each stage is timed
with ``perf_counter`` around it, so run one invocation per measurement: the
tables are memoised for the life of the process.  Prints one JSON object
with the times in seconds, the scan counters, the accepted, profiled and
distinct counts, and ``ru_maxrss`` in MB at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hfpc import _scan_py, cli, search  # noqa: E402
from hfpc.families import SEARCH_TAGS  # noqa: E402


def timed(call, *args):
    start = time.perf_counter()
    result = call(*args)
    return result, round(time.perf_counter() - start, 4)


def report(reports, family: str, t: int) -> str:
    """The lines ``hfpc search`` writes for the accepted codes, as one string."""
    out = io.StringIO()
    for record in cli._accepted_records(reports, family, t):
        cli._dump(record, out)
    return out.getvalue()


def a_buckets(tab) -> None:
    """rights_by_a_for of every signature that a left part has."""
    for sig in dict.fromkeys(sig for _, sig, _, _ in tab.least_lefts()):
        tab.rights_by_a_for(sig)


def quaternion_times(t: int, out: dict) -> None:
    tab, out["quaternion_tables_s"] = timed(_scan_py._quaternion_tables, t)
    _, out["class_tables_s"] = timed(tab.least_lefts)
    _, out["a_buckets_s"] = timed(a_buckets, tab)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--join", type=int, metavar="H", help="half-word length 2t")
    parser.add_argument("--quaternion", type=int, metavar="T")
    parser.add_argument("--scan", nargs=2, metavar=("FAMILY", "T"))
    parser.add_argument("--first", nargs=2, metavar=("FAMILY", "T"))
    args = parser.parse_args()
    for cell in (args.scan, args.first):
        if cell and cell[0] not in SEARCH_TAGS:
            parser.error("FAMILY is one of 4tu2, 2t22u, 2t4u, tqu")
    out: dict = {"python": platform.python_version()}
    if args.first:  # first, while every table is cold
        family, t = args.first[0], int(args.first[1])
        (accepted, counters), out["scan_s"] = timed(search._scan, family, t, True)
        out["counters"] = list(counters)
        out["accepted"] = len(accepted)
        if family == "tqu":
            rights = _scan_py._quaternion_tables(t).rights.values()
            out["right_parts"] = sum(len(parts) for _, parts in rights)
    if args.join is not None:
        _, out["join_table_s"] = timed(_scan_py._join_table, args.join)
    if args.quaternion is not None:
        quaternion_times(args.quaternion, out)
    if args.scan:
        family, t = args.scan[0], int(args.scan[1])
        if family == "tqu":
            quaternion_times(t, out)
        else:
            _, out["join_table_s"] = timed(_scan_py._join_table, 2 * t)
        (accepted, counters), out["scan_s"] = timed(search._scan, family, t)
        out["counters"] = list(counters)
        out["accepted"] = len(accepted)
        codes, out["verify_s"] = timed(
            list, (search._verify(family, t, item) for item in accepted)
        )
        (reports, out["profiles"]), out["profile_s"] = timed(
            search._accepted_codes, family, t, codes
        )
        _, out["report_s"] = timed(report, reports, family, t)
        out["distinct"] = len({r.vector_values for r in reports})
    out["ru_maxrss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
