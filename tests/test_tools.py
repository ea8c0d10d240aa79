from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TABLE_TIMES = Path(__file__).resolve().parent.parent / "tools" / "table_times.py"


def test_table_times_scan_reports_the_cell():
    # the tool calls private search helpers; a refactor of search that drops
    # one fails here.  Counters are the kernel's tuple, in its order.
    for family, t, stages, counters, accepted, profiles, distinct in (
        ("tqu", 5, ("class_tables_s", "a_buckets_s"), [23000, 15500, 0, 0, 29760], 120, 24, 120),
        ("2t4u", 4, ("join_table_s",), [6470, 6086, 352], 32, 4, 8),
    ):
        proc = subprocess.run(
            [sys.executable, str(TABLE_TIMES), "--scan", family, str(t)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["counters"] == counters, family
        assert (out["accepted"], out["profiles"], out["distinct"]) == (
            accepted, profiles, distinct
        ), family
        for stage in stages + ("scan_s", "verify_s", "profile_s"):
            assert out[stage] >= 0, (family, stage)
