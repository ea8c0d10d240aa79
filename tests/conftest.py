from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from hfpc.search import SearchTask, run_search  # noqa: E402


@pytest.fixture(scope="session")
def accepted_pool():
    """Every accepted code from the small searched cells, keyed by (family, t)."""
    pool = {}
    for tag, t in [
        ("4tu2", 1),
        ("2t22u", 1),
        ("2t4u", 1),
        ("4tu2", 2),
        ("2t22u", 2),
        ("2t4u", 2),
        ("tqu", 3),
        ("4tu2", 4),
        ("2t22u", 4),
        ("2t4u", 4),
        ("tqu", 5),
    ]:
        pool[(tag, t)] = run_search(SearchTask(tag, t, mode="all"))
    return pool


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for status in ("passed", "failed", "skipped"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::" in nodeid and rep.when in ("call", "setup"):
                name = nodeid.split("::", 1)[1]
                lines.append((name, status.upper()))
    if lines:
        terminalreporter.section("acceptance criteria")
        for name, status in sorted(set(lines)):
            terminalreporter.write_line("%-60s %s" % (name, status))
