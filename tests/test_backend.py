from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from hfpc import _scan_py
from hfpc.search import candidate_count
from helpers import all_weight_w, gosper_scan_two_generator


def test_gosper_enumerates_fixed_weight():
    for n, w in ((6, 3), (8, 2), (10, 5)):
        got = []
        v = _scan_py.least_geq_with_weight(0, n, w)
        while v is not None and v < (1 << n):
            got.append(v)
            v = _scan_py.gosper_next(v)
        assert got == all_weight_w(n, w)


@given(st.integers(1, 14), st.data())
def test_least_geq_with_weight(n, data):
    w = data.draw(st.integers(0, n))
    lo = data.draw(st.integers(0, (1 << n) - 1))
    got = _scan_py.least_geq_with_weight(lo, n, w)
    brute = [x for x in range(lo, 1 << n) if bin(x).count("1") == w]
    assert got == (brute[0] if brute else None)


def test_join_matches_gosper_scan_on_full_range():
    for fam in (0, 1, 2):
        for t in (1, 2, 3, 4):
            span = 1 << (4 * t)
            for first in (False, True):
                assert _scan_py.scan_two_generator(fam, t, 0, span, first) == (
                    gosper_scan_two_generator(fam, t, 0, span, first)
                ), (fam, t, first)


def test_join_matches_gosper_scan_on_subranges():
    rng = random.Random(808747)
    cases = [(1, 4, 0x1234, 0xFE10), (2, 4, -5, (1 << 16) + 5), (0, 3, 7, 7), (2, 2, 200, 100)]
    for fam in (0, 1, 2):
        for t in (2, 3, 4, 5, 6):
            top = 1 << (4 * t)
            for _ in range(6):
                lo = rng.randrange(0, top)
                cases.append((fam, t, lo, lo + rng.randrange(1, 1 << 16)))
    for fam, t, lo, hi in cases:
        for first in (False, True):
            assert _scan_py.scan_two_generator(fam, t, lo, hi, first) == (
                gosper_scan_two_generator(fam, t, lo, hi, first)
            ), (fam, t, lo, hi, first)


def test_rank_counts_stream_candidates_below():
    for t in (1, 2, 3):
        h = 2 * t
        top = 1 << (2 * h)
        for need_odd in (0, 1):
            below = 0
            for x in range(top + 1):
                assert _scan_py._rank(x, h, need_odd) == below, (t, need_odd, x)
                if x.bit_count() == h and ((x >> h).bit_count() & 1) == need_odd:
                    below += 1
    for tag, need_odd in (("4tu2", 1), ("2t4u", 0)):
        for t in range(1, 11):
            assert _scan_py._rank(1 << (8 * t), 2 * t, need_odd) == candidate_count(tag, t)
