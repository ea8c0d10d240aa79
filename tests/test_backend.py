from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from hfpc import _scan_py
from hfpc.search import _partition, candidate_count
from helpers import (
    _weight_range,
    all_weight_w,
    candidate_stream,
    full_check_quaternion_variants,
    full_table_is_hadamard,
    gosper_next,
    gosper_scan_quaternion,
    gosper_scan_two_generator,
    heap_scan_quaternion,
    least_geq_with_weight,
    quaternion_power_survivor_count,
)


def test_gosper_enumerates_fixed_weight():
    for n, w in ((6, 3), (8, 2), (10, 5)):
        got = []
        v = least_geq_with_weight(0, n, w)
        while v is not None and v < (1 << n):
            got.append(v)
            v = gosper_next(v)
        assert got == all_weight_w(n, w)


@given(st.integers(1, 14), st.data())
def test_least_geq_with_weight(n, data):
    w = data.draw(st.integers(0, n))
    lo = data.draw(st.integers(0, (1 << n) - 1))
    got = least_geq_with_weight(lo, n, w)
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


def test_join_matches_gosper_scan_around_t10_survivors():
    # the empty t = 10 cells rest on more than the join: seeded subranges
    # around seeded power survivors of 4tu2 and 2t4u, against the full scan
    rng = random.Random(10)
    tops, partners = _scan_py._join_table(20)
    for fam, need_odd in ((0, 1), (2, 0)):
        idxs = [i for i, top in enumerate(tops) if top.bit_count() & 1 == need_odd]
        survivors = 0
        for _ in range(8):
            i = rng.choice(idxs)
            a = (tops[i] << 20) | rng.choice(partners[i])
            lo, hi = a - rng.randrange(1, 1 << 16), a + rng.randrange(1, 1 << 16)
            for first in (False, True):
                got = _scan_py.scan_two_generator(fam, 10, lo, hi, first)
                assert got == gosper_scan_two_generator(fam, 10, lo, hi, first), (fam, lo, hi)
            survivors += got[1][2]
        assert survivors >= 8, fam


def test_necklaces_are_the_minimal_rotations():
    for h in range(1, 15):
        mask = (1 << h) - 1
        brute = {min(((x >> k) | (x << (h - k))) & mask for k in range(h)) for x in range(1 << h)}
        assert list(_scan_py._necklaces(h)) == sorted(brute), h


def test_row0_filter_matches_full_table_oracle():
    # every power survivor for t <= 6, a seeded sample of 20,000 per family at t = 8
    rng = random.Random(80)
    verdicts = set()
    for t in (1, 2, 3, 4, 5, 6, 8):
        h = 2 * t
        for fam in (0, 1, 2):
            survivors = list(_scan_py._power_survivors(h, 1 if fam == 0 else 0, 0, 1 << (2 * h)))
            if t == 8:
                assert len(survivors) > 20000
                survivors = rng.sample(survivors, 20000)
            for a in survivors:
                want = full_table_is_hadamard(a, h, fam == 2)
                assert _scan_py._is_hadamard(a, h, fam == 2) == want, (fam, t, a)
                verdicts.add((t, want))
    assert (8, True) in verdicts and (8, False) in verdicts


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


def _scan_partition(scan, t, chunks, first):
    """The scan over the search layer's partition of the full range, merged."""
    accepted, counters = [], [0] * 5
    for lo, hi in _partition(0, 1 << (4 * t), chunks):
        acc, ctr = scan(t, lo, hi, first)
        accepted += acc
        counters = [x + y for x, y in zip(counters, ctr)]
        if first and acc:
            break
    return accepted, counters


def test_quaternion_join_matches_gosper_scan_on_full_range():
    for t in (1, 3, 5):
        for first in (False, True):
            want = gosper_scan_quaternion(t, 0, 1 << (4 * t), first)
            assert _scan_py.scan_quaternion(t, 0, 1 << (4 * t), first) == want, (t, first)
            for chunks in (64, 256):
                assert _scan_partition(_scan_py.scan_quaternion, t, chunks, first) == (
                    _scan_partition(gosper_scan_quaternion, t, chunks, first)
                ), (t, chunks, first)


def test_quaternion_join_matches_gosper_scan_on_subranges():
    rng = random.Random(8087473)
    cases = [(3, -5, (1 << 12) + 5), (5, 7, 7), (5, 900, 100), (3, 0, 1)]
    for t, span in ((3, 1 << 10), (5, 1 << 14), (7, 1 << 18)):
        top = 1 << (4 * t)
        for _ in range(20):
            lo = rng.randrange(0, top)
            cases.append((t, lo, lo + rng.randrange(1, span)))
    for t, lo, hi in cases:
        for first in (False, True):
            assert _scan_py.scan_quaternion(t, lo, hi, first) == (
                gosper_scan_quaternion(t, lo, hi, first)
            ), (t, lo, hi, first)


def test_quaternion_join_matches_heap_merge_oracle():
    # all mode visits only a-weight matches; the oracle merges every survivor
    for t in (1, 3, 5, 7):
        for first in (False, True):
            assert _scan_py.scan_quaternion(t, 0, 1 << (4 * t), first) == (
                heap_scan_quaternion(t, 0, 1 << (4 * t), first)
            ), (t, first)
    for first in (False, True):
        assert _scan_partition(_scan_py.scan_quaternion, 7, 64, first) == (
            _scan_partition(heap_scan_quaternion, 7, 64, first)
        ), first
    rng = random.Random(9099)
    accepted = 0
    for _ in range(16):
        lo = rng.randrange(1 << 36)
        hi = lo + rng.randrange(1, 1 << 26)
        for first in (False, True):
            got = _scan_py.scan_quaternion(9, lo, hi, first)
            assert got == heap_scan_quaternion(9, lo, hi, first), (lo, hi, first)
        accepted += len(got[0])
    assert accepted


def test_quaternion_power_survivors_match_signature_convolution():
    for t in (1, 3, 5, 7):
        _, ctr = _scan_py.scan_quaternion(t, 0, 1 << (4 * t))
        assert quaternion_power_survivor_count(t) == ctr[0] - ctr[1], t
    # examined - rejected_power of the full scans at t = 9 and 11, and the
    # t = 13 count, which no scan reaches yet
    assert [quaternion_power_survivor_count(t) for t in (9, 11, 13)] == [
        19_656_756,
        648_303_480,
        23_025_763_956,
    ]


def test_quaternion_rank_counts_stream_candidates_below():
    for t in (1, 2, 3):
        n = 4 * t
        below = 0
        for x in range((1 << n) + 1):
            assert _scan_py._quaternion_rank(x, t) == below, (t, x)
            strands_even = all(
                (x & int(m * t, 2)).bit_count() % 2 == 0 for m in ("1000", "0100", "0010")
            )
            if x.bit_count() == 2 * t and strands_even:
                below += 1
    for t in range(1, 12, 2):
        assert _scan_py._quaternion_rank(1 << (4 * t), t) == candidate_count("tqu", t)


def test_quaternion_b_derivation_and_relations_never_reject():
    # b1 + b2 and 1 + a1 + a3 carry the same prefix parity of d's nibbles, and
    # even strands close every telescoped sum, so on any stream word (not only
    # power survivors) each variant passes the b derivation and the relations:
    # a variant the a-weight test stops would have failed the Hadamard check
    words = [(3, v.value) for v in candidate_stream("tqu", 3)]
    words += [(5, v.value) for i, v in enumerate(candidate_stream("tqu", 5)) if i % 7 == 0]
    rng = random.Random(47)
    strands = [int(m * 7, 2) for m in ("1000", "0100", "0010")]
    for _ in range(4):
        lo = rng.randrange(1 << 28)
        for d in _weight_range(lo, lo + (1 << 16), 28, 14):
            if all((d & m).bit_count() % 2 == 0 for m in strands):
                words.append((7, d))
    for t, d in words:
        got = _scan_py._quaternion_variants(d, t, (True, True), False)
        assert got[1] == got[2] == 0, (t, d)
        # the same derivation and verdicts as the bit-by-bit full-table check
        assert got == full_check_quaternion_variants(d, t, (True, True), False), (t, d)
