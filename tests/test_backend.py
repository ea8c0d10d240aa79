from __future__ import annotations

import random
from collections import Counter
from functools import cache

from hypothesis import given
from hypothesis import strategies as st

from hfpc import _scan_py
from hfpc.families import (
    _companion_b,
    _quaternion_a00,
    _quaternion_as,
    assemble_quaternion_explicit,
    family_perms,
)
from hfpc.gf2 import BitVector
from hfpc.perms import act
from hfpc.search import _partition
from helpers import (
    _power_survivors,
    _signature as helper_signature,
    _weight_range,
    all_weight_w,
    binomial_candidate_count,
    candidate_stream,
    full_check_quaternion_variants,
    full_row0_is_hadamard,
    full_table_is_hadamard,
    gathered_left_tables,
    gosper_next,
    gosper_scan_quaternion,
    gosper_scan_two_generator,
    heap_scan_quaternion,
    least_geq_with_weight,
    necklace_join_table,
    per_part_a_signature,
    quaternion_power_survivor_count,
    recursive_strand_words,
    strand_a_signature,
    survivor_scan_two_generator,
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
    tops, partners, _ = _scan_py._join_table(20)
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


@cache
def _survivor_scan(fam, t, lo, hi, first):
    return survivor_scan_two_generator(fam, t, lo, hi, first)


def test_join_matches_survivor_scan_on_full_ranges():
    # one Hadamard check per necklace and counting by bisection, against one
    # check per power survivor
    for t in (5, 6, 8):
        span = 1 << (4 * t)
        for fam in (0, 1, 2):
            for first in (False, True):
                assert _scan_py.scan_two_generator(fam, t, 0, span, first) == (
                    _survivor_scan(fam, t, 0, span, first)
                ), (fam, t, first)


def test_join_matches_survivor_scan_on_pool_chunks():
    # each chunk of the search layer's partition for 2 and 3 workers, and
    # both modes on windows across each chunk edge
    for t in (6, 8):
        span = 1 << (4 * t)
        for workers in (2, 3):
            chunks = _partition(0, span, workers)
            for fam in (0, 1, 2):
                merged, counters = [], [0, 0, 0]
                for lo, hi in chunks:
                    got = _scan_py.scan_two_generator(fam, t, lo, hi)
                    if t == 6:
                        assert got == _survivor_scan(fam, t, lo, hi, False), (fam, lo, hi)
                    merged += got[0]
                    counters = [x + y for x, y in zip(counters, got[1])]
                assert (merged, tuple(counters)) == _survivor_scan(fam, t, 0, span, False)
                width = 1 << (3 * t + 2)  # hundreds of survivors on each side at t = 8
                for _, edge in chunks[:-1]:
                    for lo, hi in ((edge - width, edge + 1), (edge, edge + width)):
                        for first in (False, True):
                            assert _scan_py.scan_two_generator(fam, t, lo, hi, first) == (
                                _survivor_scan(fam, t, lo, hi, first)
                            ), (fam, t, lo, hi, first)


def test_join_matches_survivor_scan_inside_partner_lists():
    # seeded ranges whose ends fall between the partners of one top, or of two
    # nearby tops; for 2t4u at t = 8 also around accepted words
    rng = random.Random(1717)
    accepted_t8 = _survivor_scan(2, 8, 0, 1 << 32, False)[0]
    for t in (4, 6, 8, 10):
        h = 2 * t
        tops, partners, _ = _scan_py._join_table(h)
        for fam in (0, 1, 2):
            idxs = [i for i, top in enumerate(tops) if top.bit_count() & 1 == (fam == 0)]
            if not idxs:
                continue  # no even top has a partner at t = 6
            picks = [rng.randrange(len(idxs)) for _ in range(12)]
            if fam == 2 and t == 8:
                picks += [idxs.index(tops.index(a >> h)) for a in rng.sample(accepted_t8, 6)]
            for p in picks:
                q = min(p + rng.randrange(3), len(idxs) - 1)
                ends = []
                for k in (p, q):
                    i = idxs[k]
                    ends.append((tops[i] << h) | rng.choice(partners[i]))
                lo, hi = min(ends) - rng.randrange(2), max(ends) + rng.randrange(2)
                for first in (False, True):
                    assert _scan_py.scan_two_generator(fam, t, lo, hi, first) == (
                        survivor_scan_two_generator(fam, t, lo, hi, first)
                    ), (fam, t, lo, hi, first)


def test_join_first_mode_around_accepted_words():
    # lo just below, at and just above an accepted 2t4u t = 8 word
    accepted = _survivor_scan(2, 8, 0, 1 << 32, False)[0]
    assert len(accepted) == 1536
    for k in (0, 1, 700, 1535):
        a = accepted[k]
        for lo in (a - 1, a, a + 1):
            got = _scan_py.scan_two_generator(2, 8, lo, 1 << 32, True)
            assert got == survivor_scan_two_generator(2, 8, lo, 1 << 32, True), (a, lo)
            assert got[0] == ([a] if lo <= a else accepted[k + 1 : k + 2]), (a, lo)


def _pi_a(a, h):
    """Both h-bit halves of a rotated right by one."""
    mh = (1 << h) - 1
    hi, lo = a >> h, a & mh
    return (((hi >> 1) | ((hi & 1) << (h - 1))) << h) | (lo >> 1) | ((lo & 1) << (h - 1))


def test_two_generator_verdict_is_pi_a_invariant():
    # the kernel checks one top per necklace and rotates the verdicts to the
    # rest: a and pi_a(a) must pass or fail together, in every family
    rng = random.Random(1017)
    for fam in (0, 1, 2):
        need_odd = 1 if fam == 0 else 0
        passed = 0
        for t in (1, 2, 3, 4, 5, 6, 8, 10):
            h = 2 * t
            if t <= 6:
                words = list(_power_survivors(h, need_odd, 0, 1 << (2 * h)))
            else:
                # 20,000 seeded power survivors, uniform with replacement
                tops, partners, _ = _scan_py._join_table(h)
                idxs = [i for i, top in enumerate(tops) if top.bit_count() & 1 == need_odd]
                weights = [len(partners[i]) for i in idxs]
                words = [
                    (tops[i] << h) | rng.choice(partners[i])
                    for i in rng.choices(idxs, weights, k=20000)
                ]
            for a in words:
                verdict = _scan_py._is_hadamard(a, h, fam == 2)
                assert _scan_py._is_hadamard(_pi_a(a, h), h, fam == 2) == verdict, (
                    "family %d lacks the pi_a symmetry at t = %d, a = %d" % (fam, t, a)
                )
                passed += verdict
        assert passed, fam
    # each table turn takes its top to the top's least rotation.  The only
    # periodic tops with a partner for h <= 16 are 00 and 11 at t = 1, where
    # any turn gives the same verdicts; the full t = 1 scans check them
    for h in range(2, 17, 2):
        mask = (1 << h) - 1
        tops, _, turns = _scan_py._join_table(h)
        periodic = []
        for top, k in zip(tops, turns):
            rots = [((top >> j) | (top << (h - j))) & mask for j in range(h)]
            assert rots[k] == min(rots), (h, top)
            if len(set(rots)) < h:
                periodic.append(top)
        assert periodic == ([0b00, 0b11] if h == 2 else []), h


def test_necklaces_are_the_minimal_rotations():
    for h in range(1, 15):
        mask = (1 << h) - 1
        brute = {min(((x >> k) | (x << (h - k))) & mask for k in range(h)) for x in range(1 << h)}
        assert list(_scan_py._necklaces(h)) == sorted(brute), h


def test_join_table_matches_necklace_oracle():
    for h in range(2, 21, 2):
        assert _scan_py._join_table(h) == necklace_join_table(h), h


def _fields(sig: int, n: int, width: int) -> list[int]:
    return [(sig >> (width * j)) & ((1 << width) - 1) for j in range(n)]


def test_bulk_signatures_match_per_word_signatures():
    # 24 bits is the widest half-word whose h/2 keys fit one 64-bit slot; 26
    # and 40 take wider slots
    rng = random.Random(2424)
    for h in (24, 26, 40):
        width = h.bit_length()
        words = [rng.getrandbits(h) for _ in range(2000)] + [0, (1 << h) - 1]
        got_words, keys = _scan_py._signatures(iter(words), h, h // 2, width)
        assert list(got_words) == words, h
        for x, key in zip(words, keys):
            want = _fields(helper_signature(x, h), h // 2, _scan_py._FIELD)
            assert _fields(key, h // 2, width) == want, (h, x)
            assert key >> (width * (h // 2)) == 0, (h, x)


def test_mirror_identity():
    # wt S_{h-j}(x) is wt S_j(x) for even wt x and h - wt S_j(x) for odd
    for h in range(2, 15):
        for x in range(1 << h):
            wts = _fields(helper_signature(x, h), h - 1, _scan_py._FIELD)
            # entry j - 1 of each side is field h - j and what field j predicts
            assert wts[::-1] == ([h - w for w in wts] if x.bit_count() & 1 else wts), (h, x)


def test_quaternion_strand_classes_match_full_signatures():
    for t in range(1, 14, 2):
        tab = _scan_py._quaternion_tables(t)
        full: dict[int, set[int]] = {}
        for s in range(1 << t):
            if not s.bit_count() & 1:
                full.setdefault(helper_signature(s, t) if t > 1 else s, set()).add(s)
        assert sorted(map(sorted, tab.classes.values())) == sorted(map(sorted, full.values())), t


def test_quaternion_left_tables_match_gather_construction():
    for t in range(1, 14):
        tab = _scan_py._quaternion_tables(t)
        got = (tab.spread, tab.low_values, tab.low_by_parity, tab.high)
        assert got == gathered_left_tables(t), t


def test_row0_filter_matches_full_table_oracle():
    # every power survivor for t <= 6, a seeded sample of 20,000 per family
    # at t = 8; _is_hadamard checks the row-0 weights for j <= t only (the
    # mirror argument in its docstring), and must give the verdict of the
    # row-0 loop over every j < 2t there and at t = 10, 20,000 per family
    rng = random.Random(80)
    verdicts = set()
    for t in (1, 2, 3, 4, 5, 6, 8, 10):
        h = 2 * t
        for fam in (0, 1, 2):
            survivors = list(_power_survivors(h, 1 if fam == 0 else 0, 0, 1 << (2 * h)))
            if t >= 8:
                assert len(survivors) > 20000
                survivors = rng.sample(survivors, 20000)
            for a in survivors:
                want = full_row0_is_hadamard(a, h, fam == 2)
                assert _scan_py._is_hadamard(a, h, fam == 2) == want, (fam, t, a)
                if t <= 8:
                    assert full_table_is_hadamard(a, h, fam == 2) == want, (fam, t, a)
                verdicts.add((t, want))
    assert (8, True) in verdicts and (8, False) in verdicts


def test_two_generator_survivors_satisfy_the_group_relations():
    # _is_hadamard decides on row-0 weights, which is sound only when the
    # words form a group: ab = ba, b^2 and a^2t the family's (u for b^2 in
    # 2t4u and a^2t in 4tu2, else e).  Every survivor for t <= 5, and a
    # seeded sample of up to 2,000 per family at t = 6 and 8
    rng = random.Random(68)
    seen = 0
    for t in (1, 2, 3, 4, 5, 6, 8):
        h = 2 * t
        full = (1 << (2 * h)) - 1
        for fam, tag in enumerate(("4tu2", "2t22u", "2t4u")):
            perms = family_perms(tag, t)
            pa, pb = perms["a"], perms["b"]
            survivors = list(_power_survivors(h, 1 if fam == 0 else 0, 0, 1 << (2 * h)))
            if t > 5 and len(survivors) > 2000:
                survivors = rng.sample(survivors, 2000)
            for a in survivors:
                b = _companion_b(a, t, fam == 2)
                assert a ^ act(pa, b) == b ^ act(pb, a), (tag, t, a)
                assert b ^ act(pb, b) == (full if fam == 2 else 0), (tag, t, a)
                power = 0
                for _ in range(h):
                    power = a ^ act(pa, power)
                assert power == (full if fam == 0 else 0), (tag, t, a)
            seen += len(survivors)
    assert seen == 2008 + 6000 + 2000 + 3 * 2000


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
            want = binomial_candidate_count(tag, t)
            assert _scan_py._rank(1 << (8 * t), 2 * t, need_odd) == want


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


def test_quaternion_right_buckets_partition_each_class():
    # a fresh index files every right part of a class, built in one pass, in
    # the bucket of its a-weight signature: the buckets, each ascending, are
    # the oracle's partition of all of the class's right parts
    for t in (5, 7):
        tab = _scan_py._QuaternionTables(t)
        for sig in sorted({sig for _, sig in tab.lefts(0, 1 << (4 * t))}):
            want: dict[int, list[int]] = {}
            for rv in tab.rights_for(sig):
                want.setdefault(per_part_a_signature(t, rv), []).append(rv)
            assert tab.rights_by_a_for(sig) == want, (t, sig)


def test_a_signature_matches_strand_oracle():
    # the bulk a-weight signatures against the per-part body and the strand
    # oracle: every part of the stream (both strands of even weight), right
    # and left, for t <= 9; seeded parts of any strand weights at t = 11, 13
    # and 15, where 4t > 32 and, from t = 13, the 16-byte slots are used
    for t in range(1, 10):
        sp = _scan_py._quaternion_tables(t).spread
        evens = [s for s in range(1 << t) if not s.bit_count() & 1]
        rights = [sp[hi] << 1 | sp[lo] for hi in evens for lo in evens]
        want = [strand_a_signature(t, rv) for rv in rights]
        assert want == [per_part_a_signature(t, rv) for rv in rights], t
        assert _scan_py._a_signatures(rights, t) == want, t
        assert _scan_py._a_signatures([rv << 2 for rv in rights], t) == want, t
    rng = random.Random(2027)
    for t in (11, 13, 15):
        rmask = _scan_py._QuaternionTables(t).rmask
        parts = [rng.getrandbits(4 * t) & (rmask << rng.choice((0, 2))) for _ in range(20_000)]
        want = [strand_a_signature(t, part) for part in parts]
        assert want == [per_part_a_signature(t, part) for part in parts], t
        assert _scan_py._a_signatures(parts, t) == want, t


def _first_window(monkeypatch, t):
    """Size of first mode's first window, read from the walks of a scan from 0."""
    walk = _scan_py._walk
    bounds = []

    def logged(tab, lo, hi, first, *rest):
        bounds.append((lo, hi))
        return walk(tab, lo, hi, first, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(_scan_py, "_walk", logged)
        _scan_py.scan_quaternion(t, 0, 1 << (4 * t), True)
    assert len(bounds) > 2 and bounds[0][0] == 0, bounds
    return bounds[0][1]


def test_quaternion_first_mode_at_window_edges(monkeypatch):
    # an accepted d and the next one; the accepted d before it lies more than
    # a first window below
    for t, d, following in ((7, 130_418_375, 143_257_849), (9, 6_500_824_873, 6_534_518_601)):
        w = _first_window(monkeypatch, t)
        assert w & (w - 1) == 0, w
        for lo in (d - w + 1, d - w, d):
            got = _scan_py.scan_quaternion(t, lo, 1 << (4 * t), True)
            assert got[0][0][0] == d, (t, lo)
            assert got == heap_scan_quaternion(t, lo, 1 << (4 * t), True), (t, lo)
        # no accept in range: every window runs and gives the all-mode counters
        got = _scan_py.scan_quaternion(t, d + 1, following, True)
        assert got[0] == [], t
        assert got == _scan_py.scan_quaternion(t, d + 1, following, False), t
        assert got == heap_scan_quaternion(t, d + 1, following, True), t


def test_quaternion_first_mode_t11_below_first_code():
    # 2^30 below the first t = 11 code: many windows, the last with an accept
    d = 228_694_750_035
    want = (10_776_293, 10_745_011, 0, 0, 125_124)
    for scan in (_scan_py.scan_quaternion, heap_scan_quaternion):
        accepted, counters = scan(11, d - 2**30, 1 << 44, True)
        assert [a[0] for a in accepted] == [d], scan
        assert counters == want, scan


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
        assert _scan_py._quaternion_rank(1 << (4 * t), t) == binomial_candidate_count("tqu", t)
    for p in range(41):
        for w in range(-1, p + 2):
            for par in range(16):
                want = recursive_strand_words(p, w, par)
                assert _scan_py._strand_words(p, w, par) == want, (p, w, par)


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


def _rot4(d, t):
    return (d >> 4) | ((d & 15) << (4 * t - 4))


def _a_weight_flags(tab, d):
    """The a-weight flags (f1 = f3, f1 != f3) of a stream word d, from its parts."""
    al = per_part_a_signature(tab.t, d & ~tab.rmask)
    ar = per_part_a_signature(tab.t, d & tab.rmask)
    return ar == tab.full_a - al, ar == al


def _visited_survivors(tab, lefts):
    """The power survivors with a left part in lefts that the walk runs
    variants on: those whose a-weight test lets some variant through."""
    out = []
    for lv, sig in lefts:
        al = per_part_a_signature(tab.t, lv)
        by_a = tab.rights_by_a_for(sig)
        for ar in {tab.full_a - al, al}:
            out += [lv + rv for rv in by_a.get(ar, ())]
    return out


def _is_power_survivor(d, t):
    """wt d^j = 2t for 0 < j < t, the powers built one rot4 at a time."""
    cur = d
    for _ in range(1, t):
        if cur.bit_count() != 2 * t:
            return False
        cur = d ^ _rot4(cur, t)
    return True


def test_quaternion_variants_are_rot4_invariant():
    # the walk's memo files a rejected d's counters under its rot4 orbit: the
    # counters and the verdict must not change along the orbit, each word
    # with its own a-weight flags
    rng = random.Random(4711)
    for t in (5, 7, 9):
        tab = _scan_py._quaternion_tables(t)
        lefts = list(tab.lefts(0, 1 << (4 * t)))
        if t == 9:
            words = _visited_survivors(tab, rng.sample(lefts, 60))
        else:
            words = _visited_survivors(tab, lefts)
        accepts = 0
        for d in words:
            got = _scan_py._quaternion_variants(d, t, _a_weight_flags(tab, d), False)
            r = _rot4(d, t)
            img = _scan_py._quaternion_variants(r, t, _a_weight_flags(tab, r), False)
            assert got[1:4] == img[1:4] and bool(got[0]) == bool(img[0]), (t, d)
            accepts += bool(got[0])
        assert accepts and accepts < len(words), t
    # the only short orbits at t = 9 are the words made of one 12-bit block
    # three times; none is a power survivor, so every visited orbit has 9 words
    strands = [int(m * 9, 2) for m in ("1000", "0100", "0010", "0001")]
    blocks = [w * (1 + (1 << 12) + (1 << 24)) for w in range(1 << 12)]
    stream = [
        d
        for d in blocks
        if d.bit_count() == 18 and all((d & m).bit_count() % 2 == 0 for m in strands)
    ]
    assert len(stream) == 108 and not any(_is_power_survivor(d, 9) for d in stream)


def test_quaternion_walk_runs_variants_once_per_orbit(monkeypatch):
    # the full t = 7 scan has 8,428 visited survivors in 1,204 rot4 orbits;
    # the orbit walk runs the variants of one d per orbit, the accepted ones
    # included (60 orbits, whose 420 words give two triples each)
    calls = []
    variants = _scan_py._quaternion_variants

    def counted(d, *rest):
        calls.append(d)
        return variants(d, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(_scan_py, "_quaternion_variants", counted)
        accepted, _ = _scan_py.scan_quaternion(7, 0, 1 << 28)
    assert len(accepted) == 840 and len({d for d, _, _ in accepted}) == 420
    assert len(calls) == 1_204
    assert len({min(_rotations(d, 7)) for d in calls}) == 1_204


def test_quaternion_variants_accept_on_weights(monkeypatch):
    # the scan decides a d on the weights of its 4t - 1 rows other than e;
    # it must give the verdicts and counters of the full pairwise table
    # check, in both modes: on every survivor visited at t <= 7, and on the
    # calls of a walk over the range below 2^31 at t = 9 and below the first
    # accepted d at t = 11, each with the walk's a-weight flags: every call
    # that accepts and 2,000 seeded others
    rng = random.Random(2024)
    cases = []
    for t in (1, 3, 5, 7):
        tab = _scan_py._quaternion_tables(t)
        words = _visited_survivors(tab, list(tab.lefts(0, 1 << (4 * t))))
        cases += [(t, d, _a_weight_flags(tab, d)) for d in words]
    variants = _scan_py._quaternion_variants
    for t, hi in ((9, 1 << 31), (11, 228_694_750_036)):
        calls, accepting = [], []

        def recorded(d, t, allowed, first_only):
            got = variants(d, t, allowed, first_only)
            (accepting if got[0] else calls).append((t, d, allowed))
            return got

        with monkeypatch.context() as patch:
            patch.setattr(_scan_py, "_quaternion_variants", recorded)
            _scan_py.scan_quaternion(t, 0, hi)
        assert accepting and len(calls) > 2_000, t
        cases += accepting + rng.sample(calls, 2_000)
    accepts = Counter()
    for t, d, allowed in cases:
        for first in (False, True):
            got = variants(d, t, allowed, first)
            assert got == full_check_quaternion_variants(d, t, allowed, first), (t, d)
        accepts[t] += bool(got[0])
    assert all(accepts[t] for t in (3, 5, 7, 9, 11)), accepts


def _rotations(d, t):
    """The t rotations rot4^m(d), m < t, some equal when d's orbit is short."""
    out = [d]
    for _ in range(t - 1):
        out.append(_rot4(out[-1], t))
    return out


def test_orbit_walk_matches_survivor_walk_on_every_cell_and_pool_chunk():
    # the all-mode orbit walk against the walk that visits every survivor,
    # in counters and accepted list, on every tqu cell with t <= 9, whole
    # and in the _partition chunks of a pool of 2 and of 3 workers: an orbit
    # straddles chunk bounds, and each chunk counts only its own words (the
    # oracle's memo of rejected orbits holds for any range, so one serves all)
    for t in (1, 3, 5, 7, 9):
        tab = _scan_py._quaternion_tables(t)
        memo: dict[int, int] = {}
        for workers in (1, 2, 3):
            for lo, hi in _partition(0, 1 << (4 * t), workers):
                want = _scan_py._walk(tab, lo, hi, False, memo)
                assert _scan_py._orbit_walk(tab, lo, hi) == want, (t, lo, hi)


def test_orbit_walk_matches_survivor_walk_on_t11_subranges():
    # seeded subranges of 2^30 to 2^34 words at t = 11, and the range below
    # the first accepted d, whose orbit has its other words above it
    rng = random.Random(1111)
    tab = _scan_py._quaternion_tables(11)
    ranges = [(0, 228_694_750_036)]
    for _ in range(4):
        lo = rng.randrange(1 << 44)
        ranges.append((lo, lo + (1 << rng.randrange(30, 35))))
    accepted = 0
    for lo, hi in ranges:
        got = _scan_py._orbit_walk(tab, lo, hi)
        assert got == _scan_py._walk(tab, lo, hi, False, {}), (lo, hi)
        accepted += len(got[0])
    assert accepted


def test_rotated_triples_match_each_members_variants():
    # every word of every accepted orbit with t <= 9 gets, by rotation of
    # its orbit's variants, the triples its own variant check gives
    for t in (3, 5, 7, 9):
        tab = _scan_py._quaternion_tables(t)
        accepted, _ = _scan_py._orbit_walk(tab, 0, 1 << (4 * t))
        mine: dict[int, list] = {}
        for triple in accepted:
            mine.setdefault(triple[0], []).append(triple)
        for d in mine:
            assert set(_rotations(d, t)) <= mine.keys(), (t, d)
            want = _scan_py._quaternion_variants(d, t, (True, True), False)[0]
            assert mine[d] == want, (t, d)
        assert len(mine) == {3: 12, 5: 60, 7: 420, 9: 1620}[t], t


def test_rotated_triples_follow_each_code_set():
    # every accepted d with t <= 7 passes in two groups of variants, {00, 11}
    # and {01, 10}, so the least labels are 0 and 1 under any label shift;
    # here each group alone must give, for every rotation d' = rot4^m(d),
    # the triple whose code is the rot4^m image of the group's code
    def code(t, d, a, b):
        return assemble_quaternion_explicit(t, *(BitVector(4 * t, x) for x in (d, a, b)))

    shifts = set()
    for t in (3, 5, 7):
        tab = _scan_py._quaternion_tables(t)
        accepted, _ = _scan_py._orbit_walk(tab, 0, 1 << (4 * t))
        for d in sorted({min(_rotations(d, t)) for d, _, _ in accepted}):
            acc, _, _, _, groups = _scan_py._quaternion_variants(d, t, (True, True), False)
            assert groups == [(0, 3), (1, 2)], (t, d)
            turns = list(zip(_rotations(d, t), _rotations(_quaternion_a00(d, t), t)))
            for (_, a, b), group in zip(acc, groups):
                words = code(t, d, a, b).vector_values
                for dm, am in turns[1:]:
                    (triple,) = _scan_py._rotated_triples(dm, am, [group], t)
                    want = {_rotations(w, t)[turns.index((dm, am))] for w in words}
                    assert code(t, *triple).vector_values == want, (t, d, dm)
                    shifts.add(_quaternion_as(dm, t).index(am))
    assert shifts == {0, 1, 2, 3}, shifts


class _OneOrbitTables:
    """Join tables of t = 9 with one orbit of left parts, of period 3, and a
    seeded set of right parts closed under rot4: no left part of the stream
    with a partner has a period below t for t <= 13, so this is how the
    orbit walk meets a rotation that fixes its left part."""

    t = 9

    def __init__(self, seed: int):
        real = _scan_py._quaternion_tables(9)
        self.rmask, self.full_a, sp = real.rmask, real.full_a, real.spread
        part = sp[0b011011011] << 3 | sp[0b101101101] << 2
        self.left = min(_rotations(part, 9))
        self.sig = real.sig[0b011011011] + real.sig[0b101101101]
        (al,) = _scan_py._a_signatures([self.left], 9)
        evens = [x for x in range(1 << 9) if not x.bit_count() & 1]
        parts = [sp[x] << 1 | sp[y] for x in evens for y in evens]
        signs = _scan_py._a_signatures(parts, 9)
        matching = [p for p, ar in zip(parts, signs) if ar in (al, self.full_a - al)]
        other = [p for p, ar in zip(parts, signs) if ar not in (al, self.full_a - al)]
        rng = random.Random(seed)
        # a right part of period 3 makes words whose orbit has 3 words
        short = [p for p in matching if _rotations(p, 9)[3] == p and p != _rot4(p, 9)]
        picks = rng.sample(matching, 6) + rng.sample(other, 2) + short[:1]
        self.rights = sorted({r for p in picks for r in _rotations(p, 9)})
        self.least = [(self.left, self.sig, al, 3)]
        self.buckets: dict[int, list[int]] = {}
        for r, ar in zip(self.rights, _scan_py._a_signatures(self.rights, 9)):
            self.buckets.setdefault(ar, []).append(r)

    def lefts(self, lo, hi):
        return ((lv, self.sig) for lv in sorted(set(_rotations(self.left, 9))))

    def rights_for(self, sig):
        return tuple(self.rights)

    def rights_by_a_for(self, sig):
        return self.buckets

    def least_lefts(self):
        return self.least


def test_orbit_walk_with_a_left_part_of_short_period(monkeypatch):
    # rot4^3 and rot4^6 fix the left part: a word and its two images under
    # them lie in one bucket, and only the least one stands for the orbit.
    # These words reject all four variants on weights, as an unvisited word
    # is charged, so the variant check is replaced by one whose counters
    # tell a visit apart: some rejected_no_b, the same for a whole orbit
    calls = []

    def orbit_counters(d, t, allowed, first_only):
        calls.append(d)
        k = 1 + min(_rotations(d, t)) % 3
        return [], k, 0, 4 - k, []

    monkeypatch.setattr(_scan_py, "_quaternion_variants", orbit_counters)
    for seed in (1, 2, 3):
        tab = _OneOrbitTables(seed)
        assert any(_rotations(r, 9)[3] == r for r in tab.rights), seed
        rng = random.Random(seed)
        ranges = [(0, 1 << 36)] + _partition(0, 1 << 36, 3)
        for _ in range(4):
            x, y = sorted(rng.sample(range(tab.left, tab.left | (1 << 36) - 1), 2))
            ranges.append((x, y))
        for lo, hi in ranges:
            words = [lv + r for lv, _ in tab.lefts(lo, hi) for r in tab.rights]
            del calls[:]
            got = _scan_py._orbit_walk(tab, lo, hi)
            assert len(calls) == len({min(_rotations(d, 9)) for d in calls}), (seed, lo, hi)
            assert got == _scan_py._walk(tab, lo, hi, False, {}), (seed, lo, hi)
            assert got[1][0] == sum(lo <= d < hi for d in words), (seed, lo, hi)
        assert _scan_py._orbit_walk(tab, 0, 1 << 36)[1][1], seed  # visits counted
