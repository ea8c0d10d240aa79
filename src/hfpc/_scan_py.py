"""Pure-Python scan kernels for the candidate search.

Candidates are plain ints in the BitVector layout (coordinate 1 = MSB).

Family codes: 0 = 4tu2, 1 = 2t22u, 2 = 2t4u.
Counter tuples:
  two-generator: (examined, rejected_power, rejected_hadamard)
  quaternion:    (examined, rejected_power, rejected_no_b,
                  rejected_relation, rejected_hadamard)

The two-generator scan is a join on half-words.  pi_a rotates the two 2t-bit
halves of a word independently, so the power a^j is (S_j(hi), S_j(lo)) with
S_1(x) = x and S_j(x) = x + rotr(S_{j-1}(x)), and a word passes the power
filter exactly when wt S_j(hi) + wt S_j(lo) = 2t for every j < 2t.  The
survivors are therefore the pairs of halves whose weight signatures
(wt S_1, ..., wt S_{2t-1}) are complementary; they are enumerated directly
and only they reach the Hadamard filter.

The quaternion scan is a join on strands.  pi_d (rot4) rotates each of the
four strands of d (the bits at positions = r mod 4) independently, so
wt d^j is the sum of wt S_j over the strands, with S_j on t-bit strands.  A
stream word passes the power filter exactly when the signature of its
strands 3 and 2 (the left part) and that of its strands 1 and 0 (the right
part) add up to 2t in every field.  The left strands of a depend only on the
left part of d and the free bit f1, the right strands only on the right
part and f3, so the row-0 weights wt(d^j + rot^j a), j < t, of the pairwise
Hadamard check split the same way; a variant goes on to the b derivation
and the full check only when its two a-weight signatures are complementary.

In both scans the examined and power-rejected counts come from ranking the
candidate stream, as if every candidate had been visited in ascending order.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from heapq import heappop, heappush, heapreplace
from math import comb

__all__ = ["scan_two_generator", "scan_quaternion"]


_FIELD = 6  # bits per weight in a packed signature; weights are at most 2t < 64

# half-word length -> (half-words with a power-filter partner, ascending;
# the sorted partners of each), built on first use for that length
_JOIN_TABLES: dict[int, tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = {}


def _signature(x: int, h: int) -> int:
    """wt S_1(x) .. wt S_{h-1}(x) of an h-bit half-word, packed, S_1 lowest."""
    sig = 0
    cur = x
    for j in range(h - 1):
        sig |= cur.bit_count() << (_FIELD * j)
        cur = x ^ ((cur >> 1) | ((cur & 1) << (h - 1)))
    return sig


def _necklaces(h: int):
    """Smallest rotation of each h-bit word, ascending (Fredricksen-Kessler-Maiorana)."""
    digits = [0] * (h + 1)
    yield 0
    while True:
        i = h
        while i and digits[i]:
            i -= 1
        if not i:
            return
        digits[i] = 1
        for j in range(i + 1, h + 1):
            digits[j] = digits[j - i]
        if h % i == 0:
            yield int("".join(map(str, digits[1:])), 2)


def _join_table(h: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Every h-bit half-word that has a partner, with its partners ascending.

    S_j commutes with rotation, so all rotations of a half-word share its
    signature: one signature per necklace suffices to build the table.
    """
    table = _JOIN_TABLES.get(h)
    if table is None:
        mask = (1 << h) - 1
        by_sig: dict[int, list[int]] = {}
        for rep in _necklaces(h):
            by_sig.setdefault(_signature(rep, h), []).append(rep)

        def rotations(reps: list[int]) -> list[int]:
            return sorted({((r >> k) | (r << (h - k))) & mask for r in reps for k in range(h)})

        full = sum(h << (_FIELD * j) for j in range(h - 1))
        pairs = []
        for sig, reps in by_sig.items():
            partners = by_sig.get(full - sig)
            if partners:
                lows = tuple(rotations(partners))
                pairs.extend((top, lows) for top in rotations(reps))
        pairs.sort()
        table = _JOIN_TABLES[h] = (
            tuple(top for top, _ in pairs),
            tuple(lows for _, lows in pairs),
        )
    return table


def _count_below(x: int, bits: int, w: int) -> int:
    """Number of bits-bit words of weight w below x, for 0 <= x <= 2^bits."""
    if x >> bits:
        return comb(bits, w)
    count = 0
    for i in range(bits - 1, -1, -1):
        if (x >> i) & 1:
            if w >= 0:
                count += comb(i, w)
            w -= 1
    return count


def _rank(x: int, h: int, need_odd: int) -> int:
    """Number of two-generator stream candidates below x, for 0 <= x <= 2^2h.

    The stream holds the 2h-bit words of weight h whose high half has weight
    parity need_odd.
    """
    top = x >> h
    count = sum(
        _count_below(top, h, k) * comb(h, h - k) for k in range(need_odd, h + 1, 2)
    )
    k = top.bit_count()
    if (k & 1) == need_odd:
        count += _count_below(x & ((1 << h) - 1), h, h - k)
    return count


def _power_survivors(h: int, need_odd: int, lo: int, hi: int):
    """Stream candidates in [lo, hi) that pass the power filter, ascending."""
    tops, partners = _join_table(h)
    for idx in range(bisect_left(tops, lo >> h), len(tops)):
        top = tops[idx]
        base = top << h
        if base >= hi:
            return
        if (top.bit_count() & 1) != need_odd:
            continue
        for low in partners[idx]:
            a = base | low
            if a >= hi:
                return
            if a >= lo:
                yield a


def _is_hadamard(a: int, h: int, b_compl: bool) -> bool:
    """The scan's Hadamard filter on a power survivor a.

    Builds the companion generator b, then checks that the words a^j and
    a^j * b are pairwise at distance 2t.
    """
    n = 2 * h
    mh = (1 << h) - 1
    # companion generator: first half of b is the suffix xor of a + pi_b(a)
    p = (a >> h) ^ (a & mh)
    k = 1
    while k < h:
        p ^= (p << k) & mh
        k <<= 1
    bh = (p << 1) & mh
    b = (bh << h) | (bh ^ mh if b_compl else bh)

    wj = [0] * h  # powers a^0 .. a^(h-1)
    wj[1] = a
    cur = a
    for j in range(2, h):
        ch = cur >> h
        cl = cur & mh
        ch = (ch >> 1) | ((ch & 1) << (h - 1))
        cl = (cl >> 1) | ((cl & 1) << (h - 1))
        cur = a ^ ((ch << h) | cl)
        wj[j] = cur

    # full table: a^j and a^j * b, then all pairwise distances must be 2t
    d_tab = [0] * n
    rb = b
    for j in range(h):
        d_tab[j] = wj[j]
        d_tab[h + j] = wj[j] ^ rb
        rh = rb >> h
        rl = rb & mh
        rh = (rh >> 1) | ((rh & 1) << (h - 1))
        rl = (rl >> 1) | ((rl & 1) << (h - 1))
        rb = (rh << h) | rl
    for i in range(n):
        di = d_tab[i]
        for j in range(i + 1, n):
            if (di ^ d_tab[j]).bit_count() != h:
                return False
    return True


def scan_two_generator(
    family: int, t: int, lo: int, hi: int, first_only: bool = False
) -> tuple[list[int], tuple[int, int, int]]:
    h = 2 * t
    need_odd = 1 if family == 0 else 0
    b_compl = family == 2
    lo = max(lo, 0)
    hi = min(hi, 1 << (2 * h))
    if lo >= hi:
        return [], (0, 0, 0)
    accepted: list[int] = []
    survivors = 0
    for a in _power_survivors(h, need_odd, lo, hi):
        survivors += 1
        if _is_hadamard(a, h, b_compl):
            accepted.append(a)
            if first_only:
                hi = a + 1  # counting stops at the first accepted candidate
                break
    examined = _rank(hi, h, need_odd) - _rank(lo, h, need_odd)
    return accepted, (examined, examined - survivors, survivors - len(accepted))




# Quaternion family.  Bit position p of a 4t-bit word lies on strand p mod 4;
# strand r of x, read as a t-bit word, has the bit at position 4k + r as its
# bit k.  The left part of a word is its strands 3 and 2, the right part its
# strands 1 and 0, each kept in place.

_QUATERNION_TABLES: dict[int, "_QuaternionTables"] = {}


@lru_cache(maxsize=None)
def _strand_words(p: int, w: int, par: int) -> int:
    """Words on bit positions [0, p) of weight w whose strand parities are par.

    Bit r of par is the parity of the word's weight on strand r.
    """
    if w < 0 or w > p:
        return 0
    if p == 0:
        return 1 if par == 0 else 0
    q = p - 1
    return _strand_words(q, w, par) + _strand_words(q, w - 1, par ^ (1 << (q & 3)))


def _quaternion_rank(x: int, t: int) -> int:
    """Number of quaternion stream candidates below x, for 0 <= x <= 2^4t.

    The stream holds the 4t-bit words of weight 2t with even weight on every
    strand.
    """
    n = 4 * t
    w = 2 * t
    if x >> n:
        return _strand_words(n, w, 0)
    count = 0
    par = 0
    for p in range(n - 1, -1, -1):
        if (x >> p) & 1:
            count += _strand_words(p, w, par)
            w -= 1
            par ^= 1 << (p & 3)
    return count


def _gather(x: int, k: int, stride: int) -> int:
    """Bits 0, stride, 2 stride, ... of x, k of them, as a k-bit word."""
    s = 0
    for i in range(k):
        s |= ((x >> (stride * i)) & 1) << i
    return s


def _parities(x: int, y: int) -> int:
    return (x.bit_count() & 1) << 1 | (y.bit_count() & 1)


class _QuaternionTables:
    """Strand signatures and join tables for one t, filled in on first use.

    Only even-weight strands occur in the stream.  A pair signature (one part)
    is the sum of its two strands' signatures; a word passes the power filter
    exactly when its left and right pair signatures add up to 2t in every
    field.  A part's field is at most 2t, so for t < 16 two parts add up
    without a carry between fields.
    """

    def __init__(self, t: int):
        self.t = t
        self.mask = (1 << t) - 1
        self.rmask = int("0011" * t, 2)
        self.spread = [sum(((s >> k) & 1) << (4 * k) for k in range(t)) for s in range(1 << t)]
        # S_1 = s is the only power of a t = 1 strand; its weight field is s
        self.sig = [_signature(s, t) if t > 1 else s for s in range(1 << t)]
        self.classes: dict[int, list[int]] = {}
        for s in range(1 << t):
            if not s.bit_count() & 1:
                self.classes.setdefault(self.sig[s], []).append(s)
        self.full = sum(2 * t << (_FIELD * j) for j in range(max(t - 1, 1)))
        self.full_a = sum(2 * t << (_FIELD * j) for j in range(t - 1))
        self.rights: dict[int, tuple[int, ...]] = {}  # left pair signature -> right parts
        self.a_sigs: dict[int, int] = {}  # part, in place -> a-weight signature

        # A left part is a 2t-bit number m whose digit k (bits 2k + 1, 2k) is
        # (strand 3 bit k, strand 2 bit k); ascending m is ascending part.  m
        # splits into tl low digits and t - tl high digits; the low digits are
        # also grouped by the strand parities they add, ascending.
        tl = self.tl = t // 2
        self.low_values: list[int] = []
        self.low_by_parity: list[list[tuple[int, int, int, int]]] = [[], [], [], []]
        for ml in range(1 << (2 * tl)):
            s3, s2 = _gather(ml >> 1, tl, 2), _gather(ml, tl, 2)
            lv = self._left_value(s3, s2)
            self.low_values.append(lv)
            self.low_by_parity[_parities(s3, s2)].append((ml, s3, s2, lv))
        self.high: list[tuple[int, int, int, int]] = []
        for mh in range(1 << (2 * (t - tl))):
            s3 = _gather(mh >> 1, t - tl, 2) << tl
            s2 = _gather(mh, t - tl, 2) << tl
            self.high.append((s3, s2, self._left_value(s3, s2), _parities(s3, s2)))

    def _left_value(self, s3: int, s2: int) -> int:
        sp = self.spread
        return (sp[s3] << 3) | (sp[s2] << 2)

    def rights_for(self, sig: int) -> tuple[int, ...]:
        """Right parts, ascending, whose pair signature complements sig."""
        rights = self.rights.get(sig)
        if rights is None:
            need = self.full - sig
            sp = self.spread
            classes = self.classes
            rights = self.rights[sig] = tuple(
                sorted(
                    (sp[s1] << 1) | sp[s0]
                    for c1, ones in classes.items()
                    for s0 in classes.get(need - c1, ())
                    for s1 in ones
                )
            )
        return rights

    def a_signature(self, part: int) -> int:
        """wt(S_j(sx) + rot^j ax) + wt(S_j(sy) + rot^j ay), j = 1 .. t-1, packed.

        (sx, sy) are the two strands of one part of d, high strand first, and
        (ax, ay) the same strands of a with free bit 0: ax is the suffix xor
        of sx + sy and ay its complement.  The free bit 1 complements both,
        which turns every field w into 2t - w.  Memoised by the part in place.
        """
        sig = self.a_sigs.get(part)
        if sig is None:
            t = self.t
            mask = self.mask
            low = (part | part >> 2) & self.rmask  # a left part moved right
            sx = _gather(low >> 1, t, 4)
            sy = _gather(low, t, 4)
            ax = sx ^ sy
            k = 1
            while k < t:
                ax ^= ax >> k
                k <<= 1
            ay = ax ^ mask
            sig = 0
            cx, cy = sx, sy
            for j in range(t - 1):
                ax = (ax >> 1) | ((ax & 1) << (t - 1))
                ay = (ay >> 1) | ((ay & 1) << (t - 1))
                sig |= ((cx ^ ax).bit_count() + (cy ^ ay).bit_count()) << (_FIELD * j)
                cx = sx ^ ((cx >> 1) | ((cx & 1) << (t - 1)))
                cy = sy ^ ((cy >> 1) | ((cy & 1) << (t - 1)))
            self.a_sigs[part] = sig
        return sig

    def lefts(self, lo: int, hi: int):
        """(left part, its right parts), ascending part.

        Yields every left part with a right part that could put the word in
        [lo, hi): parts whose largest word (all right bits set) is below lo
        are skipped by bisection, since that largest word grows with the part.
        """
        t, tl = self.t, self.tl
        rmask = self.rmask
        low_values, high = self.low_values, self.high
        low_bits = 2 * tl
        first, last = 0, 1 << (2 * t)
        while first < last:
            mid = (first + last) >> 1
            if (high[mid >> low_bits][2] | low_values[mid & ((1 << low_bits) - 1)] | rmask) < lo:
                first = mid + 1
            else:
                last = mid
        sig = self.sig
        for mh in range(first >> low_bits, len(high)):
            s3h, s2h, lvh, par = high[mh]
            if lvh >= hi:
                return
            bucket = self.low_by_parity[par]  # the same parities make both strands even
            start = 0
            if mh == first >> low_bits:
                start = bisect_left(bucket, (first & ((1 << low_bits) - 1),))
            for i in range(start, len(bucket)):
                _, s3l, s2l, lvl = bucket[i]
                lv = lvh | lvl
                if lv >= hi:
                    return
                s3 = s3h | s3l
                s2 = s2h | s2l
                rights = self.rights_for(sig[s3] + sig[s2])
                if rights:
                    yield lv, rights


def _quaternion_tables(t: int) -> _QuaternionTables:
    tab = _QUATERNION_TABLES.get(t)
    if tab is None:
        tab = _QUATERNION_TABLES[t] = _QuaternionTables(t)
    return tab


def _quaternion_variants(
    d: int, t: int, allowed: tuple[bool, bool], first_only: bool
) -> tuple[list[tuple[int, int, int]], int, int, int]:
    """The four (f1, f3) variants of a power survivor d.

    allowed[f1 ^ f3] says whether the a-weight test lets the variant through;
    a variant it stops fails row 0 of the pairwise Hadamard check and is
    counted as rejected there.  The others derive a and b, check the
    relations, the pairwise Hadamard condition and the code-set dedup.
    Returns (accepted triples, rejected_no_b, rejected_relation,
    rejected_hadamard).
    """
    n = 4 * t
    w = 2 * t
    full = (1 << n) - 1
    aa = int("10" * (2 * t), 2)  # odd bit positions, for the pair swap
    bb = aa >> 1
    cc = int("1100" * t, 2)  # high bit pairs of each nibble
    dd = cc >> 2

    def rot4(x: int) -> int:
        return (x >> 4) | ((x & 15) << (n - 4))

    def pairswap(x: int) -> int:
        return ((x & aa) >> 1) | ((x & bb) << 1)

    def nibswap(x: int) -> int:
        return ((x & cc) >> 2) | ((x & dd) << 2)

    rej_nob = rej_rel = rej_had = 0
    accepted: list[tuple[int, int, int]] = []
    powers = [0] * t
    t_tab = [0] * n
    cur = d
    for j in range(1, t):
        powers[j] = cur
        cur = d ^ rot4(cur)

    what = d ^ pairswap(d)
    wtil = d ^ nibswap(d)
    seen: set[tuple[int, ...]] = set()
    for f1 in (0, 1):
        for f3 in (0, 1):
            if not allowed[f1 ^ f3]:
                rej_had += 1
                continue
            # a from d: telescoped class sums, blocks (a1, ~a1, a3, ~a3)
            pre1 = pre3 = 0
            a = 0
            for i in range(t):
                sh = n - 4 * i - 4
                pre1 ^= (what >> (sh + 3)) & 1
                pre3 ^= (what >> (sh + 1)) & 1
                a1 = f1 ^ pre1
                a3 = f3 ^ pre3
                a |= (a1 << (sh + 3)) | ((a1 ^ 1) << (sh + 2))
                a |= (a3 << (sh + 1)) | ((a3 ^ 1) << sh)
            # b from a, seed 0: the seed-1 twin is b + u and generates
            # the same code, so only one seed is scanned here
            seed2 = 1 ^ ((a >> 3) & 1) ^ ((a >> 1) & 1)
            pre1 = pre2 = 0
            b = 0
            nob = False
            for i in range(t):
                sh = n - 4 * i - 4
                pre1 ^= (wtil >> (sh + 3)) & 1
                pre2 ^= (wtil >> (sh + 2)) & 1
                b1 = pre1
                b2 = seed2 ^ pre2
                if b1 ^ b2 != 1 ^ ((a >> (sh + 3)) & 1) ^ ((a >> (sh + 1)) & 1):
                    nob = True
                    break
                b |= (b1 << (sh + 3)) | (b2 << (sh + 2))
                b |= ((b1 ^ 1) << (sh + 1)) | ((b2 ^ 1) << sh)
            if nob:
                rej_nob += 1
                continue
            ab = a ^ pairswap(b)
            if (
                d ^ rot4(a) != a ^ pairswap(d)
                or d ^ rot4(b) != b ^ nibswap(d)
                or ab ^ pairswap(nibswap(a)) != b
            ):
                rej_rel += 1
                continue
            rqa, rqb, rqab = a, b, ab
            for j in range(t):
                base = 4 * j
                pj = powers[j]
                t_tab[base] = pj
                t_tab[base + 1] = pj ^ rqa
                t_tab[base + 2] = pj ^ rqb
                t_tab[base + 3] = pj ^ rqab
                rqa = rot4(rqa)
                rqb = rot4(rqb)
                rqab = rot4(rqab)
            ok = True
            for i in range(n):
                ti = t_tab[i]
                for j in range(i + 1, n):
                    if (ti ^ t_tab[j]).bit_count() != w:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                rej_had += 1
                continue
            sig = tuple(sorted(min(x, x ^ full) for x in t_tab))
            if sig in seen:
                continue
            seen.add(sig)
            accepted.append((d, a, b))
            if first_only:
                return accepted, rej_nob, rej_rel, rej_had
    return accepted, rej_nob, rej_rel, rej_had


def scan_quaternion(
    t: int, lo: int, hi: int, first_only: bool = False
) -> tuple[list[tuple[int, int, int]], tuple[int, int, int, int, int]]:
    lo = max(lo, 0)
    hi = min(hi, 1 << (4 * t))
    if lo >= hi:
        return [], (0, 0, 0, 0, 0)
    tab = _quaternion_tables(t)
    full_a = tab.full_a
    accepted: list[tuple[int, int, int]] = []
    survivors = rej_nob = rej_rel = rej_had = 0
    # k-way merge of the left parts' streams d = left + right, ascending:
    # a left part joins the heap once no word below it is left there
    heap: list[tuple[int, int, int, tuple[int, ...], int]] = []
    lefts = tab.lefts(lo, hi)
    nxt = next(lefts, None)
    while True:
        while nxt is not None and (not heap or nxt[0] < heap[0][0]):
            lv, rights = nxt
            pos = bisect_left(rights, lo - lv)
            if pos < len(rights) and lv + rights[pos] < hi:
                al = tab.a_signature(lv)
                heappush(heap, (lv + rights[pos], pos, lv, rights, al))
            nxt = next(lefts, None)
        if not heap:
            break
        d, pos, lv, rights, al = heap[0]
        survivors += 1
        rv = d - lv
        ar = tab.a_signature(rv)
        allowed = (al + ar == full_a, al == ar)
        if allowed[0] or allowed[1]:
            acc, nob, rel, had = _quaternion_variants(d, t, allowed, first_only)
            rej_nob += nob
            rej_rel += rel
            rej_had += had
            if acc:
                accepted.extend(acc)
                if first_only:
                    hi = d + 1  # counting stops at the first accepted candidate
                    break
        else:
            rej_had += 4
        pos += 1
        if pos < len(rights) and lv + rights[pos] < hi:
            heapreplace(heap, (lv + rights[pos], pos, lv, rights, al))
        else:
            heappop(heap)
    examined = _quaternion_rank(hi, t) - _quaternion_rank(lo, t)
    return accepted, (examined, examined - survivors, rej_nob, rej_rel, rej_had)
