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
filter exactly when wt S_j(hi) + wt S_j(lo) = 2t for every j < 2t.  By the
mirror identity fields j <= t decide: S_2t(x) is 0 or all ones by the parity
of wt x and S_{2t-j} = S_2t + rot^{2t-j} S_j, so wt S_{2t-j}(x) is wt S_j(x)
for even wt x and 2t - wt S_j(x) for odd, and the halves of a survivor weigh
w and 2t - w, of one parity.  The survivors are therefore the pairs of
halves whose signatures (wt S_1, ..., wt S_t), computed for all necklaces
at once, are complementary.  A scan walks the high halves (tops) in range,
counts their survivors by bisection, and runs the Hadamard filter once per
necklace of tops: for 4tu2 at t = 6, 1,248 times, not 14,976.

The quaternion scan is a join on strands.  pi_d (rot4) rotates each of the
four strands of d (the bits at positions = r mod 4) independently, so
wt d^j is the sum of wt S_j over the strands, with S_j on t-bit strands.  A
stream word passes the power filter exactly when the signature of its
strands 3 and 2 (the left part) and that of its strands 1 and 0 (the right
part) add up to 2t in every field.

Both Hadamard filters decide on row 0.  A table word's distance from
e = 0 is its weight, so row 0 of the pairwise check asks that every table
word weigh 2t, and almost every power survivor fails it within a few
bit_counts.  Row 0 is also the whole check: once the family's relations
hold, the table words are the elements of a propelinear code, so
pi_x(C) = x + C and d(x, y) = wt(x^-1 * y) (Rifa, Basart and Huguet,
1989), and the weights give every distance (see _is_hadamard and
_quaternion_variants).  Neither filter has a pairwise loop; the reference
constructors that re-assemble each accepted code in search still run the
full check.  Both filters take their generators from the derivations in
families that the reference constructors use.

- Two-generator: the weights wt(a^j + rot^j b) are checked as a^j and
  rot^j b are built, with an exit at the first wrong one.
- Quaternion: the left strands of a depend only on the left part of d and
  the free bit f1, the right strands only on the right part and f3, so the
  row-0 weights wt(d^j + rot^j a), j < t, split the same way; a variant
  passes them exactly when its two a-weight signatures are complementary.
  The right parts of each power-signature class are indexed by a-weight
  signature in one pass on first use, the whole class in all mode and only
  the parts below the window in first mode.  For each left part
  a scan counts the survivors in range by bisection, checks the variants
  of those in its two matching a-weight buckets, and charges each other
  survivor its four variants as rejected; only the accepted triples are
  sorted into stream order at the end.  The variants that pass go on to b,
  the relations and the rest of row 0 (wt(d^j + rot^j b) and
  wt(d^j + rot^j ab), with wt d^j and wt(d^j + rot^j a) checked again so
  that the filter decides any stream word on its own).
  rot4 (pi_d) maps a word's survivors, verdicts and accepted triples onto
  those of its rotation, so an all-mode scan walks only the left parts
  least in their rot4 orbit, the isomorph rejection of McKay ("Isomorph-free
  exhaustive generation", 1998): it checks the variants of one word per
  orbit, counts them for each word of the orbit in range, and derives the
  triples of an accepted orbit's other words by rotation (_orbit_walk).
  At t = 7 that is 1,204 variant checks for the 8,428 visited survivors,
  at t = 11 54,120 for 595,320.  A first-accept scan walks every left part,
  on aligned windows of doubling size, fills each class only below the
  window it walks (a prefix of the class, rights_for), and stops in the
  first window with an accept, which it walks once and counts up to the
  accepted word; it keeps a memo from each rejected orbit's least rotation
  to its counters for the one scan (_walk).

In both scans the examined and power-rejected counts come from ranking the
candidate stream, as if every candidate had been visited in ascending order;
search.candidate_count is the rank of the end of the word range.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import cache
from itertools import compress, islice, repeat
from math import comb
from operator import itemgetter
from sys import byteorder

from .families import _companion_b, _quaternion_a00, _quaternion_as, _quaternion_bs, _strand_masks

__all__ = ["scan_two_generator", "scan_quaternion"]


_FIELD = 6  # bits per weight in a packed signature; weights are at most 2t < 64


def _signatures(words, h: int, fields: int, width: int):
    """The h-bit words of an iterator and their signatures wt S_1 .. wt
    S_fields (width bits each, S_1 lowest), as two sequences: computed on a
    block of words in the slots of one int, by rotate, xor and SWAR popcount."""
    size = -(-max(h, width * fields) // 64) * 8  # bytes per slot
    out_words, out_keys = bytearray(), bytearray()
    while block := b"".join(w.to_bytes(size, byteorder) for w in islice(words, 1 << 14)):
        ones = (1 << (8 * len(block))) - 1
        rep = ones // ((1 << (8 * size)) - 1)  # 1 in every slot
        m1, m2, m4 = ones // 3, ones // 5, ones // 17  # 0x55.., 0x33.., 0x0f..
        low, count = rep * ((1 << (h - 1)) - 1), rep * 255
        x = cur = int.from_bytes(block, byteorder)
        key = 0
        for j in range(fields):
            v = cur - ((cur >> 1) & m1)
            v = (v & m2) + ((v >> 2) & m2)
            v = (v + (v >> 4)) & m4
            # the product sums each slot's bytes into its top byte
            key |= ((v * ((1 << 8 * size) // 255) >> (8 * size - 8)) & count) << (width * j)
            cur = x ^ ((cur >> 1) & low | (cur & rep) << (h - 1))
        out_words += block
        out_keys += key.to_bytes(len(block), byteorder)
    if size == 8:  # slots in native byte order, as cast("Q") reads them
        return memoryview(out_words).cast("Q"), memoryview(out_keys).cast("Q")
    return tuple(  # slots wider than 64 bits
        [int.from_bytes(b[i : i + size], byteorder) for i in range(0, len(b), size)]
        for b in (out_words, out_keys)
    )


def _necklaces(h: int):
    """Smallest rotation of each h-bit word, ascending (Fredricksen-Kessler-Maiorana).

    Each step sets the last 0 digit of the previous word to 1 and repeats
    the prefix ending there, of length i, to h digits (a product and a shift
    looked up by h - i); the word is a necklace when i divides h.
    """
    steps = [
        (((1 << (i * (h // i + 1))) - 1) // ((1 << i) - 1), i * (h // i + 1) - h, h % i == 0)
        for i in range(h, 0, -1)
    ]
    word = 0
    yield word
    full = (1 << h) - 1
    while word != full:
        ones = (~word & (word + 1)).bit_length() - 1  # trailing 1 digits
        repeat, shift, necklace = steps[ones]
        word = ((word >> ones | 1) * repeat) >> shift
        if necklace:
            yield word


@cache
def _join_table(h: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Every h-bit half-word (top) that has a partner, ascending, with its
    partners ascending and a turn k that takes it to its necklace rotr^k(top).

    S_j commutes with rotation, so all rotations of a half-word share its
    signature: one signature per necklace suffices to build the table.
    """
    mask = (1 << h) - 1
    width = h.bit_length()
    full = sum(h << (width * j) for j in range(h // 2))
    necks, keys = _signatures(_necklaces(h), h, h // 2, width)
    present = set(keys)
    joined = {k for k in present if full - k in present}
    rots: dict[int, dict[int, int]] = {}  # signature -> {top: turn}
    for key, r in compress(zip(keys, necks), map(joined.__contains__, keys)):
        rots.setdefault(key, {}).update({(r << k | r >> (h - k)) & mask: k for k in range(h)})
    turn: dict[int, int] = {}
    lows: dict[int, tuple[int, ...]] = {}  # top -> its class's partners
    for key, rot in rots.items():
        turn.update(rot)
        lows.update(dict.fromkeys(rot, tuple(sorted(rots[full - key]))))
    tops = tuple(sorted(turn))
    partners = tuple(map(lows.__getitem__, tops))
    return tops, partners, tuple(map(turn.__getitem__, tops))


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


def _is_hadamard(a: int, h: int, b_compl: bool) -> bool:
    """The scan's Hadamard filter on a power survivor a, decided on weights:
    b from families._companion_b, then wt(a^j * b) = wt(a^j + rot^j b) =
    2t for j <= t, checked as each j is built, with an exit at the first
    wrong one.

    This row 0 decides the pairwise check.  With pi_a = rot and pi_b the
    half swap, the 8t words a^j b^k u^l form a group under
    x * y = x + pi_x(y) once ab = ba, and b^2 and a^2t are e or u; these
    hold for every survivor:
    - ab = ba: it makes each half of b a suffix xor of hi + lo, which closes
      exactly when wt hi and wt lo have one parity, as a survivor's halves
      weighing w and 2t - w do;
    - b^2: _companion_b makes the halves of b equal or complementary;
    - a^2t: S_2t of a half is 0 or all ones by the stream's weight parity.
    A propelinear code is distance-invariant (Rifa, Basart and Huguet,
    1989): pi_x(C) = x + C, so d(x, y) = wt(x^-1 * y).  The power filter
    and row 0 give every word other than e and u weight 2t (a^j u and
    a^j b u are complements), so the words are pairwise at distance 2t
    except complement pairs at 4t; two elements with one word would make a
    weight-0 element other than e, which row 0 rejects.

    The weights for j <= t decide row 0, by the mirror argument: a^(2t-j)
    is a^-j times a^2t, which is e or u, and b^-1 is b or b u, so
    wt(a^(2t-j) * b) is wt(a^-j * b) or its complement 4t - wt(a^-j * b),
    and by distance invariance wt(a^-j * b) = d(a^j, b) = wt(b^-1 * a^j),
    the weight of a^j b up to a complement, as the group is abelian.  So
    wt(a^(2t-j) b) = 2t exactly when wt(a^j b) = 2t.
    """
    mh = (1 << h) - 1
    b = _companion_b(a, h // 2, b_compl)

    # rot rotates both halves right by one: keep the bits that stay in their
    # half, move each half's lowest bit (ends) to its top
    keep = ((mh >> 1) << h) | (mh >> 1)
    ends = (1 << h) | 1
    cur = 0
    rb = b
    for _ in range(h // 2 + 1):
        if (cur ^ rb).bit_count() != h:
            return False
        cur = a ^ (((cur >> 1) & keep) | ((cur & ends) << (h - 1)))
        rb = ((rb >> 1) & keep) | ((rb & ends) << (h - 1))
    return True


def scan_two_generator(
    family: int, t: int, lo: int, hi: int, first_only: bool = False
) -> tuple[list[int], tuple[int, int, int]]:
    """One walk over the tops in range, for both modes and any subrange: a
    top's survivors in range are counted by bisection in its partners, and
    its accepted lows are those of its necklace N = rotr^k(top) rotated back
    by rotl^k; cache maps N to its passing partners.  a and pi_a(a) pass
    together: pi_a maps the powers of a to those of pi_a(a), and b to pi_a(b)
    or its complement; permuting coordinates keeps distances, and the
    complement turns a distance d from a power into 4t - d, 2t when d is.
    """
    h = 2 * t
    need_odd = 1 if family == 0 else 0
    b_compl = family == 2
    lo = max(lo, 0)
    hi = min(hi, 1 << (2 * h))
    if lo >= hi:
        return [], (0, 0, 0)
    tops, partners, turns = _join_table(h)
    mask = (1 << h) - 1
    cache: dict[int, tuple[int, ...]] = {}
    accepted: list[int] = []
    survivors = 0
    for idx in range(bisect_left(tops, lo >> h), len(tops)):
        top, lows, k = tops[idx], partners[idx], turns[idx]
        base = top << h
        if base >= hi:
            break
        if (top.bit_count() & 1) != need_odd:
            continue
        rlo, rhi = lo - base, hi - base
        neck = ((top >> k) | (top << (h - k))) & mask
        good = cache.get(neck)
        if good is None:
            good = cache[neck] = tuple(x for x in lows if _is_hadamard(neck << h | x, h, b_compl))
        mine = sorted(((low << k) | (low >> (h - k))) & mask for low in good)
        mine = mine[bisect_left(mine, rlo) : bisect_left(mine, rhi)]
        if mine and first_only:
            mine, rhi = mine[:1], mine[0] + 1
            hi = base + rhi  # counting stops at the first accepted candidate
        accepted += [base | low for low in mine]
        survivors += bisect_left(lows, rhi) - bisect_left(lows, rlo)
    examined = _rank(hi, h, need_odd) - _rank(lo, h, need_odd)
    return accepted, (examined, examined - survivors, survivors - len(accepted))


# Quaternion family.  Bit position p of a 4t-bit word lies on strand p mod 4;
# strand r of x, read as a t-bit word, has the bit at position 4k + r as its
# bit k.  The left part of a word is its strands 3 and 2, the right part its
# strands 1 and 0, each kept in place.

@cache
def _strand_words(p: int, w: int, par: int) -> int:
    """Words on bit positions [0, p) of weight w whose strand parities are par.

    Bit r of par is the parity of the word's weight on strand r, which holds
    c_r = (p + 3 - r) // 4 of the positions: a sum of products of C(c_r, w_r).
    """
    c0, c1, c2, c3 = ((p + 3 - r) // 4 for r in range(4))
    count = 0
    for w3 in range(par >> 3 & 1, c3 + 1, 2):
        for w2 in range(par >> 2 & 1, c2 + 1, 2):
            for w1 in range(par >> 1 & 1, c1 + 1, 2):
                w0 = w - w3 - w2 - w1
                if 0 <= w0 <= c0 and w0 & 1 == par & 1:
                    count += comb(c3, w3) * comb(c2, w2) * comb(c1, w1) * comb(c0, w0)
    return count


def _quaternion_rank(x: int, t: int) -> int:
    """Number of quaternion stream candidates below x, for 0 <= x <= 2^4t.

    The stream holds the 4t-bit words of weight 2t with even weight on every
    strand.
    """
    n = 4 * t
    w = 2 * t
    count = 0
    par = 0
    for p in range(n, -1, -1):  # bit n is set only in x = 2^4t
        if (x >> p) & 1:
            count += _strand_words(p, w, par)
            w -= 1
            par ^= 1 << (p & 3)
    return count


def _parities(x: int, y: int) -> int:
    return (x.bit_count() & 1) << 1 | (y.bit_count() & 1)


def _a_signatures(parts, t: int) -> list[int]:
    """The a-weight signature of each part of an iterable, in order (see
    _QuaternionTables.rights_by_a_for): wt(S_j(sx) + rot^j ax) +
    wt(S_j(sy) + rot^j ay), j = 1 .. t-1, packed.

    (sx, sy) are the two strands of one part of d, high strand first, and
    (ax, ay) the same strands of a with free bit 0.  The free bit 1
    complements both, which turns every field w into 2t - w.  Each part is
    moved to strands 1 and 0: there ax is the prefix xor of sx + sy from the
    top block down and ay its complement (families._quaternion_a00), and
    rot4 rotates both strands at once.  As in _signatures, a block of parts
    sits in the slots of one int, and every shift is masked to its slot: the
    prefix xor's shift by k keeps n - k bits, or the next slot leaks in once
    4t > 32.
    """
    n = 4 * t
    fields = t - 1
    size = -(-max(n, _FIELD * fields) // 64) * 8  # bytes per slot
    _, _, s1, s0 = _strand_masks(t)
    parts = iter(parts)
    out = bytearray()
    while block := b"".join(
        ((p | p >> 2) & (s1 | s0)).to_bytes(size, byteorder) for p in islice(parts, 1 << 14)
    ):
        ones = (1 << (8 * len(block))) - 1
        rep = ones // ((1 << (8 * size)) - 1)  # 1 in every slot
        m1, m2, m4 = ones // 3, ones // 5, ones // 17  # 0x55.., 0x33.., 0x0f..
        count, keep, ends = rep * 255, rep * ((1 << (n - 4)) - 1), rep * 15
        x = cur = int.from_bytes(block, byteorder)
        q = (x >> 1 ^ x) & rep * s0  # sx + sy on strand 0
        k = 4
        while k < n:
            q ^= (q >> k) & rep * ((1 << (n - k)) - 1)
            k <<= 1
        a = q << 1 | q ^ rep * s0  # (ax, ay) on strands 1 and 0
        key = 0
        for j in range(fields):
            a = (a >> 4) & keep | (a & ends) << (n - 4)
            v = cur ^ a
            v -= (v >> 1) & m1
            v = (v & m2) + ((v >> 2) & m2)
            v = (v + (v >> 4)) & m4
            # the product sums each slot's bytes into its top byte
            key |= ((v * ((1 << 8 * size) // 255) >> (8 * size - 8)) & count) << (_FIELD * j)
            cur = x ^ ((cur >> 4) & keep | (cur & ends) << (n - 4))
        out += key.to_bytes(len(block), byteorder)
    if size == 8:  # slots in native byte order, as cast("Q") reads them
        return memoryview(out).cast("Q").tolist()
    return [int.from_bytes(out[i : i + size], byteorder) for i in range(0, len(out), size)]


class _QuaternionTables:
    """Strand signatures and join tables for one t, filled in on first use.

    Only even-weight strands occur in the stream, so wt S_{t-j} = wt S_j on
    them (the mirror identity) and fields 1 .. t // 2 decide; a t = 1 strand
    s has one field, wt S_1 = s.  A pair signature (one part) is the sum of
    its two strands' signatures; a word passes the power filter exactly when
    its left and right pair signatures add up to 2t in every field.  A part's
    field is at most 2t, so for t < 16 two parts add up without a carry.
    """

    def __init__(self, t: int):
        self.t = t
        _, _, s1, s0 = _strand_masks(t)
        self.rmask = s1 | s0
        sp = self.spread = [0] * (1 << t)  # bit k of s -> bit 4k
        for s in range(1, 1 << t):
            sp[s] = sp[s >> 1] << 4 | s & 1
        fields = max(t // 2, 1)
        self.sig = list(_signatures(iter(range(1 << t)), t, fields, _FIELD)[1])
        self.classes: dict[int, list[int]] = {}
        for s in range(1 << t):
            if not s.bit_count() & 1:
                self.classes.setdefault(self.sig[s], []).append(s)
        self.full = sum(2 * t << (_FIELD * j) for j in range(fields))
        self.full_a = sum(2 * t << (_FIELD * j) for j in range(t - 1))
        self.cap = 1 << (4 * t)  # every word lies below it
        # left pair signature -> (a cut 2^4m, its right parts below the cut,
        # ascending); see rights_for
        self.rights: dict[int, tuple[int, tuple[int, ...]]] = {}
        # left pair signature -> (cut, {a-weight signature: those right parts, ascending})
        self.rights_by_a: dict[int, tuple[int, dict[int, list[int]]]] = {}
        # left pair signature -> its least right part, 2^4t when it has none
        self.smallest: dict[int, int] = {}
        self.least: tuple[array, list[int], list[int], array] | None = None

        # A left part is a 2t-bit number m whose digit k (bits 2k + 1, 2k) is
        # (strand 3 bit k, strand 2 bit k); ascending m is ascending part.  m
        # splits into tl low digits and t - tl high digits; the low digits are
        # also grouped by the strand parities they add, ascending.
        tl = self.tl = t // 2
        g = [0] * (1 << (2 * (t - tl)))  # the even bits of m, gathered
        for m in range(1, len(g)):
            g[m] = g[m >> 2] << 1 | m & 1
        self.low_values: list[int] = []
        self.low_by_parity: list[list[tuple[int, int, int, int]]] = [[], [], [], []]
        for ml in range(1 << (2 * tl)):
            s3, s2 = g[ml >> 1], g[ml]
            lv = sp[s3] << 3 | sp[s2] << 2
            self.low_values.append(lv)
            self.low_by_parity[_parities(s3, s2)].append((ml, s3, s2, lv))
        self.high: list[tuple[int, int, int, int]] = []
        for mh in range(len(g)):
            s3, s2 = g[mh >> 1] << tl, g[mh] << tl
            self.high.append((s3, s2, sp[s3] << 3 | sp[s2] << 2, _parities(s3, s2)))

    def rights_for(self, sig: int, below: int | None = None) -> tuple[int, ...]:
        """Right parts, ascending, whose pair signature complements sig: all
        of them, or a prefix that holds every one below `below`.

        A right part sp[s1] << 1 | sp[s0] lies below 2^4m exactly when both
        strands lie below 2^m, and each strand class is ascending, so the
        fill for a bound takes the prefix of each class below 2^m: the full
        tuple cut at 2^4m, for the least m <= t with 2^4m >= below.  The
        tuple is kept with its cut and filled again when a larger bound asks
        for a larger m; a smaller bound gets the longer tuple.
        """
        if below is None:
            below = self.cap
        got = self.rights.get(sig)
        if got is None or got[0] < below:
            m = min(self.t, -(-(below - 1).bit_length() // 4))
            need = self.full - sig
            sp = self.spread
            classes = {c: ones[: bisect_left(ones, 1 << m)] for c, ones in self.classes.items()}
            got = self.rights[sig] = 1 << (4 * m), tuple(
                sorted(
                    (sp[s1] << 1) | sp[s0]
                    for c1, ones in classes.items()
                    for s0 in classes.get(need - c1, ())
                    for s1 in ones
                )
            )
        return got[1]

    def rights_by_a_for(self, sig: int, below: int | None = None) -> dict[int, list[int]]:
        """rights_for(sig, below) split by the a-weight signature of each
        right part (see _a_signatures), in one pass over the parts not filed
        yet: a larger cut only adds parts above those filed, at the ends of
        the buckets."""
        if below is None:
            below = self.cap
        got = self.rights_by_a.get(sig)
        if got is None or got[0] < below:
            rights = self.rights_for(sig, below)
            cut, buckets = got or (0, {})
            new = rights[bisect_left(rights, cut) :]
            for ar, rv in zip(_a_signatures(new, self.t), new):
                buckets.setdefault(ar, []).append(rv)
            got = self.rights_by_a[sig] = self.rights[sig][0], buckets
        return got[1]

    def smallest_right(self, sig: int) -> int:
        """The least right part whose pair signature complements sig, 2^4t if
        there is none, without filling the class: in each pair of strand
        classes it is made of the two least strands."""
        least = self.smallest.get(sig)
        if least is None:
            need = self.full - sig
            sp = self.spread
            classes = self.classes
            least = self.smallest[sig] = min(
                (
                    sp[ones[0]] << 1 | sp[zeros[0]]
                    for c1, ones in classes.items()
                    if (zeros := classes.get(need - c1))
                ),
                default=self.cap,
            )
        return least

    def least_lefts(self):
        """(left part, pair signature, a-weight signature, period) of every
        left part with right parts that is least in its rot4 orbit, ascending;
        the period is the least m > 0 with rot4^m(part) = part, a divisor of
        t.  rot4 keeps the strands, so a rotated part has the same pair
        signature.

        The columns are kept apart and compact, about 25 bytes a part: the
        parts and periods in arrays, and one int object per distinct
        signature, as a class's parts share few (34,430 parts, 240 pair and
        2,801 a-weight signatures at t = 11)."""
        if self.least is None:
            top = 4 * self.t - 4
            parts, sigs, periods = array("Q"), [], array("B")
            one: dict[int, int] = {}  # signature -> its one int object
            for lv, sig in self.lefts(0, 1 << (4 * self.t)):
                x = lv
                for m in range(1, self.t + 1):
                    x = (x >> 4) | ((x & 15) << top)
                    if x <= lv:
                        break
                if x == lv:
                    parts.append(lv)
                    sigs.append(one.setdefault(sig, sig))
                    periods.append(m)
            a_sigs = [one.setdefault(al, al) for al in _a_signatures(parts, self.t)]
            self.least = (parts, sigs, a_sigs, periods)
        return zip(*self.least)

    def lefts(self, lo: int, hi: int):
        """(left part, its pair signature), ascending part, if it has a right
        part below hi.

        Yields every left part with a right part that could put the word in
        [lo, hi), for lo < hi.  Every word in range has lo's bits above the
        top bit where lo and hi - 1 differ, so only the parts that share
        those bits are walked; on the full range that is every part.  Among
        them, parts whose largest word (all right bits set) is below lo are
        skipped by bisection, since that largest word grows with the part.
        The right-part test reads each class's least right part
        (smallest_right) against the caller's hi, not against the end of the
        walked parts, which can lie below words of the last parts walked.
        """
        t, tl = self.t, self.tl
        rmask = self.rmask
        low_values, high = self.low_values, self.high
        low_bits = 2 * tl
        low_mask = (1 << low_bits) - 1
        below = hi
        # the parts m whose bits above the lowest j are lo's, j being the
        # number of left bit positions below the top bit where lo and hi - 1
        # differ; the first part after them bounds the walk as hi does
        j = ((rmask << 2) & ((1 << (lo ^ (hi - 1)).bit_length()) - 1)).bit_count()
        first = sum(((lo >> (4 * k + 2)) & 3) << (2 * k) for k in range(t)) >> j << j
        last = first + (1 << j)
        if last < 1 << (2 * t):
            hi = min(hi, high[last >> low_bits][2] | low_values[last & low_mask])
        while first < last:
            mid = (first + last) >> 1
            if (high[mid >> low_bits][2] | low_values[mid & low_mask] | rmask) < lo:
                first = mid + 1
            else:
                last = mid
        sig = self.sig
        smallest = self.smallest
        for mh in range(first >> low_bits, len(high)):
            s3h, s2h, lvh, par = high[mh]
            if lvh >= hi:
                return
            bucket = self.low_by_parity[par]  # the same parities make both strands even
            start = 0
            if mh == first >> low_bits:
                start = bisect_left(bucket, (first & low_mask,))
            for i in range(start, len(bucket)):
                _, s3l, s2l, lvl = bucket[i]
                lv = lvh | lvl
                if lv >= hi:
                    return
                s3 = s3h | s3l
                s2 = s2h | s2l
                pair_sig = sig[s3] + sig[s2]
                least = smallest.get(pair_sig)
                if least is None:
                    least = self.smallest_right(pair_sig)
                if least < below:
                    yield lv, pair_sig


@cache
def _quaternion_tables(t: int) -> _QuaternionTables:
    return _QuaternionTables(t)


def _quaternion_variants(
    d: int, t: int, allowed: tuple[bool, bool], first_only: bool
) -> tuple[list[tuple[int, int, int]], int, int, int, list[tuple[int, ...]]]:
    """The four (f1, f3) variants of a stream word d, decided on weights.

    allowed[f1 ^ f3] says whether the a-weight test lets the variant through;
    a variant it stops fails row 0 of the pairwise Hadamard check and is
    counted as rejected there.  The others derive a and b, check the
    relations, then row 0: the weights of the 4t - 1 words d^j (j >= 1),
    d^j * a, d^j * b and d^j * ab, one j at a time with an exit at the first
    wrong one, then the code-set dedup.
    Returns (accepted triples, rejected_no_b, rejected_relation,
    rejected_hadamard, groups): groups[k] holds the labels 2 f1 + f3 of the
    passing variants, among those checked, whose code set is that of
    accepted[k], least first.

    Row 0 decides the whole pairwise check, because the 8t words are the
    elements of a group G = C_t x Q under x * y = x + pi_x(y) once these
    relations hold, with pi_d = rot4, pi_a = pairswap and pi_b = nibswap
    (commuting involutions and a rotation of order t):
    - d^t = e: the word of d^t is the parity of each strand, and every
      stream word has even strands;
    - a^2 = u and b^2 = u: strands 2 and 0 of a are the complements of
      strands 3 and 1, and strands 1 and 0 of b those of strands 3 and 2,
      by the derivations in families, so x + pi(x) is all ones;
    - da = ad, db = bd and aba = b: checked here, as rejected_relation.
    A propelinear code is distance-invariant (Rifa, Basart and Huguet,
    1989): x * C = C gives pi_x(C) = x + C, so d(x, y) = wt(x^-1 * y).  So
    the words are pairwise at distance 2t, except complement pairs at 4t,
    exactly when every word other than e and u weighs 2t: row 0 is the
    whole check.
    """
    n = 4 * t
    w = 2 * t
    full = (1 << n) - 1
    top = n - 4  # rot4 moves the low nibble here
    s3, s2, s1, _ = _strand_masks(t)
    odd = s3 | s1  # odd bit positions, for the pair swap
    even = odd >> 1
    high = s3 | s2  # high bit pairs of each nibble, for the nibble swap
    low = high >> 2

    def rot4(x: int) -> int:
        return (x >> 4) | ((x & 15) << top)

    def pairswap(x: int) -> int:
        return ((x & odd) >> 1) | ((x & even) << 1)

    def nibswap(x: int) -> int:
        return ((x & high) >> 2) | ((x & low) << 2)

    rej_nob = rej_rel = rej_had = 0
    accepted: list[tuple[int, int, int]] = []
    powers = [0] * t
    t_tab = [0] * n
    cur = d
    powers_ok = True  # the rows d^j, j >= 1, which no variant changes
    for j in range(1, t):
        powers[j] = cur
        powers_ok = powers_ok and cur.bit_count() == w
        cur = d ^ rot4(cur)

    pd = pairswap(d)
    nd = nibswap(d)
    a_words = _quaternion_as(d, t)
    seen: dict[frozenset[int], int] = {}  # code set -> its group
    groups: list[tuple[int, ...]] = []
    # flip is f1 ^ f3 of the variants (f1, f3) = 00, 01, 10, 11; b has seed 0,
    # as its seed-1 twin b + u generates the same code
    bs = _quaternion_bs(d, t, a_words)
    for label, flip, a, b in zip(range(4), (0, 1, 1, 0), a_words, bs):
        if not allowed[flip]:
            rej_had += 1
            continue
        if b is None:
            rej_nob += 1
            continue
        ab = a ^ pairswap(b)
        if (
            d ^ rot4(a) != a ^ pd
            or d ^ rot4(b) != b ^ nd
            or ab ^ pairswap(nibswap(a)) != b
        ):
            rej_rel += 1
            continue
        if not powers_ok:
            rej_had += 1
            continue
        rqa, rqb, rqab = a, b, ab
        ok = True
        for j in range(t):
            base = 4 * j
            pj = powers[j]
            xa = pj ^ rqa
            xb = pj ^ rqb
            xab = pj ^ rqab
            if xb.bit_count() != w or xab.bit_count() != w or xa.bit_count() != w:
                ok = False
                break
            t_tab[base] = pj
            t_tab[base + 1] = xa
            t_tab[base + 2] = xb
            t_tab[base + 3] = xab
            # rot4, written out: this loop is the scan's inner loop
            rqa = (rqa >> 4) | ((rqa & 15) << top)
            rqb = (rqb >> 4) | ((rqb & 15) << top)
            rqab = (rqab >> 4) | ((rqab & 15) << top)
        if not ok:
            rej_had += 1
            continue
        # a variant whose code set was seen before joins that code's group
        code = frozenset(t_tab).union(map(full.__xor__, t_tab))
        k = seen.get(code)
        if k is not None:
            groups[k] += (label,)
            continue
        seen[code] = len(groups)
        groups.append((label,))
        accepted.append((d, a, b))
        if first_only:
            break
    return accepted, rej_nob, rej_rel, rej_had, groups


def _rotated_triples(d: int, a: int, groups, t: int) -> list[tuple[int, int, int]]:
    """The accepted triples of d = rot4^m(d0), in (f1, f3) order, from the
    groups of d0's passing variants (see _quaternion_variants) and a =
    rot4^m(a00(d0)).  rot4^m maps variant k of d0 to variant k ^ s of d,
    where the label shift s is the index of a in families._quaternion_as(d);
    each group keeps its least shifted label, and a and b are d's own."""
    a_words = _quaternion_as(d, t)
    shift = a_words.index(a)
    labels = sorted(min(k ^ shift for k in group) for group in groups)
    a_words = [a_words[k] for k in labels]
    return list(zip(repeat(d), a_words, _quaternion_bs(d, t, a_words)))


def _orbit_walk(tab: _QuaternionTables, lo: int, hi: int):
    """All mode: the accepted triples in [lo, hi), ascending, and
    (survivors, rejected_no_b, rejected_relation, rejected_hadamard), as
    _walk(tab, lo, hi, False, {}) gives them, with one variant check per
    visited rot4 orbit.

    rot4 (pi_d) keeps the strands and commutes with pairswap, nibswap and
    itself.  So it maps the survivors of a left part to those of its
    rotation, which has the same pair signature, and the (f1, f3) solutions
    a, b for d to solutions rot4(a), rot4(b) for rot4(d) (b up to its seed
    twin b + u, which fails or passes every test with b).  Every test a
    variant meets compares weights of words built from d, a and b, and a
    coordinate permutation keeps those, so d's counters are those of every
    word of its orbit.  A rotation keeps both a-weight signatures of d or
    complements one or both, which keeps the set of passing a-weight tests
    or swaps the two, so whether a survivor is visited (lies in a matching
    bucket) is also a property of its orbit.

    The walk visits only the left parts l that are least in their orbit.
    It counts the survivors in range of every distinct rotation of l by
    bisection.  In l's two matching buckets, d = l + r stands for its orbit
    unless a rotation that fixes l (a multiple of l's period) makes r
    smaller; its variants run once, if some word of the orbit is in range,
    and its counters count once for each such word.  The other survivors
    are charged their four variants as rejected.  A word d' = rot4^m(d) of
    an accepted orbit gets its triples by rotation (_rotated_triples): for
    each group of d's passing variants that share one code set, d' keeps
    the least label after the label shift, as _quaternion_variants(d')
    would, and takes its a and b from the derivations of d'.
    """
    t = tab.t
    n = 4 * t
    full = (1 << n) - 1
    rmask, full_a = tab.rmask, tab.full_a

    def rot(x: int, m: int) -> int:  # rot4^m, for 0 <= m <= t
        return (x >> 4 * m) | ((x << (n - 4 * m)) & full)

    accepted: list[tuple[int, int, int]] = []
    survivors = visited = rej_nob = rej_rel = rej_had = 0
    for lv, sig, al, period in tab.least_lefts():
        rights = tab.rights_for(sig)
        turns = [rot(lv, m) for m in range(period)]
        count = 0
        for lr in turns:
            if lr < hi and lr | rmask >= lo:
                count += bisect_left(rights, hi - lr) - bisect_left(rights, lo - lr)
        if not count:
            continue
        survivors += count
        inside = lo <= min(turns) and max(turns) | rmask < hi  # every rotation in range
        match = full_a - al
        by_a = tab.rights_by_a_for(sig)
        visits = [(match, (True, al == match))]
        if al != match:
            visits.append((al, (False, True)))
        for ar, allowed in visits:
            for rv in by_a.get(ar, ()):
                q = period  # grows to the period of d = lv + rv
                while (x := rot(rv, q)) > rv:
                    q += period
                if x < rv:
                    continue
                d = lv + rv
                members = range(q) if inside else [m for m in range(q) if lo <= rot(d, m) < hi]
                if not members:
                    continue
                acc, nob, rel, had, groups = _quaternion_variants(d, t, allowed, False)
                c = len(members)
                visited += c
                rej_nob += c * nob
                rej_rel += c * rel
                rej_had += c * had
                if not acc:
                    continue
                a00 = _quaternion_a00(d, t)
                for m in members:
                    accepted += _rotated_triples(rot(d, m), rot(a00, m), groups, t) if m else acc
    rej_had += 4 * (survivors - visited)
    # stable: the triples of one d keep their (f1, f3) order
    accepted.sort(key=itemgetter(0))
    return accepted, (survivors, rej_nob, rej_rel, rej_had)


def _walk(tab: _QuaternionTables, lo: int, hi: int, first_only: bool, memo: dict[int, int]):
    """First mode's walk over the left parts in [lo, hi): the accepted
    triples in range, ascending, and (survivors, rejected_no_b,
    rejected_relation, rejected_hadamard).  With first_only False it gives
    what _orbit_walk gives, visiting every survivor that a variant could
    pass.

    Per left part (a-weight signature al) only the right parts with signature
    full_a - al (f1 = f3) or al (f1 != f3) are visited; the other survivors
    fail the a-weight test in all 4 variants.  With first_only a d's variants
    stop at its first accept, which lowers hi to d + 1 and replaces the one
    triple kept: the walk ends with the least accepted d.  The walk counts
    once, after the loop, against the final hi: it keeps each left part
    with survivors and each visited d with its packed counters, and a part's
    survivors and a d's counters count only below that hi, as a walk over
    [lo, hi) alone would count them.  The classes are filled only below the
    hi it is called with (rights_for).

    The counters of a visited d depend only on its rot4 orbit (see
    _orbit_walk).  So the first rejected d of an orbit files its counters in
    memo under the orbit's least rotation, packed as nob | rel << 3 |
    had << 6, and the other members visited in the same scan add them
    without running their variants.  An orbit with an accept is never filed:
    each accepted d runs its own variants and keeps its own triples in
    (f1, f3) order.  An orbit walk would have to visit every least left
    part in each window, so first mode keeps this walk.
    """
    t = tab.t
    top = 4 * t - 4  # rot4 moves the low nibble here
    below = hi
    accepted: list[tuple[int, int, int]] = []
    parts: list[tuple[int, tuple[int, ...]]] = []  # (left part, its rights) with survivors
    seen: list[tuple[int, int]] = []  # (visited d, its packed counters)
    lefts = list(tab.lefts(lo, hi))
    for (lv, sig), al in zip(lefts, _a_signatures([lv for lv, _ in lefts], t)):
        rights = tab.rights_for(sig, below)
        rlo = lo - lv
        if bisect_left(rights, hi - lv) == bisect_left(rights, rlo):
            continue
        parts.append((lv, rights))
        match = tab.full_a - al
        by_a = tab.rights_by_a_for(sig, below)
        visits = [(match, (True, al == match))]
        if al != match:
            visits.append((al, (False, True)))
        for ar, allowed in visits:
            bucket = by_a.get(ar, ())
            for rv in bucket[bisect_left(bucket, rlo) : bisect_left(bucket, hi - lv)]:
                d = key = x = lv + rv
                for _ in range(t - 1):
                    x = (x >> 4) | ((x & 15) << top)
                    if x < key:
                        key = x
                acc = None
                packed = memo.get(key)
                if packed is None:
                    acc, nob, rel, had, _ = _quaternion_variants(d, t, allowed, first_only)
                    packed = nob | rel << 3 | had << 6
                    if not acc:
                        memo[key] = packed
                seen.append((d, packed))
                if acc:
                    if first_only:
                        accepted, hi = acc, d + 1
                        break
                    accepted += acc
    survivors = sum(bisect_left(r, hi - lv) - bisect_left(r, lo - lv) for lv, r in parts)
    visited = rej_nob = rej_rel = rej_had = 0
    for d, packed in seen:
        if d < hi:
            visited += 1
            rej_nob += packed & 7
            rej_rel += (packed >> 3) & 7
            rej_had += packed >> 6
    rej_had += 4 * (survivors - visited)
    # stable: the triples of one d keep their (f1, f3) order
    accepted.sort(key=itemgetter(0))
    return accepted, (survivors, rej_nob, rej_rel, rej_had)


def scan_quaternion(
    t: int, lo: int, hi: int, first_only: bool = False
) -> tuple[list[tuple[int, int, int]], tuple[int, int, int, int, int]]:
    lo = max(lo, 0)
    hi = min(hi, 1 << (4 * t))
    if lo >= hi:
        return [], (0, 0, 0, 0, 0)
    tab = _quaternion_tables(t)
    if not first_only:
        accepted, counts = _orbit_walk(tab, lo, hi)
    else:
        # First mode walks [lo, hi) in windows: each is the part from its
        # start on of a block aligned to its own size, so `lefts` walks only
        # the left parts that share the block's high bits, and the classes
        # are filled only below the window's end.  The size doubles from
        # 2^2t, the square root of the word range, which holds tens to
        # hundreds of power survivors for t = 7 to 11.  The window of the
        # first accept d counts up to d + 1 in its one walk.
        size = 1 << (2 * t)
        start = lo
        counts = [0, 0, 0, 0]
        memo: dict[int, int] = {}  # rot4 orbit -> packed counters of its rejected members
        while start < hi:
            end = min((start | (size - 1)) + 1, hi)
            accepted, window = _walk(tab, start, end, True, memo)
            if accepted:
                hi = accepted[0][0] + 1  # counting stops at the first accepted candidate
            counts = [x + y for x, y in zip(counts, window)]
            start, size = end, size << 1
    survivors, rej_nob, rej_rel, rej_had = counts
    examined = _quaternion_rank(hi, t) - _quaternion_rank(lo, t)
    return accepted, (examined, examined - survivors, rej_nob, rej_rel, rej_had)
