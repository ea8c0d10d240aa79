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
and only they reach the Hadamard filter.  The examined and power-rejected
counts come from ranking the candidate stream, as if every candidate had
been visited in ascending order.
"""

from __future__ import annotations

from bisect import bisect_left
from math import comb

__all__ = ["scan_two_generator", "scan_quaternion", "gosper_next", "least_geq_with_weight"]


def gosper_next(v: int) -> int:
    """Next integer with the same popcount (Gosper's hack)."""
    c = v & -v
    r = v + c
    return r | (((v ^ r) >> 2) // c)


def least_geq_with_weight(lo: int, n: int, w: int) -> int | None:
    """Smallest x >= lo with exactly w bits among the low n, or None."""
    if lo >= (1 << n):
        return None
    if lo < 0:
        lo = 0
    if lo.bit_count() == w:
        return lo
    for i in range(n):
        if (lo >> i) & 1:
            continue
        prefix = lo >> (i + 1)
        need = w - prefix.bit_count() - 1
        if 0 <= need <= i:
            return (prefix << (i + 1)) | (1 << i) | ((1 << need) - 1)
    return None


def _weight_range(lo: int, hi: int, n: int, w: int):
    v = least_geq_with_weight(lo, n, w)
    limit = min(hi, 1 << n)
    while v is not None and v < limit:
        yield v
        v = gosper_next(v)


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


def scan_quaternion(
    t: int, lo: int, hi: int, first_only: bool = False
) -> tuple[list[tuple[int, int, int]], tuple[int, int, int, int, int]]:
    n = 4 * t
    w = 2 * t
    full = (1 << n) - 1
    m1 = int("1000" * t, 2)
    m2 = m1 >> 1
    m3 = m1 >> 2
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

    examined = rej_pow = rej_nob = rej_rel = rej_had = 0
    accepted: list[tuple[int, int, int]] = []
    powers = [0] * t
    t_tab = [0] * n

    for d in _weight_range(lo, hi, n, w):
        if (d & m1).bit_count() & 1 or (d & m2).bit_count() & 1 or (d & m3).bit_count() & 1:
            continue
        examined += 1

        powers[0] = 0
        if t > 1:
            powers[1] = d
        cur = d
        bad = False
        for j in range(2, t):
            cur = d ^ rot4(cur)
            if cur.bit_count() != w:
                bad = True
                break
            powers[j] = cur
        if bad:
            rej_pow += 1
            continue

        what = d ^ pairswap(d)
        wtil = d ^ nibswap(d)
        seen: set[tuple[int, ...]] = set()
        stop = False
        for f1 in (0, 1):
            for f3 in (0, 1):
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
                    stop = True
                    break
            if stop:
                break
        if stop:
            break
    return accepted, (examined, rej_pow, rej_nob, rej_rel, rej_had)
