"""Shared constants and independent oracles for the test suite.

The oracles here deliberately avoid the library's optimized code paths:
rank by explicit span enumeration, kernel by trying every word of F^n,
search by running the reference constructor on the whole 2^4t space, and the
two-generator and quaternion scans by visiting every candidate with Gosper's
hack.
"""

from __future__ import annotations

from itertools import combinations

from hfpc._scan_py import gosper_next, least_geq_with_weight
from hfpc.families import Reject, assemble, assemble_quaternion_variants
from hfpc.gf2 import BitVector
from hfpc.propelinear import PropelinearElement, star_elem

# Known order-16 circulant complex Hadamard rows and the generators of the
# corresponding length-32 codes, with their (rank, kernel dimension).
ORDER16_ROW_A = "1,1,i,-i,i,1,1,i,-1,1,-i,-i,-i,1,-1,i"
ORDER16_ROW_B = "i,i,i,i,1,i,-i,-1,-i,i,i,-i,-1,i,-i,1"
GENERATOR_A = "00011000111001111011110101000010"
GENERATOR_B = "00000010010101111000111111011010"
PROFILE_A = (11, 2)
PROFILE_B = (13, 1)

# Expected reproduction table: {(family, t): cell}, where a cell is either
# the string "analytic" / "na", or a tuple of (rank, kernel) profiles
# (empty tuple = searched, nothing found).
EXPECTED_CELLS = {
    ("4tu2", 1): ((3, 3),),
    ("2t22u", 1): ((3, 3),),
    ("2t4u", 1): ((3, 3),),
    ("tqu", 1): (),
    ("4tu2", 2): ((4, 4),),
    ("2t22u", 2): "analytic",
    ("2t4u", 2): ((4, 4),),
    ("tqu", 2): "na",
    ("4tu2", 3): "analytic",
    ("2t22u", 3): "analytic",
    ("2t4u", 3): "analytic",
    ("tqu", 3): ((11, 1),),
    ("4tu2", 4): (),
    ("2t22u", 4): ((5, 5), (6, 3)),
    ("2t4u", 4): ((7, 2),),
    ("tqu", 4): "na",
    ("4tu2", 5): "analytic",
    ("2t22u", 5): "analytic",
    ("2t4u", 5): "analytic",
    ("tqu", 5): ((19, 1),),
    ("4tu2", 6): (),
    ("2t22u", 6): "analytic",
    ("2t4u", 6): (),
    ("tqu", 6): "na",
    ("4tu2", 7): "analytic",
    ("2t22u", 7): "analytic",
    ("2t4u", 7): "analytic",
    ("tqu", 7): ((27, 1),),
}


def span_of(values: list[int]) -> set[int]:
    """All GF(2) combinations of the given words."""
    span = {0}
    for v in values:
        span |= {s ^ v for s in span}
    return span


def rank_by_span(vectors) -> int:
    size = len(span_of([v.value for v in vectors]))
    return size.bit_length() - 1


def kernel_all_words(vectors) -> set[int]:
    """K(C) computed from the definition, over every word of F^n (n <= 16)."""
    vals = {v.value for v in vectors}
    n = next(iter(vectors)).n
    assert n <= 16, "exhaustive kernel oracle is for short lengths only"
    return {z for z in range(1 << n) if all(x ^ z in vals for x in vals)}


def iterated_star_power(x: PropelinearElement, i: int) -> BitVector:
    """x^i by i-1 star multiplications, independent of element_power."""
    acc = x
    for _ in range(i - 1):
        acc = star_elem(x, acc)
    return acc.vector


def star_powers(x: PropelinearElement, limit: int) -> list[BitVector]:
    """Vectors of x^1 .. x^order by one star chain, independent of element_power.

    x^i is star_elem(x, x^(i-1)); the chain stops at the first identity
    element, so the list's length is the order of x (at most limit).
    """
    identity = tuple(range(1, x.perm.degree + 1))
    acc = x
    out = []
    for _ in range(limit):
        out.append(acc.vector)
        if acc.vector.value == 0 and acc.perm.images == identity:
            return out
        acc = star_elem(x, acc)
    raise AssertionError("order above limit")


def brute_force_accepted(tag: str, t: int):
    """Accepted candidates and code sets over the whole unfiltered space."""
    n = 4 * t
    out = []
    for raw in range(1 << n):
        v = BitVector(n, raw)
        if tag == "tqu":
            codes, _ = assemble_quaternion_variants(t, v)
            for c in codes:
                out.append((raw, c))
        else:
            c = assemble(tag, t, v)
            if not isinstance(c, Reject):
                out.append((raw, c))
    return out


def rebuild_code(acc):
    """PropelinearCode behind an AcceptedCode search record."""
    from hfpc.families import assemble_quaternion_explicit

    prof = acc.profile
    n = prof.length
    if acc.family == "tqu":
        code = assemble_quaternion_explicit(
            acc.t,
            BitVector.from_string(prof.generator_d),
            BitVector.from_string(prof.generator_a),
            BitVector.from_string(prof.generator_b),
        )
    else:
        code = assemble(acc.family, acc.t, BitVector.from_string(prof.generator_a))
    assert not isinstance(code, Reject)
    assert code.vector_values == acc.vector_values
    return code


def all_weight_w(n: int, w: int) -> list[int]:
    """Every n-bit word of weight w, ascending (independent of Gosper)."""
    out = []
    for support in combinations(range(n), w):
        x = 0
        for p in support:
            x |= 1 << p
        out.append(x)
    return sorted(out)


def _weight_range(lo: int, hi: int, n: int, w: int):
    """The n-bit words of weight w in [lo, hi), ascending."""
    v = least_geq_with_weight(lo, n, w)
    limit = min(hi, 1 << n)
    while v is not None and v < limit:
        yield v
        v = gosper_next(v)


def gosper_scan_two_generator(
    family: int, t: int, lo: int, hi: int, first_only: bool = False
) -> tuple[list[int], tuple[int, int, int]]:
    """The two-generator scan as one Gosper pass over every stream candidate.

    Same signature, counters and accepted order as hfpc._scan_py.scan_two_generator;
    it visits all C(4t, 2t) / 2 candidates and filters each one in turn.
    """
    n = 4 * t
    h = 2 * t
    mh = (1 << h) - 1
    w = 2 * t
    need_odd = 1 if family == 0 else 0
    b_compl = family == 2
    examined = rej_pow = rej_had = 0
    accepted: list[int] = []
    wj = [0] * h  # powers a^0 .. a^(h-1)
    d_tab = [0] * n

    for a in _weight_range(lo, hi, n, w):
        ah_half = a >> h
        if (ah_half.bit_count() & 1) != need_odd:
            continue
        examined += 1

        # companion generator: first half of b is the suffix xor of a + pi_b(a)
        p = ah_half ^ (a & mh)
        k = 1
        while k < h:
            p ^= (p << k) & mh
            k <<= 1
        bh = (p << 1) & mh
        b = (bh << h) | (bh ^ mh if b_compl else bh)

        # incremental powers, rejecting on the first one of wrong weight
        wj[0] = 0
        wj[1] = a
        cur = a
        bad = False
        for j in range(2, h):
            ch = cur >> h
            cl = cur & mh
            ch = (ch >> 1) | ((ch & 1) << (h - 1))
            cl = (cl >> 1) | ((cl & 1) << (h - 1))
            cur = a ^ ((ch << h) | cl)
            if cur.bit_count() != w:
                bad = True
                break
            wj[j] = cur
        if bad:
            rej_pow += 1
            continue

        # full table: a^j and a^j * b, then all pairwise distances must be 2t
        rb = b
        for j in range(h):
            d_tab[j] = wj[j]
            d_tab[h + j] = wj[j] ^ rb
            rh = rb >> h
            rl = rb & mh
            rh = (rh >> 1) | ((rh & 1) << (h - 1))
            rl = (rl >> 1) | ((rl & 1) << (h - 1))
            rb = (rh << h) | rl
        ok = True
        for i in range(n):
            di = d_tab[i]
            for j in range(i + 1, n):
                if (di ^ d_tab[j]).bit_count() != w:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            rej_had += 1
            continue
        accepted.append(a)
        if first_only:
            break
    return accepted, (examined, rej_pow, rej_had)


def gosper_scan_quaternion(
    t: int, lo: int, hi: int, first_only: bool = False
) -> tuple[list[tuple[int, int, int]], tuple[int, int, int, int, int]]:
    """The quaternion scan as one Gosper pass over every stream candidate.

    Same signature, counters and accepted order as hfpc._scan_py.scan_quaternion;
    it visits all C(4t, 2t) weight-2t words, filters each one in turn and
    derives and checks all four (f1, f3) variants of every power survivor.
    """
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
