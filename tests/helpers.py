"""Shared constants and independent oracles for the test suite.

The oracles here deliberately avoid the library's optimized code paths:
rank by explicit span enumeration, kernel by trying every word of F^n,
minimum distance over every pair, the code of a generator set by closing it
under the star product, search by running the reference constructor on the
whole 2^4t space, the candidate stream and the two-generator and
quaternion scans by visiting every candidate with Gosper's hack, the scans'
Hadamard filters by checking every pair of table words, the Hadamard matrix
check by integer sums of products, the tqu power-survivor count by a
convolution over strand weight signatures, with no join, the size of the
candidate stream by binomial convolution, with no ranking, the generator
derivations of hfpc.families on bit lists, one coordinate at a time, the
two-generator join table from every signature field of one necklace at a
time, the tqu left-part tables one bit at a time, the tqu a-weight
signatures on t-bit strands and one part at a time, the two-generator row-0
filter over every j < 2t, the byte-table action perms.act by a loop over
set bits, the int-word family constructors by the BitVector builder they
replaced, and the CCHM doubling and conversion to a code on a +-1 matrix,
block by block.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from heapq import heappop, heappush, heapreplace
from itertools import combinations
from math import comb, lcm
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from hfpc import _scan_py
from hfpc.cchm import NotCCHM, QuaternaryRow, is_cchm
from hfpc.families import (
    Reject,
    _companion_b,
    _quaternion_a00,
    _strand_masks,
    assemble,
    assemble_quaternion_variants,
    element_perms,
    family_perms,
    family_spec,
)
from hfpc.gf2 import BitVector
from hfpc.hadamard import _values, is_hadamard_matrix
from hfpc.perms import Permutation, compose, has_fixed_point, identity
from hfpc.propelinear import Label, PropelinearCode, PropelinearElement, star, star_elem

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
    ("4tu2", 9): "analytic",
    ("2t22u", 9): "analytic",
    ("2t4u", 9): "analytic",
    ("tqu", 9): ((35, 1),),
    ("4tu2", 10): (),
    ("2t22u", 10): "analytic",
    ("2t4u", 10): (),
    ("tqu", 10): "na",
    ("4tu2", 11): "analytic",
    ("2t22u", 11): "analytic",
    ("2t4u", 11): "analytic",
    ("tqu", 11): ((43, 1),),
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


def translate_kernel(vals) -> list[int]:
    """The members of K(C), 0 in C: every codeword z with C + z = C, each
    tested on every translate (hfpc.hadamard._kernel with no probes)."""
    vset = set(vals)
    return [z for z in vset if vset.issuperset(map(z.__xor__, vset))]


def pairwise_orthogonal_rows(masks, n: int) -> bool:
    """hfpc.hadamard._orthogonal_rows with one popcount per pair i < j."""
    for i, mi in enumerate(masks):
        for mj in masks[i + 1 :]:
            if 2 * (mi ^ mj).bit_count() != n:
                return False
    return True


def full_pairwise_is_hadamard_code(c, t: int) -> bool:
    """hfpc.hadamard.is_hadamard_code comparing all C(8t, 2) pairs of words."""
    n, vals = _values(c)
    if n != 4 * t:
        return False
    full = (1 << n) - 1
    vset = set(vals)
    if len(vset) != 8 * t or len(vals) != len(vset):
        return False
    if 0 not in vset or full not in vset:
        return False
    for v in vset:
        if v ^ full not in vset:
            return False
        if v not in (0, full) and v.bit_count() != 2 * t:
            return False
    ordered = sorted(vset)
    for i, v in enumerate(ordered):
        for w in ordered[i + 1 :]:
            d = (v ^ w).bit_count()
            if d == 2 * t:
                continue
            if d == 4 * t and v ^ w == full:
                continue
            return False
    return True


def integer_is_hadamard_matrix(m: Sequence[Sequence[int]]) -> bool:
    """True iff the +-1 matrix satisfies H H^T = n I, checked over the integers."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")
        if any(x not in (1, -1) for x in row):
            raise ValueError("entries must be +-1")
    for i in range(n):
        for j in range(i + 1, n):
            if sum(a * b for a, b in zip(m[i], m[j])) != 0:
                return False
    return True


_BLOCKS = {
    0: ((1, 1), (1, -1)),
    1: ((1, -1), (-1, -1)),
    2: ((-1, -1), (-1, 1)),
    3: ((-1, 1), (1, 1)),
}


def _real_double(row: QuaternaryRow) -> list[list[int]]:
    """The real doubling of a CCHM row as a 2n x 2n +-1 matrix: entry i^c
    of the circulant becomes the 2x2 block _BLOCKS[c]."""
    c = row.exponents
    n = len(c)
    out = [[0] * (2 * n) for _ in range(2 * n)]
    for j in range(n):
        for l in range(n):
            blk = _BLOCKS[c[(l - j) % n]]
            for bi in (0, 1):
                for bj in (0, 1):
                    out[2 * j + bi][2 * l + bj] = blk[bi][bj]
    return out


def matrix_cchm_to_code(row: QuaternaryRow) -> list[BitVector]:
    """hfpc.cchm.cchm_to_code on the +-1 matrix of _real_double: normalize
    the first row and column to +1, binarize with +1 -> 0, add complements."""
    if not is_cchm(row):
        raise NotCCHM("row fails the circulant complex Hadamard predicate")
    h = _real_double(row)
    n = len(h)
    if not is_hadamard_matrix(h):
        raise NotCCHM("doubled matrix is not Hadamard")
    col_sign = list(h[0])
    h = [[x * col_sign[j] for j, x in enumerate(r)] for r in h]
    h = [[x * r[0] for x in r] for r in h]
    rows = [BitVector.from_bits([0 if x == 1 else 1 for x in r]) for r in h]
    full = BitVector.ones(n)
    out = {v.value: v for v in rows}
    out.update({(v ^ full).value: v ^ full for v in rows})
    return [out[k] for k in sorted(out)]


def quaternion_power_survivor_count(t: int) -> int:
    """Number of tqu stream words that pass the power filter, with no join.

    The stream words are the 4-tuples of even-weight t-bit strands; a word
    survives when the weight signatures (wt S_1, ..., wt S_{t-1}) of its four
    strands add up to 2t in every field (for t = 1, the one field is the
    weight).  N(sig) counts the ordered strand pairs whose signatures add up
    to sig, so the count is the sum of N(sig) N(full - sig) over sig.  Each
    signature is computed from the strand, S_1 = s and S_j = s + rot S_{j-1}.
    """
    mask = (1 << t) - 1
    fields = max(t - 1, 1)

    def signature(s: int) -> tuple[int, ...]:
        out = []
        cur = s
        for _ in range(fields):
            out.append(cur.bit_count())
            cur = s ^ (((cur << 1) | (cur >> (t - 1))) & mask)
        return tuple(out)

    strands = Counter(signature(s) for s in range(1 << t) if s.bit_count() % 2 == 0)
    pairs: Counter = Counter()
    for x, nx in strands.items():
        for y, ny in strands.items():
            pairs[tuple(a + b for a, b in zip(x, y))] += nx * ny
    return sum(
        n * pairs.get(tuple(2 * t - f for f in sig), 0) for sig, n in pairs.items()
    )


def binomial_candidate_count(tag: str, t: int) -> int:
    """Size of the filtered candidate stream by binomial convolution over the
    weights of the two halves (two-generator families) or the four strands
    (tqu), with no ranking."""
    if tag in ("4tu2", "2t22u", "2t4u"):
        want = 1 if tag == "4tu2" else 0
        return sum(
            comb(2 * t, w) * comb(2 * t, 2 * t - w)
            for w in range(2 * t + 1)
            if w % 2 == want
        )
    assert tag == "tqu" and t % 2 == 1
    total = 0
    evens = range(0, t + 1, 2)
    for w1 in evens:
        for w2 in evens:
            for w3 in evens:
                w4 = 2 * t - w1 - w2 - w3
                if 0 <= w4 <= t and w4 % 2 == 0:
                    total += comb(t, w1) * comb(t, w2) * comb(t, w3) * comb(t, w4)
    return total


@lru_cache(maxsize=None)
def recursive_strand_words(p: int, w: int, par: int) -> int:
    """_scan_py._strand_words by recursion over the bit positions, one at a
    time: the top position p - 1 is either clear or set."""
    if w < 0 or w > p:
        return 0
    if p == 0:
        return 1 if par == 0 else 0
    q = p - 1
    return recursive_strand_words(q, w, par) + recursive_strand_words(
        q, w - 1, par ^ (1 << (q & 3))
    )


def min_distance(c) -> int:
    """Exhaustive minimum pairwise distance."""
    _, vals = _values(c)
    vals = sorted(set(vals))
    best = None
    for i, v in enumerate(vals):
        for w in vals[i + 1 :]:
            d = (v ^ w).bit_count()
            if best is None or d < best:
                best = d
    if best is None:
        raise ValueError("need at least two codewords")
    return best


def apply_by_coordinates(p: Permutation, v: BitVector) -> BitVector:
    """pi(v) one coordinate at a time: coordinate i of v moves to pi(i)."""
    bits = [0] * v.n
    for i in range(1, v.n + 1):
        bits[p(i) - 1] = v.bit(i)
    return BitVector.from_bits(bits)


def apply_by_lowest_bit(p: Permutation, v: BitVector) -> BitVector:
    """perms.apply as a loop over the set bits of v, one coordinate each."""
    n = v.n
    if p.degree != n:
        raise ValueError("degree %d != length %d" % (p.degree, n))
    images = p.images
    value = 0
    vv = v.value
    while vv:
        # the lowest set bit is coordinate n - pos; it moves to its image
        low = vv & -vv
        value |= 1 << (n - images[n - low.bit_length()])
        vv ^= low
    return BitVector(n, value)


# ---------------------------------------------------------------------------
# The family constructors on BitVector words and PropelinearElement objects:
# the reference that the int-word constructors of hfpc.families replaced.
# ---------------------------------------------------------------------------


def bitlist_derive_b_from_a(a: BitVector, tag: str, t: int) -> BitVector:
    """families.derive_b_from_a on bit lists: the first half of b is the
    running suffix sum of ahat = a + pi_b(a), one coordinate at a time."""
    spec = family_spec(tag, t)
    if spec.b_square_is_u is None:
        raise ValueError("family %r has no derived generator b" % tag)
    if a.n != spec.length:
        raise ValueError("candidate length %d != %d" % (a.n, spec.length))
    perms = family_perms(tag, t)
    ahat = a ^ apply_by_lowest_bit(perms["b"], a)
    ah = ahat.bits()[: 2 * t]
    first = [0] * (2 * t)
    for i in range(2 * t - 1, 0, -1):  # b_i = b_{i+1} + ahat_{i+1}, 1-based
        first[i - 1] = first[i] ^ ah[i]
    if spec.b_square_is_u:
        second = [x ^ 1 for x in first]
    else:
        second = list(first)
    return BitVector.from_bits(first + second)


def bitlist_derive_a_from_d(d: BitVector, free_bits: tuple[int, int], t: int) -> BitVector:
    """families.derive_a_from_d on bit lists: the first and third coordinate
    of every 4-block telescoped from the free bits, block by block."""
    spec = family_spec("tqu", t)
    if d.n != spec.length:
        raise ValueError("candidate length %d != %d" % (d.n, spec.length))
    perms = family_perms("tqu", t)
    what = (d ^ apply_by_lowest_bit(perms["a"], d)).bits()
    f1, f3 = free_bits
    pre1 = pre3 = 0
    bits = [0] * (4 * t)
    for i in range(1, t + 1):
        pre1 ^= what[4 * i - 4]  # what_{4i-3}
        pre3 ^= what[4 * i - 2]  # what_{4i-1}
        a1 = f1 ^ pre1
        a3 = f3 ^ pre3
        bits[4 * i - 4 : 4 * i] = [a1, a1 ^ 1, a3, a3 ^ 1]
    if pre1 or pre3:
        raise ValueError("derivation inconsistent: d^t != e")
    return BitVector.from_bits(bits)


def bitlist_derive_b_from_a_quaternion(
    a: BitVector, d: BitVector, free_bit: int, t: int
) -> BitVector | None:
    """families.derive_b_from_a_quaternion on bit lists: the first two
    coordinates of every 4-block propagated from the seed, block by block,
    against the case rule b_{4i-3} + b_{4i-2} = 1 + a_{4i-3} + a_{4i-1}."""
    spec = family_spec("tqu", t)
    if a.n != spec.length or d.n != spec.length:
        raise ValueError("length mismatch")
    perms = family_perms("tqu", t)
    wtil = (d ^ apply_by_lowest_bit(perms["b"], d)).bits()
    ab = a.bits()
    seed1 = free_bit & 1
    seed2 = seed1 ^ 1 ^ ab[4 * t - 4] ^ ab[4 * t - 2]
    pre1 = pre2 = 0
    bits = [0] * (4 * t)
    for i in range(1, t + 1):
        pre1 ^= wtil[4 * i - 4]  # wtil_{4i-3}
        pre2 ^= wtil[4 * i - 3]  # wtil_{4i-2}
        b1 = seed1 ^ pre1
        b2 = seed2 ^ pre2
        if b1 ^ b2 != 1 ^ ab[4 * i - 4] ^ ab[4 * i - 2]:
            return None
        bits[4 * i - 4 : 4 * i] = [b1, b2, b1 ^ 1, b2 ^ 1]
    return BitVector.from_bits(bits)


def _bitvector_cyclic_powers(
    gen: BitVector, perm: Permutation, order: int, weight: int
) -> tuple[list[BitVector], BitVector] | Reject:
    """Vectors gen^0 .. gen^{order-1} plus the endpoint gen^order.

    Powers are produced one at a time and the run aborts on the first power
    of wrong weight, which is where almost all candidates die.
    """
    n = gen.n
    powers = [BitVector.zero(n)]
    cur = gen
    for j in range(1, order):
        if cur.weight() != weight:
            return Reject("power", "weight(g^%d) != %d" % (j, weight))
        powers.append(cur)
        cur = gen ^ apply_by_lowest_bit(perm, cur)
    return powers, cur


def _bitvector_finish_code(
    tag: str,
    t: int,
    elements: list[PropelinearElement],
    generators: dict[str, PropelinearElement],
) -> PropelinearCode | Reject:
    n = 4 * t
    full = (1 << n) - 1
    values = [e.vector.value for e in elements]
    if len(set(values)) != len(values):
        return Reject("distinct", "duplicate vectors in the element table")
    # elements carry the element_perms permutations, in that order
    for e in elements:
        if e.vector.value in (0, full):
            if e.perm != identity(n):
                return Reject("full_propelinear", "e or u with nontrivial permutation")
        elif has_fixed_point(e.perm):
            return Reject("full_propelinear", "fixed point at %s" % e.vector)
    code = PropelinearCode(tag, t, tuple(elements), generators)
    if not full_pairwise_is_hadamard_code(code.vectors(), t):
        return Reject("hadamard", "distance profile is not 2t/4t")
    return code


def _bitvector_two_generator(tag: str, t: int, a: BitVector) -> PropelinearCode | Reject:
    spec = family_spec(tag, t)
    n = spec.length
    if a.n != n:
        raise ValueError("candidate length %d != %d" % (a.n, n))
    if a.weight() != 2 * t:
        return Reject("weight", "weight(a) != 2t")
    perms = family_perms(tag, t)
    pa, pb = perms["a"], perms["b"]
    got = _bitvector_cyclic_powers(a, pa, 2 * t, 2 * t)
    if isinstance(got, Reject):
        return got
    powers, endpoint = got
    u = BitVector.ones(n)
    target = u if spec.cyclic_power_is_u else BitVector.zero(n)
    if endpoint != target:
        return Reject("order", "a^2t != %s" % ("u" if spec.cyclic_power_is_u else "e"))
    b = bitlist_derive_b_from_a(a, tag, t)
    if a ^ apply_by_lowest_bit(pa, b) != b ^ apply_by_lowest_bit(pb, a):
        return Reject("relation", "ab != ba")
    bsq = b ^ apply_by_lowest_bit(pb, b)
    if bsq != (u if spec.b_square_is_u else BitVector.zero(n)):
        return Reject("relation", "b^2 has the wrong value")

    table = element_perms(tag, t)
    elements = []
    rb = b
    for j in range(2 * t):
        wj = powers[j]
        for k, l in ((0, 0), (0, 1), (1, 0), (1, 1)):
            vec = wj if k == 0 else wj ^ rb
            if l:
                vec = vec ^ u
            elements.append(
                PropelinearElement(vec, table[len(elements)], (j, k, l))
            )
        rb = apply_by_lowest_bit(pa, rb)
    e0 = BitVector.zero(n)
    gens = {
        "a": PropelinearElement(a, pa, (1, 0, 0)),
        "b": PropelinearElement(b, pb, (0, 1, 0)),
        "u": PropelinearElement(u, identity(n), (0, 0, 1)),
        "e": PropelinearElement(e0, identity(n), (0, 0, 0)),
    }
    return _bitvector_finish_code(tag, t, elements, gens)


def _bitvector_cyclic(t: int, a: BitVector) -> PropelinearCode | Reject:
    n = 4 * t
    if a.n != n:
        raise ValueError("candidate length %d != %d" % (a.n, n))
    if a.weight() != 2 * t:
        return Reject("weight", "weight(a) != 2t")
    pa = family_perms("cyclic4tu", t)["a"]
    got = _bitvector_cyclic_powers(a, pa, 4 * t, 2 * t)
    if isinstance(got, Reject):
        return got
    powers, endpoint = got
    if endpoint.value != 0:
        return Reject("order", "a^4t != e")
    u = BitVector.ones(n)
    table = element_perms("cyclic4tu", t)
    elements = []
    for j in range(4 * t):
        elements.append(PropelinearElement(powers[j], table[2 * j], (j, 0, 0)))
        elements.append(PropelinearElement(powers[j] ^ u, table[2 * j + 1], (j, 0, 1)))
    gens = {
        "a": PropelinearElement(a, pa, (1, 0, 0)),
        "u": PropelinearElement(u, identity(n), (0, 0, 1)),
    }
    return _bitvector_finish_code("cyclic4tu", t, elements, gens)


def _bitvector_quaternion_code(
    t: int, d: BitVector, a: BitVector, b: BitVector, powers: list[BitVector]
) -> PropelinearCode | Reject:
    n = 4 * t
    perms = family_perms("tqu", t)
    pd, pa, pb = perms["d"], perms["a"], perms["b"]
    u = BitVector.ones(n)
    if a ^ apply_by_lowest_bit(pa, a) != u:
        return Reject("relation", "a^2 != u")
    if b ^ apply_by_lowest_bit(pb, b) != u:
        return Reject("relation", "b^2 != u")
    if d ^ apply_by_lowest_bit(pd, a) != a ^ apply_by_lowest_bit(pa, d):
        return Reject("relation", "da != ad")
    if d ^ apply_by_lowest_bit(pd, b) != b ^ apply_by_lowest_bit(pb, d):
        return Reject("relation", "db != bd")
    ab = a ^ apply_by_lowest_bit(pa, b)
    pab = compose(pa, pb)
    if ab ^ apply_by_lowest_bit(pab, a) != b:
        return Reject("relation", "aba != b")

    table = element_perms("tqu", t)
    q_vecs = (BitVector.zero(n), b, a, ab)  # e, b, a, ab; pi_d^j applied below
    elements = []
    for j in range(t):
        for k in range(4):
            for l in (0, 1):
                vec = powers[j] ^ q_vecs[2 * (k % 2) + l]
                if k >= 2:
                    vec = vec ^ u
                elements.append(
                    PropelinearElement(vec, table[len(elements)], (j, k, l))
                )
        q_vecs = tuple(apply_by_lowest_bit(pd, v) for v in q_vecs)
    gens = {
        "d": PropelinearElement(d, pd, (1, 0, 0)),
        "a": PropelinearElement(a, pa, (0, 1, 0)),
        "b": PropelinearElement(b, pb, (0, 0, 1)),
        "u": PropelinearElement(u, identity(n), (0, 2, 0)),
    }
    return _bitvector_finish_code("tqu", t, elements, gens)


def bitvector_assemble_quaternion_variants(
    t: int, d: BitVector
) -> tuple[list[PropelinearCode], Reject | None]:
    """All distinct codes over the free choices left by the derivations.

    Two a free bits and one b seed give eight variants per d; variants with
    identical codeword sets are collapsed (the b seeds always pair up as b and
    bu).  Returns the distinct accepted codes plus the first rejection seen.
    """
    spec = family_spec("tqu", t)
    n = spec.length
    if d.n != n:
        raise ValueError("candidate length %d != %d" % (d.n, n))
    first_reject: Reject | None = None

    def note(rej: Reject) -> None:
        nonlocal first_reject
        if first_reject is None:
            first_reject = rej

    if d.weight() != 2 * t:
        rej = Reject("weight", "weight(d) != 2t")
        return [], rej
    pd = family_perms("tqu", t)["d"]
    got = _bitvector_cyclic_powers(d, pd, t, 2 * t)
    if isinstance(got, Reject):
        return [], got
    powers, endpoint = got
    if endpoint.value != 0:
        return [], Reject("order", "d^t != e")

    accepted: list[PropelinearCode] = []
    seen_sets: set[frozenset[int]] = set()
    for f1 in (0, 1):
        for f3 in (0, 1):
            a = bitlist_derive_a_from_d(d, (f1, f3), t)
            for seed in (0, 1):
                b = bitlist_derive_b_from_a_quaternion(a, d, seed, t)
                if b is None:
                    note(Reject("no_b", "case table contradicts propagation"))
                    continue
                result = _bitvector_quaternion_code(t, d, a, b, powers)
                if isinstance(result, Reject):
                    note(result)
                    continue
                key = result.vector_values
                if key in seen_sets:
                    continue
                seen_sets.add(key)
                accepted.append(result)
    return accepted, first_reject


def bitvector_assemble_quaternion_explicit(
    t: int, d: BitVector, a: BitVector, b: BitVector
) -> PropelinearCode | Reject:
    """Quaternion-family code from explicitly given generators."""
    spec = family_spec("tqu", t)
    if d.n != spec.length or a.n != spec.length or b.n != spec.length:
        raise ValueError("length mismatch")
    if d.weight() != 2 * t:
        return Reject("weight", "weight(d) != 2t")
    pd = family_perms("tqu", t)["d"]
    got = _bitvector_cyclic_powers(d, pd, t, 2 * t)
    if isinstance(got, Reject):
        return got
    powers, endpoint = got
    if endpoint.value != 0:
        return Reject("order", "d^t != e")
    return _bitvector_quaternion_code(t, d, a, b, powers)


def bitvector_assemble(tag: str, t: int, candidate: BitVector) -> PropelinearCode | Reject:
    """hfpc.families.assemble on BitVector words and PropelinearElement
    objects, with the set-bit loop of apply_by_lowest_bit for the action and
    every pair of words compared by the Hadamard check."""
    if tag in ("4tu2", "2t22u", "2t4u"):
        return _bitvector_two_generator(tag, t, candidate)
    if tag == "cyclic4tu":
        return _bitvector_cyclic(t, candidate)
    if tag == "tqu":
        codes, rej = bitvector_assemble_quaternion_variants(t, candidate)
        if codes:
            return codes[0]
        return rej if rej is not None else Reject("no_b", "no variant assembled")
    raise ValueError("unknown family tag %r" % tag)


# ---------------------------------------------------------------------------
# Group closure: the code generated by a set of elements, by breadth-first
# search under the star product, with the exponent labels of the family
# presentations carried along.
#
# Families '4tu2', '2t22u', '2t4u', 'cyclic4tu' read (j, k, l) as a^j b^k u^l.
# Family 'tqu' reads (j, k, l) as d^j a^k b^l with k mod 4 and u = a^2.
# ---------------------------------------------------------------------------

LabelRule = Callable[[Label, Label], Label]


class SizeMismatch(Exception):
    """Group closure did not reach exactly the expected size."""


class VectorCollision(Exception):
    """Two group elements with different permutations share a vector."""


def label_product(tag: str, t: int, x: Label, y: Label) -> Label:
    j1, k1, l1 = x
    j2, k2, l2 = y
    if tag == "4tu2":
        s = j1 + j2
        return (s % (2 * t), k1 ^ k2, (l1 + l2 + s // (2 * t)) % 2)
    if tag == "2t22u":
        return ((j1 + j2) % (2 * t), k1 ^ k2, l1 ^ l2)
    if tag == "2t4u":
        return ((j1 + j2) % (2 * t), k1 ^ k2, l1 ^ l2 ^ (k1 & k2))
    if tag == "tqu":
        k = k1 + (k2 if l1 == 0 else -k2) + 2 * (l1 & l2)
        return ((j1 + j2) % t, k % 4, l1 ^ l2)
    if tag == "cyclic4tu":
        return ((j1 + j2) % (4 * t), 0, l1 ^ l2)
    raise ValueError("unknown family tag %r" % tag)


def labelled_star(
    x: PropelinearElement, y: PropelinearElement, label_rule: LabelRule | None
) -> PropelinearElement:
    """star_elem, with the product label from label_rule when both have one."""
    z = star_elem(x, y)
    if label_rule is None or x.label is None or y.label is None:
        return z
    return PropelinearElement(z.vector, z.perm, label_rule(x.label, y.label))


def generate_group(
    generators: Sequence[PropelinearElement],
    expected_size: int,
    family: str | None = None,
    t: int | None = None,
    label_rule: LabelRule | None = None,
) -> PropelinearCode:
    """Breadth-first closure of the generators under the star product.

    The closure is keyed by vector: reaching a known vector with a different
    permutation raises VectorCollision (the candidate is degenerate), and a
    closure whose size is not exactly expected_size raises SizeMismatch.
    Work is capped at expected_size so runaway closures fail fast.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].vector.n
    if any(g.vector.n != n for g in generators):
        raise ValueError("generators must share degree")
    if t is None:
        t = n // 4
    if family is not None and label_rule is None:
        label_rule = lambda x, y: label_product(family, t, x, y)

    e = PropelinearElement(
        BitVector.zero(n), identity(n), (0, 0, 0) if label_rule else None
    )
    seen: dict[int, PropelinearElement] = {e.vector.value: e}
    order: list[PropelinearElement] = [e]
    frontier = [e]
    while frontier:
        nxt: list[PropelinearElement] = []
        for x in frontier:
            for g in generators:
                z = labelled_star(x, g, label_rule)
                prev = seen.get(z.vector.value)
                if prev is not None:
                    if prev.perm != z.perm:
                        raise VectorCollision(
                            "vector %s carries two permutations" % z.vector
                        )
                    continue
                if len(order) == expected_size:
                    raise SizeMismatch(
                        "closure exceeds expected size %d" % expected_size
                    )
                seen[z.vector.value] = z
                order.append(z)
                nxt.append(z)
        frontier = nxt
    if len(order) != expected_size:
        raise SizeMismatch(
            "closure has %d elements, expected %d" % (len(order), expected_size)
        )
    gen_map = {("g%d" % i): g for i, g in enumerate(generators)}
    return PropelinearCode(family, t, tuple(order), gen_map)


def iterated_star_power(x: PropelinearElement, i: int) -> BitVector:
    """x^i by i-1 star multiplications, independent of element_power."""
    acc = x
    for _ in range(i - 1):
        acc = star_elem(x, acc)
    return acc.vector


def star_powers(x: PropelinearElement, limit: int) -> list[BitVector]:
    """Vectors of x^1 .. x^order by one star chain, independent of element_power.

    The vector of x^i is star(x, x^(i-1)).  x^i is the identity when its
    vector is 0 and i is a multiple of the order of pi_x, the lcm of its
    cycle lengths, found once; the list's length is the order of x (at most
    limit).
    """
    perm_order = lcm(*map(len, x.perm.cycles()))
    acc = x.vector
    out = []
    for i in range(1, limit + 1):
        out.append(acc)
        if acc.value == 0 and i % perm_order == 0:
            return out
        acc = star(x, acc)
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


def candidate_stream(tag: str, t: int) -> Iterator[BitVector]:
    """Filtered candidates in ascending lexicographic order, one Gosper pass."""
    n = 4 * t
    w = 2 * t
    if tag in ("4tu2", "2t22u", "2t4u"):
        need = 1 if tag == "4tu2" else 0
        half = 2 * t

        def keep(v: int) -> bool:
            return ((v >> half).bit_count() & 1) == need

    elif tag == "tqu":
        if t % 2 == 0:
            raise ValueError("quaternion family requires odd t")
        m1 = int("1000" * t, 2)
        m2, m3 = m1 >> 1, m1 >> 2

        def keep(v: int) -> bool:
            return (
                (v & m1).bit_count() & 1
                or (v & m2).bit_count() & 1
                or (v & m3).bit_count() & 1
            ) == 0

    else:
        raise ValueError("no candidate stream for family %r" % tag)
    for v in _weight_range(0, 1 << n, n, w):
        if keep(v):
            yield BitVector(n, v)


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


def _signature(x: int, h: int) -> int:
    """wt S_1(x) .. wt S_{h-1}(x) of an h-bit half-word, packed, S_1 lowest."""
    sig = 0
    cur = x
    for j in range(h - 1):
        sig |= cur.bit_count() << (_scan_py._FIELD * j)
        cur = x ^ ((cur >> 1) | ((cur & 1) << (h - 1)))
    return sig


def necklace_join_table(h: int):
    """The two-generator join table (tops, partners, turns), one necklace at
    a time: each necklace's signature has every field wt S_1 .. wt S_{h-1},
    computed word by word, with no mirror identity and no bulk keys."""
    mask = (1 << h) - 1
    by_sig: dict[int, list[int]] = {}
    for rep in _scan_py._necklaces(h):
        by_sig.setdefault(_signature(rep, h), []).append(rep)

    def rotations(reps: list[int]) -> dict[int, int]:
        return {((r << k) | (r >> (h - k))) & mask: k for r in reps for k in range(h)}

    full = sum(h << (_scan_py._FIELD * j) for j in range(h - 1))
    rows = []
    for sig, reps in by_sig.items():
        partners = by_sig.get(full - sig)
        if partners:
            lows = tuple(sorted(rotations(partners)))
            rows.extend((top, lows, k) for top, k in rotations(reps).items())
    rows.sort()
    return tuple(tuple(map(itemgetter(i), rows)) for i in range(3))


def _gather(x: int, k: int, stride: int) -> int:
    """Bits 0, stride, 2 stride, ... of x, k of them, as a k-bit word."""
    s = 0
    for i in range(k):
        s |= ((x >> (stride * i)) & 1) << i
    return s


def gathered_left_tables(t: int):
    """(spread, low_values, low_by_parity, high) of the tqu tables for t,
    built one bit at a time: each strand digit by _gather, each spread word
    as a sum over its bits."""
    spread = [sum(((s >> k) & 1) << (4 * k) for k in range(t)) for s in range(1 << t)]

    def left_value(s3: int, s2: int) -> int:
        return (spread[s3] << 3) | (spread[s2] << 2)

    def parities(s3: int, s2: int) -> int:
        return (s3.bit_count() & 1) << 1 | (s2.bit_count() & 1)

    tl = t // 2
    low_values = []
    low_by_parity: list[list[tuple[int, int, int, int]]] = [[], [], [], []]
    for ml in range(1 << (2 * tl)):
        s3, s2 = _gather(ml >> 1, tl, 2), _gather(ml, tl, 2)
        low_values.append(left_value(s3, s2))
        low_by_parity[parities(s3, s2)].append((ml, s3, s2, left_value(s3, s2)))
    high = []
    for mh in range(1 << (2 * (t - tl))):
        s3 = _gather(mh >> 1, t - tl, 2) << tl
        s2 = _gather(mh, t - tl, 2) << tl
        high.append((s3, s2, left_value(s3, s2), parities(s3, s2)))
    return spread, low_values, low_by_parity, high


@lru_cache(maxsize=None)
def _unspread(t: int) -> dict[int, int]:
    """Strand 0 of a 4t-bit word -> its t bits, bit 4k -> bit k."""
    return {sum(((s >> k) & 1) << (4 * k) for k in range(t)): s for s in range(1 << t)}


def strand_a_signature(t: int, part: int) -> int:
    """The a-weight signature of _scan_py._a_signatures on the two t-bit
    strands of the part.

    wt(S_j(sx) + rot^j ax) + wt(S_j(sy) + rot^j ay), j = 1 .. t-1, packed:
    (sx, sy) are the two strands of one part of d, high strand first, and
    (ax, ay) the same strands of a with free bit 0, ax the suffix xor of
    sx + sy and ay its complement.
    """
    mask = (1 << t) - 1
    unspread = _unspread(t)
    low = (part | part >> 2) & int("0011" * t, 2)  # a left part moved right
    s0 = int("0001" * t, 2)
    sx = unspread[(low >> 1) & s0]
    sy = unspread[low & s0]
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
        sig |= ((cx ^ ax).bit_count() + (cy ^ ay).bit_count()) << (_scan_py._FIELD * j)
        cx = sx ^ ((cx >> 1) | ((cx & 1) << (t - 1)))
        cy = sy ^ ((cy >> 1) | ((cy & 1) << (t - 1)))
    return sig


def per_part_a_signature(t: int, part: int) -> int:
    """The a-weight signature of one part, one part at a time: the body that
    _scan_py._a_signatures computes in bulk, on the part word moved to
    strands 1 and 0, where (ax, ay) are strands 1 and 0 of
    families._quaternion_a00 and rot4 rotates both strands at once."""
    _, _, s1, s0 = _strand_masks(t)
    top = 4 * t - 4
    low = (part | part >> 2) & (s1 | s0)  # a left part moved right
    a = _quaternion_a00(low, t) & (s1 | s0)  # (ax, ay) on strands 1 and 0
    sig = 0
    cur = low
    for j in range(t - 1):
        a = (a >> 4) | ((a & 15) << top)
        sig |= (cur ^ a).bit_count() << (_scan_py._FIELD * j)
        cur = low ^ ((cur >> 4) | ((cur & 15) << top))
    return sig


def _power_survivors(h: int, need_odd: int, lo: int, hi: int):
    """Stream candidates in [lo, hi) that pass the power filter, ascending,
    read one at a time from the kernel's join table."""
    tops, partners, _ = _scan_py._join_table(h)
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


def survivor_scan_two_generator(
    family: int, t: int, lo: int, hi: int, first_only: bool = False
) -> tuple[list[int], tuple[int, int, int]]:
    """The two-generator scan as one pass over every power survivor.

    This was the kernel before it counted survivors by bisection and checked
    one top per necklace; it stays as an oracle for both.  Same signature,
    counters and accepted order as hfpc._scan_py.scan_two_generator; every
    survivor in range, in ascending order, meets the kernel's _is_hadamard.
    """
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
        if _scan_py._is_hadamard(a, h, b_compl):
            accepted.append(a)
            if first_only:
                hi = a + 1  # counting stops at the first accepted candidate
                break
    examined = _scan_py._rank(hi, h, need_odd) - _scan_py._rank(lo, h, need_odd)
    return accepted, (examined, examined - survivors, survivors - len(accepted))


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


# The scan filters as they were before row 0 went first: each builds its
# whole table and checks every pair, and the quaternion scan merges every
# power survivor in stream order.


def full_table_is_hadamard(a: int, h: int, b_compl: bool) -> bool:
    """The two-generator Hadamard filter with no row-0 exit.

    Builds the companion generator b and the whole table of words a^j and
    a^j * b, then checks that they are pairwise at distance 2t; the verdict
    hfpc._scan_py._is_hadamard must give on every power survivor a.
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


def full_row0_is_hadamard(a: int, h: int, b_compl: bool) -> bool:
    """The two-generator row-0 filter over every j < 2t: wt(a^j + rot^j b) =
    2t, checked as a^j and rot^j b are built.  hfpc._scan_py._is_hadamard
    stops at j = t by the mirror argument and must give the same verdict on
    every power survivor a."""
    mh = (1 << h) - 1
    b = _companion_b(a, h // 2, b_compl)
    keep = ((mh >> 1) << h) | (mh >> 1)  # the bits that stay in their half
    ends = (1 << h) | 1
    cur = 0
    rb = b
    for _ in range(h):
        if (cur ^ rb).bit_count() != h:
            return False
        cur = a ^ (((cur >> 1) & keep) | ((cur & ends) << (h - 1)))
        rb = ((rb >> 1) & keep) | ((rb & ends) << (h - 1))
    return True


def full_check_quaternion_variants(
    d: int, t: int, allowed: tuple[bool, bool], first_only: bool
) -> tuple[list[tuple[int, int, int]], int, int, int, list[tuple[int, ...]]]:
    """The quaternion variant check with no b/ab row-0 exit.

    Derives a and b bit by bit and checks the whole table pairwise; the
    result hfpc._scan_py._quaternion_variants must give.

    allowed[f1 ^ f3] says whether the a-weight test lets the variant through;
    a variant it stops fails row 0 of the pairwise Hadamard check and is
    counted as rejected there.  The others derive a and b, check the
    relations, the pairwise Hadamard condition and the code-set dedup.
    Returns (accepted triples, rejected_no_b, rejected_relation,
    rejected_hadamard, groups), groups[k] the labels 2 f1 + f3 of the
    passing variants checked whose code set is that of accepted[k].
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
    seen: dict[tuple[int, ...], int] = {}  # code set -> its group
    groups: list[tuple[int, ...]] = []
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
                groups[seen[sig]] += (2 * f1 + f3,)
                continue
            seen[sig] = len(groups)
            groups.append((2 * f1 + f3,))
            accepted.append((d, a, b))
            if first_only:
                return accepted, rej_nob, rej_rel, rej_had, groups
    return accepted, rej_nob, rej_rel, rej_had, groups


# t -> {part in place: a-weight signature}, for heap_scan_quaternion, which
# asks for the same right part under many left parts and in many calls
_A_SIGS: dict[int, dict[int, int]] = {}


def heap_scan_quaternion(
    t: int, lo: int, hi: int, first_only: bool = False
) -> tuple[list[tuple[int, int, int]], tuple[int, int, int, int, int]]:
    """The quaternion scan as one stream-order merge over every power survivor.

    This merge was the kernel's first mode before first mode became the
    all-mode walk on doubling windows; it stays as an oracle for both.  Same
    signature, counters and accepted order as hfpc._scan_py.scan_quaternion
    in both modes; it visits every survivor, a-weight match or not, and checks
    the matches with full_check_quaternion_variants.
    """
    lo = max(lo, 0)
    hi = min(hi, 1 << (4 * t))
    if lo >= hi:
        return [], (0, 0, 0, 0, 0)
    tab = _scan_py._quaternion_tables(t)
    full_a = tab.full_a
    a_sigs = _A_SIGS.setdefault(t, {})
    accepted: list[tuple[int, int, int]] = []
    survivors = rej_nob = rej_rel = rej_had = 0
    # k-way merge of the left parts' streams d = left + right, ascending:
    # a left part joins the heap once no word below it is left there
    heap: list[tuple[int, int, int, tuple[int, ...], int]] = []
    lefts = tab.lefts(lo, hi)
    nxt = next(lefts, None)
    while True:
        while nxt is not None and (not heap or nxt[0] < heap[0][0]):
            lv, sig = nxt
            rights = tab.rights_for(sig)
            pos = bisect_left(rights, lo - lv)
            if pos < len(rights) and lv + rights[pos] < hi:
                al = a_sigs.get(lv)
                if al is None:
                    al = a_sigs[lv] = per_part_a_signature(t, lv)
                heappush(heap, (lv + rights[pos], pos, lv, rights, al))
            nxt = next(lefts, None)
        if not heap:
            break
        d, pos, lv, rights, al = heap[0]
        survivors += 1
        rv = d - lv
        ar = a_sigs.get(rv)
        if ar is None:
            ar = a_sigs[rv] = per_part_a_signature(t, rv)
        allowed = (al + ar == full_a, al == ar)
        if allowed[0] or allowed[1]:
            acc, nob, rel, had, _ = full_check_quaternion_variants(d, t, allowed, first_only)
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
    examined = _scan_py._quaternion_rank(hi, t) - _scan_py._quaternion_rank(lo, t)
    return accepted, (examined, examined - survivors, rej_nob, rej_rel, rej_had)
