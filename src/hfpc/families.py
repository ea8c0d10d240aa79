"""Constructors for the code families with associated group C_2t x C_2.

Family tags and presentations (u is the all-one word, central of order 2):

  4tu2      <a, b | a^4t = b^2 = e, a^2t = u>          (C_4t x C_2)
  2t22u     <a, b, u | a^2t = b^2 = e>                 (C_2t x C_2 x C_2)
  2t4u      <a, b | a^2t = e, b^2 = u>                 (C_2t x C_4)
  tqu       <d, a, b | d^t = e, a^2 = b^2 = u, aba = b>, t odd  (C_t x Q)
  cyclic4tu <a, u | a^4t = e> with a single 4t-cycle   (circulant codes,
            consumed by Sylvester doubling only)

The abelian families share pi_a = (1..2t)(2t+1..4t) and pi_b = (1,2t+1)...(2t,4t).
Commutation ab = ba pins b to a suffix-sum of a + pi_b(a) up to one free bit,
which is fixed to 0 here: the alternative differs by u and generates the same
code.  For the quaternion family, d determines a up to two free bits and a
determines b up to one seed bit resolved by propagating db = bd block by block;
the seed is fixed to 0 in the same way, since seed 1 gives b + u and the same
code, so every d has four variants, one per pair of free bits of a.

The derivations are written once, on int words; the constructors, derive_*
and both Hadamard filters of the scan call them, and the constructors still
check every relation on the permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .gf2 import BitVector
from .hadamard import code_is_hadamard
from .perms import Permutation, act, compose, from_cycles, has_fixed_point, identity
from .propelinear import Label, PropelinearCode

__all__ = [
    "FAMILY_TAGS",
    "SEARCH_TAGS",
    "FamilySpec",
    "Reject",
    "family_spec",
    "family_perms",
    "element_perms",
    "element_labels",
    "derive_b_from_a",
    "derive_a_from_d",
    "derive_b_from_a_quaternion",
    "assemble",
    "assemble_quaternion_variants",
    "assemble_quaternion_explicit",
]

FAMILY_TAGS = ("4tu2", "2t22u", "2t4u", "tqu", "cyclic4tu")
SEARCH_TAGS = ("4tu2", "2t22u", "2t4u", "tqu")


@dataclass(frozen=True)
class Reject:
    """A candidate that failed assembly; reason names the first failed predicate."""

    reason: str
    detail: str = ""

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class FamilySpec:
    tag: str
    t: int
    length: int
    # a^2t = u (else e) for the two-generator families
    cyclic_power_is_u: bool
    b_square_is_u: bool | None


def family_spec(tag: str, t: int) -> FamilySpec:
    if tag not in FAMILY_TAGS:
        raise ValueError("unknown family tag %r" % tag)
    if t < 1:
        raise ValueError("t must be positive")
    if tag == "tqu" and t % 2 == 0:
        raise ValueError("quaternion family requires odd t")
    n = 4 * t
    if tag == "4tu2":
        return FamilySpec(tag, t, n, True, False)
    if tag == "2t22u":
        return FamilySpec(tag, t, n, False, False)
    if tag == "2t4u":
        return FamilySpec(tag, t, n, False, True)
    if tag == "tqu":
        return FamilySpec(tag, t, n, False, True)
    return FamilySpec(tag, t, n, False, None)  # cyclic4tu


def family_perms(tag: str, t: int) -> dict[str, Permutation]:
    """The fixed generator permutations of each presentation.

    The permutations are built once per (tag, t); every call returns a fresh
    dict, so a caller that changes it cannot change the memoised ones.
    """
    return dict(_generator_perms(tag, t))


@cache
def _generator_perms(tag: str, t: int) -> tuple[tuple[str, Permutation], ...]:
    family_spec(tag, t)  # validates tag / parity
    n = 4 * t
    if tag in ("4tu2", "2t22u", "2t4u"):
        pa = from_cycles(
            n,
            [tuple(range(1, 2 * t + 1)), tuple(range(2 * t + 1, 4 * t + 1))],
        )
        pb = from_cycles(n, [(i, i + 2 * t) for i in range(1, 2 * t + 1)])
        return (("a", pa), ("b", pb))
    if tag == "tqu":
        pd = from_cycles(
            n, [tuple(range(r, 4 * t + 1, 4)) for r in (1, 2, 3, 4)]
        )
        pa = from_cycles(n, [(i, i + 1) for i in range(1, 4 * t, 2)])
        pb = from_cycles(
            n, [(i, i + 2) for i in range(1, 4 * t, 4)]
            + [(i, i + 2) for i in range(2, 4 * t, 4)]
        )
        return (("d", pd), ("a", pa), ("b", pb))
    # cyclic4tu
    return (("a", from_cycles(n, [tuple(range(1, 4 * t + 1))])),)


@cache
def element_perms(tag: str, t: int) -> tuple[Permutation, ...]:
    """pi of every element of a (tag, t) code, in the constructors' order.

    The permutation of an element depends only on its exponent label, never
    on the candidate, so the table is built once per (tag, t) on first use.
    Element order and labels: (j, k, l) over j, then (k, l), reading a^j b^k
    u^l for the two-generator families, d^j a^k b^l (k < 4, a^2 = u) for
    tqu, and a^j u^l for cyclic4tu.
    """
    gens = family_perms(tag, t)
    n = 4 * t
    if tag == "tqu":
        pd, pa, pb = gens["d"], gens["a"], gens["b"]
        q_perms = (identity(n), pb, pa, compose(pa, pb))  # e, b, a, ab
        chain = _power_chain(pd, t)
        return tuple(
            compose(pj, q_perms[2 * (k % 2) + l])
            for pj in chain
            for k in range(4)
            for l in (0, 1)
        )
    if tag == "cyclic4tu":
        return tuple(pj for pj in _power_chain(gens["a"], 4 * t) for _ in (0, 1))
    pb = gens["b"]
    out: list[Permutation] = []
    for pj in _power_chain(gens["a"], 2 * t):
        pjb = compose(pj, pb)
        out += (pj, pj, pjb, pjb)
    return tuple(out)


@cache
def element_labels(tag: str, t: int) -> tuple[Label, ...]:
    """Exponent label of every element of a (tag, t) code, in element_perms order."""
    family_spec(tag, t)  # validates tag / parity
    if tag == "tqu":
        return tuple((j, k, l) for j in range(t) for k in range(4) for l in (0, 1))
    if tag == "cyclic4tu":
        return tuple((j, 0, l) for j in range(4 * t) for l in (0, 1))
    return tuple((j, k, l) for j in range(2 * t) for k in (0, 1) for l in (0, 1))


def _power_chain(p: Permutation, count: int) -> list[Permutation]:
    """p^0 .. p^(count-1) by repeated composition."""
    chain = [identity(p.degree)]
    for _ in range(count - 1):
        chain.append(compose(chain[-1], p))
    return chain


@cache
def _fixed_point_slots(tag: str, t: int) -> tuple[frozenset[int], tuple[int, ...]]:
    """Positions in element_perms order of the identity permutations, and of
    those with a fixed point, the identity's among them.  In every family
    both are the slots of e and u: pi_g^j is fixed-point free for 0 < j <
    its order, and so is each product with pi_b, pi_a or pi_a pi_b."""
    perms = element_perms(tag, t)
    ident = identity(4 * t)
    return (
        frozenset(i for i, p in enumerate(perms) if p == ident),
        tuple(i for i, p in enumerate(perms) if has_fixed_point(p)),
    )


def _prefix_xor(x: int, n: int) -> int:
    """Each bit of the n-bit x xored with the bits 4, 8, ... places above it."""
    k = 4
    while k < n:
        x ^= x >> k
        k <<= 1
    return x


@cache
def _strand_masks(t: int) -> tuple[int, int, int, int]:
    """Strands 3, 2, 1, 0 of a 4t-bit word: the bits at positions = r mod 4."""
    s3 = int("1000" * t, 2)
    return s3, s3 >> 1, s3 >> 2, s3 >> 3


def _companion_b(a: int, t: int, b_square_is_u: bool) -> int:
    """b of the abelian-family word a, free bit 0: the suffix xor of a + pi_b(a)
    one place up, then that repeated, or complemented for b^2 = u."""
    h = 2 * t
    mh = (1 << h) - 1
    p = (a >> h) ^ (a & mh)
    k = 1
    while k < h:
        p ^= (p << k) & mh
        k <<= 1
    bh = (p << 1) & mh
    return (bh << h) | (bh ^ mh if b_square_is_u else bh)


def _quaternion_a00(d: int, t: int) -> int:
    """The word a of d for the free bits (f1, f3) = 00: strands 3 and 1 are
    prefix xors of d + pi_a(d), from the top block down, strands 2 and 0
    their complements."""
    s3, _, s1, _ = _strand_masks(t)
    odd = s3 | s1
    p = _prefix_xor((d ^ d << 1) & odd, 4 * t)  # d + pi_a(d) on strands 3 and 1
    return p | (p ^ odd) >> 1


def _quaternion_as(d: int, t: int) -> tuple[int, int, int, int]:
    """The words a of d for the free bits (f1, f3) = 00, 01, 10, 11: f1 flips
    strands 3 and 2 of _quaternion_a00(d, t), f3 strands 1 and 0."""
    s3, s2, s1, s0 = _strand_masks(t)
    a, high, low = _quaternion_a00(d, t), s3 | s2, s1 | s0
    return a, a ^ low, a ^ high, a ^ high ^ low


def _quaternion_bs(d: int, t: int, a_words) -> list[int | None]:
    """The seed-0 word b of d for each word a, or None where there is none:
    strands 3 and 2 are prefix xors of d + pi_b(d), strand 2 offset by 1 +
    a_{4t-3} + a_{4t-1}, strands 1 and 0 their complements; b exists when
    b_{4i-3} + b_{4i-2} = 1 + a_{4i-3} + a_{4i-1} in every block i."""
    s3, s2, s1, _ = _strand_masks(t)
    q = _prefix_xor((d ^ d << 2) & (s3 | s2), 4 * t)  # d + pi_b(d) on strands 3 and 2
    q1, q2 = q & s3, q & s2
    q1_low = q1 | (q1 ^ s3) >> 2
    out: list[int | None] = []
    for a in a_words:
        b2 = q2 if (a >> 3 ^ a >> 1) & 1 else q2 ^ s2
        ok = (q1 >> 1) ^ b2 == s2 ^ (a & s3) >> 1 ^ (a & s1) << 1  # on strand 2
        out.append(q1_low | b2 | (b2 ^ s2) >> 2 if ok else None)
    return out


def derive_b_from_a(a: BitVector, tag: str, t: int) -> BitVector:
    """Companion generator b from a for the abelian families.

    Commutation gives b = pi_a(b) + ahat with ahat = a + pi_b(a), so the first
    half of b is the running suffix sum of ahat with the free bit b_2t set to
    0; the second half repeats it (b^2 = e) or complements it (b^2 = u).
    """
    spec = family_spec(tag, t)
    if spec.b_square_is_u is None:
        raise ValueError("family %r has no derived generator b" % tag)
    if a.n != spec.length:
        raise ValueError("candidate length %d != %d" % (a.n, spec.length))
    return BitVector(a.n, _companion_b(a.value, t, spec.b_square_is_u))


def derive_a_from_d(
    d: BitVector, free_bits: tuple[int, int], t: int
) -> BitVector:
    """Generator a from d for the quaternion family.

    Centrality da = ad gives a = pi_d(a) + what with what = d + pi_a(d), which
    telescopes the first and third coordinate of every 4-block from the two
    free bits (a_{4t-3}, a_{4t-1}); a^2 = u fills the other two coordinates by
    complement, so every block lands in {0101, 1010, 0110, 1001}.
    """
    spec = family_spec("tqu", t)
    if d.n != spec.length:
        raise ValueError("candidate length %d != %d" % (d.n, spec.length))
    f1, f3 = free_bits
    a = _quaternion_as(d.value, t)[2 * f1 + f3]
    # the telescoped sums close, back at the free bits, exactly when d^t = e
    if (a >> 3 & 1, a >> 1 & 1) != (f1, f3):
        raise ValueError("derivation inconsistent: d^t != e")
    return BitVector(d.n, a)


def derive_b_from_a_quaternion(
    a: BitVector, d: BitVector, free_bit: int, t: int
) -> BitVector | None:
    """Generator b from a (quaternion family), or None when no b exists.

    Centrality db = bd propagates the first two coordinates of every 4-block
    of b from the seed bit, while b^2 = u fixes the last two by complement.
    The relation aba = b additionally forces b_{4i-3} + b_{4i-2} to be the
    complement of a_{4i-3} + a_{4i-1} in each block; propagation that breaks
    this case rule means the candidate has no valid b for this seed.
    """
    spec = family_spec("tqu", t)
    if a.n != spec.length or d.n != spec.length:
        raise ValueError("length mismatch")
    b = _quaternion_bs(d.value, t, (a.value,))[0]
    if b is None:
        return None
    if free_bit & 1:  # seed 1 gives b + u
        b ^= (1 << a.n) - 1
    return BitVector(a.n, b)


def _checked_powers(
    tag: str, t: int, g: BitVector, name: str, order: int, end: int
) -> list[int] | Reject:
    """Words g^0 .. g^{order-1} of the generator called name in a (tag, t) code.

    The checks run in a fixed order and the first failure is returned as a
    Reject: weight(g) = 2t, then the weight of every power in turn (where
    almost all candidates die), then g^order = end (0 for e, all ones for u).
    """
    n = 4 * t
    if g.n != n:
        raise ValueError("candidate length %d != %d" % (g.n, n))
    if g.weight() != 2 * t:
        return Reject("weight", "weight(%s) != 2t" % name)
    perm = family_perms(tag, t)[name]
    powers = [0]
    cur = g.value
    for j in range(1, order):
        if cur.bit_count() != 2 * t:
            return Reject("power", "weight(g^%d) != %d" % (j, 2 * t))
        powers.append(cur)
        cur = g.value ^ act(perm, cur)
    if cur != end:
        exponent = "t" if order == t else "%dt" % (order // t)
        return Reject("order", "%s^%s != %s" % (name, exponent, "u" if end else "e"))
    return powers


def _finish_code(
    tag: str,
    t: int,
    values: tuple[int, ...],
    generators: dict[str, Label],
) -> PropelinearCode | Reject:
    """The code of an element table in element_perms order, or the first
    failure: distinct words, then full propelinearity in element order, then
    the Hadamard verdict.  generators maps each generator's name to its
    label."""
    n = 4 * t
    full = (1 << n) - 1
    if len(set(values)) != len(values):
        return Reject("distinct", "duplicate vectors in the element table")
    # pi must be the identity where e and u sit and fixed-point free
    # elsewhere; the first position that breaks either fails, as in a walk
    # over the table
    idents, fixed = _fixed_point_slots(tag, t)
    ends = [values.index(w) for w in (0, full) if w in values]
    wrong = [i for i in ends if i not in idents] + [i for i in fixed if i not in ends]
    if wrong:
        i = min(wrong)
        if i in ends:
            return Reject("full_propelinear", "e or u with nontrivial permutation")
        return Reject("full_propelinear", "fixed point at %s" % BitVector(n, values[i]))
    code = PropelinearCode.from_words(
        tag, t, values, element_perms(tag, t), element_labels(tag, t), generators
    )
    if not code_is_hadamard(code):
        return Reject("hadamard", "distance profile is not 2t/4t")
    return code


def _assemble_two_generator(tag: str, t: int, a: BitVector) -> PropelinearCode | Reject:
    spec = family_spec(tag, t)
    n = spec.length
    full = (1 << n) - 1
    powers = _checked_powers(tag, t, a, "a", 2 * t, full if spec.cyclic_power_is_u else 0)
    if isinstance(powers, Reject):
        return powers
    perms = family_perms(tag, t)
    pa, pb = perms["a"], perms["b"]
    av = a.value
    bv = _companion_b(av, t, spec.b_square_is_u)
    if av ^ act(pa, bv) != bv ^ act(pb, av):
        return Reject("relation", "ab != ba")
    if bv ^ act(pb, bv) != (full if spec.b_square_is_u else 0):
        return Reject("relation", "b^2 has the wrong value")

    # a^j b^k u^l, (k, l) in the order (0, 0), (0, 1), (1, 0), (1, 1); the
    # word of a^j b is a^j + pi_a^j(b)
    values: list[int] = []
    rb = bv
    for j, wj in enumerate(powers):
        if j:
            rb = act(pa, rb)
        values += (wj, wj ^ full, wj ^ rb, wj ^ rb ^ full)
    gens = {"a": (1, 0, 0), "b": (0, 1, 0), "u": (0, 0, 1), "e": (0, 0, 0)}
    return _finish_code(tag, t, tuple(values), gens)


def _assemble_cyclic(t: int, a: BitVector) -> PropelinearCode | Reject:
    powers = _checked_powers("cyclic4tu", t, a, "a", 4 * t, 0)
    if isinstance(powers, Reject):
        return powers
    full = (1 << (4 * t)) - 1
    values: list[int] = []
    for wj in powers:
        values += (wj, wj ^ full)
    return _finish_code("cyclic4tu", t, tuple(values), {"a": (1, 0, 0), "u": (0, 0, 1)})


def _quaternion_code(
    t: int, d: int, a: int, b: int, powers: list[int]
) -> PropelinearCode | Reject:
    n = 4 * t
    full = (1 << n) - 1
    perms = family_perms("tqu", t)
    pd, pa, pb = perms["d"], perms["a"], perms["b"]
    if a ^ act(pa, a) != full:
        return Reject("relation", "a^2 != u")
    if b ^ act(pb, b) != full:
        return Reject("relation", "b^2 != u")
    if d ^ act(pd, a) != a ^ act(pa, d):
        return Reject("relation", "da != ad")
    if d ^ act(pd, b) != b ^ act(pb, d):
        return Reject("relation", "db != bd")
    ab = a ^ act(pa, b)
    if ab ^ act(_quaternion_ab_perm(t), a) != b:
        return Reject("relation", "aba != b")

    # d^j a^k b^l over k < 4, l < 2: the word of d^j q is d^j + pi_d^j(q) for
    # q in e, b, a, ab (pi_d^j(e) = e), and a^2 = u adds u for k >= 2
    values: list[int] = []
    qb, qa, qab = b, a, ab
    for j, pj in enumerate(powers):
        if j:
            qb, qa, qab = act(pd, qb), act(pd, qa), act(pd, qab)
        row = (pj, pj ^ qb, pj ^ qa, pj ^ qab)
        values += row
        values += [v ^ full for v in row]
    gens = {"d": (1, 0, 0), "a": (0, 1, 0), "b": (0, 0, 1), "u": (0, 2, 0)}
    return _finish_code("tqu", t, tuple(values), gens)


@cache
def _quaternion_ab_perm(t: int) -> Permutation:
    perms = family_perms("tqu", t)
    return compose(perms["a"], perms["b"])


def assemble_quaternion_variants(
    t: int, d: BitVector
) -> tuple[list[PropelinearCode], Reject | None]:
    """All distinct codes over the two a free bits, with the b seed fixed to 0.

    The four choices (f1, f3) give four variants per d; variants with
    identical codeword sets are collapsed.  The b seed is fixed to 0 as the
    abelian families fix their free bit: seed 1 gives b + u, which passes and
    fails every check together with b and generates the same codeword set.
    Returns the distinct accepted codes plus the first rejection seen.
    """
    family_spec("tqu", t)  # validates parity before any Reject
    powers = _checked_powers("tqu", t, d, "d", t, 0)
    if isinstance(powers, Reject):
        return [], powers
    codes: dict[frozenset[int], PropelinearCode] = {}
    first_reject: Reject | None = None
    a_words = _quaternion_as(d.value, t)
    for a, b in zip(a_words, _quaternion_bs(d.value, t, a_words)):
        if b is None:
            result = Reject("no_b", "case table contradicts propagation")
        else:
            result = _quaternion_code(t, d.value, a, b, powers)
        if not isinstance(result, Reject):
            codes.setdefault(result.vector_values, result)
        elif first_reject is None:
            first_reject = result
    return list(codes.values()), first_reject


def assemble_quaternion_explicit(
    t: int, d: BitVector, a: BitVector, b: BitVector
) -> PropelinearCode | Reject:
    """Quaternion-family code from explicitly given generators."""
    spec = family_spec("tqu", t)
    if d.n != spec.length or a.n != spec.length or b.n != spec.length:
        raise ValueError("length mismatch")
    powers = _checked_powers("tqu", t, d, "d", t, 0)
    if isinstance(powers, Reject):
        return powers
    return _quaternion_code(t, d.value, a.value, b.value, powers)


def assemble(tag: str, t: int, candidate: BitVector) -> PropelinearCode | Reject:
    """Build and fully check the code generated by one candidate vector.

    The candidate is a for the two-generator and cyclic families and d for the
    quaternion family.  Elements are enumerated directly from the presentation
    (no blind closure); the first failed predicate is reported in the Reject.
    """
    if tag in ("4tu2", "2t22u", "2t4u"):
        return _assemble_two_generator(tag, t, candidate)
    if tag == "cyclic4tu":
        return _assemble_cyclic(t, candidate)
    if tag == "tqu":
        codes, rej = assemble_quaternion_variants(t, candidate)
        return codes[0] if codes else rej
    raise ValueError("unknown family tag %r" % tag)
