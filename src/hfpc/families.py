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
determines b up to one seed bit resolved by propagating db = bd block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .gf2 import BitVector
from .hadamard import is_hadamard_code
from .perms import Permutation, apply, compose, from_cycles, has_fixed_point, identity
from .propelinear import PropelinearCode, PropelinearElement

__all__ = [
    "FAMILY_TAGS",
    "SEARCH_TAGS",
    "FamilySpec",
    "Reject",
    "family_spec",
    "family_perms",
    "element_perms",
    "derive_b_from_a",
    "derive_a_from_d",
    "derive_b_from_a_quaternion",
    "assemble",
    "assemble_quaternion_variants",
    "half_parities",
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
    # order of the cyclic generator (a, or d for tqu) and its power target
    cyclic_order: int
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
        return FamilySpec(tag, t, n, 2 * t, True, False)
    if tag == "2t22u":
        return FamilySpec(tag, t, n, 2 * t, False, False)
    if tag == "2t4u":
        return FamilySpec(tag, t, n, 2 * t, False, True)
    if tag == "tqu":
        return FamilySpec(tag, t, n, t, False, True)
    return FamilySpec(tag, t, n, 4 * t, False, None)  # cyclic4tu


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


def _power_chain(p: Permutation, count: int) -> list[Permutation]:
    """p^0 .. p^(count-1) by repeated composition."""
    chain = [identity(p.degree)]
    for _ in range(count - 1):
        chain.append(compose(chain[-1], p))
    return chain


@cache
def _fixed_point_verdicts(tag: str, t: int) -> tuple[tuple[bool, bool], ...]:
    """(pi is the identity, pi has a fixed point) for every element_perms entry."""
    ident = identity(4 * t)
    return tuple((p == ident, has_fixed_point(p)) for p in element_perms(tag, t))


def half_parities(a: BitVector) -> tuple[int, int]:
    """Weight parities of the two halves; a^2t = u iff both are odd."""
    half = a.n // 2
    hi = a.value >> half
    lo = a.value & ((1 << half) - 1)
    return hi.bit_count() & 1, lo.bit_count() & 1


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
    perms = family_perms(tag, t)
    ahat = a ^ apply(perms["b"], a)
    ah = ahat.bits()[: 2 * t]
    first = [0] * (2 * t)
    for i in range(2 * t - 1, 0, -1):  # b_i = b_{i+1} + ahat_{i+1}, 1-based
        first[i - 1] = first[i] ^ ah[i]
    if spec.b_square_is_u:
        second = [x ^ 1 for x in first]
    else:
        second = list(first)
    return BitVector.from_bits(first + second)


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
    perms = family_perms("tqu", t)
    what = (d ^ apply(perms["a"], d)).bits()
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
    perms = family_perms("tqu", t)
    wtil = (d ^ apply(perms["b"], d)).bits()
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


def _cyclic_powers(
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
        cur = gen ^ apply(perm, cur)
    return powers, cur


def _finish_code(
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
    for e, (is_identity, fixed) in zip(elements, _fixed_point_verdicts(tag, t)):
        if e.vector.value in (0, full):
            if not is_identity:
                return Reject("full_propelinear", "e or u with nontrivial permutation")
        elif fixed:
            return Reject("full_propelinear", "fixed point at %s" % e.vector)
    code = PropelinearCode(tag, t, tuple(elements), generators)
    if not is_hadamard_code(code.vectors(), t):
        return Reject("hadamard", "distance profile is not 2t/4t")
    return code


def _assemble_two_generator(tag: str, t: int, a: BitVector) -> PropelinearCode | Reject:
    spec = family_spec(tag, t)
    n = spec.length
    if a.n != n:
        raise ValueError("candidate length %d != %d" % (a.n, n))
    if a.weight() != 2 * t:
        return Reject("weight", "weight(a) != 2t")
    perms = family_perms(tag, t)
    pa, pb = perms["a"], perms["b"]
    got = _cyclic_powers(a, pa, 2 * t, 2 * t)
    if isinstance(got, Reject):
        return got
    powers, endpoint = got
    u = BitVector.ones(n)
    target = u if spec.cyclic_power_is_u else BitVector.zero(n)
    if endpoint != target:
        return Reject("order", "a^2t != %s" % ("u" if spec.cyclic_power_is_u else "e"))
    b = derive_b_from_a(a, tag, t)
    if a ^ apply(pa, b) != b ^ apply(pb, a):
        return Reject("relation", "ab != ba")
    bsq = b ^ apply(pb, b)
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
        rb = apply(pa, rb)
    e0 = BitVector.zero(n)
    gens = {
        "a": PropelinearElement(a, pa, (1, 0, 0)),
        "b": PropelinearElement(b, pb, (0, 1, 0)),
        "u": PropelinearElement(u, identity(n), (0, 0, 1)),
        "e": PropelinearElement(e0, identity(n), (0, 0, 0)),
    }
    return _finish_code(tag, t, elements, gens)


def _assemble_cyclic(t: int, a: BitVector) -> PropelinearCode | Reject:
    n = 4 * t
    if a.n != n:
        raise ValueError("candidate length %d != %d" % (a.n, n))
    if a.weight() != 2 * t:
        return Reject("weight", "weight(a) != 2t")
    pa = family_perms("cyclic4tu", t)["a"]
    got = _cyclic_powers(a, pa, 4 * t, 2 * t)
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
    return _finish_code("cyclic4tu", t, elements, gens)


def _quaternion_code(
    t: int, d: BitVector, a: BitVector, b: BitVector, powers: list[BitVector]
) -> PropelinearCode | Reject:
    n = 4 * t
    perms = family_perms("tqu", t)
    pd, pa, pb = perms["d"], perms["a"], perms["b"]
    u = BitVector.ones(n)
    if a ^ apply(pa, a) != u:
        return Reject("relation", "a^2 != u")
    if b ^ apply(pb, b) != u:
        return Reject("relation", "b^2 != u")
    if d ^ apply(pd, a) != a ^ apply(pa, d):
        return Reject("relation", "da != ad")
    if d ^ apply(pd, b) != b ^ apply(pb, d):
        return Reject("relation", "db != bd")
    ab = a ^ apply(pa, b)
    pab = compose(pa, pb)
    if ab ^ apply(pab, a) != b:
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
        q_vecs = tuple(apply(pd, v) for v in q_vecs)
    gens = {
        "d": PropelinearElement(d, pd, (1, 0, 0)),
        "a": PropelinearElement(a, pa, (0, 1, 0)),
        "b": PropelinearElement(b, pb, (0, 0, 1)),
        "u": PropelinearElement(u, identity(n), (0, 2, 0)),
    }
    return _finish_code("tqu", t, elements, gens)


def assemble_quaternion_variants(
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
    got = _cyclic_powers(d, pd, t, 2 * t)
    if isinstance(got, Reject):
        return [], got
    powers, endpoint = got
    if endpoint.value != 0:
        return [], Reject("order", "d^t != e")

    accepted: list[PropelinearCode] = []
    seen_sets: set[frozenset[int]] = set()
    for f1 in (0, 1):
        for f3 in (0, 1):
            a = derive_a_from_d(d, (f1, f3), t)
            for seed in (0, 1):
                b = derive_b_from_a_quaternion(a, d, seed, t)
                if b is None:
                    note(Reject("no_b", "case table contradicts propagation"))
                    continue
                result = _quaternion_code(t, d, a, b, powers)
                if isinstance(result, Reject):
                    note(result)
                    continue
                key = result.vector_values
                if key in seen_sets:
                    continue
                seen_sets.add(key)
                accepted.append(result)
    return accepted, first_reject


def assemble_quaternion_explicit(
    t: int, d: BitVector, a: BitVector, b: BitVector
) -> PropelinearCode | Reject:
    """Quaternion-family code from explicitly given generators."""
    spec = family_spec("tqu", t)
    if d.n != spec.length or a.n != spec.length or b.n != spec.length:
        raise ValueError("length mismatch")
    if d.weight() != 2 * t:
        return Reject("weight", "weight(d) != 2t")
    pd = family_perms("tqu", t)["d"]
    got = _cyclic_powers(d, pd, t, 2 * t)
    if isinstance(got, Reject):
        return got
    powers, endpoint = got
    if endpoint.value != 0:
        return Reject("order", "d^t != e")
    return _quaternion_code(t, d, a, b, powers)


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
        if codes:
            return codes[0]
        return rej if rej is not None else Reject("no_b", "no variant assembled")
    raise ValueError("unknown family tag %r" % tag)
