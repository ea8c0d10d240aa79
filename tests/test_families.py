from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfpc.families import (
    FAMILY_TAGS,
    Reject,
    assemble,
    assemble_quaternion_variants,
    derive_a_from_d,
    derive_b_from_a,
    derive_b_from_a_quaternion,
    element_perms,
    family_perms,
    family_spec,
    half_parities,
)
from hfpc.gf2 import BitVector
from hfpc.hadamard import is_hadamard_code
from hfpc.perms import apply, compose, identity
from hfpc.propelinear import (
    associated_group_order,
    element_power,
    is_full_propelinear,
    is_propelinear,
)
from helpers import GENERATOR_A, rebuild_code

V = BitVector.from_string

A_BLOCKS = {(0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1)}


def test_family_perms_two_generator():
    p = family_perms("4tu2", 2)
    assert str(p["a"]) == "(1,2,3,4)(5,6,7,8)"
    assert str(p["b"]) == "(1,5)(2,6)(3,7)(4,8)"
    p1 = family_perms("2t22u", 1)
    assert str(p1["a"]) == "(1,2)(3,4)"
    assert str(p1["b"]) == "(1,3)(2,4)"


def test_family_perms_quaternion():
    p = family_perms("tqu", 3)
    assert str(p["d"]) == "(1,5,9)(2,6,10)(3,7,11)(4,8,12)"
    assert str(p["a"]) == "(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)"
    assert str(p["b"]) == "(1,3)(2,4)(5,7)(6,8)(9,11)(10,12)"
    with pytest.raises(ValueError):
        family_perms("tqu", 2)
    with pytest.raises(ValueError):
        family_spec("bogus", 1)


def test_family_perms_cyclic():
    assert str(family_perms("cyclic4tu", 1)["a"]) == "(1,2,3,4)"


def _labels(tag: str, t: int) -> list[tuple[int, int, int]]:
    """Element labels in the order documented by element_perms."""
    if tag == "tqu":
        return [(j, k, l) for j in range(t) for k in range(4) for l in (0, 1)]
    if tag == "cyclic4tu":
        return [(j, 0, l) for j in range(4 * t) for l in (0, 1)]
    return [(j, k, l) for j in range(2 * t) for k in (0, 1) for l in (0, 1)]


def _perm_by_compose_chain(tag: str, t: int, label):
    """pi of the element with this label: one compose per generator factor."""
    gens = family_perms(tag, t)
    j, k, l = label
    cyclic = gens["d"] if tag == "tqu" else gens["a"]
    factors = [cyclic] * j
    if tag == "tqu":
        factors += [gens["a"]] * k + [gens["b"]] * l
    elif tag != "cyclic4tu":
        factors += [gens["b"]] * k  # pi_u is the identity
    p = identity(4 * t)
    for f in factors:
        p = compose(p, f)
    return p


def test_element_perms_match_compose_chain():
    for tag in FAMILY_TAGS:
        for t in range(1, 6):
            if tag == "tqu" and t % 2 == 0:
                continue
            labels = _labels(tag, t)
            table = element_perms(tag, t)
            assert len(table) == len(labels) == 8 * t
            for label, p in zip(labels, table):
                assert p == _perm_by_compose_chain(tag, t, label)


def test_assembled_elements_carry_their_labels_permutation(accepted_pool):
    for (tag, t), result in accepted_pool.items():
        for acc in result.accepted[:4]:
            for e in rebuild_code(acc).elements:
                assert e.perm == _perm_by_compose_chain(tag, t, e.label)


def test_mutating_family_perms_does_not_change_assembly():
    cases = [("2t4u", 8, V(GENERATOR_A)), ("tqu", 3, V("111011100000"))]
    for tag, t, cand in cases:
        before = assemble(tag, t, cand)
        assert not isinstance(before, Reject)
        perms = family_perms(tag, t)
        for name in list(perms):
            perms[name] = identity(4 * t)
        perms["x"] = identity(4 * t)
        after = assemble(tag, t, cand)
        assert [(e.vector, e.perm, e.label) for e in after.elements] == [
            (e.vector, e.perm, e.label) for e in before.elements
        ]
        assert after.generators == before.generators
        assert family_perms(tag, t) != perms


def test_derive_b_small_cases():
    assert derive_b_from_a(V("1100"), "2t22u", 1) == V("1010")
    b = derive_b_from_a(V("1100"), "2t4u", 1)
    assert b == V("1001")
    pb = family_perms("2t4u", 1)["b"]
    assert b ^ apply(pb, b) == V("1111")  # b^2 = u
    # degenerate input: derivation still runs, assembly rejects
    be = derive_b_from_a(V("0000"), "2t22u", 1)
    assert isinstance(be, BitVector)
    rej = assemble("2t22u", 1, V("0000"))
    assert isinstance(rej, Reject) and rej.reason == "weight"


def test_derived_b_satisfies_commutation(accepted_pool):
    for tag in ("4tu2", "2t22u", "2t4u"):
        for acc in accepted_pool[(tag, acc_t(tag))].accepted[:4]:
            code = rebuild_code(acc)
            a = code.generators["a"]
            b = code.generators["b"]
            ab = a.vector ^ apply(a.perm, b.vector)
            ba = b.vector ^ apply(b.perm, a.vector)
            assert ab == ba


def acc_t(tag: str) -> int:
    return 2 if tag == "4tu2" else 4


def test_derive_a_from_d_blocks():
    t = 3
    for d_val in (0, int("111011100000", 2)):
        d = BitVector(12, d_val)
        if d_val and (d.weight() != 6):
            continue
        try:
            a = derive_a_from_d(d, (0, 1), t)
        except ValueError:
            continue
        bits = a.bits()
        for i in range(t):
            assert tuple(bits[4 * i : 4 * i + 4]) in A_BLOCKS
        pa = family_perms("tqu", t)["a"]
        assert a ^ apply(pa, a) == BitVector.ones(12)  # a^2 = u


def test_derive_a_from_e_uses_free_bits_only():
    t = 3
    for f1 in (0, 1):
        for f3 in (0, 1):
            a = derive_a_from_d(BitVector.zero(12), (f1, f3), t)
            bits = a.bits()
            blocks = {tuple(bits[4 * i : 4 * i + 4]) for i in range(t)}
            assert blocks == {(f1, f1 ^ 1, f3, f3 ^ 1)}


def test_derive_b_quaternion_case_table(accepted_pool):
    for acc in accepted_pool[("tqu", 3)].accepted[:6]:
        code = rebuild_code(acc)
        a = code.generators["a"].vector
        b = code.generators["b"].vector
        abits, bbits = a.bits(), b.bits()
        for i in range(3):
            ablk = tuple(abits[4 * i : 4 * i + 4])
            bblk = tuple(bbits[4 * i : 4 * i + 4])
            if ablk in {(0, 1, 0, 1), (1, 0, 1, 0)}:
                assert bblk in {(0, 1, 1, 0), (1, 0, 0, 1)}
            else:
                assert bblk in {(0, 0, 1, 1), (1, 1, 0, 0)}
        # group relations forced by the derivation
        pa = code.generators["a"].perm
        pb = code.generators["b"].perm
        assert b ^ apply(pb, b) == BitVector.ones(12)
        ab = a ^ apply(pa, b)
        from hfpc.perms import compose

        assert ab ^ apply(compose(pa, pb), a) == b  # aba = b


def test_derive_b_quaternion_seeds_differ_by_u():
    d = V("111011100000")
    a = derive_a_from_d(d, (0, 0), 3)
    b0 = derive_b_from_a_quaternion(a, d, 0, 3)
    b1 = derive_b_from_a_quaternion(a, d, 1, 3)
    assert b0 is not None and b1 is not None
    assert b0 ^ b1 == BitVector.ones(12)


def test_assemble_examples():
    code = assemble("2t22u", 1, V("1100"))
    assert not isinstance(code, Reject)
    assert {str(v) for v in code.vectors()} == {
        format(x, "04b") for x in range(16) if bin(x).count("1") % 2 == 0
    }
    assert isinstance(assemble("4tu2", 1, V("0111")), Reject)  # weight 3 != 2t
    big = assemble("2t4u", 8, V(GENERATOR_A))
    assert not isinstance(big, Reject)


def test_assemble_rejects_wrong_order():
    # weight 2t but odd/odd halves cannot satisfy a^2t = e in family 2t22u
    rej = assemble("2t22u", 1, V("1001"))
    assert isinstance(rej, Reject) and rej.reason == "order"
    rej2 = assemble("4tu2", 1, V("1100"))
    assert isinstance(rej2, Reject) and rej2.reason == "order"


def test_assemble_quaternion_variants_dedup():
    d = V("111011100000")
    codes, rej = assemble_quaternion_variants(3, d)
    assert codes, rej
    sets = [c.vector_values for c in codes]
    assert len(sets) == len(set(sets))
    for c in codes:
        assert is_hadamard_code(c.vectors(), 3)


def test_order_relations_on_accepted(accepted_pool):
    checks = {
        "4tu2": ("a", 2, True),   # a^2t = u
        "2t22u": ("a", 2, False),  # a^2t = e
        "2t4u": ("a", 2, False),
    }
    for (tag, t), result in accepted_pool.items():
        for acc in result.accepted[:4]:
            code = rebuild_code(acc)
            n = 4 * t
            if tag == "tqu":
                dgen = code.generators["d"]
                assert element_power(dgen, t) == BitVector.zero(n)
                for name in ("a", "b"):
                    g = code.generators[name]
                    assert element_power(g, 2) == BitVector.ones(n)
            else:
                name, mult, is_u = checks[tag]
                g = code.generators[name]
                target = BitVector.ones(n) if is_u else BitVector.zero(n)
                assert element_power(g, mult * t) == target
                b = code.generators["b"]
                btarget = BitVector.ones(n) if tag == "2t4u" else BitVector.zero(n)
                assert element_power(b, 2) == btarget


@settings(max_examples=60)
@given(st.integers(1, 3), st.data())
def test_half_parity_power_lemma(t, data):
    """a^2t is u when both halves have odd weight, e when both even."""
    n = 4 * t
    raw = data.draw(st.integers(0, (1 << n) - 1))
    a = BitVector(n, raw)
    pa = family_perms("2t22u", t)["a"]
    from hfpc.propelinear import PropelinearElement

    end = element_power(PropelinearElement(a, pa), 2 * t)
    ph, pl = half_parities(a)
    if ph == 1 and pl == 1:
        assert end == BitVector.ones(n)
    elif ph == 0 and pl == 0:
        assert end == BitVector.zero(n)
    else:
        half = BitVector(n, ((1 << (2 * t)) - 1) << (2 * t))
        assert end in (half, half.complement())


def test_accepted_codes_pass_all_predicates(accepted_pool):
    for (tag, t), result in accepted_pool.items():
        for acc in result.accepted[:4]:
            code = rebuild_code(acc)
            assert is_propelinear(code)
            assert is_full_propelinear(code)
            assert is_hadamard_code(code.vectors(), t)
            assert associated_group_order(code) == 4 * t
