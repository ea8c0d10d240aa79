from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfpc.cchm import InvalidInput, sylvester_double
from hfpc.families import (
    FAMILY_TAGS,
    SEARCH_TAGS,
    Reject,
    _finish_code,
    assemble,
    assemble_quaternion_explicit,
    assemble_quaternion_variants,
    derive_a_from_d,
    derive_b_from_a,
    derive_b_from_a_quaternion,
    element_labels,
    element_perms,
    family_perms,
    family_spec,
)
from hfpc.gf2 import BitVector
from hfpc.hadamard import is_hadamard_code
from hfpc.perms import apply, compose, identity
from hfpc.search import _scan, analytic_nonexistence
from hfpc.propelinear import (
    PropelinearElement,
    associated_group_order,
    element_power,
    is_full_propelinear,
    is_propelinear,
)
from helpers import (
    GENERATOR_A,
    GENERATOR_B,
    _bitvector_finish_code,
    all_weight_w,
    bitlist_derive_a_from_d,
    bitlist_derive_b_from_a,
    bitlist_derive_b_from_a_quaternion,
    bitvector_assemble,
    bitvector_assemble_quaternion_explicit,
    bitvector_assemble_quaternion_variants,
    generate_group,
    label_product,
    rebuild_code,
)

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


def _element_map(code):
    return {e.vector.value: (e.perm.images, e.label) for e in code.elements}


def test_constructors_agree_with_closure_oracle(accepted_pool):
    """assemble lists exactly the group its own generators close into.

    The closure labels each element by the family's label algebra, so this
    checks label -> vector (which code_to_cchm relies on) as well as
    label -> permutation.
    """
    codes = [
        rebuild_code(acc)
        for result in accepted_pool.values()
        for acc in result.accepted[:4]
    ]
    codes += [assemble("2t4u", 8, V(g)) for g in (GENERATOR_A, GENERATOR_B)]
    seen = set()
    for code in codes:
        tag, t = code.family, code.t
        seen.add((tag, t))
        names = ("d", "a", "b") if tag == "tqu" else ("a", "b", "u")
        gens = [code.generators[name] for name in names]
        closure = generate_group(
            gens, 8 * t, label_rule=lambda x, y: label_product(tag, t, x, y)
        )
        assert closure.size == 8 * t
        assert _element_map(closure) == _element_map(code), (tag, t)
    nonempty = {key for key, result in accepted_pool.items() if result.accepted}
    assert seen == nonempty | {("2t4u", 8)}


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


def _outcome(derive, *args):
    """derive(*args), or the text of the ValueError it raises."""
    try:
        return derive(*args)
    except ValueError as exc:
        return str(exc)


def test_derivations_match_the_bit_list_oracles():
    """derive_b_from_a on every word of the two-generator families with
    4t <= 16; for tqu, every d with t <= 3 with all free bits, both seeds,
    the derived a and an arbitrary one, and the d^t != e ValueError; seeded
    words of every family at t = 5, 7 and 9; and the length errors."""
    rng = random.Random(2302)
    for tag in ("4tu2", "2t22u", "2t4u"):
        for t in (1, 2, 3, 4, 5, 7, 9):
            n = 4 * t
            words = range(1 << n) if t <= 4 else [rng.getrandbits(n) for _ in range(2000)]
            for x in words:
                a = BitVector(n, x)
                assert derive_b_from_a(a, tag, t) == bitlist_derive_b_from_a(a, tag, t), (tag, x)
    outcomes = set()
    for t in (1, 3, 5, 7, 9):
        n = 4 * t
        words = range(1 << n) if t <= 3 else [rng.getrandbits(n) for _ in range(500)]
        for x in words:
            d = BitVector(n, x)
            a_words = []
            for free_bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
                a = _outcome(derive_a_from_d, d, free_bits, t)
                assert a == _outcome(bitlist_derive_a_from_d, d, free_bits, t), (t, x)
                if isinstance(a, str):
                    outcomes.add(a)
                else:
                    a_words.append(a)
            for a in a_words + [BitVector(n, rng.getrandbits(n))]:
                for seed in (0, 1):
                    b = derive_b_from_a_quaternion(a, d, seed, t)
                    assert b == bitlist_derive_b_from_a_quaternion(a, d, seed, t), (t, x)
                    outcomes.add(b is None)
    assert outcomes == {"derivation inconsistent: d^t != e", True, False}
    b_of_a, a_of_d = bitlist_derive_b_from_a, bitlist_derive_a_from_d
    for derive, oracle, args in (
        (derive_b_from_a, b_of_a, (V("1100"), "cyclic4tu", 1)),
        (derive_b_from_a, b_of_a, (V("1100"), "2t4u", 2)),
        (derive_a_from_d, a_of_d, (V("1100"), (0, 0), 3)),
        (derive_a_from_d, a_of_d, (V("1100"), (0, 0), 2)),
        (
            derive_b_from_a_quaternion,
            bitlist_derive_b_from_a_quaternion,
            (V("0" * 12), V("1100"), 0, 3),
        ),
    ):
        got = _outcome(derive, *args)
        assert isinstance(got, str) and got == _outcome(oracle, *args)


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
    end = element_power(PropelinearElement(a, pa), 2 * t)
    ph = (a.value >> (2 * t)).bit_count() & 1  # weight parities of the halves
    pl = (a.value & ((1 << (2 * t)) - 1)).bit_count() & 1
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


def _table(code):
    """Everything the constructors build, in element order."""
    return (
        [(e.vector, e.perm, e.label) for e in code.elements],
        code.values,
        code.perms,
        code.labels,
        code.generators,
    )


def _assert_same_outcome(new, old) -> None:
    if isinstance(old, Reject):
        assert isinstance(new, Reject), old
        assert (new.reason, new.detail) == (old.reason, old.detail)
    else:
        assert not isinstance(new, Reject), new
        assert (new.family, new.t) == (old.family, old.t)
        assert _table(new) == _table(old)


def _searched_cells(t_max: int):
    for t in range(1, t_max + 1):
        for tag in SEARCH_TAGS:
            if (tag == "tqu" and t % 2 == 0) or analytic_nonexistence(tag, t):
                continue
            yield tag, t


def test_int_constructors_match_bitvector_builder_on_accepted_codes():
    """Every accepted code of the searched cells with t <= 6, and of tqu t = 7."""
    checked = 0
    for tag, t in list(_searched_cells(6)) + [("tqu", 7)]:
        n = 4 * t
        accepted, _ = _scan(tag, t)
        for item in accepted:
            if tag == "tqu":
                d, a, b = (BitVector(n, x) for x in item)
                new = assemble_quaternion_explicit(t, d, a, b)
                old = bitvector_assemble_quaternion_explicit(t, d, a, b)
            else:
                new = assemble(tag, t, BitVector(n, item))
                old = bitvector_assemble(tag, t, BitVector(n, item))
            assert not isinstance(old, Reject)
            _assert_same_outcome(new, old)
            checked += 1
    # 4tu2, 2t22u, 2t4u at t = 1; 4tu2, 2t4u at t = 2; tqu 3; 2t22u, 2t4u at
    # t = 4; tqu 5; tqu 7 (4tu2 t = 4 and the t = 6 cells are empty)
    assert checked == 2 + 2 + 2 + 8 + 8 + 24 + 96 + 32 + 120 + 840


def _random_word(rng: random.Random, n: int, weight: int | None) -> int:
    if weight is None:
        return rng.getrandbits(n)
    return sum(1 << p for p in rng.sample(range(n), weight))


def test_int_constructors_match_bitvector_builder_on_seeded_candidates():
    """Rejected candidates of every family: the same reason and detail."""
    rng = random.Random(20180913)
    reasons = {}
    cases = [(tag, t) for tag in ("4tu2", "2t22u", "2t4u") for t in range(1, 7)]
    cases += [("cyclic4tu", t) for t in range(1, 5)] + [("tqu", t) for t in (1, 3, 5, 7)]
    for tag, t in cases:
        n = 4 * t
        for weight in (2 * t, 2 * t, None):
            for _ in range(60):
                cand = BitVector(n, _random_word(rng, n, weight))
                if tag == "tqu":
                    new_codes, new_rej = assemble_quaternion_variants(t, cand)
                    old_codes, old_rej = bitvector_assemble_quaternion_variants(t, cand)
                    assert len(new_codes) == len(old_codes)
                    for new, old in zip(new_codes, old_codes):
                        _assert_same_outcome(new, old)
                    assert (new_rej is None) == (old_rej is None)
                    if old_rej is not None:
                        _assert_same_outcome(new_rej, old_rej)
                        reasons.setdefault(tag, set()).add(old_rej.reason)
                    # explicit generators: random a and b fail the relations
                    a, b = (BitVector(n, _random_word(rng, n, 2 * t)) for _ in "ab")
                    new = assemble_quaternion_explicit(t, cand, a, b)
                    old = bitvector_assemble_quaternion_explicit(t, cand, a, b)
                else:
                    new = assemble(tag, t, cand)
                    old = bitvector_assemble(tag, t, cand)
                _assert_same_outcome(new, old)
                if isinstance(old, Reject):
                    reasons.setdefault(tag, set()).add(old.reason)
    # candidates that pass the power, order and relation checks and fail
    # only the Hadamard one (the scans' rejected_hadamard)
    for tag, t, word in (
        ("4tu2", 2, "00010111"),
        ("2t4u", 4, "0000010101011111"),
        ("tqu", 3, "010000110111"),
    ):
        new, old = assemble(tag, t, V(word)), bitvector_assemble(tag, t, V(word))
        assert old == Reject("hadamard", "distance profile is not 2t/4t")
        _assert_same_outcome(new, old)
        reasons[tag].add(old.reason)
    assert reasons["2t4u"] >= {"weight", "power", "order", "hadamard"}
    assert reasons["4tu2"] >= {"weight", "power", "order", "hadamard"}
    assert reasons["cyclic4tu"] >= {"weight", "power"}
    assert reasons["tqu"] >= {"weight", "power", "order", "relation", "hadamard"}


def test_four_tqu_variants_match_the_eight_variant_oracle():
    """The b seed fixed to 0 loses nothing against both seeds of the oracle,
    on every weight-6 d of t = 3 and every accepted d of t = 3 and 5: the same
    code sets in the same order, the same a and b, the same first Reject."""
    cases = [(3, d) for d in all_weight_w(12, 6)]
    for t in (3, 5):
        accepted, _ = _scan("tqu", t)
        cases += [(t, d) for d in sorted({d for d, _, _ in accepted})]
    with_codes = 0
    for t, d in cases:
        new_codes, new_rej = assemble_quaternion_variants(t, BitVector(4 * t, d))
        old_codes, old_rej = bitvector_assemble_quaternion_variants(t, BitVector(4 * t, d))
        assert [c.vector_values for c in new_codes] == [c.vector_values for c in old_codes]
        for new, old in zip(new_codes, old_codes):
            for name in ("a", "b"):
                assert new.generators[name] == old.generators[name]
        assert (new_rej is None) == (old_rej is None)
        if old_rej is not None:
            assert (new_rej.reason, new_rej.detail) == (old_rej.reason, old_rej.detail)
        with_codes += bool(old_codes)
    # 12 accepted d among the weight-6 words, then 12 and 60 accepted d
    assert with_codes == 12 + 12 + 60


def test_finish_code_verdicts_match_bitvector_builder():
    """The distinctness and fixed-point verdicts, which no candidate reaches
    once its powers pass, on element tables edited by hand."""
    for tag, t, cand in (("2t22u", 1, "1100"), ("2t4u", 4, "0110100100001111")):
        n = 4 * t
        good = assemble(tag, t, V(cand)).values
        tables = {
            "distinct": good[:1] + good[:1] + good[2:],
            # e's slot carries the identity, which fixes every coordinate
            "full_propelinear": (good[2],) + good[1:2] + (good[0],) + good[3:],
        }
        details = {
            "distinct": "duplicate vectors in the element table",
            "full_propelinear": "fixed point at %s" % BitVector(n, good[2]),
        }
        for reason, values in tables.items():
            elements = [
                PropelinearElement(BitVector(n, v), p, label)
                for v, p, label in zip(values, element_perms(tag, t), element_labels(tag, t))
            ]
            old = _bitvector_finish_code(tag, t, elements, {})
            assert old == Reject(reason, details[reason])
            _assert_same_outcome(_finish_code(tag, t, values, {}), old)


def test_sylvester_doubling_matches_bitvector_builder():
    """cyclic4tu, then 2t4u at twice the length, over every word of length 4 and 8."""
    doubled = 0
    for t in (1, 2):
        n = 4 * t
        for x in range(1 << n):
            a = BitVector(n, x)
            base, old_base = assemble("cyclic4tu", t, a), bitvector_assemble("cyclic4tu", t, a)
            _assert_same_outcome(base, old_base)
            if isinstance(old_base, Reject):
                with pytest.raises(InvalidInput, match=old_base.reason):
                    sylvester_double(a)
                continue
            old = bitvector_assemble("2t4u", 2 * t, BitVector(2 * n, (x << n) | x))
            _assert_same_outcome(sylvester_double(a), old)
            doubled += 1
    assert doubled == 4  # the circulant Hadamard codes of length 4
