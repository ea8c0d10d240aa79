from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hfpc.gf2 import BitVector
from hfpc.perms import Permutation, from_cycles, identity
from hfpc.propelinear import (
    PropelinearCode,
    PropelinearElement,
    associated_group_order,
    element_power,
    is_full_propelinear,
    is_propelinear,
    star,
    star_elem,
)
from helpers import (
    SizeMismatch,
    VectorCollision,
    generate_group,
    iterated_star_power,
    label_product,
    labelled_star,
    rebuild_code,
    star_powers,
)

V = BitVector.from_string


def _elem(vec: str, cycles, label=None):
    v = V(vec)
    return PropelinearElement(v, from_cycles(v.n, cycles), label)


def test_star_examples():
    x = _elem("1100", [(1, 2), (3, 4)])
    assert star(x, V("1010")) == V("1001")
    assert star(x, V("0000")) == x.vector
    e = _elem("0000", [])
    assert star(e, V("0110")) == V("0110")


def test_star_elem_and_inverse():
    x = _elem("1000", [(1, 2, 3, 4)])
    # the inverse of x is pi_x^{-1}(x) with pi_x^{-1}
    xi = _elem("0001", [(1, 4, 3, 2)])
    for prod in (star_elem(x, xi), star_elem(xi, x)):
        assert prod.vector == V("0000") and prod.perm == identity(4)
    u = _elem("1111", [])
    y = _elem("0110", [(1, 3), (2, 4)])
    uy = star_elem(u, y)
    assert uy.vector == y.vector.complement() and uy.perm == y.perm
    e = _elem("0000", [])
    assert star_elem(e, e).vector == e.vector
    assert star_elem(u, u).vector == e.vector


def test_label_arithmetic():
    # exponents add along the cyclic generator: a^2 * a^3 = a^5
    assert label_product("2t22u", 4, (2, 0, 0), (3, 0, 0)) == (5, 0, 0)
    # wrapping past a^2t picks up u when a^2t = u
    assert label_product("4tu2", 2, (3, 0, 0), (1, 0, 0)) == (0, 0, 1)
    # b^2 = u in the 2t4u family
    assert label_product("2t4u", 2, (0, 1, 0), (0, 1, 0)) == (0, 0, 1)
    # quaternion: b a = a^-1 b and b^2 = a^2
    assert label_product("tqu", 3, (0, 0, 1), (0, 1, 0)) == (0, 3, 1)
    assert label_product("tqu", 3, (0, 0, 1), (0, 0, 1)) == (0, 2, 0)
    for tag, t, j_order, ks in (
        ("4tu2", 2, 4, (0, 1)),
        ("2t22u", 2, 4, (0, 1)),
        ("2t4u", 2, 4, (0, 1)),
        ("tqu", 3, 3, (0, 1, 2, 3)),
        ("cyclic4tu", 1, 4, (0,)),
    ):
        labels = [(j, k, l) for j in range(j_order) for k in ks for l in (0, 1)]
        # the labels form a group of order 8t: every label has exactly one
        # two-sided inverse, and multiplying by a label permutes the labels
        assert len(labels) == 8 * t
        for lab in labels:
            inverses = [y for y in labels if label_product(tag, t, lab, y) == (0, 0, 0)]
            assert len(inverses) == 1
            assert label_product(tag, t, inverses[0], lab) == (0, 0, 0)
            assert {label_product(tag, t, lab, y) for y in labels} == set(labels)


def test_element_power_examples():
    x = _elem("0110", [(1, 2, 3, 4)])
    assert element_power(x, 1) == x.vector
    assert element_power(x, 4) == V("0000")
    for i in range(1, 9):
        assert element_power(x, i) == iterated_star_power(x, i)
    with pytest.raises(ValueError):
        element_power(x, 0)


@given(st.integers(1, 12), st.data())
def test_element_power_matches_iterated_star_on_any_permutation(n, data):
    """Mixed cycle lengths and fixed points, powers past several laps."""
    p = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
    x = PropelinearElement(BitVector(n, data.draw(st.integers(0, (1 << n) - 1))), p)
    for i in range(1, 3 * n + 2):
        assert element_power(x, i) == iterated_star_power(x, i)


@given(st.integers(2, 12), st.data())
def test_element_power_on_elements_sharing_a_permutation(n, data):
    """Two vectors on one permutation, calls interleaved: no power leaks across."""
    p = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
    v1 = data.draw(st.integers(0, (1 << n) - 1))
    v2 = data.draw(st.integers(0, (1 << n) - 1).filter(lambda v: v != v1))
    x = PropelinearElement(BitVector(n, v1), p)
    y = PropelinearElement(BitVector(n, v2), p)
    for i in range(1, 2 * n + 2):
        assert element_power(x, i) == iterated_star_power(x, i)
        assert element_power(y, i) == iterated_star_power(y, i)


def _even_weight_generators():
    a = _elem("1100", [(1, 2), (3, 4)], (1, 0, 0))
    b = _elem("1010", [(1, 3), (2, 4)], (0, 1, 0))
    u = _elem("1111", [], (0, 0, 1))
    return [a, b, u]


def test_generate_group_even_weight_code():
    code = generate_group(_even_weight_generators(), 8, family="2t22u")
    assert code.size == 8
    assert {str(v) for v in code.vectors()} == {
        "0000", "1100", "1010", "1001", "0110", "0101", "0011", "1111"
    }
    labels = {e.vector.value: e.label for e in code.elements}
    assert labels[V("1100").value] == (1, 0, 0)
    assert is_propelinear(code)
    assert is_full_propelinear(code)
    assert associated_group_order(code) == 4


def test_generate_group_u_only():
    u = _elem("1111", [], (0, 0, 1))
    code = generate_group([u], 2, family="2t22u")
    assert {str(v) for v in code.vectors()} == {"0000", "1111"}
    assert associated_group_order(code) == 1
    assert is_propelinear(code)
    assert is_full_propelinear(code)


def test_generate_group_errors():
    gens = _even_weight_generators()
    with pytest.raises(SizeMismatch):
        generate_group(gens, 4, family="2t22u")
    with pytest.raises(SizeMismatch):
        generate_group(gens, 16, family="2t22u")
    # same vector under two different permutations is a degenerate candidate
    twin = [
        _elem("1100", [(1, 2), (3, 4)], (1, 0, 0)),
        _elem("1100", [(1, 3), (2, 4)], (0, 1, 0)),
    ]
    with pytest.raises(VectorCollision):
        generate_group(twin, 8, family="2t22u")


def test_is_propelinear_detects_corruption():
    code = generate_group(_even_weight_generators(), 8, family="2t22u")
    broken = []
    for e in code.elements:
        if str(e.vector) == "1001":
            broken.append(PropelinearElement(e.vector, from_cycles(4, [(1, 2)]), e.label))
        else:
            broken.append(e)
    bad = PropelinearCode(code.family, code.t, tuple(broken), code.generators)
    assert not is_propelinear(bad)
    assert not is_full_propelinear(bad)  # (1,2) fixes coordinates 3 and 4


def test_is_propelinear_checks_composition_of_permutations():
    """Every x + pi(y) stays in the code, but pi o pi != pi: only the
    composition check can fail."""
    code = generate_group(_even_weight_generators(), 8, family="2t22u")
    swap = from_cycles(4, [(1, 2), (3, 4)])
    elems = tuple(PropelinearElement(e.vector, swap, e.label) for e in code.elements)
    bad = PropelinearCode("2t22u", 1, elems, {})
    assert {star(x, y.vector).value for x in elems for y in elems} == bad.vector_values
    assert not is_propelinear(bad)


def test_full_propelinear_rejects_identity_on_interior_word():
    code = generate_group(_even_weight_generators(), 8, family="2t22u")
    elems = [
        PropelinearElement(e.vector, identity(4), e.label)
        if str(e.vector) == "0110"
        else e
        for e in code.elements
    ]
    bad = PropelinearCode("2t22u", 1, tuple(elems), {})
    assert not is_full_propelinear(bad)


def test_group_axioms_on_accepted_codes(accepted_pool):
    for (tag, t), result in accepted_pool.items():
        for acc in result.accepted[:8]:
            code = rebuild_code(acc)
            assert is_propelinear(code)
            assert is_full_propelinear(code)
            assert associated_group_order(code) == 4 * t
            # each permutation is shared by exactly one complement pair
            from collections import Counter

            counts = Counter(e.perm.images for e in code.elements)
            assert set(counts.values()) == {2}


def test_element_power_matches_star_on_accepted_codes(accepted_pool):
    for (tag, t), result in accepted_pool.items():
        for acc in result.accepted[:3]:
            code = rebuild_code(acc)
            for e in list(code.elements)[: 4 * t]:
                for i, power in enumerate(star_powers(e, 8 * t), start=1):
                    assert element_power(e, i) == power


def test_associativity_sampled(accepted_pool):
    result = accepted_pool[("tqu", 3)]
    code = rebuild_code(result.accepted[0])
    elems = list(code.elements)
    rule = lambda x, y: label_product("tqu", 3, x, y)
    for x in elems[::5]:
        for y in elems[::7]:
            for z in elems[::6]:
                left = labelled_star(labelled_star(x, y, rule), z, rule)
                right = labelled_star(x, labelled_star(y, z, rule), rule)
                assert left.vector == right.vector
                assert left.perm == right.perm
                assert left.label == right.label
