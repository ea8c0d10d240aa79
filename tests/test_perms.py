from __future__ import annotations

from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hfpc.gf2 import BitVector
from hfpc.perms import (
    Permutation,
    apply,
    compose,
    from_cycles,
    has_fixed_point,
    identity,
)

from helpers import apply_by_coordinates

V = BitVector.from_string


def test_apply_examples():
    swap = from_cycles(4, [(1, 2), (3, 4)])
    assert apply(swap, V("0011")) == V("0011")
    # result_i = v at the preimage coordinate: a 4-cycle shifts values forward
    cyc = from_cycles(4, [(1, 2, 3, 4)])
    assert apply(cyc, V("1000")) == V("0100")
    assert apply(identity(4), V("1011")) == V("1011")
    with pytest.raises(ValueError):
        apply(cyc, V("10000"))


def test_compose_examples():
    swap = from_cycles(4, [(1, 2)])
    assert compose(swap, swap) == identity(4)
    cyc = from_cycles(4, [(1, 2, 3, 4)])
    assert compose(cyc, cyc) == from_cycles(4, [(1, 3), (2, 4)])
    assert compose(cyc, identity(4)) == cyc


def test_has_fixed_point():
    assert has_fixed_point(identity(3))
    assert not has_fixed_point(from_cycles(4, [(1, 2), (3, 4)]))
    assert has_fixed_point(from_cycles(4, [(1, 2)]))


def test_bad_images_rejected():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_cycle_text_form():
    p = from_cycles(8, [(1, 2, 3, 4), (5, 6, 7, 8)])
    assert str(p) == "(1,2,3,4)(5,6,7,8)"
    assert str(identity(4)) == "()"


@given(st.integers(2, 10), st.data())
def test_apply_respects_composition(n, data):
    p = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
    q = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
    v = BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
    assert apply(compose(p, q), v) == apply(p, apply(q, v))


@given(st.integers(2, 10), st.data())
def test_power_at_order_is_identity(n, data):
    p = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
    cycle_lengths = [len(c) for c in p.cycles()] or [1]
    order = lcm(*cycle_lengths)
    # p^k by repeated composition: the identity first at k = order, the lcm
    # of the cycle lengths that cycles() reports
    power = p
    for _ in range(order - 1):
        assert power != identity(n)
        power = compose(power, p)
    assert power == identity(n)


@given(st.integers(1, 40), st.data())
def test_apply_matches_coordinate_oracle(n, data):
    p = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
    full = (1 << n) - 1
    v = data.draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    for x in (v, 0, full):
        assert apply(p, BitVector(n, x)) == apply_by_coordinates(p, BitVector(n, x))
