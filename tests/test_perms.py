from __future__ import annotations

import copy
import pickle
import random
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hfpc.families import FAMILY_TAGS, family_perms
from hfpc.gf2 import BitVector
from hfpc.perms import (
    Permutation,
    act,
    apply,
    compose,
    from_cycles,
    has_fixed_point,
    identity,
)

from helpers import apply_by_coordinates, apply_by_lowest_bit

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


def _assert_act_matches_oracles(p: Permutation, words) -> None:
    n = p.degree
    for x in words:
        v = BitVector(n, x)
        got = act(p, x)
        assert got == apply_by_coordinates(p, v).value, (p, x)
        assert got == apply_by_lowest_bit(p, v).value, (p, x)
        assert apply(p, v) == BitVector(n, got)


def test_act_matches_oracles_on_seeded_permutations():
    """Every degree 1-64, with and without a partial last byte, and a few
    degrees past 64."""
    rng = random.Random(1364)
    for n in list(range(1, 65)) + [65, 71, 72, 80]:
        full = (1 << n) - 1
        for _ in range(4):
            p = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            words = [0, full, 1, 1 << (n - 1)] + [rng.getrandbits(n) for _ in range(12)]
            _assert_act_matches_oracles(p, words)


def test_act_matches_oracles_on_family_generators():
    rng = random.Random(1365)
    for tag in FAMILY_TAGS:
        for t in range(1, 17):
            if tag == "tqu" and t % 2 == 0:
                continue
            n = 4 * t
            perms = list(family_perms(tag, t).values())
            if tag == "tqu":
                perms.append(compose(perms[1], perms[2]))  # pi_a pi_b
            words = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(8)]
            for p in perms:
                _assert_act_matches_oracles(p, words)


def test_permutation_pickles_and_copies_after_act():
    p = from_cycles(12, [(1, 5, 9), (2, 3)])
    v = V("100000000001")
    assert act(p, v.value) == apply(p, v).value
    for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert q == p and hash(q) == hash(p)
        assert apply(q, v) == V("000010000001")
