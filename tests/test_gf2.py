from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hfpc.gf2 import BitMatrix, BitVector, rank_gf2, row_space_basis
from helpers import rank_by_span, span_of

V = BitVector.from_string


def test_weight():
    assert V("0000").weight() == 0
    assert V("1111").weight() == 4
    assert V("0110").weight() == 2


def test_distance():
    # Hamming distance is the weight of the sum
    assert (V("0000") ^ V("1111")).weight() == 4
    assert (V("1010") ^ V("1010")).weight() == 0
    assert (V("1100") ^ V("1010")).weight() == 2
    with pytest.raises(ValueError):
        V("110") ^ V("1100")


def test_complement():
    assert V("0000").complement() == V("1111")
    assert V("0110").complement() == V("1001")
    assert V("0110100").complement().complement() == V("0110100")


def test_string_round_trip_and_coordinates():
    v = V("10110")
    assert str(v) == "10110"
    assert [v.bit(i) for i in range(1, 6)] == [1, 0, 1, 1, 0]
    with pytest.raises(IndexError):
        v.bit(6)
    assert BitVector.from_bits([1, 0, 1, 1, 0]) == v


def test_rank_examples():
    assert rank_gf2(BitMatrix.from_strings(["0000"])) == 0
    assert rank_gf2(BitMatrix.from_strings(["1100", "0011", "1111"])) == 2
    even = [BitVector(4, x) for x in range(16) if bin(x).count("1") % 2 == 0]
    m = BitMatrix(4, tuple(even))
    assert rank_gf2(m) == 3
    # independent check: the span of three independent even-weight words
    assert len(span_of([v.value for v in even])) == 8
    assert rank_by_span(even) == 3


def test_row_space_basis():
    assert [str(r) for r in row_space_basis(BitMatrix.from_strings(["1111", "1111"])).rows] == ["1111"]
    assert row_space_basis(BitMatrix.from_strings(["0000"])).rows == ()
    basis = row_space_basis(BitMatrix.from_strings(["1100", "1111"]))
    assert [str(r) for r in basis.rows] == ["1100", "0011"]


@given(st.integers(1, 12), st.data())
def test_distance_is_a_metric(n, data):
    bits = st.integers(0, (1 << n) - 1)
    x = BitVector(n, data.draw(bits))
    y = BitVector(n, data.draw(bits))
    z = BitVector(n, data.draw(bits))
    dxy, dyz, dxz = (x ^ y).weight(), (y ^ z).weight(), (x ^ z).weight()
    assert dxy == (x.value ^ y.value).bit_count()
    assert dxy == (y ^ x).weight()
    assert (dxy == 0) == (x == y)
    assert dxz <= dxy + dyz


@given(st.integers(1, 10), st.lists(st.integers(0, 1023), min_size=1, max_size=6), st.data())
def test_rank_invariant_under_row_operations(n, raw, data):
    rows = [BitVector(n, r & ((1 << n) - 1)) for r in raw]
    m = BitMatrix(n, tuple(rows))
    r = rank_gf2(m)
    assert r <= min(len(rows), n)
    perm = data.draw(st.permutations(rows))
    assert rank_gf2(BitMatrix(n, tuple(perm))) == r
    if len(rows) >= 2:
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows) - 1))
        if i != j:
            added = list(rows)
            added[i] = added[i] ^ added[j]
            assert rank_gf2(BitMatrix(n, tuple(added))) == r


@given(st.integers(1, 8), st.lists(st.integers(0, 255), max_size=5))
def test_basis_preserves_span(n, raw):
    rows = [BitVector(n, r & ((1 << n) - 1)) for r in raw]
    m = BitMatrix(n, tuple(rows))
    basis = row_space_basis(m)
    assert len(basis.rows) == rank_gf2(m)
    assert span_of([v.value for v in basis.rows]) == span_of([v.value for v in rows])
    # reduced echelon form: rows strictly descending, and each row's leading
    # bit set in no other row
    values = [v.value for v in basis.rows]
    assert all(values) and values == sorted(set(values), reverse=True)
    for i, v in enumerate(values):
        lead = 1 << (v.bit_length() - 1)
        assert all(not w & lead for j, w in enumerate(values) if j != i)
