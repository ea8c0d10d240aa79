from __future__ import annotations

import random
from math import gcd, isqrt

import pytest

from hfpc.cchm import (
    InvalidInput,
    NotCCHM,
    QuaternaryRow,
    _doubled_rows,
    cchm_equivalent,
    cchm_to_code,
    code_to_cchm,
    is_cchm,
    sylvester_double,
)
from hfpc.families import Reject, assemble
from hfpc.gf2 import BitVector
from hfpc.hadamard import (
    _orthogonal_rows,
    is_hadamard_code,
    is_hadamard_matrix,
    kernel,
    rank,
)
from hfpc.search import SearchTask, run_search
from helpers import (
    GENERATOR_A,
    GENERATOR_B,
    ORDER16_ROW_A,
    ORDER16_ROW_B,
    PROFILE_A,
    PROFILE_B,
    _real_double,
    matrix_cchm_to_code,
    rebuild_code,
    span_of,
)

V = BitVector.from_string
ROW_A = QuaternaryRow.parse(ORDER16_ROW_A)
ROW_B = QuaternaryRow.parse(ORDER16_ROW_B)


def test_row_parsing():
    assert ROW_A.exponents == (0, 0, 1, 3, 1, 0, 0, 1, 2, 0, 3, 3, 3, 0, 2, 1)
    assert str(ROW_A) == ORDER16_ROW_A
    assert QuaternaryRow.parse("0,1,2,3").exponents == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        QuaternaryRow.parse("1,x")
    with pytest.raises(ValueError):
        QuaternaryRow((0, 1, 2))  # odd length


def test_is_cchm():
    assert is_cchm(QuaternaryRow((0, 1)))
    assert is_cchm(ROW_A)
    assert is_cchm(ROW_B)
    assert not is_cchm(QuaternaryRow((0, 0)))


def test_cchm_to_code_order4():
    code = cchm_to_code(QuaternaryRow((0, 1)))
    assert {str(v) for v in code} == {
        format(x, "04b") for x in range(16) if bin(x).count("1") % 2 == 0
    }
    assert rank(code) == 3 and kernel(code)[1] == 3


def test_cchm_to_code_order16():
    code_a = cchm_to_code(ROW_A)
    assert is_hadamard_code(code_a, 8)
    assert (rank(code_a), kernel(code_a)[1]) == PROFILE_A
    code_b = cchm_to_code(ROW_B)
    assert (rank(code_b), kernel(code_b)[1]) == PROFILE_B
    with pytest.raises(NotCCHM):
        cchm_to_code(QuaternaryRow((0, 0)))


def test_code_to_cchm_matches_known_rows():
    c1 = assemble("2t4u", 8, V(GENERATOR_A))
    out1 = code_to_cchm(c1)
    assert is_cchm(out1)
    assert cchm_equivalent(out1, ROW_A)
    c2 = assemble("2t4u", 8, V(GENERATOR_B))
    out2 = code_to_cchm(c2)
    assert cchm_equivalent(out2, ROW_B)
    # the two codes are inequivalent rows as well
    assert not cchm_equivalent(out1, out2)
    # the exact rows `hfpc cchm from-code` prints for the two generators
    assert str(out1) == "-i,1,i,-i,-1,-1,-1,-i,i,1,-i,-i,1,-1,1,-i"
    assert str(out2) == "-i,1,i,-i,-1,i,-i,-i,i,-1,i,-i,1,-i,-i,-i"


def test_code_to_cchm_small():
    c = assemble("2t4u", 1, V("1100"))
    row = code_to_cchm(c)
    assert len(row) == 2 and is_cchm(row)


def test_code_to_cchm_on_all_accepted(accepted_pool):
    for t in (1, 2, 4):
        for acc in accepted_pool[("2t4u", t)].accepted:
            row = code_to_cchm(rebuild_code(acc))
            assert is_cchm(row)


def test_round_trip_preserves_profile(accepted_pool):
    for t in (1, 2, 4):
        for acc in accepted_pool[("2t4u", t)].accepted:
            code = rebuild_code(acc)
            back = cchm_to_code(code_to_cchm(code))
            assert is_hadamard_code(back, t)
            assert rank(back) == acc.profile.rank
            assert kernel(back)[1] == acc.profile.kernel_dim


def test_cchm_equivalent_basic_ops():
    row = ROW_A.exponents
    n = len(row)
    shifted = QuaternaryRow(tuple(row[(j + 1) % n] for j in range(n)))
    assert cchm_equivalent(ROW_A, shifted)
    scaled = QuaternaryRow(tuple((c + 1) % 4 for c in row))
    assert cchm_equivalent(ROW_A, scaled)
    conj = QuaternaryRow(tuple((-c) % 4 for c in row))
    assert cchm_equivalent(ROW_A, conj)
    decimated = QuaternaryRow(tuple(row[(3 * j) % n] for j in range(n)))
    assert cchm_equivalent(ROW_A, decimated)
    with pytest.raises(ValueError):
        cchm_equivalent(ROW_A, QuaternaryRow((0, 1)))


def test_cchm_equivalent_constant_rows():
    # every listed operation preserves "all entries equal", so a constant row
    # is equivalent exactly to the constant rows
    assert cchm_equivalent(QuaternaryRow((0, 0)), QuaternaryRow((1, 1)))
    assert not cchm_equivalent(QuaternaryRow((0, 0)), QuaternaryRow((0, 2)))
    assert not cchm_equivalent(QuaternaryRow((0, 1)), QuaternaryRow((0, 2)))
    assert cchm_equivalent(QuaternaryRow((0, 1)), QuaternaryRow((1, 0)))


def test_equivalence_ops_preserve_cchm():
    rng = random.Random(3)
    rows = [ROW_A, ROW_B, QuaternaryRow((0, 1)), QuaternaryRow((0, 0, 1, 2))]
    for row in rows:
        base = is_cchm(row)
        n = len(row)
        c = row.exponents
        g = rng.randrange(4)
        variants = [
            tuple(c[(j + 1) % n] for j in range(n)),
            tuple((x + g) % 4 for x in c),
            tuple((-x) % 4 for x in c),
        ]
        for m in range(3, n, 2):
            from math import gcd

            if gcd(m, n) == 1:
                variants.append(tuple(c[(m * j) % n] for j in range(n)))
        for var in variants:
            assert is_cchm(QuaternaryRow(var)) == base


def test_block_substitution_differential():
    """The doubled matrix is Hadamard exactly when the row is a CCHM."""
    rng = random.Random(11)
    rows = [ROW_A, QuaternaryRow((0, 1)), QuaternaryRow((0, 0)), QuaternaryRow((1, 3, 2, 2))]
    for _ in range(6):
        rows.append(QuaternaryRow(tuple(rng.randrange(4) for _ in range(4))))
    for row in rows:
        assert is_hadamard_matrix(_real_double(row)) == is_cchm(row)
        assert _orthogonal_rows(_doubled_rows(row), 2 * len(row)) == is_cchm(row)


def _image(row: QuaternaryRow, rng: random.Random) -> QuaternaryRow:
    """j -> eps * r[(m j + s) mod n] + g with gcd(m, n) = 1: a CCHM row's
    image is a CCHM row."""
    c = row.exponents
    n = len(c)
    eps = rng.choice((1, -1))
    m = rng.choice([m for m in range(1, n) if gcd(m, n) == 1])
    s, g = rng.randrange(n), rng.randrange(4)
    return QuaternaryRow(tuple((eps * c[(m * j + s) % n] + g) % 4 for j in range(n)))


def _masks(matrix: list[list[int]]) -> list[int]:
    return [int("".join("1" if x == -1 else "0" for x in r), 2) for r in matrix]


def test_doubled_rows_match_block_matrix():
    rng = random.Random(23)
    rows = [QuaternaryRow(c) for c in ((0, 1), (0, 0, 0, 2), (0, 0, 0, 1, 2, 0, 2, 1))]
    rows += [ROW_A, ROW_B]
    rows += [_image(row, rng) for row in rows for _ in range(5)]
    assert all(is_cchm(row) for row in rows)
    for n in range(2, 17, 2):
        for _ in range(20):
            rows.append(QuaternaryRow(tuple(rng.randrange(4) for _ in range(n))))
    assert not all(is_cchm(row) for row in rows)
    for row in rows:
        assert _doubled_rows(row) == _masks(_real_double(row)), row


def test_cchm_to_code_matches_matrix_construction(accepted_pool):
    # every row code_to_cchm gives from the accepted 2t4u codes of t = 1, 2,
    # 4 and 8, one seeded image of each at t <= 4 and 200 at t = 8
    rng = random.Random(29)
    rows = []
    for t in (1, 2, 4):
        found = [code_to_cchm(rebuild_code(a)) for a in accepted_pool[("2t4u", t)].accepted]
        rows += found + [_image(row, rng) for row in found]
    found = [code_to_cchm(rebuild_code(a)) for a in run_search(SearchTask("2t4u", 8)).accepted]
    assert len(found) == 1_536
    rows += found + [_image(row, rng) for row in rng.sample(found, 200)]
    for row in rows:
        assert cchm_to_code(row) == matrix_cchm_to_code(row), row


def test_sylvester_double_example():
    code = sylvester_double(V("0110"))
    assert code.length == 8 and code.size == 16
    assert is_hadamard_code(code.vectors(), 2)
    basis, k = kernel(code.vectors())
    spanned = span_of([r.value for r in basis.rows])
    assert V("00001111").value in spanned
    assert V("11111111").value in spanned
    assert k >= 2
    assert str(code.generators["a"].vector) == "01100110"
    assert str(code.generators["b"].vector) == "00001111"


def test_sylvester_double_rejects_non_circulant():
    with pytest.raises(InvalidInput):
        sylvester_double(V("0101"))  # a^2 is the all-one word: wrong weight
    with pytest.raises(InvalidInput):
        sylvester_double(V("1110"))  # wrong weight


def test_conversion_requires_2t4u():
    code = assemble("2t22u", 1, V("1100"))
    assert not isinstance(code, Reject)
    with pytest.raises(ValueError):
        code_to_cchm(code)


def _sum_of_two_squares(m: int) -> bool:
    return any(isqrt(m - a * a) ** 2 == m - a * a for a in range(isqrt(m) + 1))


def test_2t4u_cells_whose_order_is_no_sum_of_two_squares_are_empty(accepted_pool):
    """A 2t4u code of length 4t gives a CCHM M of order 2t.  M 1 = s 1 with
    s the row sum, a Gaussian integer, and M M* = 2t I, so |s|^2 = 2t: a cell
    where 2t is not a sum of two integer squares holds no code."""
    failing = [t for t in range(2, 11, 2) if not _sum_of_two_squares(2 * t)]
    assert failing == [6]
    for t in failing:
        result = run_search(SearchTask("2t4u", t))
        assert result.accepted == [] and result.counters["accepted"] == 0, t
    # the non-empty cells obey the rule, and their rows have |s|^2 = 2t
    assert all(_sum_of_two_squares(2 * t) for t in (2, 4, 8))
    rows = [ROW_A, ROW_B]
    for t in (2, 4):
        rows += [code_to_cchm(rebuild_code(acc)) for acc in accepted_pool[("2t4u", t)].accepted]
    for row in rows:
        c = row.exponents
        re, im = c.count(0) - c.count(2), c.count(1) - c.count(3)
        assert re * re + im * im == len(c), row
