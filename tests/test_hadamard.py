from __future__ import annotations

import random

import pytest

from hfpc import hadamard, search
from hfpc.families import Reject, assemble
from hfpc.gf2 import BitVector, _echelon, _reduced_basis
from hfpc.propelinear import PropelinearCode, PropelinearElement
from hfpc.search import SearchTask, run_search
from hfpc.hadamard import (
    bound_violations,
    is_hadamard_code,
    is_hadamard_matrix,
    kernel,
    profile,
    rank,
)
from helpers import (
    GENERATOR_A,
    GENERATOR_B,
    ORDER16_ROW_A,
    ORDER16_ROW_B,
    PROFILE_A,
    PROFILE_B,
    _real_double,
    all_weight_w,
    full_pairwise_is_hadamard_code,
    integer_is_hadamard_matrix,
    kernel_all_words,
    min_distance,
    rank_by_span,
    rebuild_code,
    span_of,
    translate_kernel,
)

V = BitVector.from_string

EVEN_WEIGHT_4 = [BitVector(4, x) for x in range(16) if bin(x).count("1") % 2 == 0]


def _circulant(row):
    n = len(row)
    return [[row[(j - i) % n] for j in range(n)] for i in range(n)]


def test_is_hadamard_matrix():
    assert is_hadamard_matrix([[1]])
    assert is_hadamard_matrix(_circulant([-1, 1, 1, 1]))
    assert not is_hadamard_matrix([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        is_hadamard_matrix([[1, 1]])
    with pytest.raises(ValueError):
        is_hadamard_matrix([[1, 0], [1, 1]])


def _sylvester(n: int) -> list[list[int]]:
    h = [[1]]
    while len(h) < n:
        h = [r + r for r in h] + [r + [-x for x in r] for r in h]
    return h


def _flip_one(m: list[list[int]], rng: random.Random) -> list[list[int]]:
    out = [list(r) for r in m]
    i, j = rng.randrange(len(m)), rng.randrange(len(m))
    out[i][j] = -out[i][j]
    return out


def test_bitmask_hadamard_matrix_matches_integer_oracle():
    from hfpc.cchm import QuaternaryRow

    rng = random.Random(1607)
    cases = []
    for n in range(1, 33):
        for _ in range(3):
            cases.append([[rng.choice((1, -1)) for _ in range(n)] for _ in range(n)])
    hadamard = [_sylvester(n) for n in (1, 2, 4, 8, 16, 32)]
    hadamard += [_real_double(QuaternaryRow.parse(r)) for r in (ORDER16_ROW_A, ORDER16_ROW_B)]
    for h in hadamard:
        cases += [h, _flip_one(h, rng)]
    # every row has n/2 entries -1, so every pair has even distance, yet the
    # rows are not all orthogonal: random balanced rows, and a Hadamard matrix
    # whose rows after the first are balanced with one of them repeated
    for n in range(2, 33, 2):
        for _ in range(3):
            rows = []
            for _ in range(n):
                row = [1] * (n // 2) + [-1] * (n // 2)
                rng.shuffle(row)
                rows.append(row)
            cases.append(rows)
    for n in (4, 8, 16, 32):
        h = _sylvester(n)[1:]
        cases.append(h + [h[rng.randrange(n - 1)]])
    verdicts = set()
    for m in cases:
        verdict = is_hadamard_matrix(m)
        assert verdict == integer_is_hadamard_matrix(m), m
        verdicts.add(verdict)
    assert verdicts == {True, False}
    assert all(is_hadamard_matrix(h) for h in hadamard)


def _failing_pairs(masks: list[int], n: int) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
        if bin(masks[i] ^ masks[j]).count("1") * 2 != n
    ]


def test_orthogonal_rows_rejects_a_single_failing_pair():
    # the one pairwise check behind the matrix and code verdicts and both scan
    # filters: replacing row j by a copy of row i (or of its complement) keeps
    # it orthogonal to every other row, so exactly the pair (i, j) fails
    for n in (4, 8, 16, 32):
        masks = [sum(1 << k for k, x in enumerate(r) if x == -1) for r in _sylvester(n)]
        full = (1 << n) - 1
        assert hadamard._orthogonal_rows(masks, n)
        for i, j, compl in ((0, 1, False), (n - 2, n - 1, False), (n // 2 - 1, n // 2, True)):
            bad = list(masks)
            bad[j] = masks[i] ^ full if compl else masks[i]
            assert _failing_pairs(bad, n) == [(i, j)]
            assert not hadamard._orthogonal_rows(bad, n), (n, i, j)
    # odd n: no distance is n/2, not even floor(n/2) or ceil(n/2)
    for n in (1, 3, 5, 7):
        for w in (n // 2, n // 2 + 1):
            assert not hadamard._orthogonal_rows([0, (1 << w) - 1], n)
            assert not hadamard._orthogonal_rows([1, 0, (1 << w) - 1], n)
        assert hadamard._orthogonal_rows([1], n)
    for n in (0, 1, 4):
        assert hadamard._orthogonal_rows([], n)
    assert hadamard._orthogonal_rows([5], 4)


def test_is_hadamard_code():
    assert is_hadamard_code(EVEN_WEIGHT_4, 1)
    removed = [v for v in EVEN_WEIGHT_4 if v.value != 15]
    assert not is_hadamard_code(removed, 1)
    # wrong-weight interloper
    broken = [v for v in EVEN_WEIGHT_4 if v.value != 3] + [V("0001")]
    assert not is_hadamard_code(broken, 1)


def _pool_vectors(accepted_pool):
    for (tag, t), result in accepted_pool.items():
        for acc in result.accepted:
            yield t, rebuild_code(acc).vectors()


def _random_weight(rng: random.Random, n: int, w: int) -> int:
    x = 0
    for p in rng.sample(range(n), w):
        x |= 1 << p
    return x


def test_representative_check_matches_full_pairwise_oracle(accepted_pool):
    rng = random.Random(20181)
    for t, vecs in _pool_vectors(accepted_pool):
        n = 4 * t
        full = (1 << n) - 1
        assert is_hadamard_code(vecs, t) and full_pairwise_is_hadamard_code(vecs, t)
        # one complement pair {v, v + u} swapped for a weight-2t pair: every
        # such swap for t <= 2, one random swap above
        vals = [v.value for v in vecs]
        inner = [x for x in vals if x not in (0, full)]
        if t <= 2:
            swaps = [(v, w) for v in inner for w in all_weight_w(n, 2 * t)]
        else:
            swaps = [(rng.choice(inner), _random_weight(rng, n, 2 * t))]
        for v, w in swaps:
            swapped = [x for x in vals if x not in (v, v ^ full)] + [w, w ^ full]
            swapped = [BitVector(n, x) for x in swapped]
            assert is_hadamard_code(swapped, t) == full_pairwise_is_hadamard_code(swapped, t)
    verdicts = set()
    for t in (1, 2, 3, 4, 5):
        n = 4 * t
        full = (1 << n) - 1
        for _ in range(40):
            reps = {0}
            while len(reps) < 4 * t:
                w = _random_weight(rng, n, 2 * t)
                reps.add(min(w, w ^ full))
            words = [BitVector(n, x) for r in reps for x in (r, r ^ full)]
            verdict = is_hadamard_code(words, t)
            assert verdict == full_pairwise_is_hadamard_code(words, t)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_profile_min_distance_matches_exhaustive(accepted_pool):
    for (tag, t), result in accepted_pool.items():
        for acc in result.accepted:
            code = rebuild_code(acc)
            assert profile(code).min_distance == min_distance(code.vectors())


def test_order16_code_is_hadamard():
    code = assemble("2t4u", 8, V(GENERATOR_A))
    assert is_hadamard_code(code.vectors(), 8)


def test_kernel_of_linear_code_is_the_code():
    basis, k = kernel(EVEN_WEIGHT_4)
    assert k == 3
    assert span_of([r.value for r in basis.rows]) == {v.value for v in EVEN_WEIGHT_4}


def test_kernel_examples():
    c1 = assemble("2t4u", 8, V(GENERATOR_A))
    assert kernel(c1.vectors())[1] == 2
    c2 = assemble("2t4u", 8, V(GENERATOR_B))
    assert kernel(c2.vectors())[1] == 1


def test_rank_examples():
    assert rank(EVEN_WEIGHT_4) == 3
    assert rank(assemble("2t4u", 8, V(GENERATOR_A)).vectors()) == 11
    assert rank(assemble("2t4u", 8, V(GENERATOR_B)).vectors()) == 13


def test_rank_matches_span_oracle(accepted_pool):
    from helpers import rebuild_code

    for result in accepted_pool.values():
        for acc in result.accepted[:2]:
            if acc.t > 4:
                continue
            vecs = rebuild_code(acc).vectors()
            assert rank(vecs) == rank_by_span(vecs)


def test_kernel_matches_exhaustive_oracle(accepted_pool):
    from helpers import rebuild_code

    for (tag, t), result in accepted_pool.items():
        if 4 * t > 16:
            continue
        for acc in result.accepted[:6]:
            vecs = rebuild_code(acc).vectors()
            basis, k = kernel(vecs)
            assert span_of([r.value for r in basis.rows]) == kernel_all_words(vecs)
            assert 1 << k == len(kernel_all_words(vecs))


def test_kernel_probes_keep_the_members(accepted_pool):
    # the probes z + c1, z + c2 only skip a full test that would fail: the
    # same members, in the same order, as testing every translate (the
    # definition, as z + C = C puts z = z + 0 in C), on every accepted code
    # with t <= 5 and on 200 seeded codes each of tqu t = 7 and 2t4u t = 8;
    # test_kernel_matches_exhaustive_oracle checks all of F^n for n <= 16
    rng = random.Random(1115)
    codes = [rebuild_code(a) for result in accepted_pool.values() for a in result.accepted]
    for tag, t in (("tqu", 7), ("2t4u", 8)):
        items, _ = search._scan(tag, t)
        codes += [search._verify(tag, t, item) for item in rng.sample(items, 200)]
    dims = set()
    for code in codes:
        members = hadamard._kernel(code.values)
        assert members == translate_kernel(code.values), code.values
        dims.add((code.t, len(_reduced_basis(members))))
    assert {(7, 1), (8, 1), (8, 2)} <= dims, dims


def test_rank_and_kernel_are_invariant_under_translation_by_a_codeword(accepted_pool):
    # x + C has the span and the kernel of C for x in C, as 0 is in C: the
    # fact behind run_search's one profile per translate class
    for (tag, t), result in accepted_pool.items():
        if t > 4:
            continue
        for acc in result.accepted:
            vals = rebuild_code(acc).values
            rk = (len(_echelon(vals)), _reduced_basis(hadamard._kernel(vals)))
            for x in vals:
                moved = [x ^ v for v in vals]
                assert (len(_echelon(moved)), _reduced_basis(hadamard._kernel(moved))) == rk


def test_kernel_tests_every_translate():
    """A nonzero subspace plus one word w: each nonzero z of the subspace
    keeps every word but w in the set, so only the translate of w rules it
    out, and the set has odd size, so its kernel is {0}."""
    rng = random.Random(2018)
    for n in range(3, 9):
        for _ in range(12):
            span = span_of([rng.randrange(1, 1 << n) for _ in range(rng.randint(1, n - 1))])
            outside = [x for x in range(1 << n) if x not in span]
            for extra in (max(outside), min(outside), rng.choice(outside)):
                vecs = [BitVector(n, x) for x in sorted(span | {extra})]
                basis, k = kernel(vecs)
                assert kernel_all_words(vecs) == {0}
                assert k == 0 and span_of([r.value for r in basis.rows]) == {0}


def test_kernel_dimension_invariant_under_translation():
    rng = random.Random(7)
    vecs = assemble("2t22u", 4, next(iter(_accepted_16()))).vectors()
    base = kernel_all_words(vecs)
    for _ in range(5):
        z = rng.randrange(1 << 16)
        translated = [v ^ BitVector(16, z) for v in vecs]
        assert kernel_all_words(translated) == base


def _accepted_16():
    from hfpc.search import SearchTask, run_search

    res = run_search(SearchTask("2t22u", 4, mode="first"))
    yield V(res.accepted[0].profile.generator_a)


def test_profile_examples(accepted_pool):
    assert {a.profile.rk for a in accepted_pool[("2t22u", 1)].accepted} == {(3, 3)}
    assert {a.profile.rk for a in accepted_pool[("tqu", 3)].accepted} == {(11, 1)}
    assert {a.profile.rk for a in accepted_pool[("2t4u", 4)].accepted} == {(7, 2)}


def test_profile_fields():
    code = assemble("2t4u", 8, V(GENERATOR_A))
    prof = profile(code)
    assert (prof.rank, prof.kernel_dim) == PROFILE_A
    assert prof.length == 32 and prof.size == 64
    assert prof.min_distance == 16
    assert prof.generator_a == GENERATOR_A
    assert prof.generator_d is None
    d = prof.to_json_dict()
    assert list(d) == [
        "family", "t", "length", "size", "rank", "kernel_dim",
        "kernel_basis", "generator_a", "generator_b", "generator_d",
    ]
    code2 = assemble("2t4u", 8, V(GENERATOR_B))
    assert profile(code2).rk == PROFILE_B


def _count_verdicts(monkeypatch) -> list[int]:
    calls = []
    words = hadamard._is_hadamard_words

    def counted(n, vals, t):
        calls.append(t)
        return words(n, vals, t)

    monkeypatch.setattr(hadamard, "_is_hadamard_words", counted)
    return calls


def test_hadamard_verdict_is_computed_once_per_code(monkeypatch):
    calls = _count_verdicts(monkeypatch)
    result = run_search(SearchTask("tqu", 5))
    # re-assembly checks each accepted code and profile reuses the verdict
    assert len(result.accepted) == result.distinct_code_sets == 120
    assert len(calls) == 120
    # a candidate that passes the power, order and relation checks and
    # fails only the Hadamard one
    del calls[:]
    rej = assemble("2t4u", 4, V("0000010101011111"))
    assert rej == Reject("hadamard", "distance profile is not 2t/4t")
    assert len(calls) == 1


def test_profile_refuses_hand_built_non_hadamard_codes(monkeypatch):
    code = assemble("2t4u", 4, V("0110100100001111"))
    assert profile(code).rk == (7, 2)
    # swap one complement pair {v, v + u} for another weight-8 pair
    full = (1 << 16) - 1
    v = code.values[2]
    w = V("1111111100000000").value
    assert w not in code.values
    swap = {v: w, v ^ full: w ^ full}
    values = tuple(swap.get(x, x) for x in code.values)
    elements = tuple(
        PropelinearElement(BitVector(16, x), p, label)
        for x, p, label in zip(values, code.perms, code.labels)
    )
    calls = _count_verdicts(monkeypatch)
    for bad in (
        PropelinearCode(code.family, code.t, elements, code.generators),
        PropelinearCode.from_words(
            code.family, code.t, values, code.perms, code.labels, code.generators
        ),
    ):
        for _ in range(2):
            with pytest.raises(ValueError, match="Hadamard"):
                profile(bad)
    assert len(calls) == 2  # once per code object


def test_min_distance():
    assert min_distance(EVEN_WEIGHT_4) == 2


def test_bound_checks():
    # length 4t = 2^s t'; all listed constraints hold on real profiles
    assert bound_violations(4, 8, 3, 3) == []
    assert bound_violations(8, 16, 4, 4) == []
    assert bound_violations(16, 32, 6, 3) == []
    assert bound_violations(32, 64, 11, 2) == []
    assert bound_violations(12, 24, 11, 1) == []
    # violations of each clause
    assert bound_violations(16, 32, 9, 2)  # r > 2t with s = 4
    assert bound_violations(8, 16, 3, 4)  # s = 3 requires r = 2t
    assert bound_violations(12, 24, 10, 1)  # s = 2 requires r = 4t - 1
    assert bound_violations(16, 32, 13, 5)  # nonlinear k above s - 1
    assert bound_violations(12, 24, 11, 2)  # odd t nonlinear needs k = 1


def test_bound_violations_refuses_nonpositive_length():
    # length 0 has no 2-adic valuation: it is refused, not halved forever
    for length in (0, -4):
        with pytest.raises(ValueError, match="length"):
            bound_violations(length, 0, 0, 0)


def test_bounds_clean_on_all_accepted(accepted_pool):
    for result in accepted_pool.values():
        for acc in result.accepted:
            p = acc.profile
            assert bound_violations(p.length, p.size, p.rank, p.kernel_dim) == []
            if acc.family in ("4tu2", "2t22u", "2t4u") and p.rank > p.kernel_dim:
                assert p.kernel_dim <= 3
