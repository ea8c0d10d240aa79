from __future__ import annotations

import random

import pytest

from hfpc.families import assemble
from hfpc.gf2 import BitVector
from hfpc.hadamard import (
    bound_violations,
    is_hadamard_code,
    is_hadamard_matrix,
    kernel,
    matrix_from_code_rows,
    min_distance,
    profile,
    rank,
)
from helpers import (
    GENERATOR_A,
    GENERATOR_B,
    PROFILE_A,
    PROFILE_B,
    all_weight_w,
    full_pairwise_is_hadamard_code,
    kernel_all_words,
    rank_by_span,
    rebuild_code,
    span_of,
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


def test_min_distance():
    assert min_distance(EVEN_WEIGHT_4) == 2


def test_matrix_conversion_convention():
    rows = [V("0000"), V("0110")]
    assert matrix_from_code_rows(rows) == [[1, 1, 1, 1], [1, -1, -1, 1]]


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


def test_bounds_clean_on_all_accepted(accepted_pool):
    for result in accepted_pool.values():
        for acc in result.accepted:
            p = acc.profile
            assert bound_violations(p.length, p.size, p.rank, p.kernel_dim) == []
            if acc.family in ("4tu2", "2t22u", "2t4u") and p.rank > p.kernel_dim:
                assert p.kernel_dim <= 3
