"""Hadamard predicates, rank and kernel computation, code profiles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .gf2 import BitMatrix, BitVector, rank_gf2, row_space_basis
from .propelinear import PropelinearCode

__all__ = [
    "BoundViolation",
    "CodeProfile",
    "is_hadamard_matrix",
    "is_hadamard_code",
    "kernel",
    "rank",
    "min_distance",
    "profile",
    "bound_violations",
    "matrix_from_code_rows",
]


class BoundViolation(Exception):
    """A proven rank/kernel bound failed on a profiled code (implementation bug)."""


def is_hadamard_matrix(m: Sequence[Sequence[int]]) -> bool:
    """True iff the +-1 matrix satisfies H H^T = n I, checked over the integers."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")
        if any(x not in (1, -1) for x in row):
            raise ValueError("entries must be +-1")
    for i in range(n):
        for j in range(i + 1, n):
            if sum(a * b for a, b in zip(m[i], m[j])) != 0:
                return False
    return True


def _values(c: Iterable[BitVector]) -> tuple[int, list[int]]:
    vecs = list(c)
    if not vecs:
        raise ValueError("empty code")
    n = vecs[0].n
    if any(v.n != n for v in vecs):
        raise ValueError("mixed lengths")
    return n, [v.value for v in vecs]


def is_hadamard_code(c: Iterable[BitVector], t: int) -> bool:
    """Length 4t, 8t words, e and u present, complement-closed, and all
    distances 2t except complement pairs at 4t.

    Once the set is complement-closed, d(v + u, w) = 4t - d(v, w), so the
    distance condition holds exactly when the 4t representatives v < v + u
    are pairwise at distance 2t; only those pairs are compared.
    """
    n, vals = _values(c)
    if n != 4 * t:
        return False
    full = (1 << n) - 1
    vset = set(vals)
    if len(vset) != 8 * t or len(vals) != len(vset):
        return False
    if 0 not in vset or full not in vset:
        return False
    for v in vset:
        if v ^ full not in vset:
            return False
        if v not in (0, full) and v.bit_count() != 2 * t:
            return False
    reps = sorted(v for v in vset if v < v ^ full)
    for i, v in enumerate(reps):
        for w in reps[i + 1 :]:
            if (v ^ w).bit_count() != 2 * t:
                return False
    return True


def kernel(c: Iterable[BitVector]) -> tuple[BitMatrix, int]:
    """Basis and dimension of K(C) = {z : C + z = C}.

    Assumes e is a codeword, which forces K(C) to be a subset of C, so only
    translations by codewords are tested (hash-set membership, early exit).
    """
    n, vals = _values(c)
    vset = set(vals)
    if 0 not in vset:
        raise ValueError("kernel requires the all-zero codeword")
    members = [z for z in sorted(vset) if all(x ^ z in vset for x in vset)]
    basis = row_space_basis(
        BitMatrix(n, tuple(BitVector(n, z) for z in members))
    )
    return basis, len(basis)


def rank(c: Iterable[BitVector]) -> int:
    """Dimension of the GF(2) linear span of the code."""
    n, vals = _values(c)
    return rank_gf2(BitMatrix(n, tuple(BitVector(n, v) for v in vals)))


def min_distance(c: Iterable[BitVector]) -> int:
    """Exhaustive minimum pairwise distance."""
    _, vals = _values(c)
    vals = sorted(set(vals))
    best = None
    for i, v in enumerate(vals):
        for w in vals[i + 1 :]:
            d = (v ^ w).bit_count()
            if best is None or d < best:
                best = d
    if best is None:
        raise ValueError("need at least two codewords")
    return best


def _two_adic(n: int) -> tuple[int, int]:
    s = 0
    while n % 2 == 0:
        n //= 2
        s += 1
    return s, n


def bound_violations(length: int, size: int, r: int, k: int) -> list[str]:
    """Proven constraints on (rank, kernel) of a Hadamard code of this length.

    Nonlinearity means r > k.  The odd-t rank/kernel pin applies only to
    nonlinear codes (linear ones have r = k, e.g. (3,3) at length 4).
    """
    out = []
    s, tp = _two_adic(length)
    t = length // 4
    if r > (1 << (s + 1)) * tp // (1 << k) + k - 1:
        out.append("r > 2^(s+1)t'/2^k + k - 1")
    nonlinear = r > k
    if nonlinear and not 1 <= k <= s - 1:
        out.append("nonlinear code with k outside [1, s-1]")
    if s >= 3 and r > 2 * t:
        out.append("s >= 3 but r > 2t")
    if s == 3 and r != 2 * t:
        out.append("s = 3 but r != 2t")
    if s == 2 and r != 4 * t - 1:
        out.append("s = 2 but r != 4t - 1")
    if t % 2 == 1 and nonlinear and (r, k) != (4 * t - 1, 1):
        out.append("odd t nonlinear code with (r,k) != (4t-1, 1)")
    return out


TWO_GENERATOR_FAMILIES = ("4tu2", "2t22u", "2t4u")


@dataclass(frozen=True)
class CodeProfile:
    family: str | None
    t: int
    length: int
    size: int
    rank: int
    kernel_dim: int
    kernel_basis: tuple[str, ...]
    min_distance: int
    generator_a: str | None
    generator_b: str | None
    generator_d: str | None

    @property
    def rk(self) -> tuple[int, int]:
        return (self.rank, self.kernel_dim)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "t": self.t,
            "length": self.length,
            "size": self.size,
            "rank": self.rank,
            "kernel_dim": self.kernel_dim,
            "kernel_basis": list(self.kernel_basis),
            "generator_a": self.generator_a,
            "generator_b": self.generator_b,
            "generator_d": self.generator_d,
        }


def profile(c: PropelinearCode) -> CodeProfile:
    """Rank, kernel and minimum distance of an accepted code, with the proven
    bounds asserted; a violation raises BoundViolation.

    A Hadamard code holds e and words of weight 2t, and every distance is 2t
    or 4t, so its minimum distance is 2t.
    """
    vecs = c.vectors()
    n = c.length
    if not is_hadamard_code(vecs, c.t):
        raise ValueError("profile requires a Hadamard code")
    full = (1 << n) - 1
    # every word is a representative v < v + u or one plus u: same span
    r = rank([v for v in vecs if v.value < v.value ^ full] + [BitVector.ones(n)])
    kb, k = kernel(vecs)
    if not any(row.value == full for row in _kernel_span(kb, n)):
        raise BoundViolation("all-one vector missing from the kernel")
    problems = bound_violations(n, len(vecs), r, k)
    if c.family in TWO_GENERATOR_FAMILIES and r > k and k > 3:
        problems.append("nonlinear two-generator family with k > 3")
    if problems:
        raise BoundViolation(
            "code of length %d with (r,k)=(%d,%d): %s" % (n, r, k, "; ".join(problems))
        )
    gens = c.generators
    fmt = lambda name: str(gens[name].vector) if name in gens else None
    return CodeProfile(
        family=c.family,
        t=c.t,
        length=n,
        size=len(vecs),
        rank=r,
        kernel_dim=k,
        kernel_basis=tuple(str(row) for row in kb.rows),
        min_distance=2 * c.t,
        generator_a=fmt("a"),
        generator_b=fmt("b"),
        generator_d=fmt("d"),
    )


def _kernel_span(basis: BitMatrix, n: int) -> list[BitVector]:
    out = [BitVector.zero(n)]
    for row in basis.rows:
        out += [v ^ row for v in out]
    return out


def matrix_from_code_rows(rows: Sequence[BitVector]) -> list[list[int]]:
    """Binary rows to a +-1 matrix under the convention 0 -> +1, 1 -> -1."""
    return [[-1 if b else 1 for b in r.bits()] for r in rows]
