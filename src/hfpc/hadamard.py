"""Hadamard predicates, rank and kernel computation, code profiles."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import lshift, lt
from typing import Iterable, Sequence

from .gf2 import BitMatrix, BitVector, _echelon, _reduced_basis
from .propelinear import PropelinearCode

__all__ = [
    "BoundViolation",
    "CodeProfile",
    "is_hadamard_matrix",
    "is_hadamard_code",
    "code_is_hadamard",
    "kernel",
    "rank",
    "profile",
    "bound_violations",
]


class BoundViolation(Exception):
    """A proven rank/kernel bound failed on a profiled code (implementation bug)."""


def is_hadamard_matrix(m: Sequence[Sequence[int]]) -> bool:
    """True iff the +-1 matrix satisfies H H^T = n I, checked exactly."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")
        if any(x not in (1, -1) for x in row):
            raise ValueError("entries must be +-1")
    masks = [sum(1 << j for j, x in enumerate(row) if x == -1) for row in m]
    return _orthogonal_rows(masks, n)


def _orthogonal_rows(masks: Sequence[int], n: int) -> bool:
    """True iff the +-1 rows of length n, given as the masks m_i of their -1
    entries, are pairwise orthogonal.  The inner product of rows i and j is
    n - 2 wt(m_i + m_j), so as binary words the masks are then pairwise at
    distance n/2.  This is the package's one pairwise distance check: the
    matrix and code verdicts and the CCHM conversion call it.  The scan's
    filters need none: their group codes are distance-invariant, so the
    weights decide.

    The m masks sit in W-bit slots of one int, W a power of two at least
    max(n, 8).  For k = 1 .. m // 2 the packed rows are xored with their
    rotation by k slots, so that slot i holds m_i + m_{i+k mod m}, and every
    slot's popcount is taken at once (Hacker's Delight, ch. 5): bits summed
    in pairs, nibbles and bytes by masked shifts, bytes widened to F-bit
    fields until a count of W bits cannot overflow one, then the fields of
    each slot summed into its top field by one multiplication.  Each pair
    (i, j) is some (i, i + k) or (j, j + k), so every pair is counted.
    """
    m = len(masks)
    if m < 2:
        return True
    if n % 2:
        return False
    # a mask wider than n still has all its bits counted
    w, shifts, ones, low, m1, m2, m4, widen, fields, tops, lift = _slot_masks(
        m, max(n, max(masks).bit_length())
    )
    packed = sum(map(lshift, masks, shifts))
    doubled = packed | packed << (m * w)
    target = (n // 2) * ones << lift
    for k in range(w, (m // 2) * w + 1, w):
        x = packed ^ (doubled >> k & low)
        x -= x >> 1 & m1
        x = (x & m2) + (x >> 2 & m2)
        x = (x + (x >> 4)) & m4
        for s, ms in widen:
            x = (x + (x >> s)) & ms
        if x * fields & tops != target:
            return False
    return True


@lru_cache(maxsize=256)
def _slot_masks(m: int, width: int) -> tuple:
    """The slot width W and the masks _orthogonal_rows uses on m slots of
    W >= width bits, built on first use: the slot shifts, a 1 in every
    slot, the mask of all m slots, the 2-, 4- and 8-bit popcount masks, one
    (s, mask) step per doubling of the count fields from bytes to F bits,
    with 2^F > W, the multiplier that sums the fields of a slot into its top
    field, the mask of those top fields and their offset W - F in the slot.
    A field sum in the product covers W / F fields, at most W bits, so it
    never carries into the next field."""
    w = 8
    while w < width:
        w <<= 1
    f = 8
    while 1 << f <= w:
        f <<= 1
    total = m * w

    def every(unit: int, period: int) -> int:
        return sum(unit << s for s in range(0, total, period))

    widen = []
    s = 8
    while s < f:
        widen.append((s, every((1 << s) - 1, 2 * s)))
        s <<= 1
    return (
        w,
        tuple(range(0, total, w)),
        every(1, w),
        (1 << total) - 1,
        every(0b01, 2),
        every(0b0011, 4),
        every(0x0F, 8),
        tuple(widen),
        sum(1 << s for s in range(0, w, f)),
        every((1 << f) - 1 << (w - f), w),
        w - f,
    )


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
    distances 2t except complement pairs at 4t."""
    n, vals = _values(c)
    return _is_hadamard_words(n, vals, t)


def code_is_hadamard(c: PropelinearCode) -> bool:
    """is_hadamard_code on the words of c, computed once per code object."""
    if c._hadamard is None:
        c._hadamard = _is_hadamard_words(c.length, c.values, c.t)
    return c._hadamard


def _is_hadamard_words(n: int, vals: Sequence[int], t: int) -> bool:
    """is_hadamard_code on int words of length n, in one sorted pass.

    The 8t sorted words s must be distinct and start at e = 0.  On distinct
    n-bit words v -> v + u reverses the order, so the set is complement-closed
    (and holds u = s[-1]) exactly when s[i] + s[-1-i] = u for every i, and
    its representatives v < v + u are then the first 4t words.  Once the set
    is complement-closed, d(v + u, w) = 4t - d(v, w), so the distance
    condition holds exactly when the representatives have weight 0 (e alone)
    or 2t and are pairwise at distance 2t: the rows of a Hadamard matrix of
    order 4t, checked by _orthogonal_rows.
    """
    if n != 4 * t or t < 1 or len(vals) != 8 * t:
        return False
    s = sorted(vals)
    if s[0] != 0 or not all(map(lt, s, islice(s, 1, None))):
        return False
    half = 4 * t
    reps = s[:half]
    full = (1 << n) - 1
    if list(map(full.__xor__, reps)) != s[: half - 1 : -1]:
        return False
    if not {0, 2 * t}.issuperset(map(int.bit_count, reps)):
        return False
    return _orthogonal_rows(reps, n)


def kernel(c: Iterable[BitVector]) -> tuple[BitMatrix, int]:
    """Reduced-echelon basis and dimension of K(C) = {z : C + z = C}."""
    n, vals = _values(c)
    basis = _reduced_basis(_kernel(vals))
    return BitMatrix(n, tuple(BitVector(n, v) for v in basis)), len(basis)


def _kernel(vals: Sequence[int]) -> list[int]:
    """The members of K(C), a subspace.  Assumes e is a codeword, which forces
    K(C) into C, so only translations by codewords are tested.  Two probes
    z + c1 and z + c2, for codewords c1, c2 other than e and the largest word
    (u, when C holds it), reject almost every z before the full test."""
    vset = set(vals)
    if 0 not in vset:
        raise ValueError("kernel requires the all-zero codeword")
    top = max(vset)
    c1, c2, *_ = [c for c in vals if c and c != top][:2] + [0, 0]
    return [
        z
        for z in vset
        if z ^ c1 in vset and z ^ c2 in vset and vset.issuperset(map(z.__xor__, vset))
    ]


def rank(c: Iterable[BitVector]) -> int:
    """Dimension of the GF(2) linear span of the code."""
    _, vals = _values(c)
    return len(_echelon(vals))


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
    if length < 1:
        raise ValueError("code length must be positive")
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
    if not code_is_hadamard(c):
        raise ValueError("profile requires a Hadamard code")
    n = c.length
    vals = c.values
    full = (1 << n) - 1
    # every word is a representative v < v + u or one plus u: same span
    r = len(_echelon([v for v in vals if v < v ^ full] + [full]))
    members = _kernel(vals)
    if full not in members:  # K(C) is a subspace: its span holds no other word
        raise BoundViolation("all-one vector missing from the kernel")
    kb = _reduced_basis(members)
    k = len(kb)
    problems = bound_violations(n, len(vals), r, k)
    if c.family in TWO_GENERATOR_FAMILIES and r > k and k > 3:
        problems.append("nonlinear two-generator family with k > 3")
    if problems:
        raise BoundViolation(
            "code of length %d with (r,k)=(%d,%d): %s" % (n, r, k, "; ".join(problems))
        )
    return CodeProfile(
        family=c.family,
        t=c.t,
        length=n,
        size=len(vals),
        rank=r,
        kernel_dim=k,
        kernel_basis=tuple(format(v, "0%db" % n) for v in kb),
        min_distance=2 * c.t,
        **_generator_fields(c),
    )


def _generator_fields(c: PropelinearCode) -> dict[str, str | None]:
    """generator_a, _b and _d of c's profile: None where c has no such generator."""
    form = "0%db" % c.length
    words = {g: c.generator_word(g) for g in "abd"}
    return {"generator_" + g: None if w is None else format(w, form) for g, w in words.items()}


def _with_generators(prof: CodeProfile, c: PropelinearCode) -> CodeProfile:
    """The profile of a translate of c's class: prof with c's own generator
    fields, as dataclasses.replace(prof, **_generator_fields(c)) gives it,
    without replace's walk over the fields and a call of __init__."""
    out = object.__new__(CodeProfile)
    fields = out.__dict__
    fields.update(prof.__dict__)
    fields.update(_generator_fields(c))
    return out
