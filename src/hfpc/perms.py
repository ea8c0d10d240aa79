"""Permutations of 1-based coordinate sets and their action on bit vectors."""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import BitVector

__all__ = [
    "Permutation",
    "identity",
    "from_cycles",
    "apply",
    "compose",
    "has_fixed_point",
]


@dataclass(frozen=True, slots=True)
class Permutation:
    """Bijection of {1..n} stored as an image array: images[i-1] = pi(i)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError("images are not a bijection of 1..%d" % n)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, for logs."""
        seen: set[int] = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def from_cycles(n: int, cycles: list[tuple[int, ...]]) -> Permutation:
    images = list(range(1, n + 1))
    for cyc in cycles:
        for pos, i in enumerate(cyc):
            images[i - 1] = cyc[(pos + 1) % len(cyc)]
    return Permutation(tuple(images))


def apply(p: Permutation, v: BitVector) -> BitVector:
    """Coordinate action: result_i = v_{pi^{-1}(i)}."""
    n = v.n
    if p.degree != n:
        raise ValueError("degree %d != length %d" % (p.degree, n))
    images = p.images
    value = 0
    vv = v.value
    while vv:
        # the lowest set bit is coordinate n - pos; it moves to its image
        low = vv & -vv
        value |= 1 << (n - images[n - low.bit_length()])
        vv ^= low
    return BitVector(n, value)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p(q(i)); apply(compose(p,q), v) == apply(p, apply(q, v))."""
    if p.degree != q.degree:
        raise ValueError("degree mismatch")
    return Permutation(tuple(p.images[qi - 1] for qi in q.images))


def has_fixed_point(p: Permutation) -> bool:
    return any(p.images[i] == i + 1 for i in range(p.degree))
