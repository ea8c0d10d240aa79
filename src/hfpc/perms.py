"""Permutations of 1-based coordinate sets and their action on bit vectors."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .gf2 import BitVector

__all__ = [
    "Permutation",
    "identity",
    "from_cycles",
    "act",
    "apply",
    "compose",
    "has_fixed_point",
]


@dataclass(frozen=True, slots=True)
class Permutation:
    """Bijection of {1..n} stored as an image array: images[i-1] = pi(i)."""

    images: tuple[int, ...]
    # the byte tables of act, kept on the object after its first act: finding
    # them by image array would hash the whole tuple on every call
    _tables: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError("images are not a bijection of 1..%d" % n)

    def __reduce__(self):
        # pickles and copies carry the images only; act rebuilds the tables
        return (Permutation, (self.images,))

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


def act(p: Permutation, value: int) -> int:
    """Coordinate action on an int word 0 <= value < 2^degree, without the
    BitVector: apply(p, v).value.

    One lookup per byte of the word, in tables built once per image array.
    """
    tables = p._tables
    if tables is None:
        tables = _byte_tables(p.images)
        object.__setattr__(p, "_tables", tables)
    out = 0
    for table in tables:
        out |= table[value & 0xFF]
        value >>= 8
    return out


@lru_cache(maxsize=256)
def _byte_tables(images: tuple[int, ...]) -> tuple:
    """Per byte of the word, lowest byte first: byte value -> its image bits.

    Bit pos of the word is coordinate n - pos; its image coordinate pi(n - pos)
    is bit n - pi(n - pos).  Up to 64 bits a table entry is one unsigned
    64-bit slot of a bytearray (2 KB per byte of the word), not an int object.
    """
    n = len(images)
    tables = []
    for lo in range(0, n, 8):
        bits = [1 << (n - images[n - pos - 1]) for pos in range(lo, min(lo + 8, n))]
        size = 1 << len(bits)
        table = memoryview(bytearray(8 * size)).cast("Q") if n <= 64 else [0] * size
        for byte in range(1, size):
            low = byte & -byte
            table[byte] = table[byte ^ low] | bits[low.bit_length() - 1]
        tables.append(table)
    return tuple(tables)


def apply(p: Permutation, v: BitVector) -> BitVector:
    """Coordinate action: result_i = v_{pi^{-1}(i)}."""
    if p.degree != v.n:
        raise ValueError("degree %d != length %d" % (p.degree, v.n))
    return BitVector(v.n, act(p, v.value))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p(q(i)); apply(compose(p,q), v) == apply(p, apply(q, v))."""
    if p.degree != q.degree:
        raise ValueError("degree mismatch")
    return Permutation(tuple(p.images[qi - 1] for qi in q.images))


def has_fixed_point(p: Permutation) -> bool:
    return any(p.images[i] == i + 1 for i in range(p.degree))
