"""Exact GF(2) vectors and matrices backed by int bitsets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "BitVector",
    "BitMatrix",
    "rank_gf2",
    "row_space_basis",
]


@dataclass(frozen=True, slots=True)
class BitVector:
    """Binary word of fixed length n.

    Coordinates are 1-based; coordinate 1 is the leftmost character of the
    text form and the most significant bit of ``value``.  Lexicographic order
    on text forms therefore coincides with integer order on ``value``.
    """

    n: int
    value: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("length must be positive")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError("value out of range for length %d" % self.n)

    @classmethod
    def from_string(cls, text: str) -> BitVector:
        text = text.strip().replace(",", "").replace(" ", "")
        if not text or set(text) - {"0", "1"}:
            raise ValueError("expected a nonempty string of 0/1 characters")
        return cls(len(text), int(text, 2))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> BitVector:
        seq = list(bits)
        value = 0
        for b in seq:
            value = (value << 1) | (b & 1)
        return cls(len(seq), value)

    @classmethod
    def zero(cls, n: int) -> BitVector:
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> BitVector:
        return cls(n, (1 << n) - 1)

    def bit(self, i: int) -> int:
        """Coordinate i, 1-based."""
        if not 1 <= i <= self.n:
            raise IndexError("coordinate %d out of [1, %d]" % (i, self.n))
        return (self.value >> (self.n - i)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> (self.n - i)) & 1 for i in range(1, self.n + 1))

    def weight(self) -> int:
        return self.value.bit_count()

    def complement(self) -> BitVector:
        return BitVector(self.n, self.value ^ ((1 << self.n) - 1))

    def __xor__(self, other: BitVector) -> BitVector:
        if self.n != other.n:
            raise ValueError("length mismatch: %d vs %d" % (self.n, other.n))
        return BitVector(self.n, self.value ^ other.value)

    __add__ = __xor__  # GF(2) addition

    def __str__(self) -> str:
        return format(self.value, "0%db" % self.n)


@dataclass(frozen=True)
class BitMatrix:
    """Rectangular list of equal-length rows; may have zero rows."""

    width: int
    rows: tuple[BitVector, ...]

    def __post_init__(self) -> None:
        for r in self.rows:
            if r.n != self.width:
                raise ValueError("row length %d != width %d" % (r.n, self.width))

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> BitMatrix:
        vecs = tuple(BitVector.from_string(r) for r in rows)
        if not vecs:
            raise ValueError("cannot infer width from zero rows")
        return cls(vecs[0].n, vecs)

    def __len__(self) -> int:
        return len(self.rows)


def _echelon(values: Iterable[int]) -> dict[int, int]:
    """Row-echelon basis over GF(2): pivot -> the basis row whose leading
    (highest) set bit is that pivot, pivots given as bit lengths."""
    rows: dict[int, int] = {}
    for v in values:
        while v:
            pivot = v.bit_length()
            b = rows.get(pivot)
            if b is None:
                rows[pivot] = v
                break
            v ^= b
    return rows


def rank_gf2(m: BitMatrix) -> int:
    """Dimension of the GF(2) span of the rows."""
    return len(_echelon(r.value for r in m.rows))


def _reduced_basis(values: Iterable[int]) -> list[int]:
    """Reduced-echelon basis of the span, pivots left to right."""
    rows = sorted(_echelon(values).values(), reverse=True)
    # clear each row's leading bit from the rows above it, lowest pivot first;
    # a row cleared this way keeps its own leading bit, so the order holds
    for i in range(len(rows) - 1, 0, -1):
        lead = 1 << (rows[i].bit_length() - 1)
        for j in range(i):
            if rows[j] & lead:
                rows[j] ^= rows[i]
    return rows


def row_space_basis(m: BitMatrix) -> BitMatrix:
    """Reduced-echelon basis of the row space, pivots left to right."""
    rows = _reduced_basis(r.value for r in m.rows)
    return BitMatrix(m.width, tuple(BitVector(m.width, v) for v in rows))
