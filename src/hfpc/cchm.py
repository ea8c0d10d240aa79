"""Circulant complex Hadamard matrices over {1, i, -1, -i}.

A length-2t row of Z4 exponents c_1..c_2t encodes the circulant matrix M with
M[j][l] = i^{c[(l-j) mod 2t]}.  All arithmetic is exact: a periodic
correlation vanishes as a Gaussian-integer sum iff the residues 0/2 and 1/3
of the exponent differences appear in equal numbers.

The real doubling that turns a CCHM of order 2t into a Hadamard matrix of
order 4t replaces each entry i^c by the 2x2 block C * psi(i^c), where
C = [[1,1],[1,-1]] and psi is the ring embedding psi(i) = [[0,-1],[1,0]];
C C^T = 2I makes the blown-up matrix Hadamard exactly when the row is a CCHM.
cchm_to_code builds, checks and normalizes it as int masks of the -1 entries
of each row, two bits per exponent, with no +-1 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .gf2 import BitVector
from .hadamard import _orthogonal_rows
from .families import Reject, assemble
from .propelinear import PropelinearCode

__all__ = [
    "QuaternaryRow",
    "NotCCHM",
    "MalformedCosetHit",
    "InvalidInput",
    "is_cchm",
    "cchm_to_code",
    "code_to_cchm",
    "cchm_equivalent",
    "sylvester_double",
]


class NotCCHM(Exception):
    """Input row fails the circulant complex Hadamard predicate."""


class MalformedCosetHit(Exception):
    """A coset of the conversion does not carry a consecutive Z4 pair."""


class InvalidInput(Exception):
    """Sylvester input is not a circulant Hadamard code."""


_SYMBOLS = {0: "1", 1: "i", 2: "-1", 3: "-i"}
_SYMBOL_PARSE = {"1": 0, "i": 1, "-1": 2, "-i": 3}


@dataclass(frozen=True)
class QuaternaryRow:
    """First row of a circulant matrix, as Z4 exponents of i."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.exponents)
        if n == 0 or n % 2:
            raise ValueError("row length must be even and positive")
        if any(not 0 <= c <= 3 for c in self.exponents):
            raise ValueError("exponents must lie in Z4")

    @classmethod
    def parse(cls, text: str) -> QuaternaryRow:
        """Accepts comma-separated symbols 1,i,-1,-i or exponent digits 0-3.

        A bare "1" is read as the symbol +1; digit form applies when every
        entry is a digit and at least one of 0, 2, 3 appears.
        """
        parts = [p.strip() for p in text.strip().split(",") if p.strip()]
        if not parts:
            raise ValueError("empty row")
        digits = all(p in ("0", "1", "2", "3") for p in parts)
        if digits and any(p in ("0", "2", "3") for p in parts):
            return cls(tuple(int(p) for p in parts))
        try:
            exps = tuple(_SYMBOL_PARSE[p] for p in parts)
        except KeyError as exc:
            raise ValueError("unknown entry %s" % exc) from exc
        return cls(exps)

    def __str__(self) -> str:
        return ",".join(_SYMBOLS[c] for c in self.exponents)

    def __len__(self) -> int:
        return len(self.exponents)


def is_cchm(row: QuaternaryRow) -> bool:
    """True iff every off-diagonal periodic correlation vanishes.

    For each shift s != 0 the sum over j of i^(c_j - c_{j+s}) must be zero,
    i.e. residues 0 and 2 appear equally often, as do residues 1 and 3.
    """
    c = row.exponents
    n = len(c)
    for s in range(1, n):
        counts = [0, 0, 0, 0]
        for j in range(n):
            counts[(c[j] - c[(j + s) % n]) % 4] += 1
        if counts[0] != counts[2] or counts[1] != counts[3]:
            return False
    return True


# exponent c -> the -1 masks of the two rows of its block C psi(i^c)
_BLOCK_ROWS = ((0b00, 0b01), (0b01, 0b11), (0b11, 0b10), (0b10, 0b00))


def _doubled_rows(row: QuaternaryRow) -> list[int]:
    """The 2n rows of the real doubling of a length-n row as masks of their
    -1 entries, column 1 the MSB.  Block (j, l) is that of c[(l - j) mod n],
    so row 2j + i is row i rotated right by 2j columns."""
    n = 2 * len(row)
    full = (1 << n) - 1
    r0 = r1 = 0
    for c in row.exponents:
        b0, b1 = _BLOCK_ROWS[c]
        r0, r1 = r0 << 2 | b0, r1 << 2 | b1
    return [(r >> s | r << (n - s)) & full for s in range(0, n, 2) for r in (r0, r1)]


def cchm_to_code(row: QuaternaryRow) -> list[BitVector]:
    """Binary Hadamard code of length 4t from a CCHM row of length 2t.

    The doubled matrix is normalized (first row and column +1), binarized with
    0 -> +1, and returned as its rows plus their complements, sorted.
    """
    if not is_cchm(row):
        raise NotCCHM("row fails the circulant complex Hadamard predicate")
    rows = _doubled_rows(row)
    n = len(rows)
    if not _orthogonal_rows(rows, n):
        raise NotCCHM("doubled matrix is not Hadamard")  # unreachable
    full = (1 << n) - 1
    top = 1 << (n - 1)
    rows = [r ^ rows[0] for r in rows]  # column signs: row 0 becomes +1
    rows = [r ^ full if r & top else r for r in rows]  # row signs: column 1 becomes +1
    words = set(rows).union(r ^ full for r in rows)
    return [BitVector(n, w) for w in sorted(words)]


def code_to_cchm(c: PropelinearCode) -> QuaternaryRow:
    """CCHM row of order 2t from an accepted code of family 2t4u.

    D is the half of the code with first coordinate 0.  For each j, exactly
    one of a^j b^k and its complement a^j b^(k+2) lies in D, so the b-exponents
    hitting D form a consecutive pair {c, c+1} in Z4; c_j is that c.
    """
    if c.family != "2t4u":
        raise ValueError("conversion requires a 2t4u code")
    t = c.t
    top = 1 << (c.length - 1)  # coordinate 1
    hits: dict[int, set[int]] = {j: set() for j in range(2 * t)}
    for v, (j, k, l) in zip(c.values, c.labels):
        if not v & top:
            hits[j].add((k + 2 * l) % 4)
    exps = []
    for j in range(2 * t):
        kset = hits[j]
        if len(kset) != 2:
            raise MalformedCosetHit("coset %d hit %d times" % (j, len(kset)))
        picks = [k for k in kset if (k + 1) % 4 in kset]
        if len(picks) != 1:
            raise MalformedCosetHit("coset %d is not a consecutive pair" % j)
        exps.append(picks[0])
    row = QuaternaryRow(tuple(exps))
    if not is_cchm(row):
        raise MalformedCosetHit("extracted row fails the CCHM predicate")
    return row


def _units(n: int) -> list[int]:
    return [m for m in range(1, n) if gcd(m, n) == 1]


def cchm_equivalent(r1: QuaternaryRow, r2: QuaternaryRow) -> bool:
    """Equivalence under cyclic shifts, global i^k factors, conjugation, and
    index decimation j -> mj with gcd(m, 2t) = 1.

    These four operations generate the maps j -> eps * r[(m j + s) mod n] + g,
    a closed family, so plain enumeration of the parameters is exhaustive.
    """
    n = len(r1)
    if n != len(r2):
        raise ValueError("rows have different lengths")
    c1, c2 = r1.exponents, r2.exponents
    for eps in (1, -1):
        for m in _units(n):
            for s in range(n):
                g = (c2[0] - eps * c1[s % n]) % 4
                if all(
                    (eps * c1[(m * j + s) % n] + g) % 4 == c2[j] for j in range(n)
                ):
                    return True
    return False


def sylvester_double(a: BitVector) -> PropelinearCode:
    """Double a circulant Hadamard code into a 2t4u code of twice the length.

    The input a must generate a circulant Hadamard code (single-cycle
    permutation); the output is generated by (a, a) with companion
    b = (e, u), which lands in the kernel of the doubled code.
    """
    if a.n % 4:
        raise InvalidInput("length must be a multiple of 4")
    t = a.n // 4
    base = assemble("cyclic4tu", t, a)
    if isinstance(base, Reject):
        raise InvalidInput("input is not a circulant Hadamard code: %s" % base.reason)
    doubled = BitVector(2 * a.n, (a.value << a.n) | a.value)
    code = assemble("2t4u", 2 * t, doubled)
    if isinstance(code, Reject):  # cannot happen for valid circulant input
        raise InvalidInput("doubling failed: %s" % code.reason)
    return code
