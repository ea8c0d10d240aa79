"""Propelinear group structure: the star operation, labeled elements, and
the propelinearity predicates.

A propelinear code attaches a coordinate permutation pi_x to every codeword x
so that x * y = x + pi_x(y) closes into a group with pi_{x*y} = pi_x pi_y.
Elements here carry an exponent label (j, k, l) recording how they factor over
the generators of their family presentation (see hfpc.families).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .gf2 import BitVector
from .perms import Permutation, act, apply, compose, has_fixed_point, identity

__all__ = [
    "PropelinearElement",
    "PropelinearCode",
    "star",
    "star_elem",
    "element_power",
    "is_propelinear",
    "is_full_propelinear",
    "associated_group_order",
]

Label = tuple[int, int, int]


@dataclass(frozen=True)
class PropelinearElement:
    vector: BitVector
    perm: Permutation
    label: Label | None = None

    def __post_init__(self) -> None:
        if self.vector.n != self.perm.degree:
            raise ValueError("vector length != permutation degree")


def star(x: PropelinearElement, y: BitVector) -> BitVector:
    """x * y = x + pi_x(y), the action of x on an arbitrary word y."""
    return x.vector ^ apply(x.perm, y)


def star_elem(x: PropelinearElement, y: PropelinearElement) -> PropelinearElement:
    """Group product: vector x + pi_x(y), permutation pi_x pi_y (unlabeled)."""
    return PropelinearElement(star(x, y.vector), compose(x.perm, y.perm))


def element_power(x: PropelinearElement, i: int) -> BitVector:
    """Vector of x^i, which is x + pi_x(x) + ... + pi_x^{i-1}(x).

    Coordinate c of pi_x^k(x) is x at pi_x^{-k}(c), so coordinate c of x^i
    is the parity of x over c and its i - 1 predecessors on its cycle of
    pi_x.  On a cycle of length L that is (i // L) times the parity of the
    whole cycle plus a window of i mod L, read off prefix parities of the
    cycle written twice: one O(n) pass for any i, once the cycles and their
    prefix parities are known (memoised per element).
    """
    if i < 1:
        raise ValueError("power must be positive")
    n = x.vector.n
    out = 0
    for length, prefix, bits in _cycle_parities(x.perm.images, x.vector.value):
        laps, r = divmod(i, length)
        whole = prefix[length] & laps & 1
        for m, bit in enumerate(bits, start=length + 1):
            # window of r bits ending at position m of the doubled cycle
            if whole ^ prefix[m] ^ prefix[m - r]:
                out |= bit
    return BitVector(n, out)


@lru_cache(maxsize=1024)
def _cycle_parities(
    images: tuple[int, ...], v: int
) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """(length, prefix parities, coordinate bits) of each cycle of images.

    prefix[s] is the parity of v over the first s coordinates of the cycle
    written twice; bits holds 1 << (n - c) for its coordinates c in order.
    """
    n = len(images)
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = []  # cycle[m + 1] = pi_x(cycle[m])
        c = start
        while not seen[c]:
            seen[c] = True
            cycle.append(c)
            c = images[c - 1]
        prefix = [0]
        for c in cycle + cycle:
            prefix.append(prefix[-1] ^ ((v >> (n - c)) & 1))
        out.append((len(cycle), tuple(prefix), tuple(1 << (n - c) for c in cycle)))
    return tuple(out)


class PropelinearCode:
    """A full group of 8t labeled elements plus its family metadata.

    The primary data are three tuples in element order: the int words
    (``values``), the permutations (``perms``) and the exponent labels
    (``labels``).  The family constructors pass their shared per-(tag, t)
    permutations and labels through ``from_words``, and each generator as
    its label; the PropelinearElement and BitVector objects of ``elements``
    and ``generators`` are built on first read.
    """

    def __init__(
        self,
        family: str | None,
        t: int,
        elements: tuple[PropelinearElement, ...],
        generators: dict[str, PropelinearElement],
    ) -> None:
        elements = tuple(elements)
        length = elements[0].vector.n if elements else 4 * t
        if any(e.vector.n != length for e in elements):
            raise ValueError("mixed lengths")
        self._set(
            family,
            t,
            length,
            tuple(e.vector.value for e in elements),
            tuple(e.perm for e in elements),
            tuple(e.label for e in elements),
            generators,
        )
        self.__dict__["elements"] = elements

    @classmethod
    def from_words(
        cls,
        family: str | None,
        t: int,
        values: tuple[int, ...],
        perms: tuple[Permutation, ...],
        labels: tuple[Label | None, ...],
        generators: dict[str, PropelinearElement | Label],
    ) -> PropelinearCode:
        """The code of an element table; generators maps each name to its
        element, or to the label of the table's element that it is."""
        code = cls.__new__(cls)
        code._set(family, t, 4 * t, values, perms, labels, generators)
        return code

    def _set(self, family, t, length, values, perms, labels, generators) -> None:
        self.family = family
        self.t = t
        self.length = length
        self.values = values
        self.perms = perms
        self.labels = labels
        self._generators = generators
        # the Hadamard verdict of the words, memoised by hadamard.code_is_hadamard
        self._hadamard: bool | None = None

    @property
    def size(self) -> int:
        return len(self.values)

    @cached_property
    def elements(self) -> tuple[PropelinearElement, ...]:
        n = self.length
        return tuple(
            PropelinearElement(BitVector(n, v), p, label)
            for v, p, label in zip(self.values, self.perms, self.labels)
        )

    @cached_property
    def generators(self) -> dict[str, PropelinearElement]:
        """Each generator's element: as given, or built from the table's
        element at its label."""
        out = {}
        for name, g in self._generators.items():
            if not isinstance(g, PropelinearElement):
                i = self.labels.index(g)
                word = BitVector(self.length, self.values[i])
                g = PropelinearElement(word, self.perms[i], g)
            out[name] = g
        return out

    def generator_word(self, name: str) -> int | None:
        """The word of the generator called name, without building its
        element; None when the code has no such generator."""
        g = self._generators.get(name)
        if g is None:
            return None
        if isinstance(g, PropelinearElement):
            return g.vector.value
        return self.values[self.labels.index(g)]

    @cached_property
    def vector_values(self) -> frozenset[int]:
        return frozenset(self.values)

    def vectors(self) -> list[BitVector]:
        n = self.length
        return [BitVector(n, v) for v in self.values]


def is_propelinear(c: PropelinearCode) -> bool:
    """Check x + pi_x(y) stays in the code and pi_x pi_y = pi_{x*y}, all pairs.

    The action of each distinct permutation on every word is tabulated once
    per code; the compositions depend only on the permutations, which the
    codes of one family and t share, so they are tabulated once per tuple of
    permutations.  Each row x then runs over every y at C speed.
    """
    values = c.values
    position = {v: i for i, v in enumerate(values)}
    ids, distinct, products = _permutation_products(c.perms)
    acted = [[act(p, v) for v in values] for p in distinct]
    for xv, xid in zip(values, ids):
        # z[y] is the position of x * y = x + pi_x(y)
        z = list(map(position.get, map(xv.__xor__, acted[xid])))
        if None in z:
            return False
        if tuple(map(ids.__getitem__, z)) != products[xid]:
            return False
    return True


@lru_cache(maxsize=64)
def _permutation_products(
    perms: tuple[Permutation, ...]
) -> tuple[tuple[int, ...], tuple[Permutation, ...], tuple[tuple[int | None, ...], ...]]:
    """Number the distinct permutations by first appearance; ids[y] is the
    number of perms[y], and products[i][y] the number of distinct[i] o
    perms[y] (None if that composition is not among perms)."""
    number: dict[tuple[int, ...], int] = {}
    ids = tuple(number.setdefault(p.images, len(number)) for p in perms)
    distinct = tuple({p.images: p for p in perms}.values())
    products = []
    for p in distinct:
        by_number = [number.get(compose(p, q).images) for q in distinct]
        products.append(tuple(by_number[i] for i in ids))
    return ids, distinct, tuple(products)


def is_full_propelinear(c: PropelinearCode) -> bool:
    """pi is identity exactly on e and u, fixed-point-free everywhere else."""
    n = c.length
    full = (1 << n) - 1
    ident = identity(n)
    for v, p in zip(c.values, c.perms):
        if v in (0, full):
            if p != ident:
                return False
        elif has_fixed_point(p):
            return False
    return True


def associated_group_order(c: PropelinearCode) -> int:
    """Number of distinct permutations carried by the code."""
    return len({p.images for p in c.perms})
