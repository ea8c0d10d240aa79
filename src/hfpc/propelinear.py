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
from .perms import Permutation, apply, compose, has_fixed_point, identity

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


@dataclass(frozen=True, eq=False)
class PropelinearCode:
    """A full group of 8t labeled elements plus its family metadata."""

    family: str | None
    t: int
    elements: tuple[PropelinearElement, ...]
    generators: dict[str, PropelinearElement]

    @property
    def length(self) -> int:
        return 4 * self.t

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def vector_values(self) -> frozenset[int]:
        return frozenset(e.vector.value for e in self.elements)

    @cached_property
    def _element_by_vector(self) -> dict[int, PropelinearElement]:
        return {e.vector.value: e for e in self.elements}

    def vectors(self) -> list[BitVector]:
        return [e.vector for e in self.elements]


def is_propelinear(c: PropelinearCode) -> bool:
    """Check x + pi_x(y) stays in the code and pi_x pi_y = pi_{x*y}, all pairs."""
    by_vec = c._element_by_vector
    perms = {}
    for x in c.elements:
        perms.setdefault(x.perm.images, x.perm)
    # precompute the action of each distinct permutation on each codeword
    acted = {
        imgs: {y.vector.value: apply(p, y.vector).value for y in c.elements}
        for imgs, p in perms.items()
    }
    comp_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}
    for x in c.elements:
        act = acted[x.perm.images]
        for y in c.elements:
            zv = x.vector.value ^ act[y.vector.value]
            z = by_vec.get(zv)
            if z is None:
                return False
            key = (x.perm.images, y.perm.images)
            zimgs = comp_cache.get(key)
            if zimgs is None:
                zimgs = compose(x.perm, y.perm).images
                comp_cache[key] = zimgs
            if zimgs != z.perm.images:
                return False
    return True


def is_full_propelinear(c: PropelinearCode) -> bool:
    """pi is identity exactly on e and u, fixed-point-free everywhere else."""
    n = c.elements[0].vector.n
    full = (1 << n) - 1
    for x in c.elements:
        if x.vector.value in (0, full):
            if x.perm != identity(n):
                return False
        elif has_fixed_point(x.perm):
            return False
    return True


def associated_group_order(c: PropelinearCode) -> int:
    """Number of distinct permutations carried by the code."""
    return len({x.perm.images for x in c.elements})
