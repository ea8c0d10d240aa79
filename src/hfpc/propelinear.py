"""Propelinear group structure: the star operation, labeled elements, closure.

A propelinear code attaches a coordinate permutation pi_x to every codeword x
so that x * y = x + pi_x(y) closes into a group with pi_{x*y} = pi_x pi_y.
Elements here carry an exponent label (j, k, l) recording how they factor over
the generators of their family presentation, so discrete logarithms are plain
dictionary lookups later on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .gf2 import BitVector
from .perms import Permutation, apply, compose, has_fixed_point, identity, inverse_perm

__all__ = [
    "PropelinearElement",
    "PropelinearCode",
    "SizeMismatch",
    "VectorCollision",
    "star",
    "star_elem",
    "inverse",
    "element_power",
    "generate_group",
    "is_propelinear",
    "is_full_propelinear",
    "associated_group_order",
    "label_product",
    "label_inverse",
]

Label = tuple[int, int, int]
LabelRule = Callable[[Label, Label], Label]


class SizeMismatch(Exception):
    """Group closure did not reach exactly the expected size."""


class VectorCollision(Exception):
    """Two group elements with different permutations share a vector."""


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


def star_elem(
    x: PropelinearElement,
    y: PropelinearElement,
    label_rule: LabelRule | None = None,
) -> PropelinearElement:
    """Group product: vector x + pi_x(y), permutation pi_x pi_y."""
    label = None
    if label_rule is not None and x.label is not None and y.label is not None:
        label = label_rule(x.label, y.label)
    return PropelinearElement(star(x, y.vector), compose(x.perm, y.perm), label)


def inverse(
    x: PropelinearElement,
    label_inv: Callable[[Label], Label] | None = None,
) -> PropelinearElement:
    """Group inverse: pi_x^{-1}(x) paired with pi_x^{-1}."""
    pinv = inverse_perm(x.perm)
    label = None
    if label_inv is not None and x.label is not None:
        label = label_inv(x.label)
    return PropelinearElement(apply(pinv, x.vector), pinv, label)


def element_power(x: PropelinearElement, i: int) -> BitVector:
    """Vector of x^i, which is x + pi_x(x) + ... + pi_x^{i-1}(x).

    Coordinate c of pi_x^k(x) is x at pi_x^{-k}(c), so coordinate c of x^i
    is the parity of x over c and its i - 1 predecessors on its cycle of
    pi_x.  On a cycle of length L that is (i // L) times the parity of the
    whole cycle plus a window of i mod L, read off prefix parities of the
    cycle written twice: one O(n) pass for any i.
    """
    if i < 1:
        raise ValueError("power must be positive")
    n = x.vector.n
    v = x.vector.value
    images = x.perm.images
    out = 0
    seen = [False] * (n + 1)
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = []  # cycle[m + 1] = pi_x(cycle[m])
        c = start
        while not seen[c]:
            seen[c] = True
            cycle.append(c)
            c = images[c - 1]
        length = len(cycle)
        prefix = [0]  # prefix[s] = parity of the first s bits of cycle + cycle
        for c in cycle + cycle:
            prefix.append(prefix[-1] ^ ((v >> (n - c)) & 1))
        laps, r = divmod(i, length)
        whole = prefix[length] & laps & 1
        for m, c in enumerate(cycle):
            # window of r bits ending at position m + length of the doubled cycle
            if whole ^ prefix[m + length + 1] ^ prefix[m + length + 1 - r]:
                out |= 1 << (n - c)
    return BitVector(n, out)


# ---------------------------------------------------------------------------
# Exponent label algebra for the family presentations.
#
# Families '4tu2', '2t22u', '2t4u', 'cyclic4tu' read (j, k, l) as a^j b^k u^l.
# Family 'tqu' reads (j, k, l) as d^j a^k b^l with k mod 4 and u = a^2.
# ---------------------------------------------------------------------------


def label_product(tag: str, t: int, x: Label, y: Label) -> Label:
    j1, k1, l1 = x
    j2, k2, l2 = y
    if tag == "4tu2":
        s = j1 + j2
        return (s % (2 * t), k1 ^ k2, (l1 + l2 + s // (2 * t)) % 2)
    if tag == "2t22u":
        return ((j1 + j2) % (2 * t), k1 ^ k2, l1 ^ l2)
    if tag == "2t4u":
        return ((j1 + j2) % (2 * t), k1 ^ k2, l1 ^ l2 ^ (k1 & k2))
    if tag == "tqu":
        k = k1 + (k2 if l1 == 0 else -k2) + 2 * (l1 & l2)
        return ((j1 + j2) % t, k % 4, l1 ^ l2)
    if tag == "cyclic4tu":
        return ((j1 + j2) % (4 * t), 0, l1 ^ l2)
    raise ValueError("unknown family tag %r" % tag)


def label_inverse(tag: str, t: int, x: Label) -> Label:
    j, k, l = x
    if tag == "4tu2":
        total = (j + 2 * t * l) % (4 * t)
        inv = (4 * t - total) % (4 * t)
        return (inv % (2 * t), k, inv // (2 * t))
    if tag == "2t22u":
        return ((-j) % (2 * t), k, l)
    if tag == "2t4u":
        return ((-j) % (2 * t), k, l ^ k)
    if tag == "tqu":
        if l == 0:
            return ((-j) % t, (-k) % 4, 0)
        return ((-j) % t, (k + 2) % 4, 1)
    if tag == "cyclic4tu":
        return ((-j) % (4 * t), 0, l)
    raise ValueError("unknown family tag %r" % tag)


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
    def exponent_index(self) -> dict[int, Label]:
        return {e.vector.value: e.label for e in self.elements}

    @cached_property
    def _element_by_vector(self) -> dict[int, PropelinearElement]:
        return {e.vector.value: e for e in self.elements}

    def element_for(self, v: BitVector) -> PropelinearElement:
        return self._element_by_vector[v.value]

    def vectors(self) -> list[BitVector]:
        return [e.vector for e in self.elements]


def generate_group(
    generators: Sequence[PropelinearElement],
    expected_size: int,
    family: str | None = None,
    t: int | None = None,
    label_rule: LabelRule | None = None,
) -> PropelinearCode:
    """Breadth-first closure of the generators under the star product.

    The closure is keyed by vector: reaching a known vector with a different
    permutation raises VectorCollision (the candidate is degenerate), and a
    closure whose size is not exactly expected_size raises SizeMismatch.
    Work is capped at expected_size so runaway closures fail fast.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].vector.n
    if any(g.vector.n != n for g in generators):
        raise ValueError("generators must share degree")
    if t is None:
        t = n // 4
    if family is not None and label_rule is None:
        label_rule = lambda x, y: label_product(family, t, x, y)

    e = PropelinearElement(
        BitVector.zero(n), identity(n), (0, 0, 0) if label_rule else None
    )
    seen: dict[int, PropelinearElement] = {e.vector.value: e}
    order: list[PropelinearElement] = [e]
    frontier = [e]
    while frontier:
        nxt: list[PropelinearElement] = []
        for x in frontier:
            for g in generators:
                z = star_elem(x, g, label_rule)
                prev = seen.get(z.vector.value)
                if prev is not None:
                    if prev.perm != z.perm:
                        raise VectorCollision(
                            "vector %s carries two permutations" % z.vector
                        )
                    continue
                if len(order) == expected_size:
                    raise SizeMismatch(
                        "closure exceeds expected size %d" % expected_size
                    )
                seen[z.vector.value] = z
                order.append(z)
                nxt.append(z)
        frontier = nxt
    if len(order) != expected_size:
        raise SizeMismatch(
            "closure has %d elements, expected %d" % (len(order), expected_size)
        )
    gen_map = {("g%d" % i): g for i, g in enumerate(generators)}
    return PropelinearCode(family, t, tuple(order), gen_map)


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
