"""Finite groups given by multiplication tables, and stock constructions.

Labels are arbitrary hashables. Groups of order up to 8 (the scale of the
exhaustive checks elsewhere) are enumerable here up to isomorphism.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Hashable, Iterable, Mapping

from .errors import ValidationError

Element = Hashable


class FinGroup:
    """A finite group as elements plus a multiplication table."""

    __slots__ = ("elements", "_mul", "identity", "_inv", "name")

    def __init__(self, elements: Iterable[Element], mul: Mapping, name: str = "G"):
        self.elements = tuple(elements)
        self._mul = dict(mul)
        self.name = name
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise ValidationError("duplicate group element labels")
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self._mul:
                    raise ValidationError(f"multiplication undefined on ({a!r}, {b!r})")
                if self._mul[(a, b)] not in elems:
                    raise ValidationError(f"product of ({a!r}, {b!r}) leaves the set")
        identity = None
        for e in self.elements:
            if all(self._mul[(e, a)] == a == self._mul[(a, e)] for a in self.elements):
                identity = e
                break
        if identity is None:
            raise ValidationError("no identity element")
        self.identity = identity
        inv = {}
        for a in self.elements:
            for b in self.elements:
                if self._mul[(a, b)] == identity and self._mul[(b, a)] == identity:
                    inv[a] = b
                    break
            else:
                raise ValidationError(f"element {a!r} has no inverse")
        self._inv = inv
        mul = self._mul
        for a in self.elements:
            for b in self.elements:
                ab = mul[a, b]
                for c in self.elements:
                    if mul[ab, c] != mul[a, mul[b, c]]:
                        raise ValidationError(
                            f"associativity fails on ({a!r}, {b!r}, {c!r})"
                        )

    def mul(self, a: Element, b: Element) -> Element:
        return self._mul[(a, b)]

    @property
    def table(self) -> Mapping:
        """The multiplication table, {(a, b): a * b}; not to be modified."""
        return self._mul

    def inv(self, a: Element) -> Element:
        return self._inv[a]

    def subset(self, items: Iterable, what: str) -> set:
        """items as a set, after checking that each is an element."""
        out = set(items)
        for x in out:
            if x not in self._inv:  # keyed by the elements
                raise ValidationError(f"{what} {x!r} is not a group element")
        return out

    def conjugate(self, g: Element, h: Element) -> Element:
        """g h g^-1"""
        return self.mul(self.mul(g, h), self.inv(g))

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FinGroup({self.name}, order={len(self)})"

    def subgroup_closure(self, seed: Iterable[Element]) -> frozenset:
        members = {self.identity, *seed}
        frontier = list(members)
        while frontier:
            x = frontier.pop()
            for y in list(members):
                for z in (self.mul(x, y), self.mul(y, x), self.inv(x)):
                    if z not in members:
                        members.add(z)
                        frontier.append(z)
        return frozenset(members)

    def subgroups(self) -> list[frozenset]:
        found = {frozenset([self.identity]), frozenset(self.elements)}
        # closures of small seeds find every subgroup at these orders
        for r in (1, 2, 3):
            for seed in combinations(self.elements, r):
                found.add(self.subgroup_closure(seed))
        return sorted(found, key=lambda s: (len(s), sorted(map(repr, s))))

    def is_normal(self, subgroup: Iterable[Element]) -> bool:
        sub = set(subgroup)
        return all(self.conjugate(g, n) in sub for g in self.elements for n in sub)

    def normal_subgroups(self) -> list[frozenset]:
        return [s for s in self.subgroups() if self.is_normal(s)]


def cyclic_group(n: int) -> FinGroup:
    elems = tuple(range(n))
    mul = {(a, b): (a + b) % n for a in elems for b in elems}
    return FinGroup(elems, mul, name=f"C{n}")


def direct_product_group(G: FinGroup, H: FinGroup) -> FinGroup:
    elems = tuple(product(G.elements, H.elements))
    mul = {
        ((a, x), (b, y)): (G.mul(a, b), H.mul(x, y))
        for (a, x) in elems
        for (b, y) in elems
    }
    return FinGroup(elems, mul, name=f"{G.name}x{H.name}")


def dihedral_group(n: int) -> FinGroup:
    """Symmetries of the regular n-gon, order 2n; ('r', k) and ('s', k)."""
    rot = [("r", k) for k in range(n)]
    ref = [("s", k) for k in range(n)]
    elems = tuple(rot + ref)

    def mult(a, b):
        ta, ka = a
        tb, kb = b
        if ta == "r" and tb == "r":
            return ("r", (ka + kb) % n)
        if ta == "r" and tb == "s":
            return ("s", (ka + kb) % n)
        if ta == "s" and tb == "r":
            return ("s", (ka - kb) % n)
        return ("r", (ka - kb) % n)

    mul = {(a, b): mult(a, b) for a in elems for b in elems}
    return FinGroup(elems, mul, name=f"D{n}")


def symmetric_group(n: int) -> FinGroup:
    """S_n on permutation tuples p with p[i] the image of i."""
    from itertools import permutations

    elems = tuple(permutations(range(n)))
    mul = {
        (p, q): tuple(p[q[i]] for i in range(n)) for p in elems for q in elems
    }
    return FinGroup(elems, mul, name=f"S{n}")


def quaternion_group() -> FinGroup:
    """Q8 with elements +-1, +-i, +-j, +-k encoded as (sign, axis)."""
    axes = "1ijk"
    table = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    elems = tuple((s, a) for s in (1, -1) for a in axes)
    mul = {}
    for (s1, a1) in elems:
        for (s2, a2) in elems:
            s3, a3 = table[(a1, a2)]
            mul[((s1, a1), (s2, a2))] = (s1 * s2 * s3, a3)
    return FinGroup(elems, mul, name="Q8")


def klein_four_group() -> FinGroup:
    G = direct_product_group(cyclic_group(2), cyclic_group(2))
    G.name = "V4"
    return G


def all_groups_up_to_order_8() -> list[FinGroup]:
    """One representative per isomorphism class of order at most 8."""
    c2, c4 = cyclic_group(2), cyclic_group(4)
    groups = [
        cyclic_group(1),
        c2,
        cyclic_group(3),
        c4,
        klein_four_group(),
        cyclic_group(5),
        cyclic_group(6),
        symmetric_group(3),
        cyclic_group(7),
        cyclic_group(8),
        direct_product_group(c4, c2),
        direct_product_group(direct_product_group(c2, c2), c2),
        dihedral_group(4),
        quaternion_group(),
    ]
    return groups
