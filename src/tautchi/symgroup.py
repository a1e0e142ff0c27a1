"""Symmetric-group combinatorics: permutations, restriction signs, conjugacy
classes (cycle types, representatives and sizes) and a two-element
generating set, which the group actions of `complexes` are built from, and
the orbit enumeration of plain multi-indices.

Multi-indices are maps a: [k] -> [n]; the full symmetric group on n letters
acts by postcomposition and the orbits correspond to set partitions of [k]
into at most n blocks.  `product_orbit_reps` returns canonical orbit
representatives together with stabilizer orders.  Like `complexes`, this
module belongs to the verification layer: no formula in `euler` imports it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial
from typing import Callable, Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n} stored by its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError("images must be a permutation of 1..n")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, i: int, j: int) -> "Permutation":
        img = list(range(1, n + 1))
        img[i - 1], img[j - 1] = j, i
        return Permutation(tuple(img))

    @staticmethod
    def cycle(n: int) -> "Permutation":
        """The long cycle 1 -> 2 -> ... -> n -> 1."""
        return Permutation(tuple(i % n + 1 for i in range(1, n + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(i) = p(q(i))."""
        return Permutation(tuple(self.images[other.images[i] - 1]
                                 for i in range(self.degree)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def sign(self) -> int:
        return sign_on_subset(self, range(1, self.degree + 1))


def generators(n: int) -> list[Permutation]:
    """A generating set of the symmetric group on n letters: the
    transposition (1 2) for n >= 2 and the long cycle for n >= 3."""
    gens = [Permutation.transposition(n, 1, 2)] if n >= 2 else []
    if n >= 3:
        gens.append(Permutation.cycle(n))
    return gens


def cycle_types(n: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n, as weakly decreasing cycle lengths: one per
    conjugacy class of the symmetric group on n letters."""
    def rec(rest: int, largest: int) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, largest), 0, -1):
            for tail in rec(rest - part, part):
                yield (part,) + tail

    return rec(n, n)


def class_representative(cycle_type: Sequence[int]) -> Permutation:
    """The permutation with consecutive cycles (1 .. l_1)(l_1+1 .. l_1+l_2)...
    of the given lengths."""
    images = []
    start = 1
    for length in cycle_type:
        images.extend(start + (i + 1) % length for i in range(length))
        start += length
    return Permutation(tuple(images))


def class_size(cycle_type: Sequence[int]) -> int:
    """Size n!/z of a conjugacy class, with z = prod_i i^(m_i) m_i! the order
    of the centralizer, where m_i counts the cycles of length i."""
    z = 1
    for length, mult in Counter(cycle_type).items():
        z *= length ** mult * factorial(mult)
    return factorial(sum(cycle_type)) // z


def sign_on_subset(perm: Permutation, subset: Iterable[int]) -> int:
    """Sign of the permutation restricted to a subset: parity of the number of
    pairs i < j in the subset with perm(i) > perm(j)."""
    elems = sorted(subset)
    inv = 0
    for x in range(len(elems)):
        px = perm(elems[x])
        for y in range(x + 1, len(elems)):
            if px > perm(elems[y]):
                inv += 1
    return -1 if inv % 2 else 1


def position_sign(m: int, subset: Iterable[int]) -> int:
    """Alternating sign (-1)^(number of subset elements below m); m must lie
    in the subset."""
    elems = set(subset)
    if m not in elems:
        raise ValueError(f"{m} is not an element of the subset")
    below = sum(1 for j in elems if j < m)
    return -1 if below % 2 else 1


@dataclass(frozen=True)
class MultiIndex:
    """A map [k] -> [n], stored as the tuple of values at 1..k."""

    k: int
    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.k:
            raise ValueError("value tuple length must equal k")
        if any(v < 1 or v > self.n for v in self.values):
            raise ValueError("values out of range")

    def __call__(self, t: int) -> int:
        return self.values[t - 1]

    @property
    def max_value(self) -> int:
        return max(self.values)

    def fiber(self, v: int) -> frozenset[int]:
        return frozenset(t for t in range(1, self.k + 1) if self.values[t - 1] == v)

    def fibers(self) -> list[frozenset[int]]:
        """Nonempty fibers, ordered by value."""
        return [self.fiber(v) for v in sorted(set(self.values))]


def subset_key(s: Iterable[int]):
    """Default total order on subsets of [k]: nonempty subsets by minimum then
    lexicographically; the empty set is strictly largest."""
    t = tuple(sorted(s))
    if not t:
        return (1, ())
    return (0, t)


def set_partitions(items: Sequence[int], max_blocks: int | None = None):
    """Yield set partitions of items as tuples of disjoint tuples (unordered;
    blocks come out ordered by their minima)."""
    items = list(items)

    def rec(idx, blocks):
        if idx == len(items):
            yield tuple(tuple(b) for b in blocks)
            return
        x = items[idx]
        for b in blocks:
            b.append(x)
            yield from rec(idx + 1, blocks)
            b.pop()
        if max_blocks is None or len(blocks) < max_blocks:
            blocks.append([x])
            yield from rec(idx + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


# No production path calls `product_orbit_reps`: the tests' enumeration
# oracles use it, and `perfbench/tracer.py` wraps it as the source of the
# per-layer metric `symgroup.orbit_reps`, so it and the helpers above stay.
def product_orbit_reps(k: int, n: int, order_key: Callable = subset_key
                       ) -> list[tuple[MultiIndex, int]]:
    """Canonical representatives of the coordinate-permutation orbits of maps
    [k] -> [n], with stabilizer orders.

    Each orbit corresponds to a set partition of [k] into at most n blocks;
    the representative sends the r-th block in the chosen subset order to the
    value r.  The stabilizer permutes the n - max(a) unused values, so its
    order is (n - max(a))!.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    reps = []
    for blocks in set_partitions(list(range(1, k + 1)), max_blocks=n):
        ordered = sorted(blocks, key=order_key)
        values = [0] * k
        for r, block in enumerate(ordered, start=1):
            for t in block:
                values[t - 1] = r
        mi = MultiIndex(k, n, tuple(values))
        reps.append((mi, factorial(n - mi.max_value)))
    reps.sort(key=lambda pair: pair[0].values)
    return reps
