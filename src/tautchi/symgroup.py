"""Symmetric-group combinatorics: permutations, restriction signs, conjugacy
classes (cycle types, representatives and sizes), a two-element generating
set, and orbit enumeration for the index sets that organize products of
pullback sheaves.

Two families of index sets appear downstream.  Plain multi-indices are maps
a: [k] -> [n]; the full symmetric group on n letters acts by postcomposition
and the orbits correspond to set partitions of [k] into at most n blocks.
Diagonal tuples (M; i, j; a) carry a marked subset M of [k], an unordered
pair {i, j} of coordinates, and a multi-index on the complement of M; they
index summands supported on the pairwise diagonals.  Both enumerators return
canonical orbit representatives together with stabilizer orders, and
`orbit_decompose` provides the brute-force cross-check.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import factorial
from typing import Callable, Hashable, Iterable, Iterator, Sequence


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


@dataclass(frozen=True)
class DiagonalTuple:
    """A tuple (M; i, j; a): a subset M of [k], a pair i < j of coordinates,
    and a multi-index a on [k] \\ M.  The values of a are aligned with the
    sorted complement of M."""

    k: int
    n: int
    m_set: tuple[int, ...]
    i: int
    j: int
    a_values: tuple[int, ...]

    def __post_init__(self):
        if not (1 <= self.i < self.j <= self.n):
            raise ValueError("need 1 <= i < j <= n")
        if len(self.a_values) != self.k - len(self.m_set):
            raise ValueError("multi-index length must match the complement of M")

    @property
    def complement(self) -> tuple[int, ...]:
        ms = set(self.m_set)
        return tuple(t for t in range(1, self.k + 1) if t not in ms)

    def a_map(self) -> dict[int, int]:
        return dict(zip(self.complement, self.a_values))

    @property
    def m_hat(self) -> tuple[int, ...]:
        """M together with the part of the complement mapped into {i, j}."""
        extra = {t for t, v in self.a_map().items() if v in (self.i, self.j)}
        return tuple(sorted(set(self.m_set) | extra))

    @property
    def is_hat(self) -> bool:
        """True when some complement element maps into {i, j}."""
        return any(v in (self.i, self.j) for v in self.a_values)


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


def _ordered_rest_partitions(rest: Sequence[int], n: int, order_key: Callable):
    """Partitions of rest assigned to values 3, 4, ..., in increasing subset
    order; yields (values_by_element, number_of_blocks)."""
    if not rest:
        yield {}, 0
        return
    for blocks in set_partitions(list(rest), max_blocks=n - 2):
        ordered = sorted(blocks, key=order_key)
        assign = {}
        for r, block in enumerate(ordered, start=3):
            for t in block:
                assign[t] = r
        yield assign, len(ordered)


def diagonal_orbit_reps(k: int, n: int, ell: int, hat_only: bool = True,
                        order_key: Callable = subset_key
                        ) -> list[tuple[DiagonalTuple, int]]:
    """Canonical representatives of the coordinate-permutation orbits of
    diagonal tuples (M; i, j; a) with |M| = ell, with stabilizer orders.

    Representatives have (i, j) = (1, 2), the fiber over 1 preceding the fiber
    over 2 in the subset order (the empty set being largest, a nonempty fiber
    over 2 forces a nonempty fiber over 1), and the fibers over 3, 4, ...
    strictly increasing.  With hat_only, only tuples whose complement meets
    {1, 2} are kept; their stabilizer permutes the values above max(a, 2), of
    order (n - max(a, 2))!.  Without it, tuples with a avoiding {1, 2} are
    included as well; those pick up an extra factor 2 from the swap of i and j.
    """
    if not (1 <= ell <= k):
        raise ValueError("need 1 <= ell <= k")
    if n < 2:
        raise ValueError("need n >= 2")
    reps = []
    universe = list(range(1, k + 1))
    for m_set in itertools.combinations(universe, ell):
        comp = [t for t in universe if t not in m_set]
        for f1 in _subsets(comp):
            rest1 = [t for t in comp if t not in f1]
            for f2 in _subsets(rest1):
                if f2 and not f1:
                    continue
                if f1 and f2 and not order_key(f1) < order_key(f2):
                    continue
                if hat_only and not (f1 or f2):
                    continue
                rest = [t for t in rest1 if t not in f2]
                for assign, nblocks in _ordered_rest_partitions(rest, n, order_key):
                    amap = {}
                    for t in f1:
                        amap[t] = 1
                    for t in f2:
                        amap[t] = 2
                    amap.update(assign)
                    values = tuple(amap[t] for t in comp)
                    dt = DiagonalTuple(k, n, m_set, 1, 2, values)
                    max_a2 = max([2] + list(values))
                    stab = factorial(n - max_a2)
                    if not dt.is_hat:
                        stab *= 2
                    reps.append((dt, stab))
    reps.sort(key=lambda pair: (pair[0].m_set, pair[0].a_values))
    return reps


def _subsets(items: Sequence[int]):
    for r in range(len(items) + 1):
        yield from (set(c) for c in itertools.combinations(items, r))


@dataclass(frozen=True)
class OrbitDecomposition:
    """Orbits of a finite group action: (representative, orbit size,
    stabilizer order) triples."""

    group_order: int
    orbits: tuple[tuple[Hashable, int, int], ...]

    @property
    def total_size(self) -> int:
        return sum(size for _, size, _ in self.orbits)

    def __len__(self) -> int:
        return len(self.orbits)


def orbit_decompose(n: int, act: Callable[[Permutation, Hashable], Hashable],
                    elements: Iterable[Hashable]) -> OrbitDecomposition:
    """Brute-force orbit decomposition of a permutation-group action.

    Orbits are computed by breadth-first closure over the generators (1 2) and
    the long cycle, so the full group of order n! is never materialized.
    Stabilizer orders come from orbit-stabilizer.
    """
    gens = generators(n)
    pool = list(dict.fromkeys(elements))
    seen: set[Hashable] = set()
    orbits = []
    for x in pool:
        if x in seen:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for g in gens:
                    z = act(g, y)
                    if z not in orbit:
                        orbit.add(z)
                        nxt.append(z)
            frontier = nxt
        seen |= orbit
        size = len(orbit)
        if factorial(n) % size != 0:
            raise ValueError("orbit size does not divide the group order")
        orbits.append((x, size, factorial(n) // size))
    return OrbitDecomposition(factorial(n), tuple(orbits))


def act_on_multiindex(g: Permutation, values: tuple[int, ...]) -> tuple[int, ...]:
    """Postcomposition action on a multi-index given as a value tuple."""
    return tuple(g(v) for v in values)


def act_on_diagonal_tuple(g: Permutation, t: DiagonalTuple) -> DiagonalTuple:
    """Action (M; {i,j}; a) -> (M; g{i,j}; g o a) on diagonal tuples."""
    gi, gj = sorted((g(t.i), g(t.j)))
    return DiagonalTuple(t.k, t.n, t.m_set, gi, gj,
                         tuple(g(v) for v in t.a_values))


def stirling2(k: int, m: int) -> int:
    """Number of set partitions of a k-set into exactly m nonempty blocks."""
    if k == 0:
        return 1 if m == 0 else 0
    if m <= 0 or m > k:
        return 0
    table = [[0] * (m + 1) for _ in range(k + 1)]
    table[0][0] = 1
    for kk in range(1, k + 1):
        for mm in range(1, min(m, kk) + 1):
            table[kk][mm] = mm * table[kk - 1][mm] + table[kk - 1][mm - 1]
    return table[k][m]
