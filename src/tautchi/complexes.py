"""Explicit rational chain complexes of sign-and-wedge data with group actions.

For parameters 1 <= ell <= k the module builds the complex

    0 -> C^{-1} -> C^0 -> ... -> C^{k-ell} -> 0

whose degree-(-1) part has a basis of maps a: [k] -> [2] and whose degree-i
part (i >= 0) has a basis of triples (M; a; T): a subset M of [k] of size
ell + i, a map a on the complement into [2], and a wedge multi-index T of
length ell - 1.  The wedge factor is the (ell-1)-st exterior power of the
difference-vector representation of the symmetric group on M, in the basis

    z_M^r = e_{t_r} - e_{t_{r+1}},   M = {t_1 < ... < t_s}.

The differential alternates, over elements m of M, the two ways of freeing m
to a value in [2]; the degree -1 map collapses, for each (M; a), the signed
sum over all extensions of a across M.  Exactness of this complex in degrees
>= 0 is the structural fact behind every closed Euler-characteristic formula
in the euler module, and is verified here by exact rank computation.

Two commuting group actions are attached: the "slot" action of the symmetric
group on k letters (permuting the k tensor slots, with a restriction sign and
the exterior-power action on the wedge factor) and a "swap" involution coming
from interchanging the two values, with the sign (-1)^(i-1) in degree i >= 0
and (-1)^(ell-1) in degree -1.  Invariant dimensions are computed by two
independent methods, the character average over cycle types and the fixed
space of generators, that are asserted to agree; neither runs over the k!
slot permutations.  No formula uses this module: it is the verification
layer, loaded only by the tests, `--verify` and `verify_complexes` jobs.  The
closed forms `surviving_count` and `diagonal_multiplicity` of `euler` are
bound here under their names and checked against the invariant counts.

All matrices are sparse with exact integer or rational entries; ranks are
computed by fraction-free elimination.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from typing import Iterable, Sequence

from .euler import diagonal_multiplicity, surviving_count
from .symgroup import (Permutation, class_representative, class_size,
                       cycle_types, generators, position_sign, sign_on_subset)


class SparseRationalMatrix:
    """A sparse matrix with exact entries, stored as row dictionaries."""

    def __init__(self, nrows: int, ncols: int,
                 rows: dict[int, dict[int, Fraction | int]] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, Fraction | int]] = rows if rows is not None else {}

    @staticmethod
    def from_triples(nrows: int, ncols: int,
                     triples: Iterable[tuple[int, int, Fraction | int]]
                     ) -> "SparseRationalMatrix":
        m = SparseRationalMatrix(nrows, ncols)
        for r, c, v in triples:
            m.add_entry(r, c, v)
        return m

    @staticmethod
    def from_row_list(rows: Sequence[dict[int, Fraction | int]], ncols: int
                      ) -> "SparseRationalMatrix":
        """The matrix whose row r is rows[r], with zero entries and empty rows
        dropped.  The builders below fill plain row dictionaries and call this
        once at the end, instead of `add_entry` once per entry."""
        out: dict[int, dict[int, Fraction | int]] = {}
        for r, row in enumerate(rows):
            if not all(row.values()):
                row = {c: v for c, v in row.items() if v}
            if row:
                out[r] = row
        return SparseRationalMatrix(len(rows), ncols, out)

    @staticmethod
    def identity(n: int) -> "SparseRationalMatrix":
        return SparseRationalMatrix(n, n, {i: {i: 1} for i in range(n)})

    def add_entry(self, r: int, c: int, v) -> None:
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise IndexError("entry outside matrix shape")
        row = self.rows.setdefault(r, {})
        nv = row.get(c, 0) + v
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)
            if not row:
                self.rows.pop(r, None)

    def entry(self, r: int, c: int):
        return self.rows.get(r, {}).get(c, 0)

    def triples(self) -> list[tuple[int, int, Fraction | int]]:
        return [(r, c, v) for r in sorted(self.rows)
                for c, v in sorted(self.rows[r].items())]

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def is_zero(self) -> bool:
        return not self.rows

    def __matmul__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        out: dict[int, dict[int, Fraction | int]] = {}
        for r, row in self.rows.items():
            acc: dict[int, Fraction | int] = {}
            for j, a in row.items():
                brow = other.rows.get(j)
                if not brow:
                    continue
                for c, b in brow.items():
                    nv = acc.get(c, 0) + a * b
                    acc[c] = nv
            acc = {c: v for c, v in acc.items() if v}
            if acc:
                out[r] = acc
        return SparseRationalMatrix(self.nrows, other.ncols, out)

    def scale(self, t) -> "SparseRationalMatrix":
        if not t:
            return SparseRationalMatrix(self.nrows, self.ncols)
        return SparseRationalMatrix(
            self.nrows, self.ncols,
            {r: {c: v * t for c, v in row.items()} for r, row in self.rows.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseRationalMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        keys = set(self.rows) | set(other.rows)
        for r in keys:
            ra = self.rows.get(r, {})
            rb = other.rows.get(r, {})
            cols = set(ra) | set(rb)
            for c in cols:
                if ra.get(c, 0) != rb.get(c, 0):
                    return False
        return True

    def trace(self):
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        return sum((row.get(r, 0) for r, row in self.rows.items()), 0)

    def trace_of_product(self, other: "SparseRationalMatrix"):
        """tr(self @ other), without forming the product."""
        if self.ncols != other.nrows or self.nrows != other.ncols:
            raise ValueError("shape mismatch in trace of a product")
        return sum((v * other.rows.get(j, {}).get(r, 0)
                    for r, row in self.rows.items() for j, v in row.items()), 0)

    def _integer_rows(self) -> list[dict[int, int]]:
        rows = []
        for row in self.rows.values():
            if not row:
                continue
            if all(type(v) is int for v in row.values()):
                ints = row  # rank() never mutates a row dictionary
            else:
                denom = lcm(*(v.denominator for v in row.values()))
                ints = {c: int(v * denom) for c, v in row.items()}
            g = gcd(*ints.values())
            if g > 1:
                ints = {c: x // g for c, x in ints.items()}
            rows.append(ints)
        return rows

    def rank(self) -> int:
        """Exact rank by fraction-free elimination.

        Rows are scaled to coprime integers (rank is scaling-invariant);
        elimination uses the cross-multiplication update a*row - b*pivot with
        a gcd reduction per row, so no divisions occur.  Pivots are chosen
        deterministically: the column with fewest live entries (ties: the
        smaller column index), then within it the shortest row, then the
        smallest leading magnitude, then the earlier row.

        A live column index maps each column to the ids of the live rows that
        hold it, so no step recounts the remaining rows.  Eliminating with a
        pivot changes the entries of the updated rows only in the pivot's
        columns (fill-in and cancellation happen there and nowhere else), so
        only those columns' index entries are updated.  A heap of
        (live count, column) pairs, with stale pairs skipped when popped,
        yields the pivot column.
        """
        rows = dict(enumerate(self._integer_rows()))
        holders: dict[int, set[int]] = {}
        for rid, row in rows.items():
            for c in row:
                holders.setdefault(c, set()).add(rid)
        heap = [(len(ids), c) for c, ids in holders.items()]
        heapq.heapify(heap)
        rank = 0
        while heap:
            count, pc = heapq.heappop(heap)
            ids = holders.get(pc)
            if ids is None or len(ids) != count:
                continue
            pid = min(ids, key=lambda r: (len(rows[r]), abs(rows[r][pc]), r))
            pivot = rows.pop(pid)
            a = pivot[pc]
            for c in pivot:
                holders[c].discard(pid)
            for rid in list(ids):
                row = rows[rid]
                b = row[pc]
                nr = {}
                for c, v in row.items():
                    nv = a * v - b * pivot.get(c, 0)
                    if nv:
                        nr[c] = nv
                for c, v in pivot.items():
                    if c not in row:
                        nr[c] = -b * v
                        holders[c].add(rid)
                    elif c not in nr:
                        holders[c].discard(rid)
                if nr:
                    g = gcd(*nr.values())
                    if g > 1:
                        nr = {c: x // g for c, x in nr.items()}
                    rows[rid] = nr
                else:
                    del rows[rid]
            for c in pivot:
                if holders[c]:
                    heapq.heappush(heap, (len(holders[c]), c))
                else:
                    del holders[c]
            rank += 1
        return rank

DegreeLabel = tuple  # (M, a, T) in degrees >= 0; a bare value tuple in degree -1


@dataclass
class ChainComplexQ:
    """The complex for parameters (k, ell): bases, dimensions, differentials."""

    k: int
    ell: int
    basis: dict[int, list[DegreeLabel]]
    index: dict[int, dict[DegreeLabel, int]]
    differentials: dict[int, SparseRationalMatrix]  # degree d -> map C^d -> C^{d+1}

    @property
    def degrees(self) -> range:
        return range(-1, self.k - self.ell + 1)

    def dim(self, degree: int) -> int:
        return len(self.basis.get(degree, ()))

    def differential(self, degree: int) -> SparseRationalMatrix:
        if degree in self.differentials:
            return self.differentials[degree]
        return SparseRationalMatrix(self.dim(degree + 1), self.dim(degree))


def expected_dim(k: int, ell: int, i: int) -> int:
    """Closed-form dimension of the degree-i part (i >= 0)."""
    if i < 0 or i > k - ell:
        return 0
    return 2 ** (k - ell - i) * comb(k, ell + i) * comb(ell + i - 1, ell - 1)


def enumerated_dim(k: int, ell: int, i: int) -> int:
    """Degree-i dimension by enumeration, without building the matrices; the
    independent counterpart of expected_dim.

    The labels (M; a; T) are the product of three independent choices: the
    support M, the values a on its complement and the wedge index T.  Each
    factor is enumerated and counted, and the counts are multiplied.
    """
    if i < 0 or i > k - ell:
        return 0
    factors = (itertools.combinations(range(1, k + 1), ell + i),
               itertools.product((1, 2), repeat=k - ell - i),
               itertools.combinations(range(1, ell + i), ell - 1))
    return prod(sum(1 for _ in factor) for factor in factors)


def _wedge_indices(ell: int, size: int) -> list[tuple[int, ...]]:
    """Wedge multi-indices (t_1 < ... < t_{ell-1}) inside 1..size-1, in
    lexicographic order."""
    return list(itertools.combinations(range(1, size), ell - 1))


def build_complex(k: int, ell: int) -> ChainComplexQ:
    """Construct the full complex with its differentials."""
    if not (1 <= ell <= k):
        raise ValueError("need 1 <= ell <= k")
    universe = list(range(1, k + 1))
    basis: dict[int, list[DegreeLabel]] = {
        -1: [a for a in itertools.product((1, 2), repeat=k)]}
    for i in range(0, k - ell + 1):
        labels = []
        for m_set in itertools.combinations(universe, ell + i):
            comp = [t for t in universe if t not in m_set]
            for a in itertools.product((1, 2), repeat=len(comp)):
                for wedge in _wedge_indices(ell, ell + i):
                    labels.append((m_set, a, wedge))
        basis[i] = labels
    index = {d: {lab: p for p, lab in enumerate(labs)} for d, labs in basis.items()}

    # Each (row, column) pair below is written once: the columns' images
    # under distinct supports M, and under distinct wedge terms, are distinct.
    diffs: dict[int, SparseRationalMatrix] = {}
    # degree -1: signed sum over all extensions across M
    rows: list[dict[int, int]] = [{} for _ in basis[0]]
    target = index[0]
    top_wedge = tuple(range(1, ell))
    for col, a in enumerate(basis[-1]):
        for m_set in itertools.combinations(universe, ell):
            comp = [t for t in universe if t not in m_set]
            rest = tuple(a[t - 1] for t in comp)
            sgn = -1 if sum(1 for t in m_set if a[t - 1] == 2) % 2 else 1
            rows[target[(m_set, rest, top_wedge)]][col] = sgn
    diffs[-1] = SparseRationalMatrix.from_row_list(rows, len(basis[-1]))

    for i in range(0, k - ell):
        rows = [{} for _ in basis[i + 1]]
        target = index[i + 1]
        for col, (n_set, a, wedge) in enumerate(basis[i]):
            comp_n = [t for t in universe if t not in n_set]
            for pos, m in enumerate(comp_n):
                m_set = tuple(sorted(n_set + (m,)))
                b = tuple(v for t, v in zip(comp_n, a) if t != m)
                sgn = position_sign(m, m_set) * (1 if a[pos] == 1 else -1)
                for wedge2, coeff in _inclusion_wedge(m_set, m, wedge):
                    rows[target[(m_set, b, wedge2)]][col] = sgn * coeff
        diffs[i] = SparseRationalMatrix.from_row_list(rows, len(basis[i]))
    return ChainComplexQ(k, ell, basis, index, diffs)


def _inclusion_wedge(m_set: tuple[int, ...], m: int, wedge: tuple[int, ...]
                     ) -> list[tuple[tuple[int, ...], int]]:
    """Expand a wedge basis vector of the difference representation on
    M \\ {m} inside the one on M.

    With M = {n_1 < ... < n_s} and m = n_h, the basis vectors rewrite as
    z^r -> z^{r+1} (h = 1), z^r -> z^r (h = s), and otherwise z^r -> z^r for
    r < h-1, z^{h-1} -> z^{h-1} + z^h, z^r -> z^{r+1} for r >= h.  The index
    images are strictly increasing, so no reordering signs appear.
    """
    s = len(m_set)
    h = m_set.index(m) + 1
    terms: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for t in wedge:
        if h == 1:
            images = ((t + 1),)
        elif h == s:
            images = (t,)
        elif t < h - 1:
            images = (t,)
        elif t == h - 1:
            images = (h - 1, h)
        else:
            images = (t + 1,)
        new_terms = []
        for prefix, coeff in terms:
            for idx in images:
                if idx in prefix:
                    continue
                new_terms.append((prefix + (idx,), coeff))
        terms = new_terms
    return [(t, c) for t, c in terms if c]


@dataclass
class ExactnessReport:
    """Cohomology dimensions of a built complex, from exact rank data, and the
    degrees i where d^(i+1) d^i is not zero."""

    k: int
    ell: int
    cohomology: dict[int, int]
    ranks: dict[int, int]
    nonzero_squares: list[int]

    @property
    def passed(self) -> bool:
        return not self.nonzero_squares and all(
            self.cohomology[i] == 0 for i in self.cohomology if i >= 0)


def verify_exactness(cx: ChainComplexQ) -> ExactnessReport:
    """Compute dim H^i = dim ker d^i - rank d^{i-1} in every degree.

    That is the cohomology only if d^(i+1) d^i = 0, so every such product
    is formed as well; the degrees where it is not zero fail the report.
    """
    top = cx.k - cx.ell
    ranks = {d: cx.differential(d).rank() for d in range(-1, top)}
    cohom = {}
    for d in cx.degrees:
        out_rank = ranks.get(d, 0)
        in_rank = ranks.get(d - 1, 0)
        cohom[d] = cx.dim(d) - out_rank - in_rank
    nonzero = [d for d in range(-1, top - 1)
               if not (cx.differential(d + 1) @ cx.differential(d)).is_zero()]
    return ExactnessReport(cx.k, cx.ell, cohom, ranks, nonzero)


# ---------------------------------------------------------------------------
# Group actions


def _difference_rep_matrix(perm: Permutation, n_set: Sequence[int],
                           m_set: Sequence[int]) -> list[dict[int, int]]:
    """Columns of the map z_N^r -> (perm applied), expanded in the z_M basis,
    where M = perm(N).  Column r (0-based) holds {target index: coeff}."""
    ns = sorted(n_set)
    ms = sorted(m_set)
    pos = {t: i for i, t in enumerate(ms)}
    cols = []
    for r in range(len(ns) - 1):
        p = pos[perm(ns[r])]
        q = pos[perm(ns[r + 1])]
        col: dict[int, int] = {}
        if p < q:
            for j in range(p, q):
                col[j + 1] = 1
        else:
            for j in range(q, p):
                col[j + 1] = -1
        cols.append(col)
    return cols


def _wedge_of_map(cols: list[dict[int, int]], wedge: tuple[int, ...]
                  ) -> dict[tuple[int, ...], int]:
    """Image of a wedge basis vector under the exterior power of a linear map
    given column-wise; sorts the factors and tracks the Koszul sign."""
    terms: dict[tuple[int, ...], int] = {(): 1}
    for t in wedge:
        col = cols[t - 1]
        new_terms: dict[tuple[int, ...], int] = {}
        for prefix, coeff in terms.items():
            for idx, c in col.items():
                if idx in prefix:
                    continue
                lst = list(prefix)
                pos = len(lst)
                for ii, v in enumerate(lst):
                    if idx < v:
                        pos = ii
                        break
                sgn = -1 if (len(lst) - pos) % 2 else 1
                key = tuple(lst[:pos] + [idx] + lst[pos:])
                nv = new_terms.get(key, 0) + coeff * c * sgn
                if nv:
                    new_terms[key] = nv
                else:
                    new_terms.pop(key, None)
        terms = new_terms
    return terms


def slot_action_matrix(cx: ChainComplexQ, perm: Permutation, degree: int
                       ) -> SparseRationalMatrix:
    """Matrix of a permutation of the k slots acting in the given degree."""
    if perm.degree != cx.k:
        raise ValueError("permutation degree must equal k")
    labels = cx.basis[degree]
    idx = cx.index[degree]
    rows: list[dict[int, int]] = [{} for _ in labels]
    inv = perm.inverse()
    universe = range(1, cx.k + 1)
    if degree == -1:
        # (g.s)(a) = s(a o g): the component at a o g^{-1} reads off column a
        order = [inv(t) - 1 for t in universe]
        for col, a in enumerate(labels):
            rows[idx[tuple(a[p] for p in order)]][col] = 1
        return SparseRationalMatrix.from_row_list(rows, len(labels))
    # Everything but the value map depends only on the support N: its image
    # M, the reordering of the values onto the complement of M, the sign and
    # the wedge images.  Compute them once per support, not once per column.
    # A column's entries have distinct wedge images, so each is written once.
    per_support: dict[tuple[int, ...], tuple] = {}
    for col, (n_set, b, wedge) in enumerate(labels):
        support = per_support.get(n_set)
        if support is None:
            m_set = tuple(sorted(perm(t) for t in n_set))
            comp_n = [t for t in universe if t not in n_set]
            order = [comp_n.index(inv(t)) for t in universe if t not in m_set]
            e = sign_on_subset(perm, n_set)
            cols = _difference_rep_matrix(perm, n_set, m_set)
            support = per_support[n_set] = (m_set, order, e, cols, {})
        m_set, order, e, cols, images = support
        image = images.get(wedge)
        if image is None:
            image = images[wedge] = [(wedge2, e * coeff) for wedge2, coeff
                                     in _wedge_of_map(cols, wedge).items()]
        a = tuple(b[p] for p in order)
        for wedge2, v in image:
            rows[idx[(m_set, a, wedge2)]][col] = v
    return SparseRationalMatrix.from_row_list(rows, len(labels))


def swap_action_matrix(cx: ChainComplexQ, degree: int) -> SparseRationalMatrix:
    """Matrix of the value-swap involution in the given degree: the flip
    1 <-> 2 of the values, times (-1)^(ell-1) in degree -1 and (-1)^(i-1) in
    degree i >= 0, the signs that make it a chain map."""
    labels = cx.basis[degree]
    idx = cx.index[degree]
    rows: list[dict[int, int]] = [{} for _ in labels]
    if degree == -1:
        scalar = -1 if (cx.ell - 1) % 2 else 1
        for col, a in enumerate(labels):
            rows[idx[tuple(3 - v for v in a)]][col] = scalar
    else:
        scalar = -1 if (degree - 1) % 2 else 1
        for col, (m_set, a, wedge) in enumerate(labels):
            rows[idx[(m_set, tuple(3 - v for v in a), wedge)]][col] = scalar
    return SparseRationalMatrix.from_row_list(rows, len(labels))


def group_invariant_dim(cx: ChainComplexQ, degree: int, group: str,
                        slot_character: str = "trivial") -> int:
    """Dimension of the invariant subspace in a degree, for group one of
    "swap", "slot", or "slot_swap" (the product of the two).

    The slot factor may be twisted by its sign character.  Computed twice:
    as the character average over cycle types (one class representative g
    per cycle type, weighted by its class size; the swap commutes with the
    slot action, so tr(swap g) is a class function as well), and as the
    fixed space of generators (the kernel of the stacked blocks g - I for
    the transposition (1 2), the long cycle and the swap); the two results
    are asserted equal.  Neither enumerates the k! slot permutations.
    """
    if slot_character not in ("trivial", "sign"):
        raise ValueError(f"unknown character {slot_character!r}")
    if group not in ("swap", "slot", "slot_swap"):
        raise ValueError(f"unknown group {group!r}")
    dim = cx.dim(degree)

    def twisted(perm: Permutation) -> SparseRationalMatrix:
        """chi(perm) times the slot action of perm."""
        mat = slot_action_matrix(cx, perm, degree)
        return mat.scale(perm.sign()) if slot_character == "sign" else mat

    swap_mat = swap_action_matrix(cx, degree) if group != "slot" else None
    if group == "swap":
        order, gens = 2, [swap_mat]
        trace_sum = dim + swap_mat.trace()
    else:
        # (1 2) and the long cycle are class representatives too: build once
        gen_mats = {g: twisted(g) for g in generators(cx.k)}
        order, trace_sum = factorial(cx.k), 0
        for ct in cycle_types(cx.k):
            rep = class_representative(ct)
            mat = gen_mats[rep] if rep in gen_mats else twisted(rep)
            tr = mat.trace()
            if swap_mat is not None:
                tr += swap_mat.trace_of_product(mat)
            trace_sum += class_size(ct) * tr
        gens = list(gen_mats.values())
        if swap_mat is not None:
            order *= 2
            gens.append(swap_mat)

    # The blocks g - I, one under the other.
    stacked = []
    for mat in gens:
        for r in range(dim):
            row = dict(mat.rows.get(r, {}))
            row[r] = row.get(r, 0) - 1
            stacked.append(row)

    if trace_sum % order != 0:
        raise ArithmeticError("non-integral trace average in invariant count")
    by_trace = trace_sum // order
    by_rank = dim - SparseRationalMatrix.from_row_list(stacked, dim).rank()
    if by_trace != by_rank:
        raise ArithmeticError(
            f"invariant dimension mismatch: trace {by_trace} vs fixed space {by_rank}")
    return by_trace


def swap_invariant_kernel_dim(cx: ChainComplexQ) -> int:
    """Brute-force count of swap-invariant kernel vectors in degree 0 of a
    built complex (from `build_complex(k, ell)`).

    Computes the dimension of the twisted-swap invariants of ker(d^0) by
    stacking d^0 with (identity - swap) and taking a kernel dimension, and
    independently as the alternating sum of invariant dimensions over the
    degrees >= 0 (the two agree because the complex is exact there and taking
    invariants is exact).  Both are checked against the closed form before
    being returned.
    """
    k, ell = cx.k, cx.ell
    dim0 = cx.dim(0)
    d0 = cx.differential(0)
    tau0 = swap_action_matrix(cx, 0)
    stacked = [d0.rows.get(r, {}) for r in range(d0.nrows)]
    for r in range(dim0):
        row = {c: -v for c, v in tau0.rows.get(r, {}).items()}
        row[r] = row.get(r, 0) + 1
        stacked.append(row)
    direct = dim0 - SparseRationalMatrix.from_row_list(stacked, dim0).rank()

    alternating = 0
    for i in range(0, k - ell + 1):
        inv_dim = group_invariant_dim(cx, i, "swap")
        alternating += inv_dim if i % 2 == 0 else -inv_dim

    closed = diagonal_multiplicity(k, ell)
    if not (direct == alternating == closed):
        raise ArithmeticError(
            f"swap-invariant kernel count mismatch at (k, ell) = ({k}, {ell}): "
            f"kernel {direct}, alternating sum {alternating}, closed form {closed}")
    return direct


def sym_power_multiplicity(k: int, ell: int) -> int:
    """Multiplicity of the ell-th diagonal term in the symmetric-power Euler
    characteristic on the two-point space: the dimension of the joint
    (slot x twisted-swap)-invariants in degree 0, by `group_invariant_dim`.  The
    reference for the closed form `euler.sym_power_coefficient`."""
    cx = build_complex(k, ell)
    return group_invariant_dim(cx, 0, "slot_swap")


def ext_power_multiplicity(k: int, ell: int) -> int:
    """Sign-character analogue of sym_power_multiplicity.

    The slot factor is twisted by its sign character; because the
    sign-isotypic parts of the positive degrees need not vanish, the correct
    coefficient is the alternating sum over all degrees >= 0 rather than the
    degree-0 count alone.  It vanishes, as `euler.chi_ext_power_two`, which
    has no diagonal term, requires.
    """
    cx = build_complex(k, ell)
    total = 0
    for i in range(0, k - ell + 1):
        inv_dim = group_invariant_dim(cx, i, "slot_swap", slot_character="sign")
        total += inv_dim if i % 2 == 0 else -inv_dim
    return total
