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
slot permutations.  The character average reads each class
representative's trace off its cycle lengths (`class_trace`); only the
generators' matrices are formed.

The builder lists each basis support by support, so a label's position is
an integer offset from its support, its value bits and its wedge index, and
the differentials are filled from tables formed once per support and freed
element, without looking up labels.

No formula uses this module: it is the verification layer, loaded only by
the tests, `--verify` and `verify_complexes` jobs.  The closed forms
`surviving_count` and `diagonal_multiplicity` of `euler` are bound here
under their names and checked against the invariant counts.

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


def _degree_layout(k: int, ell: int, i: int
                   ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The supports and the wedge indices of degree i >= 0, in basis order."""
    return (list(itertools.combinations(range(1, k + 1), ell + i)),
            _wedge_indices(ell, ell + i))


def build_complex(k: int, ell: int) -> ChainComplexQ:
    """Construct the full complex with its differentials.

    The degree-i basis runs over the supports M in lexicographic order, then
    over the values a on the complement in product order, then over the wedge
    indices T.  Reading a - 1 as binary digits, first slot highest, gives the
    value index of a, so the position of (M; a; T) is

        support_index(M) * 2^free * n_wedge + value_index(a) * n_wedge
            + wedge_index(T),    free = k - ell - i,

    and degree -1 lists the maps a by their value index alone.  The
    differentials find their rows by this arithmetic, not by label lookups.
    A column (N; a; T) and a freed element m give the support M = N + {m},
    formed once per (N, m), and the position sign of m in M and the wedge
    images of T, which depend only on the position of m in M and are formed
    once per position.  The values enter by one bit: b is a with the bit of
    m deleted, and that bit gives the sign of the freed value.
    """
    if not (1 <= ell <= k):
        raise ValueError("need 1 <= ell <= k")
    universe = range(1, k + 1)
    top = k - ell
    supports, wedges = zip(*(_degree_layout(k, ell, i) for i in range(top + 1)))
    basis: dict[int, list[DegreeLabel]] = {
        -1: list(itertools.product((1, 2), repeat=k))}
    for i in range(top + 1):
        values = list(itertools.product((1, 2), repeat=top - i))
        basis[i] = [(m_set, a, wedge) for m_set in supports[i]
                    for a in values for wedge in wedges[i]]

    # Each (row, column) pair below is written once: the columns' images
    # under distinct supports M, and under distinct wedge terms, are distinct.
    # Column indices are read from `cols`, so that a column's entries share
    # one int object, as they would with a per-column loop.
    diffs: dict[int, SparseRationalMatrix] = {}
    # degree -1: row (M; r) holds the signed sum over all extensions of r
    # across M.  Slot t carries the bit 2^(k-t) of a column index; the
    # extensions' bits and signs are the same for every r.
    rows: list[dict[int, int]] = []
    cols = list(range(1 << k))
    for m_set in supports[0]:
        rest_bits = [0]
        extensions = [(0, 1)]
        for t in universe:
            bit = 1 << (k - t)
            if t in m_set:
                extensions = [(x + y, s * u) for x, s in extensions
                              for y, u in ((0, 1), (bit, -1))]
            else:
                rest_bits = [x + y for x in rest_bits for y in (0, bit)]
        rows.extend({cols[r + x]: s for x, s in extensions} for r in rest_bits)
    diffs[-1] = SparseRationalMatrix.from_row_list(rows, len(basis[-1]))

    for i in range(top):
        free = top - i
        n_vals, n_wedge, n_wedge2 = 1 << free, len(wedges[i]), len(wedges[i + 1])
        support_index = {m_set: p for p, m_set in enumerate(supports[i + 1])}
        wedge_index = {wedge: p for p, wedge in enumerate(wedges[i + 1])}
        # by the position h of m in M: for a freed value 1 and for 2, the
        # entries (wedge index of the column, wedge index of the row, value)
        by_position: dict[int, tuple[list, list]] = {}
        rows = [{} for _ in basis[i + 1]]
        cols = list(range(len(basis[i])))
        for sn, n_set in enumerate(supports[i]):
            comp = [t for t in universe if t not in n_set]
            col0 = sn * n_vals * n_wedge
            for pos, m in enumerate(comp):
                m_set = tuple(sorted(n_set + (m,)))
                h = m_set.index(m)
                entries = by_position.get(h)
                if entries is None:
                    sgn = position_sign(m, m_set)
                    one = [(w, wedge_index[wedge2], sgn * coeff)
                           for w, wedge in enumerate(wedges[i])
                           for wedge2, coeff in _inclusion_wedge(m_set, m, wedge)]
                    entries = by_position[h] = (one, [(w, w2, -v) for w, w2, v in one])
                row0 = support_index[m_set] * (n_vals >> 1) * n_wedge2
                shift = free - 1 - pos  # the bit of m's value in a value index
                low = (1 << shift) - 1
                for v in range(n_vals):
                    rbase = row0 + ((v >> (shift + 1) << shift) | (v & low)) * n_wedge2
                    cbase = col0 + v * n_wedge
                    for w, w2, val in entries[v >> shift & 1]:
                        rows[rbase + w2][cols[cbase + w]] = val
        diffs[i] = SparseRationalMatrix.from_row_list(rows, len(basis[i]))
    return ChainComplexQ(k, ell, basis, diffs)


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


def _value_index_map(order: Sequence[int]) -> list[int]:
    """For the values a_j = b[order[j]], the value index of a at each value
    index of b (first value highest, as in the bases of `build_complex`)."""
    free = len(order)
    weights = [0] * free
    for j, p in enumerate(order):
        weights[p] = 1 << (free - 1 - j)
    table = [0]
    for weight in weights:
        table = [x + y for x in table for y in (0, weight)]
    return table


def slot_action_matrix(cx: ChainComplexQ, perm: Permutation, degree: int
                       ) -> SparseRationalMatrix:
    """Matrix of a permutation of the k slots acting in the given degree.

    Rows are found by the integer offsets of `build_complex`'s basis layout.
    """
    if perm.degree != cx.k:
        raise ValueError("permutation degree must equal k")
    dim = cx.dim(degree)
    inv = perm.inverse()
    universe = range(1, cx.k + 1)
    if degree == -1:
        # (g.s)(a) = s(a o g): the component at a o g^{-1} reads off column a
        moved = _value_index_map([inv(t) - 1 for t in universe])
        rows = [{} for _ in range(dim)]
        for v in range(dim):
            rows[moved[v]][v] = 1
        return SparseRationalMatrix.from_row_list(rows, dim)
    # Everything but the value map depends only on the support N: its image
    # M, the reordering of the values onto the complement of M, the sign and
    # the wedge images.  Compute them once per support, not once per column.
    # A column's entries have distinct wedge images, so each is written once.
    supports, wedges = _degree_layout(cx.k, cx.ell, degree)
    support_index = {m_set: p for p, m_set in enumerate(supports)}
    wedge_index = {wedge: p for p, wedge in enumerate(wedges)}
    n_vals, n_wedge = 1 << (cx.k - cx.ell - degree), len(wedges)
    block = n_vals * n_wedge
    rows: list[dict[int, int]] = [{} for _ in range(dim)]
    for sn, n_set in enumerate(supports):
        m_set = tuple(sorted(perm(t) for t in n_set))
        comp_n = [t for t in universe if t not in n_set]
        moved = _value_index_map([comp_n.index(inv(t)) for t in universe
                                  if t not in m_set])
        e = sign_on_subset(perm, n_set)
        cols = _difference_rep_matrix(perm, n_set, m_set)
        entries = [(w, wedge_index[wedge2], e * coeff) for w, wedge in enumerate(wedges)
                   for wedge2, coeff in _wedge_of_map(cols, wedge).items()]
        row0, col0 = support_index[m_set] * block, sn * block
        for v in range(n_vals):
            rbase, cbase = row0 + moved[v] * n_wedge, col0 + v * n_wedge
            for w, w2, val in entries:
                rows[rbase + w2][cbase + w] = val
    return SparseRationalMatrix.from_row_list(rows, dim)


def swap_action_matrix(cx: ChainComplexQ, degree: int) -> SparseRationalMatrix:
    """Matrix of the value-swap involution in the given degree: the flip
    1 <-> 2 of the values, times (-1)^(ell-1) in degree -1 and (-1)^(i-1) in
    degree i >= 0, the signs that make it a chain map.

    In `build_complex`'s basis layout the flip complements the value index v
    of a label and keeps its support and wedge index."""
    dim = cx.dim(degree)
    if degree == -1:
        scalar, n_vals, n_wedge = -1 if (cx.ell - 1) % 2 else 1, dim, 1
    else:
        scalar = -1 if (degree - 1) % 2 else 1
        n_vals = 1 << (cx.k - cx.ell - degree)
        n_wedge = len(_wedge_indices(cx.ell, cx.ell + degree))
    return SparseRationalMatrix(dim, dim, {
        r: {r + (n_vals - 1 - 2 * (r // n_wedge % n_vals)) * n_wedge: scalar}
        for r in range(dim)})


def _cycle_lengths(perm: Permutation) -> list[int]:
    images = perm.images
    seen: set[int] = set()
    lengths = []
    for start in range(1, perm.degree + 1):
        t, length = start, 0
        while t not in seen:
            seen.add(t)
            t, length = images[t - 1], length + 1
        if length:
            lengths.append(length)
    return lengths


def _wedge_trace(lengths: Iterable[int], j: int) -> int:
    """tr of the j-th exterior power of a permutation with the given cycle
    lengths on the difference representation.  The permutation
    representation is that one plus the trivial one, so
    sum_j tr(Lambda^j) t^j = prod_c (1 - (-t)^len(c)) / (1 + t)."""
    poly = [1]
    for length in lengths:
        shifted = [0] * length + [-(-1) ** length * c for c in poly]
        poly = [a + b for a, b in itertools.zip_longest(poly, shifted, fillvalue=0)]
    quotient = [0]
    for c in poly[:-1]:
        quotient.append(c - quotient[-1])
    return quotient[j + 1] if j + 1 < len(quotient) else 0


def class_trace(cx: ChainComplexQ, perm: Permutation, degree: int,
                slot_character: str = "trivial", swap: bool = False) -> int:
    """chi(perm) tr(g), or chi(perm) tr(swap g) with swap, for the slot action
    g of perm in a degree, from the cycle lengths of perm, without a matrix.

    In degree -1, g sends a to a o perm^-1: it fixes the maps constant on
    each cycle, and swap g fixes those that alternate along each cycle
    (2^cycles of them if every cycle has even length, else none).  In degree
    i >= 0, (N; b; T) has a diagonal entry only if perm(N) = N, so N is a
    union of cycles; then the value count on the complement is the same
    count for its cycles, and the wedge factor contributes the sign of perm
    on N, (-1)^(|N| - cycles in N), times tr Lambda^(ell-1) on the
    difference representation of N.  The swap's scalar and chi(perm)
    multiply in.
    """
    lengths = _cycle_lengths(perm)
    if degree == -1:
        splits = [((), lengths)]
        scalar = -1 if (cx.ell - 1) % 2 else 1
    else:
        size = cx.ell + degree
        splits = []
        for r in range(1, len(lengths) + 1):
            for chosen in itertools.combinations(range(len(lengths)), r):
                if sum(lengths[c] for c in chosen) == size:
                    splits.append(([lengths[c] for c in chosen],
                                   [x for c, x in enumerate(lengths) if c not in chosen]))
        scalar = -1 if (degree - 1) % 2 else 1
    total = 0
    for inside, rest in splits:
        if swap and any(x % 2 for x in rest):
            continue
        term = 2 ** len(rest)
        if degree >= 0:
            term *= (-1) ** (size - len(inside)) * _wedge_trace(inside, cx.ell - 1)
        total += term
    if swap:
        total *= scalar
    return total * perm.sign() if slot_character == "sign" else total


def group_invariant_dim(cx: ChainComplexQ, degree: int, group: str,
                        slot_character: str = "trivial") -> int:
    """Dimension of the invariant subspace in a degree, for group one of
    "swap", "slot", or "slot_swap" (the product of the two).

    The slot factor may be twisted by its sign character.  Computed twice:
    as the character average over cycle types (one class representative g
    per cycle type, weighted by its class size, with tr(g) and tr(swap g)
    from `class_trace`; the swap commutes with the slot action, so
    tr(swap g) is a class function as well), and as the
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
        order, trace_sum = factorial(cx.k), 0
        for ct in cycle_types(cx.k):
            rep = class_representative(ct)
            tr = class_trace(cx, rep, degree, slot_character)
            if swap_mat is not None:
                tr += class_trace(cx, rep, degree, slot_character, swap=True)
            trace_sum += class_size(ct) * tr
        gens = [twisted(g) for g in generators(cx.k)]
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
