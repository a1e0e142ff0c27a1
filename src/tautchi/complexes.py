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
an integer offset from its support, its value digits and its wedge index,
and the differentials are filled from tables formed once per support and
freed element, without looking up labels.  The same builder, with one value
per slot instead of two, gives the value-free complex R(k, ell), defined for
every k >= 0.

In the basis s = e_1 + e_2, delta = e_1 of each slot's values the full
complex splits: it is the block-diagonal sum, over the sets S of slots that
carry s, of R(k - |S|, ell) on the other slots.  `Splitting` reads the
exactness, the swap-invariant kernel count and the slot invariants of every
(k, ell), k <= k_max, off the blocks R(k', ell), k' <= k_max, each built
once; the suite runs on it.  The full complexes stay as the oracle of the
splitting in the tests.

No formula uses this module: it is the verification layer, loaded only by
the tests, `--verify` and `verify_complexes` jobs.  The closed forms
`surviving_count` and `diagonal_multiplicity` of `euler`, derived from the
blocks, are bound here under their names and checked against the counts.

All matrices are sparse with exact integer or rational entries; a rank is
computed by fraction-free echelon insertion of the rows.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
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
        """Exact rank by fraction-free echelon insertion.

        The rows, scaled to coprime integers, are inserted one at a time.
        While a row is nonzero, its leading column is its largest column
        index: if no pivot leads there, the row becomes that column's pivot;
        otherwise it is replaced by a*row - b*pivot (a the pivot's leading
        entry, b the row's), with cancelled entries dropped and the gcd
        divided out.  The rank is the number of pivots.  No row dictionary
        is changed in place: `_integer_rows` may hand out the matrix's own.

        The largest column is a fixed rule, chosen by measurement: on the
        45 060 rows, in basis order, that `cli.run_verification(10)` ranks,
        it takes 127 000 reduction steps over 1.3 million entries and the
        smallest column 376 000 over 12 million; the suite takes 0.7-0.9 s
        against 2.3-3.8 s (process time; CPython 3.11, 2-core Xeon).
        """
        pivots: dict[int, dict[int, int]] = {}
        for row in self._integer_rows():
            while row:
                lead = max(row)
                pivot = pivots.get(lead)
                if pivot is None:
                    pivots[lead] = row
                    break
                a, b = pivot[lead], row[lead]
                new = {c: a * v for c, v in row.items()}
                for c, v in pivot.items():
                    new[c] = new.get(c, 0) - b * v
                row = {c: v for c, v in new.items() if v}
                g = gcd(*row.values())
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
        return len(pivots)

DegreeLabel = tuple  # (M, a, T) in degrees >= 0; a bare value tuple in degree -1


@dataclass
class ChainComplexQ:
    """The complex for parameters (k, ell): bases, dimensions, differentials.

    `values` is the number of values a slot outside the support takes: 2 for
    the full complex, 1 for the value-free complex R(k, ell)."""

    k: int
    ell: int
    basis: dict[int, list[DegreeLabel]]
    differentials: dict[int, SparseRationalMatrix]  # degree d -> map C^d -> C^{d+1}
    values: int = 2

    @property
    def degrees(self) -> range:
        return range(-1, max(self.k - self.ell, -1) + 1)

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


def build_complex(k: int, ell: int, values: int = 2) -> ChainComplexQ:
    """Construct the full complex (values=2), or the value-free complex
    R(k, ell) (values=1), with its differentials.

    The degree-i basis runs over the supports M in lexicographic order, then
    over the values a on the complement in product order, then over the wedge
    indices T.  Reading a - 1 as digits in base `values`, first slot highest,
    gives the value index of a, so the position of (M; a; T) is

        support_index(M) * values^free * n_wedge + value_index(a) * n_wedge
            + wedge_index(T),    free = k - ell - i,

    and degree -1 lists the maps a by their value index alone.  The
    differentials find their rows by this arithmetic, not by label lookups.
    A column (N; a; T) and a freed element m give the support M = N + {m},
    formed once per (N, m), and the position sign of m in M and the wedge
    images of T under the inclusion of the difference representation on N
    into the one on M, which depend only on the position of m in M and are
    formed once per position.  The values enter by one digit: b is a with the
    digit of m deleted, and that digit gives the sign of the freed value.

    R(k, ell) has the value-1 entries of the full complex and one vector in
    degree -1.  It is defined for every k >= 0: for k < ell only its degree
    -1 is nonzero.
    """
    if values not in (1, 2):
        raise ValueError("a slot takes 1 or 2 values")
    if ell < 1 or k < (ell if values == 2 else 0):
        raise ValueError("need 1 <= ell <= k, or 1 <= ell and 0 <= k for values=1")
    universe = range(1, k + 1)
    identity = Permutation.identity(k)
    top = k - ell
    value_range = range(1, values + 1)
    layouts = [_degree_layout(k, ell, i) for i in range(top + 1)]
    supports = [support for support, _ in layouts]
    wedges = [wedge for _, wedge in layouts]
    basis: dict[int, list[DegreeLabel]] = {
        -1: list(itertools.product(value_range, repeat=k))}
    for i in range(top + 1):
        fills = list(itertools.product(value_range, repeat=top - i))
        basis[i] = [(m_set, a, wedge) for m_set in supports[i]
                    for a in fills for wedge in wedges[i]]

    # Each (row, column) pair below is written once: the columns' images
    # under distinct supports M, and under distinct wedge terms, are distinct.
    # Column indices are read from `cols`, so that a column's entries share
    # one int object, as they would with a per-column loop.
    diffs: dict[int, SparseRationalMatrix] = {}
    if top >= 0:
        # degree -1: row (M; r) holds the signed sum over all extensions of r
        # across M.  Slot t carries the weight values^(k-t) in a column index;
        # the extensions' offsets and signs are the same for every r.
        rows: list[dict[int, int]] = []
        cols = list(range(values ** k))
        for m_set in supports[0]:
            rest = [0]
            extensions = [(0, 1)]
            for t in universe:
                weight = values ** (k - t)
                if t in m_set:
                    extensions = [(x + d * weight, (-1) ** d * s)
                                  for x, s in extensions for d in range(values)]
                else:
                    rest = [x + d * weight for x in rest for d in range(values)]
            rows.extend({cols[r + x]: s for x, s in extensions} for r in rest)
        diffs[-1] = SparseRationalMatrix.from_row_list(rows, len(basis[-1]))

    for i in range(top):
        free = top - i
        n_vals, n_wedge, n_wedge2 = values ** free, len(wedges[i]), len(wedges[i + 1])
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
                    one = _wedge_entries(
                        position_sign(m, m_set),
                        _difference_rep_matrix(identity, n_set, m_set),
                        wedges[i], wedge_index)
                    entries = by_position[h] = (one, [(w, w2, -v) for w, w2, v in one])
                row0 = support_index[m_set] * (n_vals // values) * n_wedge2
                unit = values ** (free - 1 - pos)  # the weight of m's value
                for v in range(n_vals):
                    high, low = divmod(v, unit)
                    high, digit = divmod(high, values)
                    rbase = row0 + (high * unit + low) * n_wedge2
                    cbase = col0 + v * n_wedge
                    for w, w2, val in entries[digit]:
                        rows[rbase + w2][cols[cbase + w]] = val
        diffs[i] = SparseRationalMatrix.from_row_list(rows, len(basis[i]))
    return ChainComplexQ(k, ell, basis, diffs, values)


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
                pos = bisect.bisect(prefix, idx)
                sgn = -1 if (len(prefix) - pos) % 2 else 1
                key = prefix[:pos] + (idx,) + prefix[pos:]
                nv = new_terms.get(key, 0) + coeff * c * sgn
                if nv:
                    new_terms[key] = nv
                else:
                    new_terms.pop(key, None)
        terms = new_terms
    return terms


def _wedge_entries(sign: int, cols: list[dict[int, int]],
                   wedges: Sequence[tuple[int, ...]],
                   wedge_index: dict[tuple[int, ...], int]
                   ) -> list[tuple[int, int, int]]:
    """The entries (wedge index of the column, wedge index of the row, value)
    of sign times the exterior power of a support map given column-wise (as
    by `_difference_rep_matrix`), for the source wedge indices in order and
    the positions of the target ones."""
    return [(w, wedge_index[wedge2], sign * coeff) for w, wedge in enumerate(wedges)
            for wedge2, coeff in _wedge_of_map(cols, wedge).items()]


def _value_index_map(order: Sequence[int], values: int) -> list[int]:
    """For the values a_j = b[order[j]], the value index of a at each value
    index of b (first value highest, as in the bases of `build_complex`)."""
    free = len(order)
    weights = [0] * free
    for j, p in enumerate(order):
        weights[p] = values ** (free - 1 - j)
    table = [0]
    for weight in weights:
        table = [x + d * weight for x in table for d in range(values)]
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
        moved = _value_index_map([inv(t) - 1 for t in universe], cx.values)
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
    n_vals, n_wedge = cx.values ** (cx.k - cx.ell - degree), len(wedges)
    block = n_vals * n_wedge
    rows: list[dict[int, int]] = [{} for _ in range(dim)]
    for sn, n_set in enumerate(supports):
        m_set = tuple(sorted(perm(t) for t in n_set))
        comp_n = [t for t in universe if t not in n_set]
        moved = _value_index_map([comp_n.index(inv(t)) for t in universe
                                  if t not in m_set], cx.values)
        entries = _wedge_entries(sign_on_subset(perm, n_set),
                                 _difference_rep_matrix(perm, n_set, m_set),
                                 wedges, wedge_index)
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
    of a label and keeps its support and wedge index.  It needs two values
    per slot."""
    if cx.values != 2:
        raise ValueError("the value swap needs two values per slot")
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
    multiply in.  With one value per slot, as in R(k, ell), each cycle
    outside N fixes one fill, not two; the swap needs two values.
    """
    if swap and cx.values != 2:
        raise ValueError("the value swap needs two values per slot")
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
        term = cx.values ** len(rest)
        if degree >= 0:
            term *= (-1) ** (size - len(inside)) * _wedge_trace(inside, cx.ell - 1)
        total += term
    if swap:
        total *= scalar
    return total * perm.sign() if slot_character == "sign" else total


@cache
def _classes(k: int) -> tuple[tuple[Permutation, int], ...]:
    """A representative and the size of each conjugacy class of S_k."""
    return tuple((class_representative(ct), class_size(ct)) for ct in cycle_types(k))


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
        for rep, size in _classes(cx.k):
            tr = class_trace(cx, rep, degree, slot_character)
            if swap_mat is not None:
                tr += class_trace(cx, rep, degree, slot_character, swap=True)
            trace_sum += size * tr
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

    return _checked_kernel_count(k, ell, direct, alternating)


def _checked_kernel_count(k: int, ell: int, direct: int, alternating: int) -> int:
    """direct, if it equals the alternating count and the closed form."""
    closed = diagonal_multiplicity(k, ell)
    if not (direct == alternating == closed):
        raise ArithmeticError(
            f"swap-invariant kernel count mismatch at (k, ell) = ({k}, {ell}): "
            f"kernel {direct}, alternating sum {alternating}, closed form {closed}")
    return direct


# ---------------------------------------------------------------------------
# The s/t splitting


class Splitting:
    """The complexes (k, ell), k <= k_max, of one ell, read off their blocks.

    Change the basis of each slot's two values to s = e_1 + e_2 and
    delta = e_1; the change is unimodular.  The freeing functional of the
    differentials sends s to 0 and delta to 1, so in the new basis every
    differential of `build_complex(k, ell)` is block-diagonal over the set S
    of slots that carry s, and the block of S is R(k - |S|, ell) =
    `build_complex(k - |S|, ell, values=1)` on the other slots, relabelled
    in order.  A count that adds over the blocks is therefore
    sum_j C(k, j) times its value on R(k - j, ell), and every R(k', ell),
    k' <= k_max, is built and reduced once for all k.
    """

    def __init__(self, k_max: int, ell: int):
        self.ell = ell
        self.blocks = [build_complex(kk, ell, values=1) for kk in range(k_max + 1)]
        self.reports = [verify_exactness(block) for block in self.blocks]
        self._slot_dims: dict[tuple[int, int], int] = {}

    def exactness(self, k: int) -> ExactnessReport:
        """The report of (k, ell): cohomology and ranks are the sums over the
        blocks, and d^(i+1) d^i is zero where it is zero on every block."""
        terms = [(comb(k, kk), self.reports[kk]) for kk in range(k + 1)]
        whole = self.reports[k]  # the block S = {}, with every degree of (k, ell)
        return ExactnessReport(
            k, self.ell,
            {d: sum(c * r.cohomology.get(d, 0) for c, r in terms) for d in whole.cohomology},
            {d: sum(c * r.ranks.get(d, 0) for c, r in terms) for d in whole.ranks},
            sorted({d for _, r in terms for d in r.nonzero_squares}))

    def swap_invariant_kernel_dim(self, k: int) -> int:
        """`swap_invariant_kernel_dim(build_complex(k, ell))` from the blocks.

        Over Q, in the basis s, t = e_1 - e_2, the twisted swap is the sign
        -(-1)^(k' - ell) on a block R(k', ell), in every degree.  So the
        invariant kernel of d^0 is the sum of the kernels of d^0 on the blocks
        of sign +1, and the alternating count sums their signed dimensions.
        """
        direct = alternating = 0
        for kk in range(k + 1):
            if (kk - self.ell) % 2 == 0:  # the twisted swap is -1 on R(kk, ell)
                continue
            block, report = self.blocks[kk], self.reports[kk]
            direct += comb(k, kk) * (block.dim(0) - report.ranks.get(0, 0))
            alternating += comb(k, kk) * sum(
                (-1) ** i * block.dim(i) for i in range(kk - self.ell + 1))
        return _checked_kernel_count(k, self.ell, direct, alternating)

    def slot_invariant_dim(self, k: int, degree: int) -> int:
        """`group_invariant_dim(build_complex(k, ell), degree, "slot")` from
        the blocks.

        The slot group permutes the blocks with |S| = j, with stabilizer
        S_j x S_(k-j), and S_j acts trivially on the s-slots.  By Frobenius
        reciprocity the invariants are sum_j dim R^degree(k - j, ell)^S_(k-j),
        and each term is counted once by `group_invariant_dim`.
        """
        total = 0
        for kk in range(k + 1):
            if self.blocks[kk].dim(degree):
                if (kk, degree) not in self._slot_dims:
                    self._slot_dims[kk, degree] = group_invariant_dim(
                        self.blocks[kk], degree, "slot")
                total += self._slot_dims[kk, degree]
        return total


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
