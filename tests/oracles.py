"""Brute-force enumerations that the production sums in `tautchi.euler`
replace, kept as test oracles, the typed multiset DP that the
decorated-block sum of `tautchi.euler.chi_product_invariants` replaces, an
independent regrouping of the triple-product formula, the triple-product
and Hom-pair breakdowns with one Riemann-Roch evaluation of a freshly built class per factor (which
`tautchi.euler` replaces by class products built once and linear forms),
the dense double sum that the sparse `SurfaceModel.pair` replaces, the
label-by-label complex builder and slot action that the table-driven
`tautchi.complexes.build_complex` and `slot_action_matrix` replace, the
k!-element projector count that `tautchi.complexes.group_invariant_dim`
replaces, a dense Fraction rank for `SparseRationalMatrix.rank`, the
label-by-label count that the factor-by-factor
`tautchi.complexes.enumerated_dim` replaces, the
factor-by-factor Fraction product that `tautchi.surface.gen_binomial`
replaces, the entry-by-entry Fraction product that the integer
`tautchi.surface.ClassMultiplier` replaces, and the Euler characteristic of
a graded symmetric power by basis enumeration, and the orbit enumerations
of `tautchi.symgroup` that no production path uses: diagonal tuples, the
brute-force orbit decomposition over generators, and Stirling numbers.

Each enumeration sums term by term over subsets or set partitions, with one
Riemann-Roch evaluation per summand, and groups the summands the way the
production breakdown labels them: by |P|, by (|P|, |Q|), or by block count.
The cost is exponential in the number of bundles, so callers keep k small.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod
from typing import Callable, Hashable, Iterable, Sequence

from tautchi.complexes import (ChainComplexQ, SparseRationalMatrix,
                               _wedge_indices, slot_action_matrix,
                               swap_action_matrix)
from tautchi.euler import ChiResult, Term, surviving_count
from tautchi.surface import (ChernCharacter, ch_anticanonical, ch_coords, ch_hom,
                             ch_sym_cotangent, ch_tangent, ch_tensor,
                             ch_tensor_all, gen_binomial, hrr_chi, sym_pow_chi)
from tautchi.symgroup import (Permutation, generators, position_sign,
                              product_orbit_reps, set_partitions,
                              sign_on_subset, subset_key)


def _twisted_chi(surface, chars, twist):
    return hrr_chi(ch_tensor(ch_tensor_all(chars, surface), twist, surface), surface)


def two_point_main_by_size(surface, bundles, twist):
    """{|P|: sum over P containing 1 of chi(E_P L) chi(E_{P^c} L)}."""
    k = len(bundles)
    rest = range(2, k + 1)
    out = defaultdict(Fraction)
    for r in range(k):
        for extra in itertools.combinations(rest, r):
            p_set = (1,) + extra
            q_set = [t for t in rest if t not in extra]
            out[r + 1] += (_twisted_chi(surface, [bundles[t - 1] for t in p_set], twist)
                           * _twisted_chi(surface, [bundles[t - 1] for t in q_set], twist))
    return dict(out)


def hom_pair_main_by_sizes(surface, source, target):
    """{(|P|, |Q|): sum over P containing 1 and all Q of
    chi(Hom(E_P, F_Q)) chi(Hom(E_{P^c}, F_{Q^c}))}."""
    k, khat = len(source), len(target)
    rest = range(2, k + 1)
    out = defaultdict(Fraction)
    for r in range(k):
        for extra in itertools.combinations(rest, r):
            p_set = (1,) + extra
            p_comp = [t for t in rest if t not in extra]
            ch_p = ch_tensor_all([source[t - 1] for t in p_set], surface)
            ch_pc = ch_tensor_all([source[t - 1] for t in p_comp], surface)
            for rq in range(khat + 1):
                for q_set in itertools.combinations(range(1, khat + 1), rq):
                    q_comp = [t for t in range(1, khat + 1) if t not in q_set]
                    ch_q = ch_tensor_all([target[t - 1] for t in q_set], surface)
                    ch_qc = ch_tensor_all([target[t - 1] for t in q_comp], surface)
                    out[(r + 1, rq)] += (hrr_chi(ch_hom(ch_p, ch_q, surface), surface)
                                         * hrr_chi(ch_hom(ch_pc, ch_qc, surface), surface))
    return dict(out)


def product_invariants_by_blocks(surface, n, bundles, twist):
    """{b: sum over set partitions of [k] into b <= n blocks of the product
    of chi(E_B L) over the blocks B, times S^(n-b) chi(L)}, one orbit
    representative of [k] -> [n] per set partition."""
    chi_twist = hrr_chi(twist, surface)
    out = defaultdict(Fraction)
    for mi, _stab in product_orbit_reps(len(bundles), n):
        prod = sym_pow_chi(n - mi.max_value, chi_twist)
        for fiber in mi.fibers():
            prod *= _twisted_chi(surface, [bundles[t - 1] for t in sorted(fiber)], twist)
        out[mi.max_value] += prod
    return dict(out)


def typed_block_sums(mults, weight, max_blocks):
    """Set-partition sums graded by the number of blocks, by a DP over the
    sub-multisets of typed elements: the sum that `euler.chi_product_invariants`
    evaluated before its decorated-block sum.

    The elements come in types with multiplicities `mults`; a block is
    described by its composition beta (how many elements of each type it
    holds).  Entry b of the result is the sum, over the set partitions of the
    elements into b <= max_blocks blocks, of the product of weight(beta) over
    the blocks.  Each sum pins the block of the first element of its
    multiset mu, so each set partition is counted once: choosing the rest of
    that block from mu gives C(mu_i0 - 1, beta_i0 - 1) * prod_(i != i0)
    C(mu_i, beta_i) set partitions per composition, times the sums of the
    multiset left over.  The sums of each sub-multiset are formed once,
    bottom-up in lexicographic order (a leftover multiset precedes every
    multiset it is left over from), so the cost follows the number
    prod (m_i + 1) of sub-multisets, each summing over its own
    sub-multisets.
    """
    memo = {(0,) * len(mults): [1]}
    weight = cache(weight)

    def sums(mu):
        out = [0] * (min(max_blocks, sum(mu)) + 1)
        i0 = next(i for i, m in enumerate(mu) if m)
        pinned = list(mu)
        pinned[i0] -= 1
        for others in itertools.product(*(range(m + 1) for m in pinned)):
            rest = tuple(map(operator.sub, pinned, others))
            if max_blocks == 1 and any(rest):
                continue
            block = others[:i0] + (others[i0] + 1,) + others[i0 + 1:]
            w = prod(map(comb, pinned, others)) * weight(block)
            for b, v in enumerate(memo[rest][:max_blocks]):
                out[b + 1] += w * v
        return out

    # Every leftover multiset lies below the whole one with its first
    # element removed; with one block there are no leftovers.
    top = tuple(mults)
    i0 = next(i for i, m in enumerate(top) if m)
    below_top = [range(m + 1) for m in top]
    below_top[i0] = range(top[i0])
    if max_blocks > 1:
        for mu in itertools.islice(itertools.product(*below_top), 1, None):
            memo[mu] = sums(mu)
    return sums(top)


def product_invariants_by_typed_dp(surface, ns, bundles, twist):
    """The terms of `product_invariants_by_blocks` at each n of the range
    ns, by `typed_block_sums` up to its largest n: equal bundles are grouped
    into types, and the weight of a composition beta is chi(L prod E_i^beta_i)
    of a freshly built class."""
    types = {}
    for e in bundles:
        types.setdefault(ch_coords(e), [e, 0])[1] += 1
    chars = [e for e, _ in types.values()]

    def weight(beta):
        return _twisted_chi(surface, [e for e, b in zip(chars, beta)
                                      for _ in range(b)], twist)

    sums = typed_block_sums([m for _, m in types.values()], weight, ns[-1])
    chi_twist = hrr_chi(twist, surface)
    return [{b: v * sym_pow_chi(n - b, chi_twist)
             for b, v in enumerate(sums[:n + 1]) if b} for n in ns]


def top_cohomology_by_enumeration(k, n, h2_by_subset, q):
    """Top cohomology dimension summed over one orbit representative per set
    partition of [k] into at most n blocks."""
    total = 0
    for mi, _stab in product_orbit_reps(k, n):
        prod = 1
        for fiber in mi.fibers():
            prod *= h2_by_subset[frozenset(fiber)]
        m = n - mi.max_value
        total += prod * int(gen_binomial(q + m - 1, m))
    return total


def chi_taut_triple_grouped(surface, n, e1, e2, e3):
    """Untwisted triple-product value in its regrouped form; an independent
    cross-check of `chi_taut_triple` at trivial twist."""
    if n < 3:
        raise ValueError("need n >= 3")
    chi_o = Fraction(surface.chi_structure_sheaf)
    s1 = sym_pow_chi(n - 1, chi_o)
    s2 = sym_pow_chi(n - 2, chi_o)
    s3 = sym_pow_chi(n - 3, chi_o)
    e = (e1, e2, e3)

    def chi_of(chars):
        return hrr_chi(ch_tensor_all(chars, surface), surface)

    pair_sum = sum((chi_of([e[a - 1], e[b - 1]]) * chi_of([e[c - 1]])
                    for (a, b, c) in ((1, 2, 3), (1, 3, 2), (2, 3, 1))), Fraction(0))
    full = chi_of(e)
    cot_full = chi_of([ch_sym_cotangent(1, surface), e1, e2, e3])
    return (chi_of([e1]) * chi_of([e2]) * chi_of([e3]) * s3
            + pair_sum * (s2 - s3)
            + full * (s1 - 3 * s2 + 2 * s3)
            + cot_full * (s3 - s2))


def _chi_result(terms):
    return ChiResult(sum((t.value for t in terms), Fraction(0)), tuple(terms))


def chi_taut_triple_by_classes(surface, n, e1, e2, e3, twist=None):
    """`chi_taut_triple` with every factor a Riemann-Roch evaluation of a
    class multiplied out afresh: the products e_a e_b, e_1 e_2 e_3 and the
    twists L, L^2, L^3 are rebuilt for each factor."""
    if twist is None:
        twist = ChernCharacter.unit(surface)
    e = (e1, e2, e3)
    chi_l = hrr_chi(twist, surface)
    s1 = sym_pow_chi(n - 1, chi_l)
    s2 = sym_pow_chi(n - 2, chi_l)
    s3 = sym_pow_chi(n - 3, chi_l)

    def tchi(chars, twists):
        cls = ch_tensor_all(chars, surface)
        for _ in range(twists):
            cls = ch_tensor(cls, twist, surface)
        return hrr_chi(cls, surface)

    terms = [Term("singletons", Fraction(1),
                  (tchi([e1], 1), tchi([e2], 1), tchi([e3], 1), s3))]
    for (a, b, c) in ((1, 2, 3), (1, 3, 2), (2, 3, 1)):
        terms.append(Term(f"pair {a}{b}|{c} L", Fraction(1),
                          (tchi([e[a - 1], e[b - 1]], 1), tchi([e[c - 1]], 1), s2)))
        terms.append(Term(f"pair {a}{b}|{c} L^2", Fraction(-1),
                          (tchi([e[a - 1], e[b - 1]], 2), tchi([e[c - 1]], 1), s3)))
    terms.append(Term("full L", Fraction(1), (tchi(e, 1), s1)))
    terms.append(Term("full L^2", Fraction(-3), (tchi(e, 2), s2)))
    terms.append(Term("full L^3", Fraction(2), (tchi(e, 3), s3)))
    cot = ch_sym_cotangent(1, surface)
    terms.append(Term("cotangent L^2", Fraction(-1),
                      (tchi([cot, e1, e2, e3], 2), s2)))
    terms.append(Term("cotangent L^3", Fraction(1),
                      (tchi([cot, e1, e2, e3], 3), s3)))
    return _chi_result(terms)


def hom_coeff_left(k, khat, ellhat):
    """Coefficient of the source-side diagonal Hom correction."""
    return 2 ** (k - 1) * surviving_count(khat, ellhat)


def hom_coeff_right(k, ell, khat):
    """Coefficient of the target-side diagonal Hom correction."""
    return 2 ** (khat - 1) * surviving_count(k, ell)


def hom_coeff_pair(k, khat, ell, ellhat):
    """The pair (c+, c-) of diagonal-vs-diagonal coefficients."""
    s = surviving_count(k, ell)
    shat = surviving_count(khat, ellhat)
    w = comb(k - 1, ell - 1) * comb(khat - 1, ellhat - 1)
    assert (s * shat + w) % 2 == 0
    return (s * shat + w) // 2, (s * shat - w) // 2


def chi_hom_pair_two_by_classes(surface, source, target):
    """`chi_hom_pair_two` with the double sum enumerated subset by subset and
    every diagonal correction a Riemann-Roch evaluation of a class
    multiplied out afresh: S^(l-1) Omega E and S^(lhat-1) Omega F are
    rebuilt inside the (l, lhat) loop."""
    k, khat = len(source), len(target)
    all_e = ch_tensor_all(source, surface)
    all_f = ch_tensor_all(target, surface)
    canon_dual = ch_anticanonical(surface)
    tangent = ch_tangent(surface)
    terms = [Term(f"|P|={a},|Q|={b}", Fraction(1), (v,))
             for (a, b), v in hom_pair_main_by_sizes(surface, source, target).items()]
    for ellhat in range(1, khat + 1):
        cls = ch_hom(all_e, ch_tensor(ch_sym_cotangent(ellhat - 1, surface),
                                      all_f, surface), surface)
        terms.append(Term(f"into-diag ellhat={ellhat}",
                          Fraction(-hom_coeff_left(k, khat, ellhat)),
                          (hrr_chi(cls, surface),)))
    for ell in range(1, k + 1):
        cls = ch_tensor(canon_dual,
                        ch_hom(ch_tensor(ch_sym_cotangent(ell - 1, surface),
                                         all_e, surface), all_f, surface), surface)
        terms.append(Term(f"from-diag ell={ell}",
                          Fraction(-hom_coeff_right(k, ell, khat)),
                          (hrr_chi(cls, surface),)))
    for ell in range(1, k + 1):
        for ellhat in range(1, khat + 1):
            c_plus, c_minus = hom_coeff_pair(k, khat, ell, ellhat)
            cls = ch_hom(ch_tensor(ch_sym_cotangent(ell - 1, surface), all_e, surface),
                         ch_tensor(ch_sym_cotangent(ellhat - 1, surface), all_f, surface),
                         surface)
            chi_c = hrr_chi(cls, surface)
            chi_cw = hrr_chi(ch_tensor(canon_dual, cls, surface), surface)
            chi_ct = hrr_chi(ch_tensor(tangent, cls, surface), surface)
            terms.append(Term(f"diag-diag ell={ell},{ellhat} c+",
                              Fraction(c_plus), (chi_c + chi_cw,)))
            terms.append(Term(f"diag-diag ell={ell},{ellhat} c-",
                              Fraction(-c_minus), (chi_ct,)))
    return _chi_result(terms)


def dense_pair(gram, u, v):
    """u.G.v as the full double sum over every Gram entry, zeros included."""
    return sum((Fraction(u[i]) * gram[i][j] * Fraction(v[j])
                for i in range(len(gram)) for j in range(len(gram))), Fraction(0))


def projector_invariant_dim(cx, degree, group, slot_character="trivial"):
    """Invariant dimension by enumerating every group element: the average
    of the traces, checked against the rank of the summed projector.  The
    slot factor runs over all k! permutations, so callers keep k small."""
    dim = cx.dim(degree)
    swap_mat = swap_action_matrix(cx, degree)
    if group == "swap":
        mats = [SparseRationalMatrix.identity(dim), swap_mat]
    else:
        mats = []
        for images in itertools.permutations(range(1, cx.k + 1)):
            perm = Permutation(images)
            mat = slot_action_matrix(cx, perm, degree)
            if slot_character == "sign":
                mat = mat.scale(perm.sign())
            mats.append(mat)
            if group == "slot_swap":
                mats.append(swap_mat @ mat)
    acc = SparseRationalMatrix(dim, dim)
    trace_sum = 0
    for mat in mats:
        trace_sum += mat.trace()
        for r, c, v in mat.triples():
            acc.add_entry(r, c, v)
    assert trace_sum % len(mats) == 0
    by_trace = trace_sum // len(mats)
    assert by_trace == acc.rank()
    return by_trace


def inclusion_wedge(m_set, m, wedge):
    """Expand a wedge basis vector of the difference representation on
    M \\ {m} inside the one on M, by the explicit rule for the inclusion.

    With M = {n_1 < ... < n_s} and m = n_h, the basis vectors rewrite as
    z^r -> z^{r+1} (h = 1), z^r -> z^r (h = s), and otherwise z^r -> z^r for
    r < h-1, z^{h-1} -> z^{h-1} + z^h, z^r -> z^{r+1} for r >= h.  The index
    images are strictly increasing, so no reordering signs appear.
    """
    s = len(m_set)
    h = m_set.index(m) + 1
    terms = [((), 1)]
    for t in wedge:
        if h == 1:
            images = (t + 1,)
        elif h == s or t < h - 1:
            images = (t,)
        elif t == h - 1:
            images = (h - 1, h)
        else:
            images = (t + 1,)
        terms = [(prefix + (idx,), coeff) for prefix, coeff in terms
                 for idx in images if idx not in prefix]
    return terms


def build_complex_by_labels(k, ell):
    """The (k, ell) complex built column by column: for every basis label and
    every freed element, the target label (M; b; T') is formed and looked up
    in the index, with its sign and wedge images computed afresh by the
    explicit inclusion rule `inclusion_wedge`.  The reference for
    `tautchi.complexes.build_complex`, which fills the same entries from
    per-support tables and integer offsets, with the wedge images of the
    general `_wedge_of_map` that the slot action uses."""
    universe = list(range(1, k + 1))
    basis = {-1: list(itertools.product((1, 2), repeat=k))}
    for i in range(0, k - ell + 1):
        labels = []
        for m_set in itertools.combinations(universe, ell + i):
            comp = [t for t in universe if t not in m_set]
            for a in itertools.product((1, 2), repeat=len(comp)):
                for wedge in _wedge_indices(ell, ell + i):
                    labels.append((m_set, a, wedge))
        basis[i] = labels
    index = {d: {lab: p for p, lab in enumerate(labs)} for d, labs in basis.items()}

    diffs = {}
    rows = [{} for _ in basis[0]]
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
                for wedge2, coeff in inclusion_wedge(m_set, m, wedge):
                    rows[target[(m_set, b, wedge2)]][col] = sgn * coeff
        diffs[i] = SparseRationalMatrix.from_row_list(rows, len(basis[i]))
    return ChainComplexQ(k, ell, basis, diffs)


def leibniz_det(rows):
    """Determinant of a square integer matrix, summed over every permutation
    with its sign read off the inversion count."""
    n = len(rows)
    total = 0
    for cols in itertools.permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if cols[a] > cols[b])
        total += (-1) ** inversions * prod(rows[r][c] for r, c in enumerate(cols))
    return total


def permuted_wedge(perm, n_set, wedge):
    """Expand perm applied to the wedge basis vector z_N^T in the wedge basis
    of the difference representation on M = perm(N), by the explicit rule.

    perm sends z_N^t = e_(n_t) - e_(n_(t+1)) to e_(m_p) - e_(m_q) with
    m_p = perm(n_t), m_q = perm(n_(t+1)).  The functional
    f_r(v) = v_1 + ... + v_r, in the order of M, reads the z_M^r coordinate
    off a difference vector, so the coefficient of z_M^T' in the image is
    the minor det[f_(t'_a)(perm z_N^(t_b))] (Cauchy-Binet), with
    f_r(e_(m_p) - e_(m_q)) = [p <= r] - [q <= r]."""
    ns = sorted(n_set)
    position = {t: p for p, t in enumerate(sorted(perm(t) for t in ns), 1)}
    images = [(position[perm(ns[t - 1])], position[perm(ns[t])]) for t in wedge]
    terms = []
    for wedge2 in itertools.combinations(range(1, len(ns)), len(wedge)):
        coeff = leibniz_det([[(p <= r) - (q <= r) for p, q in images] for r in wedge2])
        if coeff:
            terms.append((wedge2, coeff))
    return terms


def slot_action_matrix_by_labels(cx, perm, degree):
    """The slot action of perm in a degree, column by column: each image
    label (M; a; T') is formed and looked up in a map from the labels of
    `cx.basis` to their positions, with its wedge images by the explicit
    rule `permuted_wedge`.  The reference for
    `tautchi.complexes.slot_action_matrix`, which finds rows by offsets and
    forms the wedge images with the builder's `_wedge_of_map`."""
    labels = cx.basis[degree]
    idx = {label: p for p, label in enumerate(labels)}
    rows = [{} for _ in labels]
    inv = perm.inverse()
    universe = range(1, cx.k + 1)
    for col, label in enumerate(labels):
        if degree == -1:
            rows[idx[tuple(label[inv(t) - 1] for t in universe)]][col] = 1
            continue
        n_set, b, wedge = label
        m_set = tuple(sorted(perm(t) for t in n_set))
        comp_n = [t for t in universe if t not in n_set]
        a = tuple(b[comp_n.index(inv(t))] for t in universe if t not in m_set)
        e = sign_on_subset(perm, n_set)
        for wedge2, coeff in permuted_wedge(perm, n_set, wedge):
            rows[idx[(m_set, a, wedge2)]][col] = e * coeff
    return SparseRationalMatrix.from_row_list(rows, len(labels))


def enumerated_dim_by_labels(k, ell, i):
    """Degree-i dimension of the (k, ell) complex by counting its basis labels
    (M; a; T) one tuple at a time."""
    if i < 0 or i > k - ell:
        return 0
    labels = itertools.product(
        itertools.combinations(range(1, k + 1), ell + i),
        itertools.product((1, 2), repeat=k - ell - i),
        itertools.combinations(range(1, ell + i), ell - 1))
    return sum(1 for _ in labels)


def dense_rank(mat):
    """Rank of a SparseRationalMatrix by plain Gauss-Jordan elimination over
    Fraction on its dense form."""
    rows = [[Fraction(mat.entry(r, c)) for c in range(mat.ncols)]
            for r in range(mat.nrows)]
    rank = 0
    for c in range(mat.ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][c]
        rows[rank] = [v / lead for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def fraction_class_product(y, surface, v):
    """y.v on Fraction coordinate vectors, one Fraction operation per entry:
    y.v = r v + v0 (0, c, s) + (0, ..., 0, (Gc).v_c)."""
    r, c, s = y.ch0, y.ch1.coeffs, y.ch2
    gc = tuple(sum((g * c[j] for j, g in enumerate(row)), Fraction(0))
               for row in surface.gram)
    v0, mid = v[0], v[1:-1]
    return (r * v0,
            *(r * x + v0 * ci for x, ci in zip(mid, c)),
            r * v[-1] + v0 * s + sum((g * x for g, x in zip(gc, mid)), Fraction(0)))


def graded_sym_chi_oracle(dims, m):
    """Brute-force Euler characteristic of the m-th symmetric power of a graded
    vector space given as (degree, dimension) pairs.

    Enumerates an explicit monomial basis: multisets of basis vectors in which
    odd-degree vectors occur at most once (symmetric algebra on the even part,
    exterior on the odd part).  Completely independent of `sym_pow_chi`.
    """
    basis = []  # degree of each basis vector
    for degree, dim in dims:
        if dim < 0:
            raise ValueError("dimensions must be nonnegative")
        basis.extend([degree] * dim)
    total = 0
    for combo in itertools.combinations_with_replacement(range(len(basis)), m):
        ok = True
        for idx, group in itertools.groupby(combo):
            if basis[idx] % 2 != 0 and len(list(group)) > 1:
                ok = False
                break
        if ok:
            deg = sum(basis[i] for i in combo)
            total += -1 if deg % 2 else 1
    return total


def naive_gen_binomial(x, m):
    """x(x-1)...(x-m+1)/m!, one Fraction product per factor."""
    num = Fraction(1)
    for i in range(m):
        num *= Fraction(x) - i
    return num / factorial(m)


# Orbit enumeration of diagonal tuples and brute-force orbit decomposition.

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
