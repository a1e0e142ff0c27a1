"""Brute-force enumerations that the production sums in `tautchi.euler`
replace, kept as test oracles, an independent regrouping of the
triple-product formula, the triple-product and Hom-pair breakdowns with one
Riemann-Roch evaluation of a freshly built class per factor (which
`tautchi.euler` replaces by class products built once and linear forms),
the dense double sum that the sparse `SurfaceModel.pair` replaces, the
k!-element projector count that `tautchi.complexes.group_invariant_dim`
replaces, a dense Fraction rank for `SparseRationalMatrix.rank`, the
label-by-label count that the factor-by-factor
`tautchi.complexes.enumerated_dim` replaces, the
factor-by-factor Fraction product that `tautchi.surface.gen_binomial`
replaces, the entry-by-entry Fraction product that the integer
`tautchi.surface.ClassMultiplier` replaces, and the Euler characteristic of
a graded symmetric power by basis enumeration.

Each enumeration sums term by term over subsets or set partitions, with one
Riemann-Roch evaluation per summand, and groups the summands the way the
production breakdown labels them: by |P|, by (|P|, |Q|), or by block count.
The cost is exponential in the number of bundles, so callers keep k small.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction
from math import factorial

from tautchi.complexes import (SparseRationalMatrix, slot_action_matrix,
                               swap_action_matrix)
from tautchi.euler import (ChiResult, Term, hom_coeff_left, hom_coeff_pair,
                          hom_coeff_right)
from tautchi.surface import (ChernCharacter, ch_anticanonical, ch_hom,
                             ch_sym_cotangent, ch_tangent, ch_tensor,
                             ch_tensor_all, gen_binomial, hrr_chi, sym_pow_chi)
from tautchi.symgroup import Permutation, product_orbit_reps


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
