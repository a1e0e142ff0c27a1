"""Closed Euler-characteristic formulas for induced bundles on Hilbert schemes
of points, evaluated exactly over a surface model.

Every operation reduces to Riemann-Roch evaluations of truncated Chern
characters on the surface itself, all on the integer kernel of `surface`:
each class product is built once as integer coordinates
(`surface.ClassMultiplier`), and each Euler characteristic is one value of a
linear form chi(. y) (`surface.chi_functional`) computed once per call.
Sums over subsets and set partitions are not enumerated: they are graded
products in the truncated ring and dynamic programs over blocks, polynomial
in the number of bundles, with one term per grade.  Inputs may be virtual
(arbitrary rational rank), so objects of the derived category are admissible
wherever a formula extends additively.  Results carry a term-by-term
breakdown whose recombined value is checked at construction time; each
term's product is formed once (`Term.value`).

The two-point formulas subtract diagonal correction terms whose integer
coefficients are invariant counts of the complexes in `complexes`.  Every
coefficient here is a closed form (`surviving_count`, `diagonal_multiplicity`,
`sym_power_coefficient`), and no formula builds a complex or enumerates a
group: this module does not import `complexes`, which recomputes the
coefficients by exact linear algebra for the tests and `--verify`.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb, prod
from typing import Callable, Mapping, Sequence

from .surface import (ChernCharacter, ClassCoords, ClassMultiplier,
                      SurfaceModel, ch_sym_cotangent, ch_tangent, chi_functional,
                      class_coords, dual_coords, gen_binomial, sym_pow_chi,
                      unit_coords)


@dataclass(frozen=True)
class Term:
    """One labelled summand: coefficient times a product of factors."""

    label: str
    coefficient: Fraction
    factors: tuple[Fraction, ...]

    @cached_property
    def value(self) -> Fraction:
        return self.coefficient * prod(self.factors)


@dataclass(frozen=True)
class ChiResult:
    """An exact value together with its term breakdown; the breakdown must
    recombine to the value."""

    value: Fraction
    terms: tuple[Term, ...]

    def __post_init__(self):
        total = sum((t.value for t in self.terms), Fraction(0))
        if total != self.value:
            raise ArithmeticError(
                f"term breakdown sums to {total}, not {self.value}")


def _result(terms: list[Term]) -> ChiResult:
    return ChiResult(sum((t.value for t in terms), Fraction(0)), tuple(terms))


def require_line_bundle_class(ch: ChernCharacter, surface: SurfaceModel, what: str) -> None:
    if not ch.is_line_bundle_class(surface):
        raise ValueError(f"{what} must be the class of a line bundle "
                         f"(rank 1, integral c1, ch2 = c1^2/2)")


def default_twist(surface: SurfaceModel) -> ChernCharacter:
    return ChernCharacter.unit(surface)


def chi_taut(surface: SurfaceModel, n: int, bundle: ChernCharacter,
             twist: ChernCharacter) -> Fraction:
    """Euler characteristic of a single induced bundle with determinant twist
    on the n-point space: chi(F (x) L) * s^(n-1) chi(L)."""
    if n < 1:
        raise ValueError("need n >= 1")
    require_line_bundle_class(twist, surface, "twist")
    form = chi_functional(twist, surface)
    return (_apply(form, class_coords(bundle, surface))
            * sym_pow_chi(n - 1, _at_unit(form)))


def _diag_chis(surface: SurfaceModel, product: ClassCoords,
               twist: ChernCharacter, top: int) -> list[Fraction]:
    """chi of the diagonal correction classes for ell = 1..top: S^(ell-1) of
    the cotangent bundle times the product of all inputs times the twist
    squared, each one value of the form chi(. product L^2)."""
    times_twist = ClassMultiplier(twist, surface)
    form = chi_functional(times_twist.times(times_twist.times(product)), surface)
    return [_apply(form, class_coords(ch_sym_cotangent(m, surface), surface))
            for m in range(top)]


def _apply(form: ClassCoords, cls: ClassCoords) -> Fraction:
    """A linear form on A applied to a class, both as integer coordinates
    over a denominator."""
    return Fraction(sum(map(operator.mul, form[0], cls[0])), form[1] * cls[1])


def _at_unit(form: ClassCoords) -> Fraction:
    """A linear form on A at the unit class."""
    return Fraction(form[0][0], form[1])


def _product_all(surface: SurfaceModel, chars: Sequence[ChernCharacter]
                 ) -> ClassCoords:
    """The product of several classes; the empty product is the unit."""
    out = unit_coords(surface)
    for c in chars:
        out = ClassMultiplier(c, surface).times(out)
    return out


# Sums over splittings P | P^c are evaluated in A (x) A, where A is the
# truncated ring in integer coordinates (see `surface.class_coords`).  An
# element of A (x) A is a tuple of rows indexed by the left coordinate; a
# z-graded element is a list of such tensors indexed by the power of z.  All
# entries of a z-graded element share one denominator, which each step
# multiplies by that of its class.

def _split_step(graded: list, y: ClassMultiplier) -> list:
    """Multiply the numerators of a z-graded element of A (x) A by
    (z y (x) 1 + 1 (x) y); the denominator gains the factor y.den."""
    left = [tuple(zip(*map(y, zip(*t)))) for t in graded]
    right = [tuple(map(y, t)) for t in graded]
    middle = [tuple(tuple(map(operator.add, a, b)) for a, b in zip(lt, rt))
              for lt, rt in zip(left, right[1:])]
    return [right[0], *middle, left[-1]]


def _split_sums(surface: SurfaceModel, first: ChernCharacter | ClassCoords,
                others: Sequence[ChernCharacter | ClassCoords]) -> tuple[list, int]:
    """(x_1 (x) 1) * prod over the others of (z x_t (x) 1 + 1 (x) x_t): the
    coefficient of z^(r-1) is the sum of x_P (x) x_(P^c) over the subsets P
    of size r that contain the first index.  Returns the integer numerators
    and their common denominator."""
    coords, den = class_coords(first, surface)
    zero = (0,) * (len(coords) - 1)
    graded = [tuple((a, *zero) for a in coords)]
    for e in others:
        y = ClassMultiplier(e, surface)
        graded = _split_step(graded, y)
        den *= y.den
    return graded, den


def _pair_eval(phi: tuple[Sequence[int], int], tensor: tuple, den: int) -> Fraction:
    """(phi (x) phi) applied to an element of A (x) A with integer numerators
    over the denominator den."""
    form, d = phi
    return Fraction(sum(a * sum(map(operator.mul, row, form))
                        for a, row in zip(form, tensor)), d * d * den)


def surviving_count(k: int, ell: int) -> int:
    """The Euler characteristic of the degrees >= 0 of the complex for (k, ell)
    in closed form: the number of subsets of [k] of size at least ell."""
    return sum(comb(k, j) for j in range(ell, k + 1))


def diagonal_multiplicity(k: int, ell: int) -> int:
    """Closed-form count (surviving_count(k, ell) - binom(k-1, ell-1)) / 2 of
    swap-invariant kernel vectors; the coefficient of the ell-th diagonal term
    in the two-point Euler characteristic formula."""
    if not (1 <= ell <= k):
        raise ValueError("need 1 <= ell <= k")
    num = surviving_count(k, ell) - comb(k - 1, ell - 1)
    assert num % 2 == 0
    return num // 2


def chi_taut_product_two(surface: SurfaceModel, bundles: Sequence[ChernCharacter],
                         twist: ChernCharacter | None = None) -> ChiResult:
    """Euler characteristic of a product of induced bundles on the two-point
    space, twisted by a determinant line bundle.

    The main sum runs over subsets P of [k] containing 1 and multiplies the
    two complementary twisted products chi(E_P L) chi(E_(P^c) L).  It is
    (chi_L (x) chi_L) applied to (x_1 (x) 1) * prod_(t>=2) (z x_t (x) 1 + 1 (x) x_t)
    in A (x) A [z], one term per power of z, labelled |P|=r; the cost is
    O(k^2 (p+2)^2) for Picard rank p.  From it, one diagonal correction per
    ell in 1..k-1 is subtracted with the closed-form invariant count
    `diagonal_multiplicity` as its coefficient.
    """
    k = len(bundles)
    if k < 1:
        raise ValueError("need at least one bundle")
    if twist is None:
        twist = default_twist(surface)
    require_line_bundle_class(twist, surface, "twist")

    phi = chi_functional(twist, surface)
    graded, den = _split_sums(surface, bundles[0], bundles[1:])
    terms = [Term(f"|P|={r}", Fraction(1), (_pair_eval(phi, t, den),))
             for r, t in enumerate(graded, 1)]
    diag = _diag_chis(surface, _product_all(surface, bundles), twist, k - 1)
    terms += [Term(f"diag ell={ell}", Fraction(-diagonal_multiplicity(k, ell)),
                   (d,)) for ell, d in enumerate(diag, 1)]
    return _result(terms)


def _block_sums(mults: Sequence[int], weight: Callable[[tuple[int, ...]], int],
                max_blocks: int) -> list[int]:
    """Set-partition sums graded by the number of blocks.

    The elements come in types with multiplicities `mults`; a block is
    described by its composition beta (how many elements of each type it
    holds).  Entry b of the result is the sum, over the set partitions of the
    elements into b <= max_blocks blocks, of the product of weight(beta) over
    the blocks.  The recursion pins the block of the first remaining element,
    so each set partition is counted once: choosing the rest of that block
    from the remaining multiset mu gives C(mu_i0 - 1, beta_i0 - 1) *
    prod_(i != i0) C(mu_i, beta_i) set partitions per composition.  Weights are
    looked up once, only for blocks of partitions that the sum contains.  The
    sums of each sub-multiset are formed once, up to max_blocks blocks.
    """
    memo: dict[tuple, list] = {}
    weight = cache(weight)

    def sums(mu: tuple[int, ...]) -> list:
        if mu in memo:
            return memo[mu]
        out = [0] * (min(max_blocks, sum(mu)) + 1)
        i0 = next(i for i, m in enumerate(mu) if m)
        pinned = list(mu)
        pinned[i0] -= 1
        for others in itertools.product(*(range(m + 1) for m in pinned)):
            rest = tuple(map(operator.sub, pinned, others))
            if any(rest):
                if max_blocks == 1:
                    continue
                below = sums(rest)
            else:
                below = [1]
            block = others[:i0] + (others[i0] + 1,) + others[i0 + 1:]
            w = prod(map(comb, pinned, others)) * weight(block)
            for b, v in enumerate(below[:max_blocks]):
                out[b + 1] += w * v
        memo[mu] = out
        return out

    return sums(tuple(mults))


def chi_product_invariants(surface: SurfaceModel, n: int,
                           bundles: Sequence[ChernCharacter],
                           twist: ChernCharacter | None = None) -> ChiResult:
    """Euler characteristic of the invariants of the ambient product of
    pullbacks on the n-fold product (the uncorrected first approximation).

    The sum runs over set partitions of [k] into b <= n blocks: the product
    of chi(E_B L) over the blocks B, times S^(n-b) chi(L) for the n - b
    unused points.  Equal bundles are grouped into types, the block weight
    chi(L prod y_i^beta_i) is computed once per sub-multiset beta, and the
    partitions are summed by `_block_sums`.  One term per block count b,
    labelled blocks=b, with factors (sum over partitions into b blocks of the
    product of weights, S^(n-b) chi(L)).

    The sums run on integers: with phi = chi(. L) over the denominator d_phi
    and bundle type i over D_i, the weight of beta is an integer over
    d_phi prod D_i^beta_i, so the product over the b blocks of a partition
    is an integer over d_phi^b prod D_i^m_i for every partition alike.
    """
    k = len(bundles)
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    if twist is None:
        twist = default_twist(surface)
    require_line_bundle_class(twist, surface, "twist")
    types = Counter(bundles)
    mults = list(types.values())
    # The numerator of the class prod y_i^beta_i of every sub-multiset beta,
    # one product each, over prod D_i^beta_i.
    unit, _ = unit_coords(surface)
    classes = {(): unit}
    den_all = 1
    for e, m in types.items():
        y = ClassMultiplier(e, surface)
        den_all *= y.den ** m
        grown = {}
        for beta, v in classes.items():
            for j in range(m + 1):
                grown[beta + (j,)] = v
                if j < m:
                    v = y(v)
        classes = grown
    form, d_phi = chi_functional(twist, surface)
    block_sums = _block_sums(
        mults, lambda beta: sum(map(operator.mul, form, classes[beta])), n)
    chi_twist = Fraction(form[0], d_phi)
    return _result([Term(f"blocks={b}", Fraction(1),
                         (Fraction(block_sums[b], d_phi ** b * den_all),
                          sym_pow_chi(n - b, chi_twist)))
                    for b in range(1, len(block_sums))])


def sym_power_coefficient(k: int, ell: int) -> int:
    """Coefficient of the ell-th diagonal correction in chi(S^k E^[2] (x) D_L):
    ceil((k - ell)/2).

    It is the dimension of the joint (slot x twisted-swap)-invariants in
    degree 0 of the complex for (k, ell) (`complexes.sym_power_multiplicity`
    computes it by projector rank).  A degree-0 basis vector (M; a; T) has
    |M| = ell, a fill a of the complement by the values {1, 2}, and T the
    single top wedge of the (ell-1)-dimensional difference representation.
    The slot group is transitive on the ell-subsets M.  On the stabilizer
    of M, the restriction sign times the top exterior power of the
    difference representation is the square of the sign, hence trivial, so
    the slot invariants are the sums over the orbits of fills of the
    complement: one per number j = 0..k-ell of values equal to 2, k-ell+1 in
    all.  The twisted swap acts in degree 0 as -1 times the flip
    j -> k-ell-j, so each pair {j, k-ell-j} with j != k-ell-j leaves one
    invariant and the balanced fill j = (k-ell)/2 leaves none.
    """
    return (k - ell + 1) // 2


def _check_power_args(surface: SurfaceModel, bundle: ChernCharacter, k: int,
                      twist: ChernCharacter | None) -> ChernCharacter:
    if k < 1:
        raise ValueError("need k >= 1")
    if twist is None:
        twist = default_twist(surface)
    require_line_bundle_class(bundle, surface, "bundle")
    require_line_bundle_class(twist, surface, "twist")
    return twist


def chi_sym_power_two(surface: SurfaceModel, bundle: ChernCharacter, k: int,
                      twist: ChernCharacter | None = None) -> Fraction:
    """Euler characteristic of the k-th symmetric power of one induced
    line-bundle class on the two-point space, with determinant twist.

    The ambient term runs over unordered fiber-size splits {j, k-j}: the
    product chi(E^j L) chi(E^(k-j) L), or for a balanced split the graded
    symmetric square of chi(E^(k/2) L).  From it the ell-th diagonal term,
    chi(S^(ell-1) Omega (x) E^k (x) L^2), is subtracted with the closed-form
    coefficient `sym_power_coefficient`, for ell = 1..k-1 (it vanishes at
    ell = k).
    """
    twist = _check_power_args(surface, bundle, k, twist)
    times_bundle = ClassMultiplier(bundle, surface)
    powers = [unit_coords(surface)]
    for _ in range(k):
        powers.append(times_bundle.times(powers[-1]))
    phi = chi_functional(twist, surface)
    chi = [_apply(phi, p) for p in powers]
    total = sum((chi[j] * chi[k - j] for j in range((k + 1) // 2)), Fraction(0))
    if k % 2 == 0:
        total += sym_pow_chi(2, chi[k // 2])
    for ell, diag in enumerate(_diag_chis(surface, powers[k], twist, k - 1), 1):
        total -= sym_power_coefficient(k, ell) * diag
    return total


def chi_ext_power_two(surface: SurfaceModel, bundle: ChernCharacter, k: int,
                      twist: ChernCharacter | None = None) -> Fraction:
    """Euler characteristic of the k-th exterior power of one induced
    line-bundle class on the two-point space, with determinant twist.

    E^[2] has rank 2, so Lambda^k E^[2] = 0 for k >= 3.  For k = 1 this is
    chi(E^[2] (x) D_L) = `chi_taut` at n = 2.  For k = 2, S^2 + Lambda^2 =
    E^[2] (x) E^[2]: `chi_taut_product_two` of (E, E) is
    chi(EL)^2 + chi(E^2 L) chi(L) - chi(E^2 L^2), and `chi_sym_power_two` at
    k = 2 is chi(L) chi(E^2 L) + S^2 chi(EL) - chi(E^2 L^2), so the
    difference is Lambda^2 chi(EL) = chi(EL)(chi(EL) - 1)/2.  No diagonal
    term remains, matching the vanishing of the sign-character coefficients
    `complexes.ext_power_multiplicity`.
    """
    twist = _check_power_args(surface, bundle, k, twist)
    if k == 1:
        return chi_taut(surface, 2, bundle, twist)
    if k == 2:
        return gen_binomial(_apply(chi_functional(twist, surface),
                                   class_coords(bundle, surface)), 2)
    return Fraction(0)


def hom_coeff_left(k: int, khat: int, ellhat: int) -> int:
    """Coefficient of the source-side diagonal Hom correction."""
    return 2 ** (k - 1) * surviving_count(khat, ellhat)


def hom_coeff_right(k: int, ell: int, khat: int) -> int:
    """Coefficient of the target-side diagonal Hom correction."""
    return 2 ** (khat - 1) * surviving_count(k, ell)


def hom_coeff_pair(k: int, khat: int, ell: int, ellhat: int) -> tuple[int, int]:
    """The pair (c+, c-) of diagonal-vs-diagonal coefficients."""
    s = surviving_count(k, ell)
    shat = surviving_count(khat, ellhat)
    w = comb(k - 1, ell - 1) * comb(khat - 1, ellhat - 1)
    assert (s * shat + w) % 2 == 0
    return (s * shat + w) // 2, (s * shat - w) // 2


def chi_hom_pair_two(surface: SurfaceModel, source: Sequence[ChernCharacter],
                     target: Sequence[ChernCharacter]) -> ChiResult:
    """Alternating sum of Ext dimensions between two products of induced
    bundles on the two-point space.

    Four groups of terms: the double subset sum of Hom pairings; the two
    single diagonal corrections (the target-side one twisted by the
    anticanonical class); and the diagonal-vs-diagonal block, where the
    tangent-twisted middle extension enters with the smaller coefficient c-.

    The double sum over P containing 1 and arbitrary Q of
    chi(Hom(E_P, F_Q)) chi(Hom(E_(P^c), F_(Q^c))) factors like the main sum of
    `chi_taut_product_two`: the duals of the source classes and then the
    target classes are multiplied in with grading variables z and w, and
    (chi (x) chi) of the coefficient of z^(a-1) w^b is the term |P|=a,|Q|=b.
    """
    k, khat = len(source), len(target)
    if k < 1 or khat < 1:
        raise ValueError("need at least one bundle on each side")
    duals = [dual_coords(class_coords(e, surface)) for e in source]
    source_sums, den = _split_sums(surface, duals[0], duals[1:])
    by_size = [[t] for t in source_sums]
    for f in target:
        y = ClassMultiplier(f, surface)
        by_size = [_split_step(graded, y) for graded in by_size]
        den *= y.den
    phi = chi_functional(unit_coords(surface), surface)
    terms = [Term(f"|P|={a},|Q|={b}", Fraction(1), (_pair_eval(phi, t, den),))
             for a, graded in enumerate(by_size, 1) for b, t in enumerate(graded)]

    # The diagonal classes: (S^(ell-1) Omega E)^dual on the source side and
    # S^(ellhat-1) Omega F on the target side; every correction is chi,
    # chi(. omega^dual) or chi(. T) of the product of one of each, and the
    # c+ factor is chi(. (1 + omega^dual)) by linearity of chi(. y) in y.
    # Over the denominator 2, omega^dual = (1, -K, K.K/2) is (2, -2K, K.K)
    # and 1 + omega^dual is (4, -2K, K.K).
    times_e = ClassMultiplier(_product_all(surface, source), surface)
    times_f = ClassMultiplier(_product_all(surface, target), surface)
    cot = [class_coords(ch_sym_cotangent(m, surface), surface)
           for m in range(max(k, khat))]
    src = [ClassMultiplier(dual_coords(times_e.times(c)), surface) for c in cot[:k]]
    tgt = [times_f.times(c) for c in cot[:khat]]
    minus_2k = tuple(-2 * x for x in surface.canonical)
    phi_w = chi_functional(((2, *minus_2k, surface.k_squared), 2), surface)
    phi_t = chi_functional(ch_tangent(surface), surface)
    phi_cw = chi_functional(((4, *minus_2k, surface.k_squared), 2), surface)

    for ellhat, b in enumerate(tgt, 1):
        terms.append(Term(f"into-diag ellhat={ellhat}",
                          Fraction(-hom_coeff_left(k, khat, ellhat)),
                          (_apply(phi, src[0].times(b)),)))
    for ell, a in enumerate(src, 1):
        terms.append(Term(f"from-diag ell={ell}",
                          Fraction(-hom_coeff_right(k, ell, khat)),
                          (_apply(phi_w, a.times(tgt[0])),)))
    for ell, a in enumerate(src, 1):
        for ellhat, b in enumerate(tgt, 1):
            c_plus, c_minus = hom_coeff_pair(k, khat, ell, ellhat)
            cls = a.times(b)
            terms.append(Term(f"diag-diag ell={ell},{ellhat} c+",
                              Fraction(c_plus), (_apply(phi_cw, cls),)))
            terms.append(Term(f"diag-diag ell={ell},{ellhat} c-",
                              Fraction(-c_minus), (_apply(phi_t, cls),)))
    return _result(terms)


_TRIPLE_PAIRS = ((1, 2, 3), (1, 3, 2), (2, 3, 1))


def chi_taut_triple(surface: SurfaceModel, n: int, e1: ChernCharacter,
                    e2: ChernCharacter, e3: ChernCharacter,
                    twist: ChernCharacter | None = None) -> ChiResult:
    """Euler characteristic of a triple product of induced bundles on the
    n-point space (n >= 3), with determinant twist."""
    if n < 3:
        raise ValueError("need n >= 3")
    if twist is None:
        twist = default_twist(surface)
    require_line_bundle_class(twist, surface, "twist")
    # The eight classes e_1, e_2, e_3, e_a e_b, e_1 e_2 e_3 and
    # Omega e_1 e_2 e_3, each built once, against the forms chi(. L^j).
    # Each class is a pair (integer numerators, denominator).
    single = [class_coords(x, surface) for x in (e1, e2, e3)]
    times = [ClassMultiplier(x, surface) for x in single]
    pair = {(a, b): times[a - 1].times(single[b - 1])
            for (a, b, _) in _TRIPLE_PAIRS}
    full = times[2].times(pair[1, 2])
    cot_full = ClassMultiplier(ch_sym_cotangent(1, surface), surface).times(full)
    times_twist = ClassMultiplier(twist, surface)
    twist_sq = times_twist.times(class_coords(twist, surface))
    chi1, chi2, chi3 = (chi_functional(t, surface) for t in
                        (twist, twist_sq, times_twist.times(twist_sq)))
    chi_twist = _at_unit(chi1)
    s1, s2, s3 = (sym_pow_chi(n - j, chi_twist) for j in (1, 2, 3))
    lone = [_apply(chi1, v) for v in single]

    terms = [Term("singletons", Fraction(1), (*lone, s3))]
    for (a, b, c) in _TRIPLE_PAIRS:
        terms.append(Term(f"pair {a}{b}|{c} L", Fraction(1),
                          (_apply(chi1, pair[a, b]), lone[c - 1], s2)))
        terms.append(Term(f"pair {a}{b}|{c} L^2", Fraction(-1),
                          (_apply(chi2, pair[a, b]), lone[c - 1], s3)))
    terms.append(Term("full L", Fraction(1), (_apply(chi1, full), s1)))
    terms.append(Term("full L^2", Fraction(-3), (_apply(chi2, full), s2)))
    terms.append(Term("full L^3", Fraction(2), (_apply(chi3, full), s3)))
    terms.append(Term("cotangent L^2", Fraction(-1), (_apply(chi2, cot_full), s2)))
    terms.append(Term("cotangent L^3", Fraction(1), (_apply(chi3, cot_full), s3)))
    return _result(terms)


def top_cohomology_dim(k: int, n: int, h2_by_subset: Mapping[frozenset, int],
                       q: int) -> int:
    """Dimension of the top-degree cohomology of a product of k induced
    bundles on the n-point space.

    The sum runs over set partitions of [k] into b <= n blocks: the product
    of the block values times dim S^(n-b) of the q-dimensional top cohomology
    of the twist.  h2_by_subset supplies, for each subset of [k] occurring as
    a block, the top cohomology dimension of the corresponding (twisted)
    product on the surface; q is the top cohomology dimension of the twist
    itself.  These are genuine cohomology dimensions, which Riemann-Roch
    cannot provide, so they are caller-supplied.  The per-subset data admit
    no grouping into types, so `_block_sums` runs over the k elements as k
    distinct types: a subset DP with the first element of each block pinned,
    in integers only.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    if q < 0:
        raise ValueError("q must be nonnegative")

    def weight(beta: tuple[int, ...]) -> int:
        key = frozenset(t for t, inside in enumerate(beta, 1) if inside)
        if key not in h2_by_subset:
            raise ValueError(
                "missing top-cohomology value for subset {"
                + ",".join(map(str, sorted(key))) + "}")
        return h2_by_subset[key]

    block_sums = _block_sums([1] * k, weight, n)
    return sum(g * int(sym_pow_chi(n - b, q)) for b, g in enumerate(block_sums))


def global_sections_dim(h0_values: Sequence[int], n: int) -> int:
    """Dimension of the global sections of a product of induced bundles for
    n at least the number of factors: the plain product of the h0 inputs."""
    k = len(h0_values)
    if k < 1:
        raise ValueError("need at least one bundle")
    if n < k:
        raise ValueError(f"the global-sections product formula requires n >= k "
                         f"(got n = {n}, k = {k})")
    if any(v < 0 for v in h0_values):
        raise ValueError("h0 values must be nonnegative")
    prod = 1
    for v in h0_values:
        prod *= v
    return prod
