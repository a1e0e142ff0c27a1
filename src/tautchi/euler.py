"""Closed Euler-characteristic formulas for induced bundles on Hilbert schemes
of points, evaluated exactly over a surface model.

Every operation reduces to Riemann-Roch evaluations of truncated Chern
characters on the surface itself, all on the integer kernel of `surface`:
each class product is built once as integer coordinates
(`surface.ClassMultiplier`), and each Euler characteristic is one value of a
linear form chi(. y) (`surface.chi_functional`) formed once.
Sums over subsets and set partitions are not enumerated: they are graded
products in the truncated ring, polynomial in the number of bundles, and
dynamic programs over blocks, with one term per grade.  The double sum of
`chi_hom_pair_two` forms its target side once, as linear forms (the adjoints
of the target multiplications applied to chi (x) chi), and pairs it with
each source grade.  The set-partition sum of `chi_product_invariants` is a
decorated-block sum: in the truncated ring a block's product keeps at most
two marked elements, so the sum is a Gaussian moment (Isserlis) of a
polynomial with at most min(prod (m_t + 1), C(min(k, 2n) + p, p))
monomials times n + 1 powers of y, for m_t copies of class t and Picard
rank p, plus O(k n^2) steps that place the unmarked elements: polynomial in
the copies.  That of `top_cohomology_dim`, whose data are per subset, is a
DP over bitmasks.  Inputs may be virtual (arbitrary rational
rank), so objects of the derived category are admissible wherever a formula
extends additively.  Results carry a term-by-term breakdown whose
recombined value is checked at construction time; each
term's product is formed once (`Term.value`), and values are assembled as
integer products and sums over a common denominator.

What a formula reads of its input classes (multipliers, powers, the forms
chi(. L^j) of the twist, the line-bundle test) comes from
`surface.input_class`, formed once per class and surface.  The formulas with
an n have the form sum_J a_J S^(n-J) chi(L) with a_J free of n, so each
takes a nonempty range ns of n, forms the a_J once for the whole range and
returns one result per n; one n is the range [n, n].

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
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm, prod
from typing import Callable, Iterable, Mapping, Sequence

from .surface import (ChernCharacter, ClassCoords, ClassMultiplier, InputClass,
                      SurfaceModel, chi_functional, class_coords, dual_coords,
                      gen_binomial, input_class, sym_pow_chi, unit_coords)


@dataclass(frozen=True)
class Term:
    """One labelled summand: coefficient times a product of factors.  Its
    value is formed once, at construction, as one `Fraction` of the integer
    products of the numerators and of the denominators."""

    label: str
    coefficient: Fraction
    factors: tuple[Fraction, ...]
    value: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        num, den = self.coefficient.numerator, self.coefficient.denominator
        for f in self.factors:
            num *= f.numerator
            den *= f.denominator
        object.__setattr__(self, "value", Fraction(num, den))


def fraction_sum(values: Iterable[Fraction]) -> Fraction:
    """The sum of exact values, as one `Fraction` of an integer sum over
    their least common denominator."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return Fraction(sum(v.numerator * (den // v.denominator) for v in values), den)


@dataclass(frozen=True)
class ChiResult:
    """An exact value together with its term breakdown; the breakdown must
    recombine to the value."""

    value: Fraction
    terms: tuple[Term, ...]

    def __post_init__(self):
        total = fraction_sum(t.value for t in self.terms)
        if total != self.value:
            raise ArithmeticError(
                f"term breakdown sums to {total}, not {self.value}")


def _result(terms: list[Term]) -> ChiResult:
    return ChiResult(fraction_sum(t.value for t in terms), tuple(terms))


def _sweep_results(chi_twist: Fraction,
                   parts: Sequence[tuple[str, Fraction, tuple[Fraction, ...], int]],
                   ns: range) -> list[ChiResult]:
    """The results at each n of ns of a formula sum_J a_J S^(n-J) chi(L).

    Each part (label, coefficient, factors, J) is free of n; at n it is the
    term (label, coefficient, (*factors, S^(n-J) chi(L))) if J <= n, and no
    term otherwise.  Each S^m chi(L) is formed once."""
    sym: dict[int, Fraction] = {}
    results = []
    for n in ns:
        terms = []
        for label, coefficient, factors, j in parts:
            if j <= n:
                m = n - j
                if m not in sym:
                    sym[m] = sym_pow_chi(m, chi_twist)
                terms.append(Term(label, coefficient, (*factors, sym[m])))
        results.append(_result(terms))
    return results


def _check_ns(ns: range, smallest: int) -> None:
    """ns must be a nonempty ascending range of n >= smallest, so that ns[0]
    and ns[-1] are its smallest and largest n."""
    if not ns or ns.step < 0 or ns[0] < smallest:
        raise ValueError(f"need a nonempty ascending range of n >= {smallest} "
                         f"(got {ns})")


def require_line_bundle_class(ch: ChernCharacter, surface: SurfaceModel,
                              what: str) -> InputClass:
    """The `InputClass` of ch, which must be the class of a line bundle."""
    data = input_class(ch, surface)
    if not data.is_line_bundle:
        raise ValueError(f"{what} must be the class of a line bundle "
                         f"(rank 1, integral c1, ch2 = c1^2/2)")
    return data


def default_twist(surface: SurfaceModel) -> ChernCharacter:
    return ChernCharacter.unit(surface)


def chi_taut(surface: SurfaceModel, ns: range, bundle: ChernCharacter,
             twist: ChernCharacter) -> list[Fraction]:
    """Euler characteristic of a single induced bundle with determinant twist
    on the n-point space, at each n of the nonempty range ns:
    chi(F (x) L) * S^(n-1) chi(L), with chi(F (x) L) and chi(L) formed once."""
    _check_ns(ns, 1)
    form = require_line_bundle_class(twist, surface, "twist").form(1)
    main, chi_twist = _apply(form, class_coords(bundle, surface)), _at_unit(form)
    return [main * sym_pow_chi(n - 1, chi_twist) for n in ns]


def _diag_chis(surface: SurfaceModel, product: ClassCoords,
               twist: ChernCharacter, top: int) -> list[Fraction]:
    """chi of the diagonal correction classes for ell = 1..top: S^(ell-1) of
    the cotangent bundle times the product of all inputs times the twist
    squared, each one value of the form chi(. product L^2)."""
    times_twist = input_class(twist, surface)
    form = chi_functional(times_twist.times(times_twist.times(product)), surface)
    return [_apply(form, _sym_cotangent_coords(m, surface)) for m in range(top)]


def _sym_cotangent_coords(m: int, surface: SurfaceModel) -> ClassCoords:
    """S^m of the cotangent bundle in integer coordinates over the
    denominator 12: (12(m+1), 6m(m+1) K, m(m+1)(2m+1)(K.K - 2c2) +
    2m(m+1)(m-1) c2), the closed form of `surface.ch_sym_cotangent`."""
    m1 = m * (m + 1)
    return ((12 * (m + 1), *(6 * m1 * x for x in surface.canonical),
             m1 * (2 * m + 1) * (surface.k_squared - 2 * surface.c2)
             + 2 * m1 * (m - 1) * surface.c2), 12)


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
        out = input_class(c, surface).times(out)
    return out


# Sums over splittings P | P^c are evaluated in A (x) A, where A is the
# truncated ring in integer coordinates (see `surface.class_coords`), or in
# the tensor square of its dual, the linear forms on A.  An element of
# A (x) A is a tuple of rows indexed by the left coordinate; a z-graded
# element is a list of such tensors indexed by the power of z.  All entries
# of a z-graded element share one denominator, which each step multiplies by
# that of its class.

def _split_step(graded: list, y: Callable[[Sequence[int]], tuple[int, ...]]
                ) -> list:
    """Apply (z y (x) 1 + 1 (x) y) to the numerators of a z-graded element
    of A (x) A, for y the numerator of a linear map of A: the multiplication
    by a class (`ClassMultiplier`) or its adjoint on forms
    (`ClassMultiplier.adjoint`); the denominator gains the map's factor.
    All-zero rows and columns are kept as they are, without a call to y."""
    left = [tuple(zip(*[y(col) if any(col) else col for col in zip(*t)]))
            for t in graded]
    right = [tuple(y(row) if any(row) else row for row in t) for t in graded]
    middle = [tuple(tuple(map(operator.add, a, b)) for a, b in zip(lt, rt))
              for lt, rt in zip(left, right[1:])]
    return [right[0], *middle, left[-1]]


def _split_sums(first: ClassCoords, others: Sequence[ClassMultiplier]
                ) -> tuple[list, int]:
    """(x_1 (x) 1) * prod over the others of (z x_t (x) 1 + 1 (x) x_t): the
    coefficient of z^(r-1) is the sum of x_P (x) x_(P^c) over the subsets P
    of size r that contain the first index.  Returns the integer numerators
    and their common denominator."""
    coords, den = first
    zero = (0,) * (len(coords) - 1)
    graded = [tuple((a, *zero) for a in coords)]
    for y in others:
        graded = _split_step(graded, y)
        den *= y.den
    return graded, den


def _pair_eval(phi: tuple[Sequence[int], int], tensor: tuple, den: int) -> Fraction:
    """(phi (x) phi) applied to an element of A (x) A with integer numerators
    over the denominator den."""
    form, d = phi
    return Fraction(sum(a * sum(map(operator.mul, row, form))
                        for a, row in zip(form, tensor)), d * d * den)


def _frobenius(s: tuple, t: tuple) -> int:
    """The pairing sum_ij s_ij t_ij of an element s of A (x) A with an
    element t of the tensor square of the forms on A."""
    return sum(map(operator.mul, itertools.chain.from_iterable(s),
                   itertools.chain.from_iterable(t)))


def surviving_count(k: int, ell: int) -> int:
    """The Euler characteristic of the degrees >= 0 of the complex for (k, ell)
    in closed form: the number of subsets of [k] of size at least ell."""
    return sum(comb(k, j) for j in range(ell, k + 1))


def _surviving_counts(k: int) -> list[int]:
    """surviving_count(k, ell) for ell = 1..k, as the suffix sums of one row
    of binomials."""
    return list(itertools.accumulate(comb(k, j) for j in range(k, 0, -1)))[::-1]


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
    phi = require_line_bundle_class(twist, surface, "twist").form(1)
    graded, den = _split_sums(class_coords(bundles[0], surface),
                              [input_class(e, surface) for e in bundles[1:]])
    terms = [Term(f"|P|={r}", Fraction(1), (_pair_eval(phi, t, den),))
             for r, t in enumerate(graded, 1)]
    diag = _diag_chis(surface, _product_all(surface, bundles), twist, k - 1)
    terms += [Term(f"diag ell={ell}", Fraction(-diagonal_multiplicity(k, ell)),
                   (d,)) for ell, d in enumerate(diag, 1)]
    return _result(terms)


def _gaussian_moments(cov: Sequence[Sequence[int]], bounds: Sequence[int],
                      radix: Sequence[int], top: int, scale: int
                      ) -> dict[int, tuple[int, int]]:
    """The nonzero moments E[xi^alpha] of a centred Gaussian vector xi of
    integer covariance cov, for the alpha <= bounds of even degree 2h <= top:
    {sum_a alpha_a radix_a: (h, scale^h E[xi^alpha])}.

    By Isserlis' theorem E[xi_a f] = sum_c cov_ac E[d_c f]: with a the
    smallest index in alpha and gamma = alpha - e_a, E[xi^alpha] =
    sum_c cov_ac gamma_c E[xi^(gamma - e_c)], a moment of degree 2h - 2.
    So the moments are formed one degree at a time, each alpha from the one
    left when its two smallest indices are removed, and so exactly once."""
    q = len(cov)
    moments = {0: 1}
    out = {0: (0, 1)}
    # (alpha, its code, the largest index a pair added to it may use: its
    # smallest index, or q - 1 for alpha = 0), of degree 2h - 2
    level = [((0,) * q, 0, q - 1)]
    for half in range(1, top // 2 + 1):
        grown = []
        for alpha, code, first in level:
            for b in range(first + 1):
                for a in range(b + 1):
                    beta = list(alpha)
                    beta[a] += 1
                    beta[b] += 1
                    if beta[a] > bounds[a] or beta[b] > bounds[b]:
                        continue
                    key = code + radix[a] + radix[b]
                    base = key - radix[a]
                    beta[a] -= 1
                    moment = 0
                    for c, g in enumerate(cov[a]):
                        if g and beta[c]:
                            moment += g * beta[c] * moments[base - radix[c]]
                    beta[a] += 1
                    moments[key] = moment
                    grown.append((beta, key, a))
                    if moment:
                        out[key] = (half, moment * scale ** half)
        level = grown
    return out


def _decorated_block_sums(types: Sequence[tuple[ClassMultiplier, int]],
                          form: Sequence[int], gram: Sequence[Sequence[int]],
                          n: int) -> list[int]:
    """Set-partition sums graded by the number of blocks, for
    `chi_product_invariants`: entry b, for 1 <= b <= min(n, k), is the sum
    over the set partitions of the k elements into b blocks of the product
    over the blocks B of phi(x_B).  Here phi is the form with integer
    coefficients (phi_0, phi_c, phi_top), x_B the product of the numerators
    x_i = (r_i, c_i, d_i) of the classes in B, and the elements come in
    types, each a class with its multiplicity.

    In the truncated ring a product keeps at most two of the parts
    a_i = (0, c_i, d_i), so phi(x_B) = phi_0 r_B + sum_i r_(B-i) mu_i +
    sum_(i<j) r_(B-ij) phi_top c_i.G.c_j with mu_i = phi_c.c_i + phi_top d_i:
    a block carries no mark, one marked element or one marked pair, and an
    unmarked element contributes r_i wherever it sits.  Hence

      sum over |pi| = b = sum_(s+p+j=b) E_(s,p) phi_top^p phi_0^j
                          N(k - s - 2p, s + p, j),

    where E_(s,p) = [y^s z^2p] E_xi prod_i (r_i + y mu_i + z xi.c_i) for a
    Gaussian xi of covariance G (Isserlis: a moment of degree 2p sums the
    pairings c_i.G.c_j over the perfect matchings), and N(u, m, j) counts
    the placements of u unmarked elements into the m marked blocks and j
    new, nonempty ones: N(u, m, j) = (m + j) N(u-1, m, j) + N(u-1, m, j-1).
    No rank is divided by, so virtual and rank-0 classes need no care.

    The variables are one Gaussian per type, eta_t = xi.c_t of covariance
    c_t.G.c_u, if the prod (m_t + 1) monomials they allow are no more than
    the C(min(k, 2n) + p, p) of the Picard coordinates xi (covariance G);
    otherwise the Picard coordinates.  Each type's factor is raised to its
    multiplicity by the multinomial theorem, and a monomial y^s xi^alpha
    with 2s + |alpha| > 2n is dropped as it arises, since it only feeds sums
    over more than n blocks.  So the product has at most
    min(prod (m_t + 1), C(min(k, 2n) + p, p)) monomials per power of y, and
    n + 1 powers.  A monomial is one integer, (2s + |alpha|) W plus alpha in
    the mixed radix of its bounds (W the product of the radices), so a
    product of monomials is a sum of integers and the truncation one
    comparison.  For each m = s + p, sum_u e_u N(u, m, j) over j <= n - m is
    formed by Horner's rule over u, with N(u, m, .) = T_m^u e_0 and
    (T_m v)_j = (m + j) v_j + v_(j-1): O(k n^2) steps in all, with no table
    of N and no recursion.
    """
    k = sum(m for _, m in types)
    top = min(n, k)
    f0, fc, ftop = form[0], form[1:-1], form[-1]
    p = len(fc)
    deg = min(k, 2 * n)
    if prod(m + 1 for _, m in types) <= comb(deg + p, p):
        bounds = [m for _, m in types]
        lines = [((t, 1),) for t in range(len(types))]
        cov = None
    else:
        bounds = [deg] * p
        lines = [tuple((a, x) for a, x in enumerate(y.c) if x) for y, _ in types]
        cov = gram
    radix = [1]
    for bound in bounds:
        radix.append(radix[-1] * (bound + 1))
    width = radix.pop()
    limit = (2 * n + 1) * width

    # poly: {monomial: coefficient} of the product of the factors so far.
    poly: dict[int, int] | None = None
    for (y, m), line in zip(types, lines):
        r, mu = y.r, sum(map(operator.mul, fc, y.c)) + ftop * y.s
        # (r + y mu + xi.c)^m: the multinomial m!/(a! b! c!) r^a mu^b times
        # the monomials of (xi.c)^c, kept in `power`.
        factor = {}
        power = {0: 1}
        for c in range(min(m, 2 * n) + 1):
            if c:
                grown: dict[int, int] = {}
                for code, v in power.items():
                    for a, x in line:
                        key = code + radix[a]
                        grown[key] = grown.get(key, 0) + v * x
                power = grown
            for b in range(min(m - c, n - (c + 1) // 2) + 1):
                coef = comb(m, c) * comb(m - c, b) * r ** (m - b - c) * mu ** b
                if coef:
                    base = (2 * b + c) * width
                    for code, v in power.items():
                        factor[base + code] = coef * v
        if poly is None:
            poly = factor
            continue
        product: dict[int, int] = {}
        for key, v in poly.items():
            room = limit - key
            for other, x in factor.items():
                if other < room:
                    both = key + other
                    product[both] = product.get(both, 0) + v * x
        poly = product

    if deg < 2:
        moments = {0: (0, 1)}
    else:
        if cov is None:
            cov = [[0] * len(types) for _ in types]
            for t, (y, _) in enumerate(types):
                for u in range(t, len(types)):
                    cov[t][u] = cov[u][t] = sum(map(operator.mul, y.c,
                                                    types[u][0].gc))
        moments = _gaussian_moments(cov, bounds, radix, deg, ftop)
    # rows[m][p] = E_(m-p,p) phi_top^p: s + |alpha|/2 = m is half of 2s + |alpha|.
    rows = [[0] * (m + 1) for m in range(top + 1)]
    for key, v in poly.items():
        w, code = divmod(key, width)
        found = moments.get(code)
        if found:
            half, moment = found
            rows[w // 2][half] += v * moment

    sums = [0] * (top + 1)
    f0_powers = [f0 ** j for j in range(top + 1)]
    for marked, row in enumerate(rows):
        if not any(row):
            continue
        # v = sum_u e_u N(u, marked, .) with e_(k-marked-p) = row[p], by
        # Horner's rule from the largest u down; after p steps v_j vanishes
        # for j > p.
        span = top - marked + 1
        v = [0] * span
        for u in range(k - marked, -1, -1):
            pairs = k - marked - u
            for j in range(min(span - 1, pairs), 0, -1):
                v[j] = (marked + j) * v[j] + v[j - 1]
            v[0] = marked * v[0] + (row[pairs] if pairs <= marked else 0)
        for j, x in enumerate(v):
            sums[marked + j] += x * f0_powers[j]
    return sums


def chi_product_invariants(surface: SurfaceModel, ns: range,
                           bundles: Sequence[ChernCharacter],
                           twist: ChernCharacter | None = None
                           ) -> list[ChiResult]:
    """Euler characteristic of the invariants of the ambient product of
    pullbacks on the n-fold product (the uncorrected first approximation),
    at each n of the nonempty range ns.

    The sum runs over set partitions of [k] into b <= n blocks: the product
    of chi(E_B L) over the blocks B, times S^(n-b) chi(L) for the n - b
    unused points.  Equal bundles are grouped into types, and the sums over
    the partitions into b blocks are formed by `_decorated_block_sums`, once
    for the whole range, up to its largest n: a product of one factor per
    type with at most min(prod (m_t + 1), C(min(k, 2n) + p, p)) monomials
    times n + 1 powers of y, for multiplicities m_t and Picard rank p, its
    Gaussian moments, and O(k n^2) Horner steps that place the unmarked
    elements.  So the cost is polynomial in the number of copies of each
    class, and no recursion depth grows with k or n.  One term per block
    count b <= n, labelled blocks=b, with factors (sum over partitions into
    b blocks of the product of chi(E_B L), S^(n-b) chi(L)).

    The sums run on integers: with phi = chi(. L) over the denominator d_phi
    and bundle type i over D_i, the product over the b blocks of a partition
    is an integer over d_phi^b prod D_i^m_i for every partition alike.
    """
    if not bundles:
        raise ValueError("need k >= 1")
    _check_ns(ns, 1)
    if twist is None:
        twist = default_twist(surface)
    form, d_phi = require_line_bundle_class(twist, surface, "twist").form(1)
    # Equal bundles share one input class, so they count as one type.
    types = list(Counter(input_class(e, surface) for e in bundles).items())
    den_all = prod(y.den ** m for y, m in types)
    block_sums = _decorated_block_sums(types, form, surface.gram, ns[-1])
    return _sweep_results(Fraction(form[0], d_phi),
                          [(f"blocks={b}", Fraction(1),
                            (Fraction(block_sums[b], d_phi ** b * den_all),), b)
                           for b in range(1, len(block_sums))], ns)


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
                      twist: ChernCharacter | None
                      ) -> tuple[InputClass, ChernCharacter, InputClass]:
    """The input classes of the bundle and the twist, both line-bundle
    classes, and the twist."""
    if k < 1:
        raise ValueError("need k >= 1")
    if twist is None:
        twist = default_twist(surface)
    return (require_line_bundle_class(bundle, surface, "bundle"), twist,
            require_line_bundle_class(twist, surface, "twist"))


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
    times_bundle, twist, times_twist = _check_power_args(surface, bundle, k, twist)
    phi = times_twist.form(1)
    chi = [_apply(phi, times_bundle.power(j)) for j in range(k + 1)]
    values = [chi[j] * chi[k - j] for j in range((k + 1) // 2)]
    if k % 2 == 0:
        values.append(sym_pow_chi(2, chi[k // 2]))
    for ell, diag in enumerate(_diag_chis(surface, times_bundle.power(k), twist,
                                          k - 1), 1):
        values.append(-sym_power_coefficient(k, ell) * diag)
    return fraction_sum(values)


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
    _, twist, times_twist = _check_power_args(surface, bundle, k, twist)
    if k == 1:
        return chi_taut(surface, range(2, 3), bundle, twist)[0]
    if k == 2:
        return gen_binomial(_apply(times_twist.form(1),
                                   class_coords(bundle, surface)), 2)
    return Fraction(0)


def chi_hom_pair_two(surface: SurfaceModel, source: Sequence[ChernCharacter],
                     target: Sequence[ChernCharacter]) -> ChiResult:
    """Alternating sum of Ext dimensions between two products of induced
    bundles on the two-point space.

    Four groups of terms: the double subset sum of Hom pairings; the two
    single diagonal corrections (the target-side one twisted by the
    anticanonical class); and the diagonal-vs-diagonal block, where the
    tangent-twisted middle extension enters with the smaller coefficient c-.

    The double sum over P containing 1 and arbitrary Q of
    chi(Hom(E_P, F_Q)) chi(Hom(E_(P^c), F_(Q^c))) is the term |P|=a,|Q|=b,
    with chi = chi(. 1), of
    (chi (x) chi)(S_a G_b) = <S_a, (beta (x) beta) G_b>,
    beta(x, x') = chi(x x').  The source side S_a, the coefficient of
    z^(a-1) in (e_1^dual (x) 1) prod_(t>=2) (z e_t^dual (x) 1 + 1 (x) e_t^dual),
    is built like the main sum of `chi_taut_product_two`.  The target side
    is formed once, as forms: starting from chi (x) chi, each target class f
    applies (w f* (x) 1 + 1 (x) f*), where f* is the adjoint of the
    multiplication by f, u -> u(f .) (`ClassMultiplier.adjoint`), and the
    coefficient of w^b is the form tensor F_b.  Each term is then one integer
    pairing <S_a, F_b> over one denominator.  The cost is
    O((k^2 + khat^2)(p+2)^2) for Picard rank p: k - 1 source steps and khat
    target steps, each over at most k or khat + 1 grades, plus k(khat + 1)
    pairings.  The forms that depend on the surface alone, and chi (x) chi,
    are formed once per surface (`SurfaceModel.hom_forms`).
    """
    k, khat = len(source), len(target)
    if k < 1 or khat < 1:
        raise ValueError("need at least one bundle on each side")
    forms = surface.hom_forms
    duals = [dual_coords(class_coords(e, surface)) for e in source]
    source_sums, den = _split_sums(duals[0], [ClassMultiplier(d, surface)
                                              for d in duals[1:]])
    target_forms = [forms.chi_square]
    for f in target:
        y = input_class(f, surface)
        target_forms = _split_step(target_forms, y.adjoint)
        den *= y.den
    den *= forms.chi[1] ** 2
    terms = [Term(f"|P|={a},|Q|={b}", Fraction(1),
                  (Fraction(_frobenius(s, t), den),))
             for a, s in enumerate(source_sums, 1)
             for b, t in enumerate(target_forms)]

    # The diagonal classes: (S^(ell-1) Omega E)^dual on the source side and
    # S^(ellhat-1) Omega F on the target side; every correction is chi,
    # chi(. omega^dual) or chi(. T) of the product of one of each, and the
    # c+ factor is chi(. (1 + omega^dual)) by linearity of chi(. y) in y.
    times_e = ClassMultiplier(_product_all(surface, source), surface)
    times_f = ClassMultiplier(_product_all(surface, target), surface)
    cot = [_sym_cotangent_coords(m, surface) for m in range(max(k, khat))]
    src = [ClassMultiplier(dual_coords(times_e.times(c)), surface) for c in cot[:k]]
    tgt = [times_f.times(c) for c in cot[:khat]]
    phi, phi_w, phi_t, phi_cw = forms[:4]

    # The coefficients: into-diag 2^(k-1) s(khat, ellhat), from-diag
    # 2^(khat-1) s(k, ell) and diag-diag (c+, c-) = (s shat +- w)/2, with
    # s = `surviving_count` and w = binom(k-1, ell-1) binom(khat-1, ellhat-1);
    # s and w are even or odd together (`diagonal_multiplicity`).
    counts, counts_hat = _surviving_counts(k), _surviving_counts(khat)
    binoms = [comb(k - 1, j) for j in range(k)]
    binoms_hat = [comb(khat - 1, j) for j in range(khat)]
    for ellhat, b in enumerate(tgt, 1):
        terms.append(Term(f"into-diag ellhat={ellhat}",
                          Fraction(-2 ** (k - 1) * counts_hat[ellhat - 1]),
                          (_apply(phi, src[0].times(b)),)))
    for ell, a in enumerate(src, 1):
        terms.append(Term(f"from-diag ell={ell}",
                          Fraction(-2 ** (khat - 1) * counts[ell - 1]),
                          (_apply(phi_w, a.times(tgt[0])),)))
    for ell, a in enumerate(src, 1):
        for ellhat, b in enumerate(tgt, 1):
            both = counts[ell - 1] * counts_hat[ellhat - 1]
            w = binoms[ell - 1] * binoms_hat[ellhat - 1]
            c_plus, c_minus = (both + w) // 2, (both - w) // 2
            cls = a.times(b)
            terms.append(Term(f"diag-diag ell={ell},{ellhat} c+",
                              Fraction(c_plus), (_apply(phi_cw, cls),)))
            terms.append(Term(f"diag-diag ell={ell},{ellhat} c-",
                              Fraction(-c_minus), (_apply(phi_t, cls),)))
    return _result(terms)


_TRIPLE_PAIRS = ((1, 2, 3), (1, 3, 2), (2, 3, 1))


def chi_taut_triple(surface: SurfaceModel, ns: range, e1: ChernCharacter,
                    e2: ChernCharacter, e3: ChernCharacter,
                    twist: ChernCharacter | None = None) -> list[ChiResult]:
    """Euler characteristic of a triple product of induced bundles on the
    n-point space, with determinant twist, at each n of the nonempty range
    ns (n >= 3).  The factors before the last of each term are free of n and
    formed once; the last is S^(n-J) chi(L) with J = 1, 2 or 3."""
    _check_ns(ns, 3)
    if twist is None:
        twist = default_twist(surface)
    times_twist = require_line_bundle_class(twist, surface, "twist")
    # The eight classes e_1, e_2, e_3, e_a e_b, e_1 e_2 e_3 and
    # Omega e_1 e_2 e_3, each built once, against the forms chi(. L^j).
    # Each class is a pair (integer numerators, denominator).
    single = [class_coords(x, surface) for x in (e1, e2, e3)]
    times = [input_class(x, surface) for x in (e1, e2, e3)]
    pair = {(a, b): times[a - 1].times(single[b - 1])
            for (a, b, _) in _TRIPLE_PAIRS}
    full = times[2].times(pair[1, 2])
    cot_full = ClassMultiplier(_sym_cotangent_coords(1, surface), surface).times(full)
    chi1, chi2, chi3 = (times_twist.form(j) for j in (1, 2, 3))
    lone = [_apply(chi1, v) for v in single]

    parts = [("singletons", Fraction(1), tuple(lone), 3)]
    for (a, b, c) in _TRIPLE_PAIRS:
        parts.append((f"pair {a}{b}|{c} L", Fraction(1),
                      (_apply(chi1, pair[a, b]), lone[c - 1]), 2))
        parts.append((f"pair {a}{b}|{c} L^2", Fraction(-1),
                      (_apply(chi2, pair[a, b]), lone[c - 1]), 3))
    parts.append(("full L", Fraction(1), (_apply(chi1, full),), 1))
    parts.append(("full L^2", Fraction(-3), (_apply(chi2, full),), 2))
    parts.append(("full L^3", Fraction(2), (_apply(chi3, full),), 3))
    parts.append(("cotangent L^2", Fraction(-1), (_apply(chi2, cot_full),), 2))
    parts.append(("cotangent L^3", Fraction(1), (_apply(chi3, cot_full),), 3))
    return _sweep_results(_at_unit(chi1), parts, ns)


def top_cohomology_dim(k: int, ns: range, h2_by_subset: Mapping[frozenset, int],
                       q: int) -> list[int]:
    """Dimension of the top-degree cohomology of a product of k induced
    bundles on the n-point space, at each n of the nonempty range ns.

    The sum runs over set partitions of [k] into b <= n blocks: the product
    of the block values times dim S^(n-b) of the q-dimensional top cohomology
    of the twist.  h2_by_subset supplies, for each subset of [k] occurring as
    a block, the top cohomology dimension of the corresponding (twisted)
    product on the surface; q is the top cohomology dimension of the twist
    itself.  These are genuine cohomology dimensions, which Riemann-Roch
    cannot provide, so they are caller-supplied.  Keys naming elements
    outside 1..k, and the empty key, are never looked up.

    The per-subset data admit no grouping into types, so the sum is a subset
    DP over bitmasks, in integers only.  Element t is bit k - t, and the
    weights are read in increasing order of mask, so a missing subset is
    reported as the first one absent in that order.  The block of the lowest
    element of a set (its highest bit) is pinned, and the rest of the block
    runs over the submasks of the other elements.  So every partition is
    counted once, each mask is one DP state, and the sums of the masks
    without element 1 are formed bottom-up, then those of the full set: one
    step per (mask, submask) pair, O(3^k) in all, each graded by the block
    count up to n.  With n = 1 only the whole set is looked up.

    The DP runs once, up to the largest n of the range, and each n reads
    the sums of at most n blocks.  A range from n = 1 looks the whole set
    up first, so a sweep fails as its first failing n would alone.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    _check_ns(ns, 1)
    if q < 0:
        raise ValueError("q must be nonnegative")

    def lookup(elements: Iterable[int]) -> int:
        key = frozenset(elements)
        if key not in h2_by_subset:
            raise ValueError(
                "missing top-cohomology value for subset {"
                + ",".join(map(str, sorted(key))) + "}")
        return h2_by_subset[key]

    n = ns[-1]
    if ns[0] == 1:
        whole = lookup(range(1, k + 1))
        if n == 1:
            return [whole]
    subsets: list[tuple[int, ...]] = [()]
    for t in range(k, 0, -1):
        subsets += [s + (t,) for s in subsets]
    weight = [0, *map(lookup, subsets[1:])]
    full = len(subsets) - 1

    # sums[mask][b - 1]: the sum over the partitions of mask into b blocks.
    # A mask below the full set is only ever the rest of a pinned block, so
    # its sums are kept for b <= n - 1.  The empty rest leaves the mask as
    # one block, out[0].
    sums: list[list[int]] = [[]]
    for mask in itertools.chain(range(1, (full + 1) // 2), (full,)):
        top = 1 << (mask.bit_length() - 1)
        rest = mask ^ top
        out = [weight[mask]] + [0] * (min(n, len(subsets[mask])) - 1)
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            w = weight[sub | top]
            if w:
                for b, v in enumerate(sums[rest ^ sub], 1):
                    out[b] += w * v
        sums.append(out[:n - 1])
    sym = [int(sym_pow_chi(m, q)) for m in range(n)]
    return [sum(g * sym[m - b] for b, g in enumerate(out[:m], 1)) for m in ns]


def global_sections_dim(h0_values: Sequence[int], ns: range) -> list[int]:
    """Dimension of the global sections of a product of induced bundles at
    each n of the nonempty range ns, all at least the number of factors: the
    plain product of the h0 inputs."""
    k = len(h0_values)
    if k < 1:
        raise ValueError("need at least one bundle")
    _check_ns(ns, k)  # the product formula holds for n >= k
    if any(v < 0 for v in h0_values):
        raise ValueError("h0 values must be nonnegative")
    return [prod(h0_values)] * len(ns)
