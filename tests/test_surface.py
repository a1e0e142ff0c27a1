"""Chern character arithmetic, Riemann-Roch, and graded Euler characteristics."""

import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from tautchi.surface import (BundleSpec, ChernCharacter, ClassMultiplier,
                             DivisorClass, SurfaceModel, as_fraction, ch_add,
                             ch_coords, ch_dual, ch_hom, ch_sub, ch_sym_cotangent,
                             ch_tangent, ch_tensor, chi_functional, gen_binomial,
                             hrr_chi, k3, p1xp1, p2, scaled_coords, sym_pow_chi)

P2 = p2()

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def chern_on(surface):
    rank = surface.picard_rank
    return st.builds(
        lambda c0, c1, c2: ChernCharacter.make(c0, DivisorClass.of(c1), c2),
        rationals, st.lists(rationals, min_size=rank, max_size=rank), rationals)


def line_on_p2(d):
    return ChernCharacter.line_bundle([d], P2)


# --- presets and surface validation ------------------------------------------

def test_preset_chi_structure_sheaf():
    assert p2().chi_structure_sheaf == 1
    assert p1xp1().chi_structure_sheaf == 1
    assert k3().chi_structure_sheaf == 2


def test_noether_rejection():
    with pytest.raises(ValueError, match="not divisible by 12"):
        SurfaceModel("bad", ((1,),), (-1,), 3)


def test_canonical_class_must_be_characteristic():
    # Wu's formula: x.x = x.K (mod 2).  H.H = 1 with K = 0 fails it, although
    # K.K + c2 = 12 passes Noether's check.
    with pytest.raises(ValueError, match="not characteristic.*basis divisor 1"):
        SurfaceModel("bad", ((1,),), (0,), 12)
    with pytest.raises(ValueError, match="basis divisor 2"):
        SurfaceModel("bad", ((0, 1), (1, 2)), (1, 0), 12)
    SurfaceModel("P2-blown-up-1", ((1, 0), (0, -1)), (-3, 1), 4)


def test_gram_must_be_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        SurfaceModel("bad", ((0, 1), (2, 0)), (-2, -2), 4)


def test_k3_polarization_validation():
    assert k3(4).gram == ((4,),)
    with pytest.raises(ValueError):
        k3(3)


@st.composite
def gram_surfaces(draw):
    """Surfaces with zero Gram entries that pass Noether's and Wu's checks:
    either a random symmetric matrix with mostly zero entries, or a direct
    sum of scaled hyperbolic planes U(a) (zero diagonal), padded by one
    diagonal entry."""
    p = draw(st.integers(1, 5))
    gram = [[0] * p for _ in range(p)]
    if draw(st.booleans()):
        for i in range(0, p - 1, 2):
            gram[i][i + 1] = gram[i + 1][i] = draw(st.integers(1, 3))
        if p % 2:
            gram[p - 1][p - 1] = draw(st.integers(-3, 3))
    else:
        for i in range(p):
            for j in range(i, p):
                gram[i][j] = gram[j][i] = draw(st.sampled_from([0, 0, 0, 1, -1, 2, -3]))
    canonical = draw(st.lists(st.integers(-3, 3), min_size=p, max_size=p))
    # Wu: K.x = x.x (mod 2) on the basis.  The diagonal of a symmetric
    # matrix mod 2 lies in its column space, so some shift of K by 0 or 1 per
    # coordinate satisfies it; take one with the fewest shifts.
    def characteristic(k):
        return all((gram[i][i] - sum(map(operator.mul, gram[i], k))) % 2 == 0
                   for i in range(p))
    shifts = sorted(itertools.product((0, 1), repeat=p), key=sum)
    canonical = next(k for k in (list(map(operator.add, canonical, s))
                                 for s in shifts) if characteristic(k))
    ksq = oracles.dense_pair(gram, canonical, canonical)
    c2 = draw(st.integers(-30, 30))
    c2 -= (ksq + c2) % 12
    return SurfaceModel("random", tuple(map(tuple, gram)), tuple(canonical), int(c2))


def vectors(p):
    return st.lists(rationals, min_size=p, max_size=p)


@given(gram_surfaces())
def test_cached_invariants_match_dense_oracle(surface):
    gram, canonical = surface.gram, surface.canonical
    p = surface.picard_rank
    ksq = oracles.dense_pair(gram, canonical, canonical)
    assert surface.k_squared == ksq and isinstance(surface.k_squared, int)
    assert surface.chi_structure_sheaf * 12 == ksq + surface.c2
    assert surface.gram_canonical == tuple(
        oracles.dense_pair(gram, [int(i == j) for j in range(p)], canonical)
        for i in range(p))
    assert surface.canonical_divisor() == DivisorClass.of(canonical)
    assert all(g != 0 for row in surface.gram_rows for _, g in row)
    assert [dict(row) for row in surface.gram_rows] == [
        {j: g for j, g in enumerate(row) if g} for row in gram]
    # computed once, and invisible to comparison and hashing
    assert surface.gram_rows is surface.gram_rows
    fresh = SurfaceModel(surface.name, gram, canonical, surface.c2)
    assert fresh == surface and hash(fresh) == hash(surface)


@given(gram_surfaces().flatmap(lambda s: st.tuples(
    st.just(s), vectors(s.picard_rank), vectors(s.picard_rank))))
def test_sparse_pair_matches_dense_double_sum(data):
    surface, u, v = data
    assert surface.pair(u, v) == oracles.dense_pair(surface.gram, u, v)
    assert isinstance(surface.pair(u, v), Fraction)


@given(gram_surfaces().flatmap(lambda s: st.tuples(st.just(s), chern_on(s), chern_on(s))))
def test_riemann_roch_forms_on_random_surfaces(data):
    surface, x, y = data
    k_dot = oracles.dense_pair(surface.gram, x.ch1.coeffs, surface.canonical)
    assert hrr_chi(x, surface) == x.ch2 - k_dot / 2 + x.ch0 * surface.chi_structure_sheaf
    # chi_functional holds for any class y, not only line bundles
    form, den = chi_functional(y, surface)
    assert (sum(a * b for a, b in zip(form, ch_coords(x))) / den
            == hrr_chi(ch_tensor(x, y, surface), surface))


# --- tensor / dual / hom ------------------------------------------------------

def test_tensor_unit_is_identity():
    unit = ChernCharacter.unit(P2)
    x = ChernCharacter.make(2, [5], Fraction(7, 3))
    assert ch_tensor(unit, x, P2) == x
    assert ch_tensor(x, unit, P2) == x


def exp_line_class(d):
    # independent oracle: the exponential of d*H on the plane, truncated
    return ChernCharacter.make(1, [d], Fraction(d * d, 2))


@pytest.mark.parametrize("a,b", [(1, 1), (1, 3), (-2, 5), (0, 4)])
def test_tensor_of_line_bundles_matches_exponential(a, b):
    got = ch_tensor(exp_line_class(a), exp_line_class(b), P2)
    assert got == exp_line_class(a + b)
    assert got == ChernCharacter.line_bundle([a + b], P2)


def test_tensor_o1_squared():
    sq = ch_tensor(line_on_p2(1), line_on_p2(1), P2)
    assert (sq.ch0, sq.ch1.coeffs, sq.ch2) == (1, (Fraction(2),), Fraction(2))


@given(chern_on(P2), chern_on(P2))
def test_tensor_commutes(x, y):
    assert ch_tensor(x, y, P2) == ch_tensor(y, x, P2)


@given(chern_on(P2), chern_on(P2), chern_on(P2))
def test_ring_axioms(x, y, z):
    assert ch_tensor(ch_tensor(x, y, P2), z, P2) == ch_tensor(x, ch_tensor(y, z, P2), P2)
    assert ch_tensor(ch_add(x, y), z, P2) == ch_add(ch_tensor(x, z, P2),
                                                    ch_tensor(y, z, P2))
    assert ch_add(x, ch_sub(y, y)) == x


@given(chern_on(P2), chern_on(P2))
def test_dual_is_ring_involution_fixing_ch2(x, y):
    assert ch_dual(ch_dual(x)) == x
    assert ch_dual(x).ch2 == x.ch2
    assert ch_dual(ch_tensor(x, y, P2)) == ch_tensor(ch_dual(x), ch_dual(y), P2)


def test_dual_of_line_bundle():
    d = ch_dual(line_on_p2(1))
    assert (d.ch0, d.ch1.coeffs, d.ch2) == (1, (Fraction(-1),), Fraction(1, 2))
    assert ch_dual(ChernCharacter.unit(P2)) == ChernCharacter.unit(P2)


def test_line_bundle_class_needs_integral_c1():
    assert line_on_p2(3).is_line_bundle_class(P2)
    half = ChernCharacter.line_bundle([Fraction(1, 2)], P2)
    assert half.ch2 == Fraction(1, 8)
    assert not half.is_line_bundle_class(P2)
    assert not ChernCharacter.make(1, [1], 0).is_line_bundle_class(P2)


@given(gram_surfaces().flatmap(lambda s: st.tuples(
    st.just(s), st.lists(st.integers(-4, 4), min_size=s.picard_rank,
                         max_size=s.picard_rank),
    st.sampled_from([1, 2, -1]), st.sampled_from([0, 0, Fraction(1, 2), 1]),
    st.sampled_from([1, 1, 2]))))
def test_line_bundle_test_in_integers_matches_fraction_pairing(data):
    surface, c, rank, shift, den = data
    c1 = [Fraction(x, den) for x in c]
    ch = ChernCharacter.make(rank, c1, surface.pair(c1, c1) / 2 + shift)
    integral = all(x.denominator == 1 for x in c1)
    assert ch.is_line_bundle_class(surface) == (rank == 1 and integral and shift == 0)


QUADRIC = p1xp1()


@given(chern_on(QUADRIC), chern_on(QUADRIC))
def test_class_multiplier_is_ch_tensor_in_coordinates(x, y):
    v, e = scaled_coords(x)
    y_times = ClassMultiplier(y, QUADRIC)
    assert (tuple(Fraction(n, y_times.den * e) for n in y_times(v))
            == ch_coords(ch_tensor(y, x, QUADRIC)))


@given(chern_on(QUADRIC), st.integers(-3, 3), st.integers(-3, 3))
def test_chi_functional_is_twisted_riemann_roch(x, a, b):
    twist = ChernCharacter.line_bundle([a, b], QUADRIC)
    form, den = chi_functional(twist, QUADRIC)
    assert (sum(p * v for p, v in zip(form, ch_coords(x))) / den
            == hrr_chi(ch_tensor(x, twist, QUADRIC), QUADRIC))


def test_hom_examples():
    unit = ChernCharacter.unit(P2)
    assert ch_hom(line_on_p2(2), line_on_p2(2), P2) == unit
    x = ChernCharacter.make(3, [Fraction(1, 2)], 5)
    assert ch_hom(unit, x, P2) == x
    assert ch_hom(line_on_p2(1), line_on_p2(3), P2) == line_on_p2(2)


def test_dimension_mismatch_rejected():
    other = ChernCharacter.unit(p1xp1())
    with pytest.raises(ValueError):
        ch_tensor(other, other, P2)


# --- symmetric powers of the cotangent bundle ---------------------------------

def sym_cotangent_oracle(m, surface):
    """Expand sum over root pairs (i, m-i) literally, using only the symmetric
    functions a+b = K and ab = c2 of the roots."""
    ksq = surface.k_squared
    c2 = surface.c2
    ch0 = m + 1
    lin = sum(i for i in range(m + 1))  # coefficient of K from both slots
    sq = sum(i * i for i in range(m + 1))
    cross = sum(i * (m - i) for i in range(m + 1))
    ch2 = Fraction(sq * (ksq - 2 * c2) + 2 * cross * c2, 2)
    return ch0, lin, ch2


@pytest.mark.parametrize("surface", [P2, p1xp1(), k3()])
@pytest.mark.parametrize("m", range(0, 6))
def test_sym_cotangent_matches_root_expansion(surface, m):
    got = ch_sym_cotangent(m, surface)
    ch0, lin, ch2 = sym_cotangent_oracle(m, surface)
    assert got.ch0 == ch0
    assert got.ch1 == surface.canonical_divisor().scale(lin)
    assert got.ch2 == ch2


def test_sym_cotangent_small_cases():
    assert ch_sym_cotangent(0, P2) == ChernCharacter.unit(P2)
    omega = ch_sym_cotangent(1, P2)
    assert (omega.ch0, omega.ch1.coeffs) == (2, (Fraction(-3),))
    assert omega.ch2 == Fraction(P2.k_squared - 2 * P2.c2, 2)
    s2 = ch_sym_cotangent(2, P2)
    assert (s2.ch0, s2.ch1.coeffs, s2.ch2) == (3, (Fraction(-9),), Fraction(21, 2))


def test_tangent_is_dual_of_cotangent():
    assert ch_tangent(P2) == ch_dual(ch_sym_cotangent(1, P2))


# --- Riemann-Roch --------------------------------------------------------------

def monomial_count(d):
    return sum(1 for a in range(d + 1) for b in range(d + 1 - a))


@pytest.mark.parametrize("d", range(0, 7))
def test_hrr_on_plane_line_bundles(d):
    assert hrr_chi(line_on_p2(d), P2) == monomial_count(d)


def test_hrr_unit_and_cotangent():
    assert hrr_chi(ChernCharacter.unit(P2), P2) == 1
    # h^0 = 0, h^1 = 1, h^2 = 0 for the cotangent bundle of the plane
    assert hrr_chi(ch_sym_cotangent(1, P2), P2) == -1
    assert hrr_chi(ch_sym_cotangent(1, k3()), k3()) == -20


@given(chern_on(P2), chern_on(P2))
def test_hrr_additive(x, y):
    assert hrr_chi(ch_add(x, y), P2) == hrr_chi(x, P2) + hrr_chi(y, P2)


def test_bundle_spec_chern():
    spec = BundleSpec("T", 2, DivisorClass.of([3]), as_fraction(3))
    ch = spec.chern(P2)
    assert ch == ch_tangent(P2)  # rank 2, c1 = -K = 3H, c2 = 3 on the plane


# --- graded symmetric powers ---------------------------------------------------

def test_sym_pow_chi_basics():
    assert sym_pow_chi(0, -17) == 1
    assert sym_pow_chi(2, -1) == 0
    assert sym_pow_chi(3, 2) == 4
    assert sym_pow_chi(5, 1) == 1


@pytest.mark.parametrize("chi", range(-10, 11))
@pytest.mark.parametrize("m", range(0, 11))
def test_reflection_identity(chi, m):
    assert (-1) ** m * gen_binomial(-chi, m) == gen_binomial(chi + m - 1, m)
    assert sym_pow_chi(m, chi) == gen_binomial(chi + m - 1, m)


@pytest.mark.parametrize("x", [0, 1, 7, -1, -5, Fraction(1, 2), Fraction(-7, 3),
                               Fraction(13, 4), Fraction(-1, 6)])
def test_gen_binomial_matches_fraction_product(x):
    for m in range(13):
        assert gen_binomial(x, m) == oracles.naive_gen_binomial(x, m), m
    with pytest.raises(ValueError):
        gen_binomial(x, -1)


GRADED_SPACES = [
    [(0, 1)],
    [(1, 1)],
    [(0, 2), (1, 1)],
    [(0, 3)],
    [(1, 3)],
    [(0, 2), (1, 4)],
    [(2, 2), (3, 1), (0, 1)],
    [(-1, 2), (0, 1), (1, 1)],
    [(0, 4), (1, 2), (2, 1)],
]


def total_chi(dims):
    return sum(d * (-1 if p % 2 else 1) for p, d in dims)


@pytest.mark.parametrize("dims", GRADED_SPACES)
@pytest.mark.parametrize("m", range(0, 6))
def test_graded_sym_oracle_matches_closed_form(dims, m):
    assert oracles.graded_sym_chi_oracle(dims, m) == sym_pow_chi(m, total_chi(dims))


def test_graded_sym_oracle_examples():
    assert oracles.graded_sym_chi_oracle([(0, 1)], 5) == 1
    assert oracles.graded_sym_chi_oracle([(1, 1)], 2) == 0
    assert oracles.graded_sym_chi_oracle([(0, 2), (1, 1)], 2) == 1


def graded_tensor_chi_oracle(dims_v, dims_w):
    """Euler characteristic of the tensor product of two graded vector spaces,
    by explicit enumeration of the product basis."""
    return sum(a * b * (-1 if (p + q) % 2 else 1)
               for p, a in dims_v for q, b in dims_w)


@pytest.mark.parametrize("dims_v", GRADED_SPACES[:5])
@pytest.mark.parametrize("dims_w", GRADED_SPACES[:5])
def test_graded_tensor_chi_multiplicative(dims_v, dims_w):
    assert (graded_tensor_chi_oracle(dims_v, dims_w)
            == total_chi(dims_v) * total_chi(dims_w))
