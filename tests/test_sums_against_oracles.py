"""The polynomial-time sums of `tautchi.euler` against the subset and
set-partition enumerations in `oracles`, value by value and term by term,
the triple and Hom-pair breakdowns against their constructions with one
freshly built class per factor, the integer class products of
`tautchi.surface` against their Fraction oracle, and every formula run with
the Fraction ring functions made to raise."""

import itertools
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tautchi
from tautchi import euler
from tautchi import surface as surface_module
from tautchi.euler import (chi_ext_power_two, chi_hom_pair_two,
                           chi_product_invariants, chi_sym_power_two,
                           chi_taut, chi_taut_product_two, chi_taut_triple,
                           global_sections_dim, top_cohomology_dim)
from tautchi.surface import (ChernCharacter, ClassMultiplier, DivisorClass,
                             SurfaceModel, ch_coords, ch_dual, ch_sym_cotangent,
                             ch_tensor, chi_functional, class_coords,
                             dual_coords, hrr_chi, k3, p1xp1, p2, scaled_coords,
                             unit_coords)

# The plane blown up in three points: Pic = Z^4, H^2 = 1, E_i^2 = -1.
BLOWUP = SurfaceModel("P2-blown-up-3",
                      ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
                      (-3, 1, 1, 1), 6)
SURFACES = [p2(), k3(), p1xp1(), BLOWUP]

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
surfaces = st.sampled_from(SURFACES)
oracle_settings = settings(max_examples=15, deadline=None)


def virtual_bundles(surface, min_size, max_size, pool=None):
    """Random virtual classes; with a pool size, drawn with repetition from
    that many distinct classes so that equal bundles occur."""
    rank = surface.picard_rank
    chern = st.builds(
        lambda c0, c1, c2: ChernCharacter.make(c0, DivisorClass.of(c1), c2),
        rationals, st.lists(rationals, min_size=rank, max_size=rank), rationals)
    if pool is None:
        return st.lists(chern, min_size=min_size, max_size=max_size)
    return st.lists(chern, min_size=1, max_size=pool).flatmap(
        lambda classes: st.lists(st.sampled_from(classes),
                                 min_size=min_size, max_size=max_size))


def twists(surface):
    return st.lists(st.integers(-2, 2), min_size=surface.picard_rank,
                    max_size=surface.picard_rank).map(
        lambda c: ChernCharacter.line_bundle(c, surface))


def with_data(draw_bundles):
    return surfaces.flatmap(lambda s: st.tuples(st.just(s), draw_bundles(s), twists(s)))


def labelled(result, prefix):
    return {t.label: t.value for t in result.terms if t.label.startswith(prefix)}


@oracle_settings
@given(with_data(lambda s: virtual_bundles(s, 1, 7)))
def test_euler_two_main_sum_matches_subset_enumeration(data):
    surface, bundles, twist = data
    res = chi_taut_product_two(surface, bundles, twist)
    expected = oracles.two_point_main_by_size(surface, bundles, twist)
    assert labelled(res, "|P|=") == {f"|P|={r}": v for r, v in expected.items()}


@oracle_settings
@given(surfaces.flatmap(lambda s: st.tuples(
    st.just(s), virtual_bundles(s, 1, 4), virtual_bundles(s, 1, 4))))
def test_bichar_double_sum_matches_subset_enumeration(data):
    surface, source, target = data
    res = chi_hom_pair_two(surface, source, target)
    expected = oracles.hom_pair_main_by_sizes(surface, source, target)
    assert labelled(res, "|P|=") == {f"|P|={a},|Q|={b}": v
                                     for (a, b), v in expected.items()}


@oracle_settings
@given(with_data(lambda s: virtual_bundles(s, 1, 6, pool=3)), st.integers(1, 6))
def test_k0_invariants_match_partition_enumeration(data, n):
    surface, bundles, twist = data
    [res] = chi_product_invariants(surface, range(n, n + 1), bundles, twist)
    expected = oracles.product_invariants_by_blocks(surface, n, bundles, twist)
    assert labelled(res, "blocks=") == {f"blocks={b}": v for b, v in expected.items()}
    assert res.value == sum(expected.values())


# P2 disjoint union P2: a block-diagonal Gram matrix and chi(O) = 2.
UNION = SurfaceModel("P2+P2", ((1, 0), (0, 1)), (-3, -3), 6)


def random_class(rng, surface, kind):
    """A line bundle, a virtual class over the denominator 6, or a rank-0
    class, with small random data."""
    c1 = [rng.randint(-2, 2) for _ in range(surface.picard_rank)]
    if kind == "line":
        return ChernCharacter.line_bundle(c1, surface)
    rank = 0 if kind == "rank0" else Fraction(rng.choice([-7, -2, 3, 5]), 6)
    return ChernCharacter.make(rank, DivisorClass.of([Fraction(x, 3) for x in c1]),
                               Fraction(rng.randint(-5, 5), 6))


def test_decorated_block_sum_matches_typed_dp_and_enumeration():
    rng = random.Random(23)
    # a twist with chi(L) = 0 where the surface has one: O(-1) on P2, O(-1, 2)
    # on P1xP1, O(-H) on the blown-up plane, O(-1) + O(-1) on the union
    zero_chi = {"P2": [-1], "P1xP1": [-1, 2], "P2-blown-up-3": [-1, 0, 0, 0],
                "P2+P2": [-1, -1]}
    for surface in (p2(), p1xp1(), k3(), BLOWUP, UNION):
        chosen = [ChernCharacter.line_bundle(
            [rng.randint(-1, 1) for _ in range(surface.picard_rank)], surface)]
        if surface.name in zero_chi:
            chosen.append(ChernCharacter.line_bundle(zero_chi[surface.name], surface))
            assert hrr_chi(chosen[-1], surface) == 0
        for twist in chosen:
            pool = [random_class(rng, surface, kind)
                    for kind in ("line", "line", "virtual", "rank0")]
            cases = [[rng.choice(pool) for _ in range(rng.randint(1, 5))]
                     for _ in range(3)]
            for bundles in cases:
                # sweeps from n = 1 past k
                ns = range(1, len(bundles) + 3)
                swept = chi_product_invariants(surface, ns, bundles, twist)
                typed = oracles.product_invariants_by_typed_dp(
                    surface, ns, bundles, twist)
                for n, res, by_dp in zip(ns, swept, typed):
                    expected = oracles.product_invariants_by_blocks(
                        surface, n, bundles, twist)
                    assert by_dp == expected
                    assert labelled(res, "blocks=") == {
                        f"blocks={b}": v for b, v in expected.items()}
            # heavy repeats, too many elements to enumerate
            heavy = [pool[2]] * 10 + [pool[3]] * 3 + [pool[0]] * 2
            ns = range(1, 6)
            swept = chi_product_invariants(surface, ns, heavy, twist)
            typed = oracles.product_invariants_by_typed_dp(surface, ns, heavy, twist)
            for res, expected in zip(swept, typed):
                assert labelled(res, "blocks=") == {
                    f"blocks={b}": v for b, v in expected.items()}


@oracle_settings
@given(st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.just(k), st.integers(1, 6), st.integers(0, 3),
    st.lists(st.integers(0, 4), min_size=2 ** k - 1, max_size=2 ** k - 1))))
def test_h_top_matches_partition_enumeration(data):
    k, n, q, values = data
    subsets = [frozenset(c) for r in range(1, k + 1)
               for c in itertools.combinations(range(1, k + 1), r)]
    h2 = dict(zip(subsets, values))
    assert (top_cohomology_dim(k, range(n, n + 1), h2, q)
            == [oracles.top_cohomology_by_enumeration(k, n, h2, q)])


def breakdown(result):
    return [(t.label, t.coefficient, t.factors) for t in result.terms]


@oracle_settings
@given(with_data(lambda s: virtual_bundles(s, 3, 3)), st.integers(3, 6))
def test_triple_matches_classes_built_per_factor(data, n):
    surface, bundles, twist = data
    [res] = chi_taut_triple(surface, range(n, n + 1), *bundles, twist)
    expected = oracles.chi_taut_triple_by_classes(surface, n, *bundles, twist)
    assert breakdown(res) == breakdown(expected)
    assert res.value == expected.value


@oracle_settings
@given(surfaces.flatmap(lambda s: st.tuples(
    st.just(s), virtual_bundles(s, 1, 4), virtual_bundles(s, 1, 4))))
def test_hom_pair_matches_classes_built_per_factor(data):
    surface, source, target = data
    res = chi_hom_pair_two(surface, source, target)
    expected = oracles.chi_hom_pair_two_by_classes(surface, source, target)
    assert breakdown(res) == breakdown(expected)
    assert res.value == expected.value


# Coprime denominators, zero and negative ranks and zero coordinates, so that
# a lost or doubled denominator factor cannot cancel.
coprime_rationals = st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 7, 11, 13]))


def coprime_classes(surface):
    rank = surface.picard_rank
    c1 = st.one_of(st.just([0] * rank),
                   st.lists(coprime_rationals, min_size=rank, max_size=rank))
    return st.builds(lambda c0, c, c2: ChernCharacter.make(c0, DivisorClass.of(c), c2),
                     st.one_of(st.sampled_from([0, -1, -2]), coprime_rationals),
                     c1, coprime_rationals)


def integer_vectors(surface):
    size = surface.picard_rank + 2
    return st.tuples(st.one_of(st.just((0,) * size),
                               st.lists(st.integers(-50, 50), min_size=size,
                                        max_size=size).map(tuple)),
                     st.sampled_from([1, 2, 7, 11, 13, 77]))


@settings(max_examples=200, deadline=None)
@given(surfaces.flatmap(lambda s: st.tuples(
    st.just(s), coprime_classes(s), integer_vectors(s), coprime_classes(s))))
def test_integer_class_product_matches_fraction_oracle(data):
    surface, y, (numerators, e), x = data
    times_y = ClassMultiplier(y, surface)
    got = times_y(numerators)
    assert all(type(v) is int for v in got)
    expected = oracles.fraction_class_product(
        y, surface, tuple(Fraction(v, e) for v in numerators))
    assert tuple(Fraction(v, times_y.den * e) for v in got) == expected
    # chi(. y) as an integer form in lowest terms over its denominator
    form, den = chi_functional(y, surface)
    assert den > 0 and all(type(v) is int for v in form)
    assert Fraction(sum(a * b for a, b in zip(form, ch_coords(x))), den) == \
        hrr_chi(ch_tensor(x, y, surface), surface)


@settings(max_examples=200, deadline=None)
@given(surfaces.flatmap(lambda s: st.tuples(
    st.just(s), st.one_of(coprime_classes(s), integer_vectors(s)),
    integer_vectors(s), integer_vectors(s))))
def test_adjoint_is_the_form_of_the_product(data):
    # u(y.x) = (y* u)(x) for the adjoint y* of the multiplication by y, with
    # y a virtual class (zero and negative ranks among them) or raw
    # coordinates, and u a form and x a class as integer numerators
    surface, y, (u, _), (x, _) = data
    times_y = ClassMultiplier(y, surface)
    adjoint = times_y.adjoint(u)
    assert len(adjoint) == len(u) and all(type(v) is int for v in adjoint)
    assert (sum(map(operator.mul, u, times_y(x)))
            == sum(map(operator.mul, adjoint, x)))


@settings(max_examples=200, deadline=None)
@given(surfaces.flatmap(lambda s: st.tuples(
    st.just(s), coprime_classes(s), coprime_classes(s), coprime_classes(s))),
    st.integers(1, 6))
def test_kernel_on_raw_coordinates_matches_fraction_ring(data, m):
    surface, x, y, z = data

    def raw(c):
        """Coordinates of c over m times their least denominator."""
        v, d = scaled_coords(c)
        return tuple(m * a for a in v), m * d

    def value(cls):
        return tuple(Fraction(a, cls[1]) for a in cls[0])

    xy = ClassMultiplier(raw(y), surface).times(raw(x))
    assert value(xy) == ch_coords(ch_tensor(x, y, surface))
    assert value(dual_coords(raw(x))) == ch_coords(ch_dual(x))
    assert value(unit_coords(surface)) == ch_coords(ChernCharacter.unit(surface))
    assert class_coords(x, surface) == scaled_coords(x)
    # chi(. y) on raw coordinates is the same form in lowest terms
    assert chi_functional(raw(y), surface) == chi_functional(y, surface)
    form, den = chi_functional(xy, surface)
    assert Fraction(sum(a * b for a, b in zip(form, ch_coords(z))), den) == \
        hrr_chi(ch_tensor(z, ch_tensor(x, y, surface), surface), surface)


def test_integer_sym_cotangent_matches_fraction_reference():
    for surface in SURFACES:
        for m in range(80):
            coords, den = euler._sym_cotangent_coords(m, surface)
            assert den == 12 and all(type(v) is int for v in coords)
            assert (tuple(Fraction(v, den) for v in coords)
                    == ch_coords(ch_sym_cotangent(m, surface)))


def test_raw_coordinates_of_the_wrong_length_rejected():
    with pytest.raises(ValueError, match="picard rank"):
        ClassMultiplier(((1, 0, 0, 0), 1), p2())
    with pytest.raises(ValueError, match="picard rank"):
        chi_functional(((1, 0), 1), p2())


def _refuse(*args, **kwargs):
    raise AssertionError("a production formula used the Fraction ring")


def _every_formula(surface, line, twist, virtual):
    """Each formula of `euler` once, on fractional virtual classes where the
    formula admits them and on a line-bundle class where it needs one."""
    a, b = virtual
    chi_taut(surface, range(1, 4), a, twist)
    chi_taut_product_two(surface, [a, b, line], twist)
    chi_product_invariants(surface, range(3, 4), [a, a, b, line], twist)
    chi_hom_pair_two(surface, [a, line], [b, a, line])
    chi_taut_triple(surface, range(4, 5), a, b, line, twist)
    for k in range(1, 5):
        chi_sym_power_two(surface, line, k, twist)
        chi_ext_power_two(surface, line, k, twist)
    top_cohomology_dim(2, range(3, 4), {frozenset({1}): 1, frozenset({2}): 2,
                                        frozenset({1, 2}): 3}, 1)
    global_sections_dim([2, 3], range(2, 3))


def test_formulas_use_only_the_integer_kernel(monkeypatch):
    cases = []
    for surface in SURFACES:
        p = surface.picard_rank
        line = ChernCharacter.line_bundle([(-1) ** i * (i + 1) for i in range(p)],
                                          surface)
        twist = ChernCharacter.line_bundle([1] + [0] * (p - 1), surface)
        virtual = (ChernCharacter.make(Fraction(-3, 2), [Fraction(1, 3)] * p,
                                       Fraction(5, 7)),
                   ChernCharacter.make(0, [Fraction(-2, 5)] + [1] * (p - 1),
                                       Fraction(-1, 2)))
        cases.append((surface, line, twist, virtual))
    for name in ("ch_tensor", "ch_tensor_all", "hrr_chi", "ch_sym_cotangent"):
        fn = getattr(surface_module, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "tautchi" or mod_name.startswith("tautchi."):
                for attr, bound in list(vars(mod).items()):
                    if bound is fn:
                        monkeypatch.setattr(mod, attr, _refuse)
    monkeypatch.setattr(SurfaceModel, "pair", _refuse)
    assert tautchi.hrr_chi is _refuse
    for case in cases:
        _every_formula(*case)


def all_fractions(result):
    return (type(result.value) is Fraction
            and all(type(t.coefficient) is Fraction
                    and all(type(f) is Fraction for f in t.factors)
                    for t in result.terms))


@oracle_settings
@given(surfaces.flatmap(lambda s: st.tuples(
    st.just(s), st.lists(coprime_classes(s), min_size=1, max_size=4),
    st.lists(coprime_classes(s), min_size=1, max_size=3), twists(s))),
    st.integers(1, 4))
def test_sums_with_coprime_denominators_match_enumeration(data, n):
    surface, source, target, twist = data
    two = chi_taut_product_two(surface, source, twist)
    assert labelled(two, "|P|=") == {
        f"|P|={r}": v for r, v in
        oracles.two_point_main_by_size(surface, source, twist).items()}
    [inv] = chi_product_invariants(surface, range(n, n + 1), source + source[:1],
                                   twist)
    assert labelled(inv, "blocks=") == {
        f"blocks={b}": v for b, v in oracles.product_invariants_by_blocks(
            surface, n, source + source[:1], twist).items()}
    hom = chi_hom_pair_two(surface, source, target)
    assert breakdown(hom) == breakdown(
        oracles.chi_hom_pair_two_by_classes(surface, source, target))
    [triple] = chi_taut_triple(surface, range(3, 4), *(source * 3)[:3], twist)
    assert breakdown(triple) == breakdown(
        oracles.chi_taut_triple_by_classes(surface, 3, *(source * 3)[:3], twist))
    assert all(map(all_fractions, (two, inv, hom, triple)))
