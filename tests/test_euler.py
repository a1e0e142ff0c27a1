"""The Euler characteristic engine against its independent oracles."""

import itertools
import json
import random
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import hom_coeff_pair, stirling2
from tautchi import cli, complexes, euler
from tautchi import surface as surface_module
from tautchi.euler import (ChiResult, Term, chi_ext_power_two,
                           chi_hom_pair_two, chi_product_invariants,
                           chi_sym_power_two, chi_taut, chi_taut_product_two,
                           chi_taut_triple, global_sections_dim,
                           top_cohomology_dim)
from tautchi.surface import (ChernCharacter, DivisorClass, hrr_chi, k3, p1xp1, p2,
                             sym_pow_chi)

P2 = p2()
K3 = k3()
QUADRIC = p1xp1()

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=3)


def chern_on(surface):
    rank = surface.picard_rank
    return st.builds(
        lambda c0, c1, c2: ChernCharacter.make(c0, DivisorClass.of(c1), c2),
        rationals, st.lists(rationals, min_size=rank, max_size=rank), rationals)


def o_line(surface, coords):
    return ChernCharacter.line_bundle(coords, surface)


def unit(surface):
    return ChernCharacter.unit(surface)


def at(n):
    """The range of n alone."""
    return range(n, n + 1)


def random_chern(rng, surface):
    rank = surface.picard_rank
    r = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return ChernCharacter.make(r(), DivisorClass.of([r() for _ in range(rank)]), r())


# --- single bundle with determinant twist ----------------------------------------

def test_chi_taut_values():
    assert chi_taut(P2, range(1, 3), o_line(P2, [1]), unit(P2)) == [3, 3]
    assert chi_taut(P2, range(1, 6), unit(P2), unit(P2)) == [1] * 5
    # on a K3 the twist-only factor grows
    assert chi_taut(K3, range(1, 6), unit(K3), unit(K3)) == [2, 4, 6, 8, 10]
    assert chi_taut(K3, at(4), unit(K3), unit(K3)) == [8]
    for ns in (range(0, 3), range(2, 2), range(3, 0, -1)):
        with pytest.raises(ValueError, match="ascending range of n >= 1"):
            chi_taut(P2, ns, unit(P2), unit(P2))


def test_chi_taut_requires_line_bundle_twist():
    with pytest.raises(ValueError, match="line bundle"):
        chi_taut(P2, at(2), unit(P2), ChernCharacter.make(2, [0], 0))


# --- two-point products ------------------------------------------------------------

def test_product_two_structure_sheaf_pair():
    res = chi_taut_product_two(P2, [unit(P2), unit(P2)])
    assert res.value == 1
    labels = [t.label for t in res.terms]
    assert labels == ["|P|=1", "|P|=2", "diag ell=1"]


def test_product_two_line_bundle_pairs():
    e = o_line(P2, [1])
    res = chi_taut_product_two(P2, [e, e])
    # splits 3*3 and 6*1 minus one diagonal term chi(O(2)) = 6
    assert res.value == 9
    # twisted by O(1): splits chi(O(2))^2 and chi(O(3))chi(O(1)), diagonal
    # term chi(O(2) (x) O(1)^2) = chi(O(4)) = 15
    res_twisted = chi_taut_product_two(P2, [e, e], o_line(P2, [1]))
    assert res_twisted.value == (6 * 6 + 10 * 3) - 1 * 15


@given(chern_on(P2), st.integers(-3, 3))
def test_product_two_single_factor_reduces_to_chi_taut(e, d):
    twist = o_line(P2, [d])
    assert (chi_taut_product_two(P2, [e], twist).value
            == chi_taut(P2, at(2), e, twist)[0])


@given(st.lists(chern_on(P2), min_size=2, max_size=4))
def test_product_two_permutation_invariance(bundles):
    base = chi_taut_product_two(P2, bundles).value
    rng = random.Random(7)
    shuffled = bundles[:]
    rng.shuffle(shuffled)
    assert chi_taut_product_two(P2, shuffled).value == base
    assert chi_taut_product_two(P2, list(reversed(bundles))).value == base


@pytest.mark.parametrize("surface,ycoords,lcoords", [
    (P2, [1], [0]), (QUADRIC, [1, -1], [0, 1]), (K3, [-1], [1]),
])
def test_product_two_thirty_copies_of_one_line_bundle(surface, ycoords, lcoords):
    # With E_t = y for all t the subsets of size r contribute
    # C(k-1, r-1) chi(y^r L) chi(y^(k-r) L), with y^r the line bundle r*c1(y).
    k = 30
    y = o_line(surface, ycoords)
    tw = o_line(surface, lcoords)
    res = chi_taut_product_two(surface, [y] * k, tw)

    def chi_power(r):
        return hrr_chi(o_line(surface, [r * a + b for a, b in zip(ycoords, lcoords)]),
                       surface)

    main = {t.label: t.value for t in res.terms if t.label.startswith("|P|=")}
    assert main == {f"|P|={r}": comb(k - 1, r - 1) * chi_power(r) * chi_power(k - r)
                    for r in range(1, k + 1)}
    assert res.value.denominator == 1


def test_term_breakdown_recombines():
    res = chi_taut_product_two(P2, [o_line(P2, [1]), o_line(P2, [2])])
    assert sum(t.value for t in res.terms) == res.value
    with pytest.raises(ArithmeticError):
        ChiResult(res.value + 1, res.terms)
    with pytest.raises(ArithmeticError):
        ChiResult(Fraction(1), (Term("x", Fraction(2), (Fraction(1),)),))


def test_term_product_formed_once():
    # the value and the recombination check at construction share one
    # product per term
    res = chi_taut_product_two(P2, [o_line(P2, [1]), o_line(P2, [2])])
    assert all("value" in vars(t) for t in res.terms)
    assert all(t.value is t.value for t in res.terms)
    assert Term("x", Fraction(-2), ()).value == -2


EXACT = st.fractions(min_value=-60, max_value=60, max_denominator=48)


@given(st.lists(st.tuples(EXACT, st.lists(EXACT, max_size=4)), max_size=8))
def test_term_values_and_sums_equal_the_fraction_reference(drawn):
    # the integer assembly against Fraction products and a Fraction sum
    terms = [Term(f"t{i}", c, tuple(fs)) for i, (c, fs) in enumerate(drawn)]
    reference = []
    for c, fs in drawn:
        for f in fs:
            c *= f
        reference.append(c)
    assert [t.value for t in terms] == reference
    assert all(type(t.value) is Fraction for t in terms)
    total = sum(reference, Fraction(0))
    assert euler.fraction_sum(t.value for t in terms) == total
    assert euler.fraction_sum(reference) == total
    assert euler._result(terms).value == total
    assert ChiResult(total, tuple(terms)).value == total
    with pytest.raises(ArithmeticError):
        ChiResult(total + Fraction(1, 7), tuple(terms))


# --- ambient invariants -------------------------------------------------------------

def test_product_invariants_single_bundle_is_chi_taut():
    rng = random.Random(5)
    for n in (1, 2, 3, 5):
        e = random_chern(rng, P2)
        tw = o_line(P2, [rng.randint(-2, 2)])
        assert ([r.value for r in chi_product_invariants(P2, range(1, n + 1), [e], tw)]
                == chi_taut(P2, range(1, n + 1), e, tw))


@pytest.mark.parametrize("surface", [P2, QUADRIC, K3])
def test_sweeps_equal_their_single_n_values(surface):
    # one evaluation per range: block sums up to the largest n, truncated
    # at each n, and the eight triple classes formed once
    rng = random.Random(surface.picard_rank + 41)
    e = [random_chern(rng, surface) for _ in range(3)]
    tw = o_line(surface, [rng.randint(-2, 2) for _ in range(surface.picard_rank)])
    ns = range(3, 10)
    assert chi_taut_triple(surface, ns, *e, tw) == [
        chi_taut_triple(surface, at(n), *e, tw)[0] for n in ns]
    bundles = [e[0], e[1], e[0], e[2], e[1], e[0]]
    ns = range(1, 9)
    swept = chi_product_invariants(surface, ns, bundles, tw)
    assert swept == [chi_product_invariants(surface, at(n), bundles, tw)[0]
                     for n in ns]
    assert [len(r.terms) for r in swept] == [1, 2, 3, 4, 5, 6, 6, 6]
    assert chi_taut(surface, ns, e[0], tw) == [
        chi_taut(surface, at(n), e[0], tw)[0] for n in ns]
    # empty or descending: a descending range would read its last n as the
    # largest and form the block sums only up to it
    for bad in (range(3, 3), range(5, 1), range(6, 2, -1)):
        with pytest.raises(ValueError, match="ascending range of n >= 3"):
            chi_taut_triple(surface, bad, *e, tw)
        with pytest.raises(ValueError, match="ascending range of n >= 1"):
            chi_product_invariants(surface, bad, bundles, tw)
    assert chi_product_invariants(surface, range(1, 9, 3), bundles, tw) == [
        swept[0], swept[3], swept[6]]
    with pytest.raises(ValueError, match="n >= 3"):
        chi_taut_triple(surface, range(2, 5), *e, tw)
    with pytest.raises(ValueError, match="n >= 1"):
        chi_product_invariants(surface, range(0, 3), bundles, tw)


def frame_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_block_sums_stack_depth_does_not_grow_with_copies():
    # 4095 copies of O(1) at n = 2 are inside the k0_invariants budget; a
    # recursion over the leftover multisets would nest 4095 calls, and a sum
    # over the sub-multisets of each of the 4096 states would run for
    # minutes.  The decorated-block sum runs in a fixed stack depth and in
    # time polynomial in the copies.
    k = 4095
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 60)
    try:
        [res] = chi_product_invariants(P2, at(2), [o_line(P2, [1])] * k)
    finally:
        sys.setrecursionlimit(limit)

    def chi(d):  # chi(O(d)) on the plane
        return (d + 1) * (d + 2) // 2

    pairs = sum(comb(k, a) * chi(a) * chi(k - a) for a in range(1, k)) // 2
    assert [t.value for t in res.terms] == [chi(k), pairs]


def test_product_invariants_counts_partitions_for_trivial_bundles():
    for k in (1, 2, 3, 4):
        for n in (1, 2, 3, 4, 6):
            [res] = chi_product_invariants(P2, at(n), [unit(P2)] * k)
            expected = sum(stirling2(k, m) for m in range(1, min(k, n) + 1))
            assert res.value == expected


def test_product_invariants_has_one_term_per_block_count():
    [res] = chi_product_invariants(P2, at(3), [unit(P2)] * 3)
    assert [t.label for t in res.terms] == ["blocks=1", "blocks=2", "blocks=3"]
    # S(3, b) set partitions of weight 1 each, all points used or S^j chi(O) = 1
    assert [t.factors for t in res.terms] == [(1, 1), (3, 1), (1, 1)]
    assert len(chi_product_invariants(P2, at(2), [unit(P2)] * 3)[0].terms) == 2


def test_product_invariants_n2_matches_product_two_main_term():
    rng = random.Random(31)
    for k in (1, 2, 3):
        bundles = [random_chern(rng, P2) for _ in range(k)]
        tw = o_line(P2, [rng.randint(-1, 1)])
        inv = chi_product_invariants(P2, at(2), bundles, tw)[0].value
        full = chi_taut_product_two(P2, bundles, tw)
        main = sum(t.value for t in full.terms if t.label.startswith("|P|="))
        assert inv == main


# --- symmetric and exterior powers ---------------------------------------------------

def test_sym_power_k1_is_chi_taut():
    for surface, coords in [(P2, [2]), (K3, [1]), (QUADRIC, [1, 2])]:
        e = o_line(surface, coords)
        tw = o_line(surface, [0] * surface.picard_rank)
        [taut] = chi_taut(surface, at(2), e, tw)
        assert chi_sym_power_two(surface, e, 1, tw) == taut
        assert chi_ext_power_two(surface, e, 1, tw) == taut


@pytest.mark.parametrize("surface,ecoords,lcoords", [
    (P2, [0], [0]), (P2, [1], [0]), (P2, [2], [1]), (P2, [-1], [1]),
    (QUADRIC, [1, 1], [0, 0]), (QUADRIC, [2, 1], [1, 0]),
    (K3, [1], [0]), (K3, [2], [1]),
])
def test_square_decomposition(surface, ecoords, lcoords):
    e = o_line(surface, ecoords)
    tw = o_line(surface, lcoords)
    total = chi_taut_product_two(surface, [e, e], tw).value
    sym = chi_sym_power_two(surface, e, 2, tw)
    ext = chi_ext_power_two(surface, e, 2, tw)
    assert sym + ext == total
    assert sym.denominator == 1 and ext.denominator == 1


def test_exterior_powers_vanish_above_rank():
    for k in (3, 4):
        assert chi_ext_power_two(P2, o_line(P2, [1]), k) == 0
        assert chi_ext_power_two(K3, o_line(K3, [1]), k) == 0


def test_sym_power_examples():
    # S^2 for the trivial bundle: ambient 2, one diagonal correction chi(O) = 1
    assert chi_sym_power_two(P2, unit(P2), 2) == 1
    assert chi_sym_power_two(P2, o_line(P2, [1]), 2) == 6


def test_sym_power_rejects_higher_rank():
    with pytest.raises(ValueError, match="line bundle"):
        chi_sym_power_two(P2, ChernCharacter.make(2, [0], 0), 2)


def test_powers_build_no_complex(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a production formula built a complex")

    monkeypatch.setattr(complexes, "build_complex", refuse)
    monkeypatch.setattr(complexes, "group_invariant_dim", refuse)
    for surface, coords, lcoords in [(P2, [1], [1]), (K3, [1], [0]),
                                     (QUADRIC, [1, 2], [0, 1])]:
        e, tw = o_line(surface, coords), o_line(surface, lcoords)
        for k in range(1, 8):
            assert chi_sym_power_two(surface, e, k, tw).denominator == 1
        for k in range(1, 7):
            ext = chi_ext_power_two(surface, e, k, tw)
            assert ext.denominator == 1 and (k <= 2 or ext == 0)
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({
        "surface": {"preset": "P2"},
        "bundles": [{"name": "O1", "rank": 1, "c1": [1], "c2": 0}],
        "jobs": [{"id": "s", "kind": "sym_power_two", "bundle": "O1", "k": 7}]}))
    assert cli.run(str(path)) == cli.EXIT_OK
    assert "ERROR" not in capsys.readouterr().out


# --- Hom pairings ---------------------------------------------------------------------

def test_hom_pair_fixture():
    res = chi_hom_pair_two(P2, [unit(P2)], [unit(P2)])
    assert res.value == 2
    # hand-recomputable pieces: main 2, into-diag 1, from-diag chi(O(3)) = 10,
    # diag-diag c+ = 1 on 1 + 10 and c- = 0
    main = sum(t.value for t in res.terms if t.label.startswith("|P|="))
    assert main == 2
    assert [t.label for t in res.terms][:2] == ["|P|=1,|Q|=0", "|P|=1,|Q|=1"]


def test_hom_pair_builds_each_diagonal_class_once(monkeypatch):
    calls = []
    build = euler._sym_cotangent_coords
    monkeypatch.setattr(euler, "_sym_cotangent_coords",
                        lambda m, surface: calls.append(m) or build(m, surface))
    source = [o_line(P2, [d]) for d in (1, -1, 2, 0)]
    target = [o_line(P2, [d]) for d in (0, 3, -2, 1)]
    chi_hom_pair_two(P2, source, target)
    # O(k + khat) cotangent powers, not one pair per (ell, ellhat)
    assert 0 < len(calls) <= len(source) + len(target)


def test_hom_pair_forms_the_target_side_once(monkeypatch):
    steps = []
    step = euler._split_step
    monkeypatch.setattr(euler, "_split_step",
                        lambda graded, y: steps.append(y) or step(graded, y))
    source = [o_line(P2, [d]) for d in (1, -1, 2, 0)]
    target = [o_line(P2, [d]) for d in (0, 3, -2)]
    chi_hom_pair_two(P2, source, target)
    # k - 1 source steps and khat target steps, not k - 1 + k * khat
    assert len(steps) == (len(source) - 1) + len(target)


def test_hom_pair_forms_its_coefficient_counts_once(monkeypatch):
    calls = []
    monkeypatch.setattr(euler, "comb", lambda n, r: calls.append((n, r)) or comb(n, r))
    source = [o_line(P2, [d]) for d in (1, -1, 2, 0, 1, 3)]
    target = [o_line(P2, [d]) for d in (0, 3, -2, 1, -1)]
    value = chi_hom_pair_two(P2, source, target)
    # one row of binomials per side for the surviving counts and one for the
    # diagonal weights: 2 (k + khat) binomials, not O(k khat (k + khat))
    assert len(calls) == 2 * (len(source) + len(target))
    assert value == oracles.chi_hom_pair_two_by_classes(P2, source, target)


def test_hom_pair_forms_its_surface_forms_once(monkeypatch):
    surface = p2()  # a model of its own, on which nothing is formed yet
    built = []
    for module in (surface_module, euler):
        for name in ("chi_functional", "ch_tangent"):
            if hasattr(module, name):
                fn = getattr(module, name)
                monkeypatch.setattr(
                    module, name,
                    lambda *args, fn=fn, name=name: built.append(name) or fn(*args))
    chi_hom_pair_two(surface, [o_line(surface, [1])], [unit(surface)])
    assert built.count("chi_functional") == 4
    built.clear()
    chi_hom_pair_two(surface, [o_line(surface, [2]), unit(surface)],
                     [o_line(surface, [-1])])
    assert built == []


def test_hom_coeff_pair_values():
    from math import comb

    from tautchi.complexes import surviving_count
    assert hom_coeff_pair(1, 1, 1, 1) == (1, 0)
    for (k, khat, ell, ellhat) in [(3, 2, 1, 1), (3, 3, 2, 1), (4, 2, 2, 2)]:
        c_plus, c_minus = hom_coeff_pair(k, khat, ell, ellhat)
        assert c_plus - c_minus == comb(k - 1, ell - 1) * comb(khat - 1, ellhat - 1)
        assert c_plus + c_minus == surviving_count(k, ell) * surviving_count(khat, ellhat)


def test_block_counts_give_the_closed_forms():
    # the block derivation of the two-point coefficients: surviving_count
    # counts the blocks R(m, ell) with m >= ell, diagonal_multiplicity those
    # with m - ell odd as well, and the parity identity links the two
    for k in range(1, 40):
        for ell in range(1, k + 1):
            surviving = euler.surviving_count(k, ell)
            odd = sum(comb(k, m) for m in range(ell + 1, k + 1, 2))
            assert surviving == sum(comb(k, m) for m in range(ell, k + 1)), (k, ell)
            assert 2 * odd == surviving - comb(k - 1, ell - 1), (k, ell)
            assert odd == euler.diagonal_multiplicity(k, ell), (k, ell)


def test_hom_pair_integrality_on_line_bundles():
    rng = random.Random(23)
    for _ in range(8):
        src = [o_line(P2, [rng.randint(-2, 2)]) for _ in range(rng.randint(1, 2))]
        tgt = [o_line(P2, [rng.randint(-2, 2)]) for _ in range(rng.randint(1, 2))]
        val = chi_hom_pair_two(P2, src, tgt).value
        assert val.denominator == 1


def test_hom_pair_self_is_symmetric_in_arguments_swap():
    # no symmetry is asserted between the two sides; only well-definedness
    a = chi_hom_pair_two(P2, [o_line(P2, [1])], [o_line(P2, [2])]).value
    b = chi_hom_pair_two(P2, [o_line(P2, [2])], [o_line(P2, [1])]).value
    assert a.denominator == 1 and b.denominator == 1


# --- triple products -------------------------------------------------------------------

def test_triple_fixtures():
    assert chi_taut_triple(P2, at(3), unit(P2), unit(P2), unit(P2))[0].value == 1
    assert chi_taut_triple(K3, at(3), unit(K3), unit(K3), unit(K3))[0].value == 38


def test_triple_grouped_form_agrees_with_nine_terms():
    rng = random.Random(99)
    for _ in range(50):
        surface = rng.choice([P2, K3, QUADRIC])
        e1, e2, e3 = (random_chern(rng, surface) for _ in range(3))
        n = rng.randint(3, 6)
        [nine] = [r.value for r in chi_taut_triple(surface, at(n), e1, e2, e3)]
        grouped = oracles.chi_taut_triple_grouped(surface, n, e1, e2, e3)
        assert nine == grouped


def test_triple_requires_three_points():
    with pytest.raises(ValueError, match="n >= 3"):
        chi_taut_triple(P2, at(2), unit(P2), unit(P2), unit(P2))


def test_triple_symmetric_in_bundles():
    rng = random.Random(4)
    e1, e2, e3 = (random_chern(rng, P2) for _ in range(3))
    tw = o_line(P2, [1])
    def values(*e):
        return [r.value for r in chi_taut_triple(P2, range(3, 6), *e, tw)]
    base = values(e1, e2, e3)
    assert values(e3, e1, e2) == base
    assert values(e2, e1, e3) == base


def test_triple_n_dependence_through_sym_factors_only():
    # constant in n when all chi factors of the twist are 1
    vals = [r.value for r in chi_taut_triple(P2, range(3, 7), unit(P2), unit(P2),
                                             unit(P2))]
    assert vals == [1, 1, 1, 1]


# --- dimension formulas -----------------------------------------------------------------

def test_top_cohomology_single_bundle_matches_graded_oracle():
    # k = 1: h2 * dim S^(n-1) of a q-dimensional even space
    for q in (0, 1, 2, 3):
        for n in (1, 2, 3, 4):
            [got] = top_cohomology_dim(1, at(n), {frozenset({1}): 5}, q)
            assert got == 5 * oracles.graded_sym_chi_oracle([(2, q)], n - 1)


def test_top_cohomology_errors_and_zero():
    assert top_cohomology_dim(2, at(2), {frozenset({1}): 0, frozenset({2}): 0,
                                         frozenset({1, 2}): 0}, 3) == [0]
    with pytest.raises(ValueError, match="missing top-cohomology value"):
        top_cohomology_dim(2, at(2), {frozenset({1}): 1}, 0)
    for bad in (range(2, 2), range(3, 0, -1)):
        with pytest.raises(ValueError, match="ascending range of n >= 1"):
            top_cohomology_dim(2, bad, {frozenset({1}): 1}, 0)


def test_top_cohomology_n1():
    assert top_cohomology_dim(3, at(1), {frozenset({1, 2, 3}): 7}, 9) == [7]


def all_subsets(k):
    return [frozenset(c) for r in range(1, k + 1)
            for c in itertools.combinations(range(1, k + 1), r)]


def top_cohomology_by_typed_dp(k, n, h2, q):
    """The typed multiset DP (`oracles.typed_block_sums`) with k types of
    multiplicity 1."""
    def weight(beta):
        return h2[frozenset(t for t, inside in enumerate(beta, 1) if inside)]
    sums = oracles.typed_block_sums([1] * k, weight, n)
    return sum(g * int(sym_pow_chi(n - b, q)) for b, g in enumerate(sums))


def test_top_cohomology_subset_dp_matches_typed_dp_and_enumeration():
    rng = random.Random(17)
    for k in range(1, 9):
        for n in range(1, k + 2):
            q = rng.randint(0, 3)
            # zero and negative block values, so that no cancellation hides
            h2 = {s: rng.choice([0, 0, 1, 2, 5, -1, -3]) for s in all_subsets(k)}
            [got] = top_cohomology_dim(k, at(n), h2, q)
            assert got == top_cohomology_by_typed_dp(k, n, h2, q)
            if k <= 6 or n in (2, k):
                assert got == oracles.top_cohomology_by_enumeration(k, n, h2, q)


MISSING_SUBSET = [
    # (k, n, present keys, the subset the error names)
    (3, 2, [{1, 2, 3}], "{3}"),
    (2, 2, [{1}], "{2}"),
    (2, 2, [{1}, {2}], "{1,2}"),
    (4, 3, [{4}, {3}, {3, 4}, {2}, {2, 3}, {1, 2, 3, 4}], "{2,4}"),
    (4, 2, [s for s in all_subsets(4) if s != {1}], "{1}"),
    (3, 1, [{1}, {2}, {3}], "{1,2,3}"),
]


@pytest.mark.parametrize("k,n,present,named", MISSING_SUBSET)
def test_top_cohomology_missing_subset_named_in_mask_order(k, n, present, named):
    # element t is bit k - t, and the first absent subset in increasing mask
    # order is the one named: {4}, {3}, {3,4}, {2}, {2,4}, ... for k = 4
    h2 = {frozenset(s): 1 for s in present}
    with pytest.raises(ValueError) as exc:
        top_cohomology_dim(k, at(n), h2, 0)
    assert str(exc.value) == f"missing top-cohomology value for subset {named}"


def test_top_cohomology_sweep_equals_its_single_n_values():
    rng = random.Random(29)
    for k in range(1, 6):
        h2 = {s: rng.choice([0, 1, 2, 5, -1]) for s in all_subsets(k)}
        for first, last in ((1, 1), (1, 7), (2, 6), (4, 4)):
            q = rng.randint(0, 3)
            assert top_cohomology_dim(k, range(first, last + 1), h2, q) == [
                top_cohomology_dim(k, at(n), h2, q)[0]
                for n in range(first, last + 1)]


@pytest.mark.parametrize("first,named", [(1, "{1,2,3}"), (2, "{3}")])
def test_top_cohomology_sweep_fails_as_its_first_failing_n(first, named):
    # at n = 1 only the whole set is looked up, at n >= 2 every subset in
    # mask order: a sweep names the subset that its first n alone names
    h2 = {frozenset({1}): 1, frozenset({2}): 1}
    with pytest.raises(ValueError) as exc:
        top_cohomology_dim(3, range(first, 5), h2, 1)
    assert str(exc.value) == f"missing top-cohomology value for subset {named}"


def test_top_cohomology_ignores_unused_keys():
    h2 = {frozenset({1}): 1, frozenset({2}): 2, frozenset({1, 2}): 3}
    # partitions {1}{2} and {12}: 1*2*S^0(1) + 3*S^1(1) = 5
    assert top_cohomology_dim(2, at(2), h2, 1) == [5]
    extra = {**h2, frozenset({5}): 7, frozenset({1, 5}): 4, frozenset({0}): 2,
             frozenset(): 9}
    assert top_cohomology_dim(2, range(1, 3), extra, 1) == [3, 5]


def test_global_sections_dim():
    assert global_sections_dim([2, 3], at(2)) == [6]
    assert global_sections_dim([2, 0, 5], range(3, 6)) == [0, 0, 0]
    assert global_sections_dim([4], range(1, 4)) == [4, 4, 4]
    for ns in (at(2), range(2, 5), range(3, 3), range(4, 1, -1)):
        with pytest.raises(ValueError, match="ascending range of n >= 3"):
            global_sections_dim([1, 1, 1], ns)


# --- integrality across engines ----------------------------------------------------------

def test_integer_outputs_on_integral_inputs():
    for surface, coords in [(P2, [2]), (QUADRIC, [1, 3]), (K3, [1])]:
        e = o_line(surface, coords)
        o = unit(surface)
        assert chi_taut_product_two(surface, [e, e, e]).value.denominator == 1
        assert chi_taut_triple(surface, at(3), e, e, o)[0].value.denominator == 1
        assert chi_hom_pair_two(surface, [e], [e, e]).value.denominator == 1
        assert chi_sym_power_two(surface, e, 3).denominator == 1
