"""Acceptance suite: every criterion runs exactly (tolerance zero) and prints
one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import random
from fractions import Fraction
from math import comb

import oracles
from oracles import (act_on_multiindex, diagonal_orbit_reps, orbit_decompose,
                     stirling2)
from tautchi import complexes, euler
from tautchi.surface import (ChernCharacter, DivisorClass, gen_binomial,
                             k3, p1xp1, p2, sym_pow_chi, SurfaceModel)
from tautchi.symgroup import (Permutation, position_sign, product_orbit_reps,
                              sign_on_subset)

P2 = p2()
K3 = k3()


def report(num, description, check):
    try:
        check()
    except AssertionError:
        print(f"ACCEPTANCE {num:02d} [{description}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} [{description}]: PASS")


def test_criterion_01_exactness_suite():
    def check():
        for k in range(1, 8):
            for ell in range(1, k + 1):
                rep = complexes.verify_exactness(complexes.build_complex(k, ell))
                assert rep.passed, (k, ell, rep.cohomology)

    report(1, "complexes exact in degrees >= 0 for k <= 7", check)


def test_criterion_02_kernel_invariant_counts():
    def check():
        for k in range(1, 8):
            for ell in range(1, k + 1):
                brute = complexes.swap_invariant_kernel_dim(
                    complexes.build_complex(k, ell))
                assert brute == complexes.diagonal_multiplicity(k, ell)
            assert complexes.diagonal_multiplicity(k, k) == 0

    report(2, "swap-invariant kernel counts match closed form, k <= 7", check)


def test_criterion_03_dimension_formulas():
    def check():
        for k in range(1, 11):
            for ell in range(1, k + 1):
                alt = 0
                for i in range(0, k - ell + 1):
                    d = complexes.enumerated_dim(k, ell, i)
                    assert d == complexes.expected_dim(k, ell, i), (k, ell, i)
                    alt += d if i % 2 == 0 else -d
                assert alt == complexes.surviving_count(k, ell), (k, ell)

    report(3, "dimension and alternating-count formulas for k <= 10", check)


def test_criterion_04_binomial_identities():
    def check():
        for k in range(1, 21):
            for ell in range(1, k + 1):
                lhs = sum((-1) ** i * 2 ** (k - ell - i) * comb(k, ell + i)
                          * comb(ell + i - 1, ell - 1)
                          for i in range(0, k - ell + 1))
                assert lhs == sum(comb(k, j) for j in range(ell, k + 1)), (k, ell)
        for chi in range(-10, 11):
            for m in range(0, 11):
                assert ((-1) ** m * gen_binomial(-chi, m)
                        == gen_binomial(chi + m - 1, m)), (chi, m)

    report(4, "alternating binomial and reflection identities", check)


def test_criterion_05_slot_invariants_vanish():
    def check():
        for k in range(1, 7):
            for ell in range(1, k + 1):
                cx = complexes.build_complex(k, ell)
                for i in range(1, k - ell + 1):
                    dim = complexes.group_invariant_dim(cx, i, "slot")
                    assert dim == 0, (k, ell, i, dim)

    report(5, "slot invariants vanish in positive degrees, k <= 6", check)


def _random_perm(rng, n):
    img = list(range(1, n + 1))
    rng.shuffle(img)
    return Permutation(tuple(img))


def test_criterion_06_sign_lemmas():
    def check():
        rng = random.Random(271828)
        for _ in range(200):
            n = rng.randint(2, 8)
            mu, sigma = _random_perm(rng, n), _random_perm(rng, n)
            m_set = {x for x in range(1, n + 1) if rng.random() < 0.5} or {1}
            sig_m = {sigma(x) for x in m_set}
            assert (sign_on_subset(mu, sig_m) * sign_on_subset(sigma, m_set)
                    == sign_on_subset(mu * sigma, m_set))
        for _ in range(200):
            n = rng.randint(2, 8)
            sigma = _random_perm(rng, n)
            m_set = {x for x in range(1, n + 1) if rng.random() < 0.5} or {1}
            m = rng.choice(sorted(m_set))
            inv = sigma.inverse()
            pre = {inv(x) for x in m_set}
            assert (position_sign(inv(m), pre) * sign_on_subset(sigma, pre)
                    == position_sign(m, m_set)
                    * sign_on_subset(sigma, pre - {inv(m)}))

    report(6, "composition and removal sign lemmas, 200 random checks each", check)


def test_criterion_07_orbit_enumeration():
    def check():
        import itertools
        for k in range(1, 6):
            for n in range(1, 6):
                reps = product_orbit_reps(k, n)
                expected = sum(stirling2(k, m) for m in range(1, min(k, n) + 1))
                assert len(reps) == expected
                brute = orbit_decompose(
                    n, act_on_multiindex,
                    list(itertools.product(range(1, n + 1), repeat=k)))
                assert len(brute) == len(reps)
        for n in (3, 4, 5):
            assert len(product_orbit_reps(3, n)) == 5
            assert len(diagonal_orbit_reps(3, n, 1)) == 12
            assert len(diagonal_orbit_reps(3, n, 2)) == 3

    report(7, "orbit representative counts match brute force and fixtures", check)


def test_criterion_08_graded_symmetric_powers():
    def check():
        spaces = [
            [(0, 1)], [(1, 1)], [(0, 2), (1, 1)], [(0, 3), (1, 2)],
            [(1, 4)], [(0, 2), (1, 4)], [(2, 3), (1, 1)],
            [(-1, 2), (0, 2), (1, 1)], [(0, 6)], [(1, 6)],
            [(0, 1), (1, 3), (2, 2)],
        ]
        for dims in spaces:
            chi = sum(d * (-1 if p % 2 else 1) for p, d in dims)
            assert abs(chi) <= 6
            for m in range(0, 9):
                assert (oracles.graded_sym_chi_oracle(dims, m)
                        == sym_pow_chi(m, chi)), (dims, m)

    report(8, "graded symmetric power oracle equals closed form", check)


def _random_chern(rng, surface):
    rank = surface.picard_rank
    r = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return ChernCharacter.make(r(), DivisorClass.of([r() for _ in range(rank)]), r())


def test_criterion_09_formula_consistency():
    def check():
        rng = random.Random(314159)
        for _ in range(100):
            surface = rng.choice([P2, K3])
            e = _random_chern(rng, surface)
            tw = ChernCharacter.line_bundle(
                [rng.randint(-2, 2)] * surface.picard_rank, surface)
            assert (euler.chi_taut_product_two(surface, [e], tw).value
                    == euler.chi_taut(surface, range(2, 3), e, tw)[0])
        for _ in range(50):
            surface = rng.choice([P2, K3, p1xp1()])
            e1, e2, e3 = (_random_chern(rng, surface) for _ in range(3))
            n = rng.randint(3, 6)
            assert (euler.chi_taut_triple(surface, range(n, n + 1), e1, e2, e3)[0].value
                    == oracles.chi_taut_triple_grouped(surface, n, e1, e2, e3))
        for k in (1, 2, 3):
            bundles = [_random_chern(rng, P2) for _ in range(k)]
            tw = ChernCharacter.line_bundle([rng.randint(-1, 1)], P2)
            [inv] = euler.chi_product_invariants(P2, range(2, 3), bundles, tw)
            full = euler.chi_taut_product_two(P2, bundles, tw)
            main = {t.label: t.value for t in full.terms
                    if t.label.startswith("|P|=")}
            assert inv.value == sum(main.values())
            # one block is the split P = [k]; two blocks are the proper splits
            by_blocks = {t.label: t.value for t in inv.terms}
            assert by_blocks["blocks=1"] == main[f"|P|={k}"]
            assert by_blocks.get("blocks=2", 0) == sum(
                main[f"|P|={r}"] for r in range(1, k))

    report(9, "single-bundle, triple-regrouping, and ambient-term identities", check)


def test_criterion_10_worked_fixtures():
    def check():
        o_p2 = ChernCharacter.unit(P2)
        o_k3 = ChernCharacter.unit(K3)
        # recomputed term-by-term through the Riemann-Roch oracle: the
        # two-point pair of trivial bundles gives 1*1 + 1*1 for the splits
        # minus the single diagonal term chi(O) = 1
        assert euler.chi_taut_product_two(P2, [o_p2, o_p2]).value == 1
        assert euler.chi_taut_triple(P2, range(3, 4), o_p2, o_p2, o_p2)[0].value == 1
        assert euler.chi_taut_triple(K3, range(3, 4), o_k3, o_k3, o_k3)[0].value == 38
        assert euler.chi_hom_pair_two(P2, [o_p2], [o_p2]).value == 2

    report(10, "worked fixtures on the plane and a K3", check)


def test_criterion_11_integrality_and_rejection():
    def check():
        for surface, coords in [(P2, [2]), (p1xp1(), [1, 3]), (K3, [1])]:
            e = ChernCharacter.line_bundle(coords, surface)
            o = ChernCharacter.unit(surface)
            assert euler.chi_taut_product_two(surface, [e, e, o]).value.denominator == 1
            [triple] = euler.chi_taut_triple(surface, range(4, 5), e, o, e)
            assert triple.value.denominator == 1
            assert euler.chi_hom_pair_two(surface, [e], [o, e]).value.denominator == 1
            assert euler.chi_sym_power_two(surface, e, 2).denominator == 1
            assert euler.chi_ext_power_two(surface, e, 2).denominator == 1
        try:
            SurfaceModel("bad", ((1,),), (0,), 5)
        except ValueError:
            pass
        else:
            raise AssertionError("invalid surface accepted")

    report(11, "integer outputs on integral fixtures; invalid surface rejected", check)


def test_criterion_12_square_decomposition():
    def check():
        cases = [(P2, [0], [0]), (P2, [1], [0]), (P2, [2], [1]), (P2, [-1], [0]),
                 (p1xp1(), [1, 1], [0, 0]), (p1xp1(), [1, 2], [1, 1]),
                 (K3, [1], [0]), (K3, [1], [1])]
        for surface, ecoords, lcoords in cases:
            e = ChernCharacter.line_bundle(ecoords, surface)
            tw = ChernCharacter.line_bundle(lcoords, surface)
            total = euler.chi_taut_product_two(surface, [e, e], tw).value
            sym = euler.chi_sym_power_two(surface, e, 2, tw)
            ext = euler.chi_ext_power_two(surface, e, 2, tw)
            assert sym + ext == total, (surface.name, ecoords, lcoords)

    report(12, "symmetric plus exterior square equals the full square", check)
