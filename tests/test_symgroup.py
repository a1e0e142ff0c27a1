"""Signs, orbit enumeration, and the brute-force orbit decomposition oracle."""

import itertools
import random
from collections import Counter
from math import factorial

import pytest

from tautchi.symgroup import (DiagonalTuple, Permutation,
                              act_on_diagonal_tuple, act_on_multiindex,
                              class_representative, class_size, cycle_types,
                              diagonal_orbit_reps, generators, orbit_decompose,
                              position_sign, product_orbit_reps,
                              set_partitions, sign_on_subset, stirling2,
                              subset_key)


def random_perm(rng, n):
    img = list(range(1, n + 1))
    rng.shuffle(img)
    return Permutation(tuple(img))


def test_permutation_basics():
    p = Permutation((2, 3, 1))
    q = Permutation((1, 3, 2))
    assert (p * q).images == (2, 1, 3)
    assert p.inverse() * p == Permutation.identity(3)
    assert Permutation.transposition(4, 2, 4).sign() == -1
    assert Permutation.cycle(4).images == (2, 3, 4, 1)
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def cycle_type_of(perm):
    """Cycle lengths of a permutation, weakly decreasing."""
    seen, lengths = set(), []
    for start in range(1, perm.degree + 1):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = perm(x)
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22]  # p(0), ..., p(8)


@pytest.mark.parametrize("k", range(1, 9))
def test_class_sizes_sum_to_group_order(k):
    types = list(cycle_types(k))
    assert len(types) == len(set(types)) == PARTITION_COUNTS[k]
    assert sum(class_size(ct) for ct in types) == factorial(k)


@pytest.mark.parametrize("k", range(1, 7))
def test_classes_against_enumeration(k):
    counts = Counter(cycle_type_of(Permutation(images))
                     for images in itertools.permutations(range(1, k + 1)))
    assert set(counts) == set(cycle_types(k))
    for ct in cycle_types(k):
        assert cycle_type_of(class_representative(ct)) == ct
        assert counts[ct] == class_size(ct)


@pytest.mark.parametrize("k", range(1, 6))
def test_generators_generate_the_symmetric_group(k):
    group = {Permutation.identity(k)}
    frontier = list(group)
    while frontier:
        frontier = [g * p for p in frontier for g in generators(k)
                    if g * p not in group]
        group.update(frontier)
    assert len(group) == factorial(k)


def test_sign_on_subset_examples():
    ident = Permutation.identity(3)
    swap = Permutation.transposition(3, 1, 2)
    assert sign_on_subset(ident, {1, 2, 3}) == 1
    assert sign_on_subset(swap, {1, 2}) == -1
    assert sign_on_subset(swap, {1, 3}) == 1


def test_position_sign_examples():
    assert position_sign(2, {2, 5, 7}) == 1
    assert position_sign(2, {1, 2, 3}) == -1
    assert position_sign(7, {2, 5, 7}) == 1
    with pytest.raises(ValueError):
        position_sign(4, {1, 2, 3})


def test_composition_sign_lemma():
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randint(2, 8)
        mu, sigma = random_perm(rng, n), random_perm(rng, n)
        m = {x for x in range(1, n + 1) if rng.random() < 0.5}
        if not m:
            m = {1}
        sig_m = {sigma(x) for x in m}
        assert (sign_on_subset(mu, sig_m) * sign_on_subset(sigma, m)
                == sign_on_subset(mu * sigma, m))


def test_removal_sign_lemma():
    rng = random.Random(6021023)
    for _ in range(200):
        n = rng.randint(2, 8)
        sigma = random_perm(rng, n)
        m_set = {x for x in range(1, n + 1) if rng.random() < 0.5} or {1}
        m = rng.choice(sorted(m_set))
        inv = sigma.inverse()
        pre = {inv(x) for x in m_set}
        lhs = position_sign(inv(m), pre) * sign_on_subset(sigma, pre)
        rhs = position_sign(m, m_set) * sign_on_subset(sigma, pre - {inv(m)})
        assert lhs == rhs


# --- plain multi-index orbits ---------------------------------------------------

def test_product_orbit_reps_small():
    reps = product_orbit_reps(2, 2)
    assert [mi.values for mi, _ in reps] == [(1, 1), (1, 2)]
    assert [stab for _, stab in reps] == [1, 1]
    reps3 = product_orbit_reps(3, 5)
    assert len(reps3) == 5


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("n", range(1, 7))
def test_product_orbit_counts_are_stirling_sums(k, n):
    expected = sum(stirling2(k, m) for m in range(1, min(k, n) + 1))
    assert len(product_orbit_reps(k, n)) == expected


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("n", range(1, 6))
def test_product_orbit_reps_against_brute_force(k, n):
    import itertools
    elements = list(itertools.product(range(1, n + 1), repeat=k))
    dec = orbit_decompose(n, act_on_multiindex, elements)
    reps = product_orbit_reps(k, n)
    assert len(dec) == len(reps)
    assert dec.total_size == n ** k
    # orbit-stabilizer on both sides
    for _, size, stab in dec.orbits:
        assert size * stab == factorial(n)
    by_values = {mi.values: stab for mi, stab in reps}
    for rep, size, stab in dec.orbits:
        canon = canonical_form(rep, n)
        assert canon in by_values
        assert by_values[canon] == stab


def canonical_form(values, n):
    """Relabel a value tuple so fibers appear in subset order; the canonical
    orbit representative."""
    k = len(values)
    fibers = {}
    for t, v in enumerate(values, start=1):
        fibers.setdefault(v, set()).add(t)
    blocks = sorted(fibers.values(), key=subset_key)
    out = [0] * k
    for r, block in enumerate(blocks, start=1):
        for t in block:
            out[t - 1] = r
    return tuple(out)


def test_swap_action_on_two_valued_maps():
    import itertools
    for k in range(1, 9):
        elements = list(itertools.product((1, 2), repeat=k))
        dec = orbit_decompose(2, act_on_multiindex, elements)
        assert len(dec) == 2 ** (k - 1)


# --- diagonal tuple orbits -------------------------------------------------------

def test_diagonal_reps_paper_counts():
    assert diagonal_orbit_reps(3, 3, 1) != []
    assert len(diagonal_orbit_reps(3, 3, 1)) == 12
    assert len(diagonal_orbit_reps(3, 5, 1)) == 12
    assert len(diagonal_orbit_reps(3, 3, 2)) == 3
    assert diagonal_orbit_reps(3, 3, 3) == []
    assert diagonal_orbit_reps(5, 4, 5) == []


def test_diagonal_reps_stabilizers():
    for dt, stab in diagonal_orbit_reps(3, 4, 1):
        max_a2 = max([2] + list(dt.a_values))
        assert stab == factorial(4 - max_a2)
        assert dt.is_hat


def test_diagonal_reps_include_non_hat_with_flag():
    hat = diagonal_orbit_reps(2, 3, 1)
    full = diagonal_orbit_reps(2, 3, 1, hat_only=False)
    extra = [t for t, _ in full if not t.is_hat]
    assert len(full) == len(hat) + len(extra)
    assert extra  # a: complement -> {3} avoids {1, 2}
    for t, stab in full:
        if not t.is_hat:
            max_a2 = max([2] + list(t.a_values))
            assert stab == 2 * factorial(3 - max_a2)


@pytest.mark.parametrize("k,n,ell", [(2, 2, 1), (2, 3, 1), (3, 3, 1), (3, 3, 2),
                                     (3, 4, 2), (4, 3, 2), (4, 4, 3), (2, 4, 2)])
def test_diagonal_reps_against_brute_force(k, n, ell):
    import itertools
    elements = []
    for m_set in itertools.combinations(range(1, k + 1), ell):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for a in itertools.product(range(1, n + 1), repeat=k - ell):
                    elements.append(DiagonalTuple(k, n, m_set, i, j, a))
    dec = orbit_decompose(n, act_on_diagonal_tuple, elements)
    full = diagonal_orbit_reps(k, n, ell, hat_only=False)
    assert len(dec) == len(full)
    hat_orbits = sum(1 for rep, _, _ in dec.orbits if rep.is_hat)
    assert hat_orbits == len(diagonal_orbit_reps(k, n, ell))
    stabs = sorted(stab for _, _, stab in dec.orbits)
    assert stabs == sorted(stab for _, stab in full)


def test_m_hat_field():
    dt = DiagonalTuple(4, 5, (2,), 1, 3, (1, 3, 5))
    # complement (1, 3, 4) maps to (1, 3, 5); values in {1, 3} come from slots 1 and 3
    assert dt.m_hat == (1, 2, 3)
    assert dt.is_hat


# --- order independence ----------------------------------------------------------

def size_then_lex_key(s):
    t = tuple(sorted(s))
    if not t:
        return (1, 0, ())
    return (0, len(t), t)


@pytest.mark.parametrize("k,n", [(3, 3), (4, 3), (4, 4), (5, 4)])
def test_orbit_counts_independent_of_subset_order(k, n):
    assert (len(product_orbit_reps(k, n))
            == len(product_orbit_reps(k, n, order_key=size_then_lex_key)))
    for ell in range(1, k + 1):
        assert (len(diagonal_orbit_reps(k, n, ell))
                == len(diagonal_orbit_reps(k, n, ell, order_key=size_then_lex_key)))


def test_set_partitions_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52]
    for n in range(0, 6):
        assert sum(1 for _ in set_partitions(list(range(1, n + 1)))) == bell[n]
    assert sum(1 for _ in set_partitions([1, 2, 3], max_blocks=2)) == 4


def test_stirling_values():
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(3, 0) == 0
    assert stirling2(0, 0) == 1


def test_trivial_action_each_element_own_orbit():
    dec = orbit_decompose(3, lambda g, x: x, ["a", "b", "c"])
    assert len(dec) == 3
    assert all(size == 1 and stab == 6 for _, size, stab in dec.orbits)
