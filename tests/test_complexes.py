"""Construction, exactness, and equivariance of the sign-wedge complexes."""

import random
from fractions import Fraction
from math import comb

import pytest

import oracles
from tautchi import complexes, symgroup
from tautchi.complexes import (SparseRationalMatrix, build_complex,
                               class_trace, diagonal_multiplicity,
                               enumerated_dim,
                               expected_dim, ext_power_multiplicity,
                               group_invariant_dim, slot_action_matrix,
                               surviving_count, swap_action_matrix,
                               swap_invariant_kernel_dim,
                               sym_power_multiplicity, verify_exactness)
from tautchi.euler import sym_power_coefficient
from tautchi.symgroup import Permutation

SMALL = [(k, ell) for k in range(1, 6) for ell in range(1, k + 1)]


def select_columns(mat, cols):
    """The submatrix of mat on the given columns, renumbered in that order."""
    pos = {c: i for i, c in enumerate(cols)}
    out = {}
    for r, row in mat.rows.items():
        nr = {pos[c]: v for c, v in row.items() if c in pos}
        if nr:
            out[r] = nr
    return SparseRationalMatrix(mat.nrows, len(cols), out)


def assert_clean(mat):
    """Every stored row is nonempty and inside the shape, and every stored
    entry is nonzero and inside the shape."""
    for r, row in mat.rows.items():
        assert 0 <= r < mat.nrows and row, r
        for c, v in row.items():
            assert 0 <= c < mat.ncols and v != 0, (r, c)


def assert_chain_map(cx, mats):
    """mats[d] commutes with the differentials: mats[d+1] d^d = d^d mats[d]."""
    for d in range(-1, cx.k - cx.ell):
        assert mats[d + 1] @ cx.differential(d) == cx.differential(d) @ mats[d], d


# --- sparse matrix layer ---------------------------------------------------------

def test_matrix_rank_and_kernel():
    m = SparseRationalMatrix.from_triples(3, 4, [
        (0, 0, 1), (0, 1, 2), (1, 1, Fraction(1, 2)), (1, 2, 1),
        (2, 0, 1), (2, 1, 3), (2, 2, 2)])
    assert m.rank() == 2  # row2 = row0 + 2*row1
    # two independent kernel vectors, as columns: (-4, 2, -1, 0) and e_3
    kernel = SparseRationalMatrix.from_triples(4, 2, [
        (0, 0, -4), (1, 0, 2), (2, 0, -1), (3, 1, 1)])
    assert kernel.rank() == 4 - m.rank()
    assert (m @ kernel).is_zero()


def test_matrix_product_and_identity():
    a = SparseRationalMatrix.from_triples(2, 2, [(0, 0, 1), (0, 1, 1), (1, 1, 2)])
    ident = SparseRationalMatrix.identity(2)
    assert a @ ident == a
    assert (a @ a).entry(0, 1) == 3


def test_rank_clears_denominators():
    m = SparseRationalMatrix.from_triples(2, 2, [
        (0, 0, Fraction(1, 3)), (0, 1, Fraction(1, 6)),
        (1, 0, Fraction(2, 3)), (1, 1, Fraction(1, 3))])
    assert m.rank() == 1


def test_from_row_list_drops_zeros_and_empty_rows():
    m = SparseRationalMatrix.from_row_list(
        [{0: 1, 2: 0}, {}, {1: 0}, {1: Fraction(1, 2)}], 3)
    assert (m.nrows, m.ncols) == (4, 3)
    assert m.rows == {0: {0: 1}, 3: {1: Fraction(1, 2)}}


def _random_entry(rng, fractions):
    v = rng.choice([-3, -2, -1, 1, 2, 3])
    return Fraction(v, rng.choice([1, 2, 3, 5])) if fractions else v


def random_rank_case(seed):
    """A seeded sparse matrix with zero rows, duplicate and scaled duplicate
    rows, and rows that are combinations of others (their elimination first
    fills in and then cancels), in a square, wide or tall shape."""
    rng = random.Random(seed)
    nrows, ncols = rng.choice([(8, 8), (4, 12), (12, 4), (10, 7), (6, 9)])
    fractions = seed % 2 == 1
    base = []
    for _ in range(nrows // 2):
        cols = rng.sample(range(ncols), rng.randint(1, max(1, ncols // 3)))
        base.append({c: _random_entry(rng, fractions) for c in cols})
    rows = list(base)
    while len(rows) < nrows:
        kind = rng.choice(["zero", "dup", "scaled", "combo", "fresh"])
        src = rng.choice(base)
        if kind == "zero":
            rows.append({})
        elif kind == "dup":
            rows.append(dict(src))
        elif kind == "scaled":
            t = _random_entry(rng, True)
            rows.append({c: v * t for c, v in src.items()})
        elif kind == "combo":
            other = rng.choice(base)
            x, y = _random_entry(rng, fractions), _random_entry(rng, fractions)
            combo = {}
            for c in set(src) | set(other):
                v = x * src.get(c, 0) + y * other.get(c, 0)
                if v:
                    combo[c] = v
            rows.append(combo)
        else:
            cols = rng.sample(range(ncols), rng.randint(1, ncols))
            rows.append({c: _random_entry(rng, fractions) for c in cols})
    rng.shuffle(rows)
    return SparseRationalMatrix.from_triples(
        nrows, ncols, [(r, c, v) for r, row in enumerate(rows) for c, v in row.items()])


def test_rank_matches_dense_oracle():
    for seed in range(200):
        m = random_rank_case(seed)
        transpose = SparseRationalMatrix.from_triples(
            m.ncols, m.nrows, [(c, r, v) for r, c, v in m.triples()])
        expect = oracles.dense_rank(m)
        assert m.rank() == expect, seed
        assert transpose.rank() == expect, seed


# --- dimensions -------------------------------------------------------------------

@pytest.mark.parametrize("k,ell", SMALL)
def test_built_dims_match_closed_form(k, ell):
    cx = build_complex(k, ell)
    assert cx.dim(-1) == 2 ** k
    for i in range(0, k - ell + 1):
        assert cx.dim(i) == expected_dim(k, ell, i)


@pytest.mark.parametrize("k", range(1, 9))
def test_enumerated_dims(k):
    for ell in range(1, k + 1):
        for i in range(0, k - ell + 1):
            assert enumerated_dim(k, ell, i) == expected_dim(k, ell, i)


@pytest.mark.parametrize("k", range(1, 8))
def test_enumerated_dim_matches_label_count(k):
    for ell in range(1, k + 1):
        for i in range(-1, k - ell + 2):
            assert enumerated_dim(k, ell, i) == oracles.enumerated_dim_by_labels(k, ell, i)


@pytest.mark.parametrize("k", range(1, 7))
def test_built_basis_sizes_match_enumerated_dim(k):
    for ell in range(1, k + 1):
        cx = build_complex(k, ell)
        for i in range(0, k - ell + 1):
            assert len(cx.basis[i]) == enumerated_dim(k, ell, i)


@pytest.mark.parametrize("k", range(1, 7))
def test_builder_matches_label_oracle(k):
    # the integer offsets and per-support tables give the same bases and
    # entries as looking up every target label column by column
    for ell in range(1, k + 1):
        cx, ref = build_complex(k, ell), oracles.build_complex_by_labels(k, ell)
        assert cx.basis == ref.basis, ell
        assert sorted(cx.differentials) == sorted(ref.differentials), ell
        for d, mat in cx.differentials.items():
            other = ref.differentials[d]
            assert (mat.nrows, mat.ncols) == (other.nrows, other.ncols), (ell, d)
            assert mat.triples() == other.triples(), (ell, d)


@pytest.mark.parametrize("k,ell", SMALL)
def test_built_matrices_store_no_zeros(k, ell):
    cx = build_complex(k, ell)
    perms = symgroup.generators(k) + [Permutation(tuple(range(k, 0, -1)))]
    for d in cx.degrees:
        if d in cx.differentials:
            assert_clean(cx.differentials[d])
        assert_clean(swap_action_matrix(cx, d))
        for perm in perms:
            assert_clean(slot_action_matrix(cx, perm, d))


@pytest.mark.parametrize("k", range(1, 8))
def test_differential_squares_to_zero(k):
    for ell in range(1, k + 1):
        cx = build_complex(k, ell)
        for d in range(-1, k - ell):
            prod = cx.differential(d + 1) @ cx.differential(d)
            assert prod.is_zero()


# --- exactness --------------------------------------------------------------------

@pytest.mark.parametrize("k,ell", SMALL)
def test_exact_in_nonnegative_degrees(k, ell):
    report = verify_exactness(build_complex(k, ell))
    assert report.passed
    # the kernel in lowest degree counts subsets of size < ell
    assert report.cohomology[-1] == sum(comb(k, j) for j in range(0, ell))


def test_exactness_report_flags_nonzero_square():
    cx = build_complex(3, 1)
    assert verify_exactness(cx).nonzero_squares == []
    row = next(iter(cx.differentials[-1].rows.values()))
    col = next(iter(row))
    row[col] *= 2
    report = verify_exactness(cx)
    assert report.nonzero_squares == [-1]
    assert not report.passed


def test_exactness_report_k2_l1():
    report = verify_exactness(build_complex(2, 1))
    assert report.ranks[-1] == 3
    assert report.cohomology == {-1: 1, 0: 0, 1: 0}


def test_top_map_when_k_equals_ell():
    for ell in range(1, 6):
        cx = build_complex(ell, ell)
        assert cx.dim(0) == 1
        col = cx.basis[-1].index((2,) * ell)
        assert cx.differential(-1).entry(0, col) == (-1) ** ell
        assert verify_exactness(cx).cohomology[0] == 0


@pytest.mark.parametrize("k", range(1, 7))
def test_low_column_restriction_spans_kernel(k):
    # columns with at least ell values equal to 2 map isomorphically onto ker d^0
    for ell in range(1, k + 1):
        cx = build_complex(k, ell)
        cols = [col for col, a in enumerate(cx.basis[-1])
                if sum(1 for v in a if v == 2) >= ell]
        assert len(cols) == surviving_count(k, ell)
        restricted = select_columns(cx.differential(-1), cols)
        assert restricted.rank() == len(cols)
        assert cx.dim(0) - cx.differential(0).rank() == len(cols)


# --- swap actions -----------------------------------------------------------------

@pytest.mark.parametrize("k", range(1, 7))
def test_swap_action_is_chain_involution(k):
    for ell in range(1, k + 1):
        cx = build_complex(k, ell)
        mats = {d: swap_action_matrix(cx, d) for d in cx.degrees}
        assert_chain_map(cx, mats)
        for d, mat in mats.items():
            assert mat @ mat == SparseRationalMatrix.identity(cx.dim(d))
            for r, row in mat.rows.items():
                assert len(row) == 1 and abs(next(iter(row.values()))) == 1


@pytest.mark.parametrize("k,ell", SMALL)
def test_swap_top_degree_scalar(k, ell):
    cx = build_complex(k, ell)
    top = k - ell
    swap = swap_action_matrix(cx, top)
    for r in range(cx.dim(top)):
        assert swap.rows[r] == {r: (-1) ** (k - ell - 1)}


# --- slot actions -----------------------------------------------------------------

@pytest.mark.parametrize("k,ell", SMALL)
def test_slot_action_chain_property(k, ell):
    cx = build_complex(k, ell)
    generators = [Permutation.cycle(k)]
    if k >= 2:
        generators.append(Permutation.transposition(k, 1, 2))
    for perm in generators:
        assert_chain_map(cx, {d: slot_action_matrix(cx, perm, d) for d in cx.degrees})


@pytest.mark.parametrize("k", range(1, 6))
def test_slot_action_matches_label_oracle(k):
    rng = random.Random(k)
    perms = [symgroup.class_representative(ct) for ct in symgroup.cycle_types(k)]
    for _ in range(3):
        images = list(range(1, k + 1))
        rng.shuffle(images)
        perms.append(Permutation(tuple(images)))
    for ell in range(1, k + 1):
        cx = build_complex(k, ell)
        for d in cx.degrees:
            for perm in perms:
                mat = slot_action_matrix(cx, perm, d)
                ref = oracles.slot_action_matrix_by_labels(cx, perm, d)
                assert (mat.nrows, mat.ncols) == (ref.nrows, ref.ncols)
                assert mat.triples() == ref.triples(), (ell, d, perm.images)


def test_slot_action_is_group_homomorphism():
    rng = random.Random(991)
    for (k, ell) in [(3, 1), (3, 2), (4, 2), (4, 3), (5, 2)]:
        cx = build_complex(k, ell)
        for _ in range(4):
            img1 = list(range(1, k + 1))
            img2 = list(range(1, k + 1))
            rng.shuffle(img1)
            rng.shuffle(img2)
            p, q = Permutation(tuple(img1)), Permutation(tuple(img2))
            for d in (-1, 0, k - ell):
                lhs = slot_action_matrix(cx, p * q, d)
                rhs = slot_action_matrix(cx, p, d) @ slot_action_matrix(cx, q, d)
                assert lhs == rhs


def test_slot_action_trivial_for_k1():
    cx = build_complex(1, 1)
    for d in cx.degrees:
        assert (slot_action_matrix(cx, Permutation.identity(1), d)
                == SparseRationalMatrix.identity(cx.dim(d)))


def test_slot_matrices_signed_permutations_for_ell_one():
    cx = build_complex(4, 1)
    perm = Permutation((2, 3, 4, 1))
    for d in cx.degrees:
        mat = slot_action_matrix(cx, perm, d)
        for row in mat.rows.values():
            assert len(row) == 1 and abs(next(iter(row.values()))) == 1


def test_slot_block_not_signed_permutation_for_higher_wedge():
    # on the top wedge block the adjacent transposition acts unimodularly but
    # not monomially; this is why only the swap actions are signed permutations
    cx = build_complex(3, 2)
    mat = slot_action_matrix(cx, Permutation.transposition(3, 1, 2), 1)
    assert any(len(row) > 1 for row in mat.rows.values())


# --- invariant dimensions ----------------------------------------------------------

@pytest.mark.parametrize("k", range(1, 6))
def test_class_traces_match_matrices(k):
    # tr(g) and tr(swap g) from cycle lengths against the formed matrices,
    # for every class representative and degree, in both characters
    reps = [symgroup.class_representative(ct) for ct in symgroup.cycle_types(k)]
    for ell in range(1, k + 1):
        cx = build_complex(k, ell)
        for d in cx.degrees:
            swap = swap_action_matrix(cx, d)
            for rep in reps:
                plain = slot_action_matrix(cx, rep, d)
                for character in ("trivial", "sign"):
                    mat = plain.scale(rep.sign()) if character == "sign" else plain
                    where = (ell, d, rep.images, character)
                    assert class_trace(cx, rep, d, character) == mat.trace(), where
                    assert (class_trace(cx, rep, d, character, swap=True)
                            == swap.trace_of_product(mat)), where


def test_class_trace_is_a_class_function():
    rng = random.Random(17)
    cx = build_complex(5, 2)
    for _ in range(10):
        images = list(range(1, 6))
        rng.shuffle(images)
        perm = Permutation(tuple(images))
        for d in cx.degrees:
            mat = slot_action_matrix(cx, perm, d)
            assert class_trace(cx, perm, d) == mat.trace()
            assert (class_trace(cx, perm, d, swap=True)
                    == swap_action_matrix(cx, d).trace_of_product(mat))


def test_swap_invariants_by_degree():
    for (k, ell) in [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3)]:
        cx = build_complex(k, ell)
        for i in range(0, k - ell):
            dim = cx.dim(i)
            assert group_invariant_dim(cx, i, "swap") == dim // 2
        top = k - ell
        expect = cx.dim(top) if (k - ell) % 2 == 1 else 0
        assert group_invariant_dim(cx, top, "swap") == expect


def test_invariant_dim_trivial_group_is_full_dimension():
    cx = build_complex(2, 1)
    # slot group for k = 1 is trivial; build directly
    cx1 = build_complex(1, 1)
    assert group_invariant_dim(cx1, 0, "slot") == cx1.dim(0)
    assert group_invariant_dim(cx, 0, "swap") == cx.dim(0) // 2


@pytest.mark.parametrize("k", range(1, 6))
def test_slot_invariants_vanish_in_positive_degrees(k):
    for ell in range(1, k + 1):
        cx = build_complex(k, ell)
        for i in range(1, k - ell + 1):
            assert group_invariant_dim(cx, i, "slot") == 0


def test_slot_invariants_in_degree_zero_count_fills():
    # the step behind `euler.sym_power_coefficient`: one slot invariant per
    # number of values equal to 2 in a fill of the complement of M
    for (k, ell) in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]:
        assert group_invariant_dim(build_complex(k, ell), 0, "slot") == k - ell + 1


@pytest.mark.parametrize("k", range(1, 5))
def test_invariant_dim_matches_projector_oracle(k):
    for ell in range(1, k + 1):
        cx = build_complex(k, ell)
        for d in cx.degrees:
            for group in ("swap", "slot", "slot_swap"):
                for character in ("trivial", "sign"):
                    assert (group_invariant_dim(cx, d, group, character)
                            == oracles.projector_invariant_dim(cx, d, group, character)
                            ), (ell, d, group, character)


def test_slot_swap_invariants_match_projector_oracle_k5_degree_zero():
    for ell in range(1, 6):
        cx = build_complex(5, ell)
        for character in ("trivial", "sign"):
            assert (group_invariant_dim(cx, 0, "slot_swap", character)
                    == oracles.projector_invariant_dim(cx, 0, "slot_swap", character))


def test_dropped_generator_breaks_the_cross_check(monkeypatch):
    # (1 2) alone fixes more than S_3 does: the fixed-space count grows and
    # no longer agrees with the character average
    monkeypatch.setattr(complexes, "generators", lambda n: symgroup.generators(n)[:1])
    with pytest.raises(ArithmeticError, match="mismatch"):
        group_invariant_dim(build_complex(3, 1), 0, "slot")


# --- multiplicities -----------------------------------------------------------------

def test_diagonal_multiplicity_values():
    assert diagonal_multiplicity(2, 1) == 1
    assert diagonal_multiplicity(3, 1) == 3
    assert diagonal_multiplicity(3, 2) == 1
    for k in range(1, 8):
        assert diagonal_multiplicity(k, k) == 0


@pytest.mark.parametrize("k", range(1, 6))
def test_diagonal_multiplicity_brute_force(k):
    for ell in range(1, k + 1):
        assert (swap_invariant_kernel_dim(build_complex(k, ell))
                == diagonal_multiplicity(k, ell))


def test_sym_power_multiplicity_values():
    # the invariant counts against the closed form that production uses
    for k in range(1, 6):
        for ell in range(1, k + 1):
            assert sym_power_multiplicity(k, ell) == sym_power_coefficient(k, ell)
    assert sym_power_multiplicity(1, 1) == 0
    assert sym_power_multiplicity(2, 1) == 1
    assert sym_power_multiplicity(2, 2) == 0


def test_ext_power_multiplicity_values():
    # `euler.chi_ext_power_two` has no diagonal term: every coefficient is 0
    for k in range(1, 6):
        for ell in range(1, k + 1):
            assert ext_power_multiplicity(k, ell) == 0


def test_group_invariant_dim_rejects_unknown_group():
    cx = build_complex(2, 1)
    with pytest.raises(ValueError):
        group_invariant_dim(cx, 0, "other")
    with pytest.raises(ValueError):
        group_invariant_dim(cx, 0, "slot", slot_character="weird")


def test_build_complex_validates_range():
    with pytest.raises(ValueError):
        build_complex(3, 0)
    with pytest.raises(ValueError):
        build_complex(3, 4)
