import random
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conley import linalg, spectral
from conley.errors import DomainError, InvariantError, ShapeError
from conley.linalg import (RationalMatrix, Subspace, char_reversed,
                           char_reversed_rational, kernel_basis)
from conley.poly import T, IntPolynomial, exact_div, poly_mul
from conley.spectral import (KIND_COMPLEX, KIND_RATIONAL, KIND_UNRESOLVED,
                             InducedMap, generalized_image, generalized_kernel,
                             invariant_factors, is_similar, jordan_profile,
                             nonnilpotent_part)

from oracles import (block_diag, companion, conjugate, det_oracle,
                     eventual_image_oracle, eventual_kernel_oracle,
                     integer_roots_oracle,
                     invariant_factors_oracle, jordan_block, mat_mul_oracle,
                     quadratic_companion_block, quotient_map_oracle,
                     random_int_matrix, random_rational_matrix,
                     random_unimodular, rref_oracle, rref_rank, solve_oracle,
                     zero_column)

HORSESHOE = RationalMatrix.from_rows([[1, -1], [1, -1]])
TORUS = RationalMatrix.from_rows([[0, 1], [-1, 1]])
FOURHANDLE = RationalMatrix.from_rows(
    [[1, 0, -1, -1], [0, 1, 0, 0], [0, 1, 0, 0], [0, 1, 0, 0]])
SHEAR = RationalMatrix.from_rows([[1, 1], [0, 1]])


def P(*coeffs):
    return IntPolynomial(coeffs)


def monic(factors):
    return [[Fraction(c, f.leading) for c in f.coeffs] for f in factors]


# A companion(t^2 - 2) block of size 2 beside two companion(t^2 - 3)
# blocks, and four companion(t^2 - 2) blocks beside two blocks of size 2
# for t^2 - 3: in both the squarefree residual (t^2 - 2)(t^2 - 3) mixes
# two block structures.
MIXED_8 = block_diag([quadratic_companion_block(2, -2, 0),
                      companion([-3, 0, 1]), companion([-3, 0, 1])])
MIXED_16 = block_diag([companion([-2, 0, 1])] * 4
                      + [quadratic_companion_block(2, -3, 0)] * 2)


def derogatory_chains():
    """Twenty unimodular conjugates of block_diag(companion(f) for f in
    chain), with chain an invariant-factor chain of total degree 4 to 6,
    within the oracle's reach; yields (matrix, chain)."""
    rng = random.Random(143)
    for _ in range(20):
        chain = [[rng.randint(-2, 2), 1]]
        while sum(len(f) - 1 for f in chain) < 4:
            step = [rng.randint(-2, 2), 1] if rng.random() < 0.6 else [1]
            chain.append(list(poly_mul(P(*chain[-1]), P(*step)).coeffs))
        base = block_diag([companion(f) for f in chain])
        yield conjugate(random_unimodular(rng, base.rows), base), chain


class TestGeneralizedSpaces:
    def test_horseshoe(self):
        assert generalized_kernel(HORSESHOE).dim == 2
        assert generalized_image(HORSESHOE).dim == 0

    def test_identity(self):
        ident = RationalMatrix.identity(3)
        assert generalized_kernel(ident).dim == 0
        assert generalized_image(ident).dim == 3

    def test_fourhandle(self):
        assert generalized_kernel(FOURHANDLE).dim == 2
        assert generalized_image(FOURHANDLE).dim == 2

    def test_non_square(self):
        with pytest.raises(ShapeError):
            generalized_kernel(RationalMatrix.zeros(2, 3))

    def test_kernel_chain_stabilises(self):
        rng = random.Random(101)
        for _ in range(80):
            n = rng.randint(1, 5)
            a = random_int_matrix(rng, n)
            stable = generalized_kernel(a)
            assert kernel_basis(a ** (n + 1)) == stable
            assert kernel_basis(a ** (n + 2)) == stable
            dims = [kernel_basis(a ** k).dim for k in range(1, n + 1)]
            assert dims == sorted(dims)

    def test_dimension_split(self):
        rng = random.Random(103)
        for _ in range(80):
            n = rng.randint(1, 5)
            a = random_int_matrix(rng, n)
            assert generalized_kernel(a).dim + generalized_image(a).dim == n


class TestNonnilpotentPart:
    def test_horseshoe_empty(self):
        induced = nonnilpotent_part(HORSESHOE)
        assert induced.dim == 0
        assert induced.matrix == RationalMatrix.zeros(0, 0)

    def test_identity_is_itself(self):
        induced = nonnilpotent_part(RationalMatrix.identity(2))
        assert induced.matrix == RationalMatrix.identity(2)

    def test_fourhandle_similar_to_shear(self):
        induced = nonnilpotent_part(FOURHANDLE)
        assert induced.dim == 2
        assert is_similar(induced.matrix, SHEAR)

    def test_intertwining_and_invertibility(self):
        rng = random.Random(107)
        for _ in range(100):
            a = random_int_matrix(rng, rng.randint(1, 5))
            induced = nonnilpotent_part(a)
            induced.verify()
            basis = induced.image_basis.basis
            assert a * basis == basis * induced.matrix
            if induced.dim:
                assert induced.matrix.det() != 0

    def test_reversed_charpoly_unchanged(self):
        # the nilpotent part contributes the factor 1 to det(I - A t)
        rng = random.Random(109)
        for _ in range(100):
            a = random_int_matrix(rng, rng.randint(1, 5))
            induced = nonnilpotent_part(a)
            assert char_reversed(a) == \
                char_reversed_rational(induced.matrix)

    def test_trace_tail_agreement(self):
        # The nilpotent part adds trace 0 to every power, so the traces
        # agree from k = 1, singular inputs included.
        rng = random.Random(113)
        for _ in range(60):
            n = rng.randint(1, 5)
            a = random_int_matrix(rng, n)
            for m in (a, zero_column(a, rng.randrange(n))):
                plus = nonnilpotent_part(m).matrix
                for k in range(1, 11):
                    assert (m ** k).trace() == (plus ** k).trace()

    def test_nilpotent_matrices(self):
        rng = random.Random(127)
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) if j > i else 0
                     for j in range(n)] for i in range(n)]
            a = RationalMatrix.from_rows(rows)
            assert nonnilpotent_part(a).dim == 0
            profile = jordan_profile(a)
            assert [e.factor for e in profile.entries] == [P(0, 1)]

    def test_invertible_matrices_similar_to_themselves(self):
        rng = random.Random(131)
        done = 0
        while done < 40:
            a = random_int_matrix(rng, rng.randint(1, 4))
            if a.rank() != a.rows:
                continue
            induced = nonnilpotent_part(a)
            assert induced.dim == a.rows
            assert is_similar(induced.matrix, a)
            done += 1


class TestInducedMapVerify:
    """InducedMap.verify solves B X = A B for the map and ranks it; each
    failure is an InvariantError."""

    def test_a_map_off_by_one_entry_does_not_intertwine(self):
        induced = nonnilpotent_part(FOURHANDLE)
        rows = induced.matrix.tolist()
        rows[0][0] += 1
        wrong = replace(induced, matrix=RationalMatrix.from_rows(rows))
        with pytest.raises(InvariantError, match="does not intertwine"):
            wrong.verify()

    def test_a_basis_not_mapped_into_itself_does_not_intertwine(self):
        # A e1 = e2 leaves span e1, so B X = A B has no solution at all.
        swap = RationalMatrix.from_rows([[0, 1], [1, 0]])
        e1 = Subspace(2, RationalMatrix.column([1, 0]))
        induced = InducedMap(matrix=RationalMatrix.from_rows([[1]]),
                             image_basis=e1, ambient_dim=2, source=swap)
        with pytest.raises(InvariantError, match="does not intertwine"):
            induced.verify()

    def test_an_intertwining_singular_map_is_singular(self):
        zero = RationalMatrix.from_rows([[0]])
        induced = InducedMap(
            matrix=zero, image_basis=Subspace(1, RationalMatrix.identity(1)),
            ambient_dim=1, source=zero)
        with pytest.raises(InvariantError, match="is singular"):
            induced.verify()


@st.composite
def eventual_image_cases(draw):
    """An integer matrix (n <= 10), the same with a column zeroed, a
    unimodular conjugate of a nilpotent Jordan block, or a rational
    matrix; n = 0 and 1 are drawn like any other size."""
    family = draw(st.sampled_from(
        ["integer", "zero_column", "nilpotent", "rational"]))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    n = draw(st.integers(0, 10 if family != "rational" else 6))
    if n == 0:
        return RationalMatrix.zeros(0, 0)
    if family == "nilpotent":
        return conjugate(random_unimodular(rng, n), jordan_block(0, n))
    if family == "rational":
        return random_rational_matrix(rng, n, n)
    a = random_int_matrix(rng, n)
    if family == "zero_column":
        a = zero_column(a, rng.randrange(n))
    return a


@settings(derandomize=True, max_examples=150, deadline=None)
@given(eventual_image_cases())
@example(RationalMatrix.zeros(0, 0))
@example(RationalMatrix.from_rows([[0]]))
@example(RationalMatrix.from_rows([[3]]))
@example(RationalMatrix.from_rows([[Fraction(1, 2)]]))
def test_image_chain_matches_the_power_route(a):
    # The chain stops at the first step that keeps the dimension; the
    # oracle eliminates a^n.  The same stop makes A+ invertible.  A+ is
    # read off the pivot rows; the oracle solves B X = a B by Fractions.
    image = generalized_image(a)
    oracle = eventual_image_oracle(a)
    assert image == oracle
    plus = nonnilpotent_part(a).matrix
    assert plus.rank() == image.dim
    assert plus == solve_oracle(oracle.basis, mat_mul_oracle(a, oracle.basis))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(eventual_image_cases())
@example(RationalMatrix.zeros(0, 0))
@example(RationalMatrix.from_rows([[0]]))
@example(RationalMatrix.from_rows([[Fraction(1, 2)]]))
@example(RationalMatrix.zeros(3, 3))
def test_kernel_chain_matches_the_power_route(a):
    # The chain stops at the first [a | B_j] of rank n; the oracle
    # eliminates a^n.  Together with the image chain it splits Q^n.
    kernel = generalized_kernel(a)
    assert kernel == eventual_kernel_oracle(a)
    assert kernel.dim + generalized_image(a).dim == a.rows


@settings(derandomize=True, max_examples=60, deadline=None)
@given(eventual_image_cases())
def test_an_invertible_matrix_is_its_own_nonnilpotent_part(a):
    # A nonsingular a has the whole space for its eventual image, whose
    # canonical basis is the identity, so A+ is a itself.
    assume(a.rank() == a.rows)
    induced = nonnilpotent_part(a)
    assert induced.matrix == a
    assert induced.image_basis.basis == RationalMatrix.identity(a.rows)
    assert induced.verify()


def _chain_counts(monkeypatch, a):
    """(dim of generalized_image(a), powers formed, forward eliminations)."""
    counts = {"power": 0, "forward": 0}
    pow_ = RationalMatrix.__pow__

    def power(m, k):
        counts["power"] += 1
        return pow_(m, k)

    def forward(vectors, n):
        counts["forward"] += 1
        return linalg._eliminate(vectors, n)

    monkeypatch.setattr(RationalMatrix, "__pow__", power)
    monkeypatch.setattr(spectral, "_eliminate", forward)
    dim = generalized_image(a).dim
    return dim, counts["power"], counts["forward"]


def test_image_chain_of_a_nonsingular_matrix_is_one_elimination(monkeypatch):
    a = random_int_matrix(random.Random(48), 48)
    assert _chain_counts(monkeypatch, a) == (48, 0, 1)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_image_chain_of_a_nilpotent_block_takes_k_plus_one_steps(
        monkeypatch, k):
    a = conjugate(random_unimodular(random.Random(k), k), jordan_block(0, k))
    assert _chain_counts(monkeypatch, a) == (0, 0, k + 1)


class TestInvariantFactors:
    def test_identity(self):
        assert invariant_factors(RationalMatrix.identity(2)) == \
            [P(-1, 1), P(-1, 1)]

    def test_shear_block(self):
        assert invariant_factors(SHEAR) == [P(1, -2, 1)]

    def test_torus_matrix(self):
        assert invariant_factors(TORUS) == [P(1, -1, 1)]

    def test_empty(self):
        assert invariant_factors(RationalMatrix.zeros(0, 0)) == []

    def test_rational_entries(self):
        half = RationalMatrix.from_rows([[Fraction(1, 2)]])
        assert invariant_factors(half) == [P(-1, 2)]

    def test_divisibility_and_product(self):
        rng = random.Random(137)
        for _ in range(60):
            n = rng.randint(1, 5)
            a = random_int_matrix(rng, n)
            factors = invariant_factors(a)
            product = IntPolynomial([1])
            for f in factors:
                product = poly_mul(product, f)
            assert list(product.coeffs) == \
                [int(c) for c in a.charpoly()]
            for small, big in zip(factors, factors[1:]):
                from conley.poly import poly_divmod
                _, rem = poly_divmod(big, small)
                assert rem.is_zero

    def test_matches_determinantal_divisors(self):
        rng = random.Random(139)
        for trial in range(40):
            a = random_int_matrix(rng, 6 if trial % 10 == 0 else
                                  rng.randint(1, 5))
            assert monic(invariant_factors(a)) == \
                invariant_factors_oracle(a)

    def test_nonnilpotent_part_matches_determinantal_divisors(self):
        rng = random.Random(141)
        for _ in range(30):
            n = rng.randint(2, 6)
            # entries in [-1, 1] make singular, non-nilpotent inputs common
            plus = nonnilpotent_part(random_int_matrix(rng, n, -1, 1)).matrix
            assert monic(invariant_factors(plus)) == \
                invariant_factors_oracle(plus)

    def test_derogatory_chains(self):
        for a, chain in derogatory_chains():
            got = invariant_factors(a)
            assert got == [P(*f) for f in chain]
            assert monic(got) == invariant_factors_oracle(a)


class TestIsSimilar:
    def test_transpose_pair(self):
        assert is_similar(SHEAR, RationalMatrix.from_rows([[1, 0], [1, 1]]))

    def test_identity_vs_shear(self):
        assert not is_similar(RationalMatrix.identity(2), SHEAR)

    def test_size_mismatch_is_false(self):
        assert not is_similar(RationalMatrix.identity(2),
                              RationalMatrix.identity(3))

    def test_transpose_always_similar(self):
        rng = random.Random(139)
        for _ in range(50):
            a = random_int_matrix(rng, rng.randint(1, 4))
            assert is_similar(a, a.transpose())

    def test_unimodular_conjugation_preserves_nonnilpotent_class(self):
        rng = random.Random(149)
        for _ in range(60):
            n = rng.randint(1, 5)
            a = random_int_matrix(rng, n)
            u = random_unimodular(rng, n)
            b = conjugate(u, a)
            fa = invariant_factors(nonnilpotent_part(a).matrix)
            fb = invariant_factors(nonnilpotent_part(b).matrix)
            assert fa == fb


class TestJordanProfile:
    def test_fourhandle(self):
        profile = jordan_profile(FOURHANDLE)
        assert profile.ambient_dim == 4
        zero = profile.class_for(P(0, 1))
        one = profile.class_for(P(-1, 1))
        assert zero.block_sizes == (1, 1)
        assert zero.kind == KIND_RATIONAL
        assert zero.geometric_multiplicity == 2
        assert one.block_sizes == (2,)
        assert one.algebraic_multiplicity == 2
        assert one.geometric_multiplicity == 1
        reduced = profile.without_zero_class()
        assert [e.factor for e in reduced.entries] == [P(-1, 1)]
        assert reduced.ambient_dim == 2

    def test_complex_pair(self):
        profile = jordan_profile(TORUS)
        (entry,) = profile.entries
        assert entry.factor == P(1, -1, 1)
        assert entry.kind == KIND_COMPLEX
        assert entry.block_sizes == (1,)

    def test_zero_matrix(self):
        profile = jordan_profile(RationalMatrix.zeros(2, 2))
        (entry,) = profile.entries
        assert entry.factor == P(0, 1)
        assert entry.block_sizes == (1, 1)

    def test_real_irrational_quadratic_is_unresolved(self):
        # t^2 - 2: irreducible with positive discriminant
        a = RationalMatrix.from_rows([[0, 2], [1, 0]])
        (entry,) = jordan_profile(a).entries
        assert entry.kind == KIND_UNRESOLVED
        assert entry.factor == P(-2, 0, 1)

    def test_unresolved_cubic(self):
        # companion of t^3 - t - 1 (no rational roots)
        a = RationalMatrix.from_rows([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
        (entry,) = jordan_profile(a).entries
        assert entry.kind == KIND_UNRESOLVED
        assert entry.factor.degree == 3

    def test_rejects_rational_entries(self):
        with pytest.raises(DomainError):
            jordan_profile(RationalMatrix.from_rows([[Fraction(1, 2)]]))

    def test_planted_blocks_recovered(self):
        rng = random.Random(151)
        for _ in range(60):
            blocks = []
            expected = {}
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.7:
                    lam = rng.randint(-2, 2)
                    size = rng.randint(1, 3)
                    blocks.append(jordan_block(lam, size))
                    expected.setdefault(P(-lam, 1), []).append(size)
                else:
                    size = rng.randint(1, 3)
                    blocks.append(quadratic_companion_block(size))
                    expected.setdefault(P(1, -1, 1), []).append(size)
            a = conjugate(random_unimodular(rng, sum(b.rows for b in blocks)),
                          block_diag(blocks))
            profile = jordan_profile(a)
            got = {e.factor: sorted(e.block_sizes, reverse=True)
                   for e in profile.entries}
            want = {f: sorted(sizes, reverse=True)
                    for f, sizes in expected.items()}
            assert got == want

    def test_block_counts_match_rank_duality(self):
        rng = random.Random(157)
        for _ in range(40):
            n = rng.randint(1, 5)
            a = random_int_matrix(rng, n)
            profile = jordan_profile(a)
            profile.check()
            for entry in profile.entries:
                deg = entry.factor.degree
                pa = RationalMatrix.zeros(n, n)
                ident = RationalMatrix.identity(n)
                for c in reversed(entry.factor.coeffs):
                    pa = pa * a + c * ident
                max_size = max(entry.block_sizes)
                ranks = [n]
                power = ident
                for _ in range(max_size + 1):
                    power = power * pa
                    ranks.append(power.rank())
                for k in range(1, max_size + 2):
                    at_least_k = sum(1 for s in entry.block_sizes if s >= k)
                    assert ranks[k - 1] - ranks[k] == deg * at_least_k

    @pytest.mark.parametrize("matrix, expected", [
        (MIXED_8, {P(-2, 0, 1): (2,), P(-3, 0, 1): (1, 1)}),
        (MIXED_16, {P(-2, 0, 1): (1, 1, 1, 1), P(-3, 0, 1): (2, 2)}),
    ], ids=["n8", "n16"])
    def test_mixed_residual_split_by_block_structure(self, matrix, expected):
        profile = jordan_profile(matrix)
        assert {e.factor: e.block_sizes for e in profile.entries} == expected
        assert {e.kind for e in profile.entries} == {KIND_UNRESOLVED}


# Irreducible quadratics with real irrational roots, as (c0, c1) of
# t^2 + c1 t + c0; any two share no root, and two of equal multiplicity
# land in one squarefree residual, which the profile splits only where
# their block structures differ.
IRRATIONAL_QUADRATICS = [(-2, 0), (-3, 0), (-1, -1), (1, -3), (-5, 0)]
PARTITIONS = {1: [(1,)], 2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 1, 1)]}


@st.composite
def planted_mixed_profiles(draw):
    mult = draw(st.integers(1, 3))
    quadratics = draw(st.lists(st.sampled_from(IRRATIONAL_QUADRATICS),
                               min_size=1, max_size=2, unique=True))
    blocks, residuals = [], {}
    for c0, c1 in quadratics:
        sizes = draw(st.sampled_from(PARTITIONS[mult]))
        blocks += [quadratic_companion_block(k, c0, c1) for k in sizes]
        residuals[sizes] = poly_mul(residuals.get(sizes, P(1)),
                                    P(c0, c1, 1))
    # quadratics that share a block structure stay one unresolved factor
    expected = {f: sizes for sizes, f in residuals.items()}
    linear = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 2)),
                           max_size=2))
    for lam, k in linear:
        blocks.append(jordan_block(lam, k))
        sizes = expected.get(P(-lam, 1), ()) + (k,)
        expected[P(-lam, 1)] = tuple(sorted(sizes, reverse=True))
    base = block_diag(blocks)
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    return conjugate(random_unimodular(rng, base.rows), base), expected


@settings(derandomize=True, max_examples=25, deadline=None)
@given(planted_mixed_profiles())
def test_planted_mixed_residuals_recovered(case):
    a, expected = case
    profile = jordan_profile(a)
    assert {e.factor: e.block_sizes for e in profile.entries} == expected


@st.composite
def planted_integer_roots(draw):
    """(f, planted roots, cofactor, paired): f is the product of t - r
    over distinct planted r and a monic cofactor of degree 2 to 4 that is
    Eisenstein at 2, so irreducible with no rational root.  The roots
    come from 0, +-1 and +-2^40, and from pairs r, r + 210 k; such a pair
    agrees mod 2, 3, 5 and 7, so none of those primes keeps the roots of
    f simple, and ``paired`` says whether one was planted."""
    roots = set(draw(st.lists(st.sampled_from([0, 1, -1, 2 ** 40,
                                               -2 ** 40]), max_size=5)))
    pairs = draw(st.lists(st.tuples(st.integers(-60, 60),
                                    st.integers(-3, 3).filter(bool)),
                          max_size=2))
    for r, k in pairs:
        roots.update((r, r + 210 * k))
    middle = [2 * draw(st.integers(-50, 50))
              for _ in range(draw(st.integers(1, 3)))]
    cofactor = P(4 * draw(st.integers(-50, 50)) + 2, *middle, 1)
    f = cofactor
    for r in roots:
        f = poly_mul(f, P(-r, 1))
    return f, roots, cofactor, bool(pairs)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(planted_integer_roots())
def test_planted_integer_roots_found(case):
    f, roots, cofactor, paired = case
    split = spectral._split_squarefree(f)
    linear = [g for g, kind in split if kind == KIND_RATIONAL]
    assert {-g.coefficient(0) for g in linear} == roots
    assert [g for g, kind in split if kind != KIND_RATIONAL] == [cofactor]
    product = P(1)
    for g, _ in split:
        product = poly_mul(product, g)
    assert product == f
    if paired:
        assert spectral._lifting_prime(
            f.coeffs, f.derivative().coeffs)[0] > 7
    if abs(next(c for c in f.coeffs if c)) < 2 ** 24:
        assert sorted(roots) == integer_roots_oracle(f.coeffs)


def test_small_integer_roots_match_oracle():
    # Lifted residues near half the modulus are where a too-small lifting
    # target would turn a root into its negative complement.
    cases = [P(-r, 1) for r in range(-40, 41)]
    cases += [poly_mul(P(-r, 1), P(-s, 1))
              for r in range(-12, 13) for s in range(r + 1, 13)]
    for f in cases:
        split = spectral._split_squarefree(f)
        assert all(kind == KIND_RATIONAL for _, kind in split), f
        assert sorted(-g.coefficient(0) for g, _ in split) == \
            integer_roots_oracle(f.coeffs)


@pytest.mark.parametrize("f", [
    P(1, -2, 1),
    poly_mul(P(-2 ** 40, 1) ** 2, P(3, 1)),
], ids=["t_minus_1_squared", "double_root_2_pow_40"])
def test_repeated_root_stops_the_prime_search(f):
    start = time.perf_counter()
    with pytest.raises(InvariantError, match="repeated root"):
        spectral._integer_root_candidates(f)
    assert time.perf_counter() - start < 1.0


def _drop_last_pivot(when):
    """A corrupted Krylov elimination: the real one, minus its last pivot
    on the chains of d vectors in n dimensions for which when(n, d) holds,
    so the last independent vector reads as the dependent one."""
    krylov = spectral._krylov

    def eliminate(rows, v):
        order, columns, dependent = krylov(rows, v)
        if when(len(rows), len(columns)):
            return order, columns[:-1], columns[-1]
        return order, columns, dependent
    return "_krylov", eliminate


DEROGATORY = block_diag([companion([-2, 0, 1])] * 2 + [companion([-1, 1])])


@pytest.mark.parametrize("a, patch, message", [
    # Every chain: each annihilator has too low a degree to kill the next
    # trial vector, so the probe rejects every trial vector and the
    # search stops at its bound.
    (DEROGATORY, _drop_last_pivot(lambda n, d: True), "no trial vector"),
    # Only chains that stop short of n, i.e. those of the derogatory top
    # level: every trial vector there fails the probe.
    (DEROGATORY, _drop_last_pivot(lambda n, d: d < n), "no trial vector"),
    # Only chains that fill their space: the top level passes, and every
    # trial vector of the 2 x 2 quotient below it fails the probe.
    (DEROGATORY, _drop_last_pivot(lambda n, d: d == n), "no trial vector"),
    # The first chain cut at its second pivot, 9: the coordinates of B^2 v
    # on v and Bv in the triangular system are not integers, which no
    # integer matrix allows.
    (RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]]),
     _drop_last_pivot(lambda n, d: True), "not integral"),
], ids=["every", "rank_deficient", "full_rank", "inexact"])
def test_corrupted_elimination_raises_promptly(monkeypatch, a, patch,
                                               message):
    monkeypatch.setattr(spectral, *patch)
    start = time.perf_counter()
    with pytest.raises(InvariantError, match=message):
        invariant_factors(a)
    assert time.perf_counter() - start < 1.0


@st.composite
def integer_matrices(draw):
    """A random integer matrix with n <= 10, or a unimodular conjugate of
    a block sum of companion matrices of total degree <= 10, in which
    factors may repeat (a derogatory matrix)."""
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        return random_int_matrix(rng, draw(st.integers(1, 10)))
    factors = draw(st.lists(st.sampled_from(
        [[-1, 1], [1, 1], [0, 1], [2, 1], [-2, 0, 1], [1, 0, 1],
         [1, -1, 1], [1, 0, 0, 1]]), min_size=1, max_size=6))
    while sum(len(f) - 1 for f in factors) > 10:
        factors.pop()
    base = block_diag([companion(f) for f in factors])
    return conjugate(random_unimodular(rng, base.rows), base)


def _krylov_vectors(rows, v, count):
    """The first count vectors v, Bv, B^2 v, ... of B = rows."""
    vectors = [v]
    while len(vectors) < count:
        vectors.append([sum(b * w for b, w in zip(row, vectors[-1]))
                        for row in rows])
    return vectors


@settings(derandomize=True, max_examples=120, deadline=None)
@given(integer_matrices(), st.integers(1, 4))
def test_incremental_chain_matches_full_elimination(a, x):
    # The chain stops at the rank of the full n x (n + 1) Krylov matrix,
    # pivot k is the leading minor of the first k + 1 vectors on the pivot
    # rows, and the monic annihilator holds the coordinates of B^d v on
    # the earlier vectors, read off that matrix's Fraction RREF.
    denom, rows = a._scaled_int_rows()
    assert denom == 1
    n = len(rows)
    vectors = _krylov_vectors(rows, spectral._trial(n, x), n + 1)
    krylov = [[Fraction(y) for y in col] for col in zip(*vectors)]
    d = rref_rank(krylov)
    assert rref_oracle(krylov) == list(range(d))
    order, columns, dependent = spectral._krylov(rows, vectors[0])
    assert len(columns) == d
    assert sorted(order) == list(range(n))
    for k in range(d):
        assert columns[k][k] == det_oracle(
            [[vectors[j][i] for j in range(k + 1)] for i in order[:k + 1]])
    assert spectral._annihilator(columns, dependent) == \
        [-krylov[k][d] for k in range(d)] + [1]


@pytest.mark.parametrize("n", [12, 40])
def test_krylov_chains_stop_at_their_first_dependency(monkeypatch, n):
    # 2 I_n splits into n levels, each chain v, Bv = 2v: one product per
    # level, where a chain of all n_j + 1 vectors formed n (n + 1) / 2
    # (78 on 2 I_12, 820 on 2 I_40).  _quotient reduces one column per
    # unit vector against the chain's factor, n (n - 1) / 2 in all.
    counts = {"krylov": 0, "quotient": 0}
    in_quotient = []
    apply, reduce, quotient = (spectral._apply, spectral._reduce,
                               spectral._quotient)

    def counted_apply(rows, w):
        counts["krylov"] += 1
        return apply(rows, w)

    def counted_reduce(columns, y):
        if in_quotient:
            counts["quotient"] += 1
        return reduce(columns, y)

    def counted_quotient(*args):
        in_quotient.append(True)
        try:
            return quotient(*args)
        finally:
            in_quotient.pop()

    monkeypatch.setattr(spectral, "_apply", counted_apply)
    monkeypatch.setattr(spectral, "_reduce", counted_reduce)
    monkeypatch.setattr(spectral, "_quotient", counted_quotient)
    a = RationalMatrix.from_rows(
        [[2 * (i == j) for j in range(n)] for i in range(n)])
    assert invariant_factors(a) == [P(-2, 1)] * n
    assert counts == {"krylov": n, "quotient": n * (n - 1) // 2}


def _fraction(rng, nonzero=False):
    num = rng.choice([-3, -2, -1, 1, 2, 3]) if nonzero else rng.randint(-3, 3)
    return Fraction(num, rng.randint(1, 7))


def _rational_conjugator(rng, n):
    """L U with L unit lower triangular and U upper triangular with a
    nonzero diagonal, all entries of denominator at most 7: invertible."""
    lower = RationalMatrix.from_rows(
        [[_fraction(rng) if j < i else int(i == j) for j in range(n)]
         for i in range(n)])
    upper = RationalMatrix.from_rows(
        [[_fraction(rng, nonzero=i == j) if j >= i else 0
          for j in range(n)] for i in range(n)])
    return lower * upper


@st.composite
def rational_derogatory(draw):
    """A rational conjugate of block_diag(companion(f) for f in chain),
    with chain an invariant-factor chain of total degree at most 6 in
    which factors repeat, so that several quotients are nontrivial."""
    chain = [draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2))
             + [1]]
    for step in draw(st.lists(st.sampled_from(
            [[1], [1], [1], [0, 1], [-1, 1], [2, 1], [1, 0, 1]]),
            min_size=1, max_size=4)):
        nxt = list(poly_mul(P(*chain[-1]), P(*step)).coeffs)
        if sum(len(f) - 1 for f in chain) + len(nxt) - 1 > 6:
            break
        chain.append(nxt)
    base = block_diag([companion(f) for f in chain])
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    return conjugate(_rational_conjugator(rng, base.rows), base), chain


@settings(derandomize=True, max_examples=30, deadline=None)
@given(rational_derogatory())
def test_rational_derogatory_matches_determinantal_divisors(case):
    a, chain = case
    got = invariant_factors(a)
    assert got == [P(*f) for f in chain]
    assert monic(got) == invariant_factors_oracle(a)
    with pytest.MonkeyPatch.context() as patch:
        # The generator certificate alone, with the probe off.
        patch.setattr(spectral, "_probe", lambda rows, q, x: True)
        assert invariant_factors(a) == got


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rational_derogatory())
def test_quotient_maps_come_back_in_lowest_terms(case):
    # Each quotient is (denom, rows) with denom the least common
    # denominator, positive, as _scaled_int_rows gives it.
    a, chain = case
    quotients = []

    def quotient(*args):
        units, denom, rows = out = _quotient(*args)
        quotients.append((denom, rows))
        return out

    _quotient = spectral._quotient
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_quotient", quotient)
        assert invariant_factors(a) == [P(*f) for f in chain]
    assert len(quotients) >= len(chain) - 1
    for denom, rows in quotients:
        again = RationalMatrix._from_scaled(rows, len(rows), denom)
        assert again._scaled_int_rows() == (denom, rows)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.one_of(integer_matrices(),
                 rational_derogatory().map(lambda case: case[0])))
def test_quotient_maps_match_the_oracle(a):
    # Every split's quotient map, read off the chain's own factor, is the
    # Schur complement B_UU - K_U K_R^-1 B_RU over Fractions, K the
    # chain's independent vectors, stored as (D, rows') in lowest terms.
    split = spectral._split_cyclic
    compared = []

    def checked(denom, rows, start):
        x, q, units, *quotient = out = split(denom, rows, start)
        if units:
            chain = _krylov_vectors(rows, spectral._trial(len(rows), x),
                                    len(q) - 1)
            want = quotient_map_oracle(rows, denom, chain, units)
            assert tuple(quotient) == want._scaled_int_rows()
            compared.append(units)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_split_cyclic", checked)
        got = invariant_factors(a)
    assert len(compared) == len(got) - 1


def _count_splits(patch):
    """Patch spectral._split_cyclic to record (n, start) per call."""
    calls = []
    split = spectral._split_cyclic

    def counted(denom, rows, start):
        calls.append((len(rows), start))
        return split(denom, rows, start)

    patch.setattr(spectral, "_split_cyclic", counted)
    return calls


def test_certificate_alone_keeps_the_derogatory_chains(monkeypatch):
    # With the probe switched off, every trial vector of too low an order
    # reaches the generator certificate, which alone must reject it.
    monkeypatch.setattr(spectral, "_probe", lambda rows, q, x: True)
    calls = _count_splits(monkeypatch)
    for a, chain in derogatory_chains():
        got = invariant_factors(a)
        assert got == [P(*f) for f in chain]
        assert monic(got) == invariant_factors_oracle(a)
    assert any(start > 1 for _, start in calls)


@pytest.mark.parametrize("rows, expected", [
    ([[1, 0, 1, -1], [0, 0, 0, -2], [0, 0, 2, -1], [0, 0, 1, 0]],
     [P(-1, 1), P(0, 1, -2, 1)]),
    ([[0, 0, 0, -1, 0], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0],
      [0, 0, 0, 0, 0]], [P(0, 1), P(0, 0, 1), P(0, 0, 1)]),
], ids=["4x4", "nilpotent_5x5"])
def test_certificate_reaches_every_lower_level(monkeypatch, rows, expected):
    # With the probe off, one level's annihilator here kills the lifted
    # trial vector of the level just below it, and only the lift of a
    # deeper level's trial vector shows that it is too low.
    monkeypatch.setattr(spectral, "_probe", lambda rows, q, x: True)
    calls = _count_splits(monkeypatch)
    assert invariant_factors(RationalMatrix.from_rows(rows)) == expected
    assert any(start > 1 for _, start in calls)


def test_certificate_rejects_a_trial_whose_probe_it_kills(monkeypatch):
    # P diag(1, 1, 2) P^-1 with P's first columns (1, 1, 1) and (1, 2, 4),
    # the first trial vector and its probe: both are eigenvectors for 1,
    # so the annihilator t - 1 passes the probe, and only the lifted
    # generator of the quotient, which has the eigenvalue 2, shows that it
    # is not the minimal polynomial.
    a = RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [2, -3, 2]])
    calls = _count_splits(monkeypatch)
    assert invariant_factors(a) == [P(-1, 1), P(2, -3, 1)]
    assert calls[:3] == [(3, 1), (2, 1), (3, 2)]


@st.composite
def planted_chains(draw):
    """A unimodular conjugate of block_diag(companion(f) for f in chain),
    chain an invariant-factor chain of total degree at most 14: beyond the
    oracle's reach, so the planted chain is the answer."""
    chain = [draw(st.lists(st.integers(-2, 2), min_size=1, max_size=2))
             + [1]]
    for step in draw(st.lists(st.sampled_from(
            [[1], [1], [0, 1], [-1, 1], [1, 1], [2, 1], [1, 0, 1],
             [-2, 0, 1]]), min_size=1, max_size=8)):
        nxt = list(poly_mul(P(*chain[-1]), P(*step)).coeffs)
        if sum(len(f) - 1 for f in chain) + len(nxt) - 1 > 14:
            break
        chain.append(nxt)
    base = block_diag([companion(f) for f in chain])
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    return conjugate(random_unimodular(rng, base.rows, 30), base), chain


@settings(derandomize=True, max_examples=60, deadline=None)
@given(planted_chains())
def test_planted_chains_up_to_fourteen(case):
    a, chain = case
    assert invariant_factors(a) == [P(*f) for f in chain]


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_forty_invariant_factors_need_no_deep_stack():
    # 2 I_40 splits into forty levels; the descent and the certificate are
    # loops, so the stack stays a few frames deep whatever the level count.
    a = RationalMatrix.from_rows(
        [[2 * (i == j) for j in range(40)] for i in range(40)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 30)
    try:
        got = invariant_factors(a)
    finally:
        sys.setrecursionlimit(limit)
    assert got == [P(-2, 1)] * 40


def _without_t(factors):
    """Invariant factors with every power of t divided out and the
    resulting constants dropped."""
    out = []
    for f in factors:
        while f.coefficient(0) == 0:
            f = exact_div(f, T)
        if f.degree > 0:
            out.append(f)
    return out


@st.composite
def singular_matrices(draw):
    """A unimodular conjugate of a random integer block beside nilpotent
    Jordan blocks, n at most 8; the random block may be singular too."""
    k = draw(st.integers(0, 4))
    entries = draw(st.lists(st.integers(-2, 2), min_size=k * k,
                            max_size=k * k))
    blocks = [RationalMatrix(k, k, entries)] if k else []
    blocks += [jordan_block(0, size) for size in
               draw(st.lists(st.integers(1, 2), max_size=2))]
    if not blocks:
        return RationalMatrix.zeros(0, 0)
    base = block_diag(blocks)
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    return conjugate(random_unimodular(rng, base.rows), base)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(singular_matrices())
def test_fitting_nonnilpotent_part_drops_powers_of_t(a):
    # Fitting: A is conjugate to A+ beside a nilpotent map, so the
    # invariant factors of A+ are those of A without their powers of t.
    plus = nonnilpotent_part(a).matrix
    assert invariant_factors(plus) == _without_t(invariant_factors(a))
