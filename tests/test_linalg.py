import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conley.errors import DomainError, InvariantError, ShapeError
from conley.linalg import (RationalMatrix, Subspace, char_reversed,
                           char_reversed_rational, column_rref, column_space,
                           inverse, kernel_basis, mat_mul, rank,
                           solve_columns)
from conley.poly import IntPolynomial

from oracles import (char_reversed_oracle, charpoly_cofactor,
                     charpoly_oracle, column_rref_oracle, kernel_oracle,
                     mat_mul_oracle, random_int_matrix,
                     random_rational_matrix, rref_oracle, rref_rank,
                     solve_oracle)

HORSESHOE = RationalMatrix.from_rows([[1, -1], [1, -1]])
TORUS = RationalMatrix.from_rows([[0, 1], [-1, 1]])
FOURHANDLE = RationalMatrix.from_rows(
    [[1, 0, -1, -1], [0, 1, 0, 0], [0, 1, 0, 0], [0, 1, 0, 0]])


class TestMatMul:
    def test_identity(self):
        assert mat_mul(RationalMatrix.identity(2), HORSESHOE) == HORSESHOE

    def test_horseshoe_squares_to_zero(self):
        assert mat_mul(HORSESHOE, HORSESHOE) == RationalMatrix.zeros(2, 2)

    def test_torus_square(self):
        expected = RationalMatrix.from_rows([[-1, 1], [-1, 0]])
        assert mat_mul(TORUS, TORUS) == expected

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mat_mul(RationalMatrix.zeros(2, 3), RationalMatrix.zeros(2, 3))

    def test_power_and_trace(self):
        assert (TORUS ** 3).trace() == -2
        assert (TORUS ** 0) == RationalMatrix.identity(2)


class TestIntegerKernel:
    """Products, powers and charpoly run on denominator-cleared integers;
    check them against the Fraction routes in the oracles."""

    def test_product_matches_fraction_oracle(self):
        rng = random.Random(17)
        for _ in range(150):
            p, q, r = (rng.randint(0, 5) for _ in range(3))
            a = random_rational_matrix(rng, p, q)
            b = random_rational_matrix(rng, q, r)
            assert mat_mul(a, b) == mat_mul_oracle(a, b)

    def test_power_matches_repeated_oracle_product(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randint(0, 5)
            a = random_rational_matrix(rng, n, n)
            expected = RationalMatrix.identity(n)
            for k in range(6):
                assert a ** k == expected
                expected = mat_mul_oracle(expected, a)

    def test_charpoly_matches_fraction_recursion_and_cofactors(self):
        rng = random.Random(23)
        for _ in range(150):
            n = rng.randint(0, 5)
            a = random_rational_matrix(rng, n, n)
            assert a.charpoly() == charpoly_oracle(a) == charpoly_cofactor(a)

    def test_charpoly_of_integer_matrix_matches_cofactors(self):
        rng = random.Random(29)
        for _ in range(100):
            a = random_int_matrix(rng, rng.randint(0, 5))
            assert a.charpoly() == charpoly_cofactor(a)

    @pytest.mark.parametrize("a, b", [
        (RationalMatrix.zeros(0, 3), RationalMatrix.zeros(3, 0)),
        (RationalMatrix.zeros(3, 0), RationalMatrix.zeros(0, 2)),
        (RationalMatrix.zeros(0, 0), RationalMatrix.zeros(0, 0)),
    ])
    def test_empty_shapes(self, a, b):
        product = mat_mul(a, b)
        assert (product.rows, product.cols) == (a.rows, b.cols)
        assert product == RationalMatrix.zeros(a.rows, b.cols)

    def test_empty_power(self):
        assert RationalMatrix.zeros(0, 0) ** 3 == RationalMatrix.zeros(0, 0)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.lists(
               st.fractions(min_value=-6, max_value=6, max_denominator=7),
               min_size=n * n, max_size=n * n).map(
                   lambda e: RationalMatrix(n, n, e))),
           st.integers(0, 5), st.integers(0, 5))
    def test_powers_add(self, a, j, k):
        assert a ** j * a ** k == a ** (j + k)


class TestRank:
    def test_identity(self):
        assert rank(RationalMatrix.identity(4)) == 4

    def test_horseshoe(self):
        assert rank(HORSESHOE) == 1

    def test_fourhandle(self):
        assert rank(FOURHANDLE) == 2

    def test_zero(self):
        assert rank(RationalMatrix.zeros(3, 5)) == 0

    def test_matches_gaussian_oracle(self):
        rng = random.Random(5)
        for _ in range(150):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(m)] for _ in range(n)]
            a = RationalMatrix.from_rows(rows)
            assert a.rank() == rref_rank(rows)


class TestKernel:
    def test_identity_kernel_trivial(self):
        assert kernel_basis(RationalMatrix.identity(2)).dim == 0

    def test_horseshoe_kernel(self):
        space = kernel_basis(HORSESHOE)
        assert space.dim == 1
        assert space.basis.column_list(0) == [1, 1]

    def test_zero_matrix_full_kernel(self):
        space = kernel_basis(RationalMatrix.zeros(3, 3))
        assert space.dim == 3
        assert space.basis == RationalMatrix.identity(3)

    def test_exactness_and_rank_nullity(self):
        rng = random.Random(17)
        for _ in range(120):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            a = RationalMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)])
            space = kernel_basis(a)
            assert a.rank() + space.dim == a.cols
            if space.dim:
                assert a * space.basis == RationalMatrix.zeros(n, space.dim)

    def test_canonical_basis_is_presentation_independent(self):
        # span{(1,1)} given by two different spanning sets
        s1 = Subspace.spanned_by_columns(
            RationalMatrix.from_rows([[2], [2]]))
        s2 = Subspace.spanned_by_columns(
            RationalMatrix.from_rows([[-3, -6], [-3, -6]]))
        assert s1 == s2
        assert s1.basis.column_list(0) == [1, 1]

    def test_contains(self):
        space = kernel_basis(HORSESHOE)
        assert space.contains([5, 5])
        assert not space.contains([1, 0])


class TestColumnSpace:
    def test_full(self):
        assert column_space(RationalMatrix.identity(3)).dim == 3

    def test_horseshoe(self):
        space = column_space(HORSESHOE)
        assert space.dim == 1
        assert space.basis.column_list(0) == [1, 1]

    def test_column_rref_idempotent(self):
        rng = random.Random(29)
        for _ in range(60):
            a = random_int_matrix(rng, rng.randint(1, 4))
            basis = column_rref(a)
            assert column_rref(basis) == basis
            assert basis.cols == a.rank()


class TestCharReversed:
    def test_torus_matrix(self):
        assert char_reversed(TORUS) == IntPolynomial([1, -1, 1])

    def test_zero_matrix(self):
        for n in range(4):
            assert char_reversed(RationalMatrix.zeros(n, n)) == \
                IntPolynomial([1])

    def test_one_by_one(self):
        assert char_reversed(RationalMatrix.from_rows([[1]])) == \
            IntPolynomial([1, -1])

    def test_fourhandle(self):
        assert char_reversed(FOURHANDLE) == IntPolynomial([1, -2, 1])

    def test_non_square(self):
        with pytest.raises(ShapeError):
            char_reversed(RationalMatrix.zeros(2, 3))

    def test_rational_entries_rejected(self):
        half = RationalMatrix.from_rows([[Fraction(1, 2)]])
        with pytest.raises(DomainError):
            char_reversed(half)
        # the rational-aware variant refuses a non-integral charpoly too
        with pytest.raises(DomainError):
            char_reversed_rational(half)

    def test_matches_cofactor_oracle(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(0, 5)
            a = random_int_matrix(rng, n)
            expected = char_reversed_oracle(a.to_int_rows())
            assert list(char_reversed(a).coeffs) == expected

    def test_constant_term_and_degree(self):
        # constant term 1; degree n minus the multiplicity of eigenvalue 0
        rng = random.Random(31)
        for _ in range(150):
            n = rng.randint(1, 5)
            a = random_int_matrix(rng, n)
            p = char_reversed(a)
            assert p.coefficient(0) == 1
            charpoly = a.charpoly()
            zero_mult = 0
            while charpoly[zero_mult] == 0:
                zero_mult += 1
            assert p.degree == n - zero_mult


class TestSolveAndInverse:
    def test_solve_exact(self):
        b = RationalMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
        x = RationalMatrix.from_rows([[2, -1], [0, 3]])
        assert solve_columns(b, b * x) == x

    def test_solve_inconsistent(self):
        b = RationalMatrix.from_rows([[1], [1]])
        c = RationalMatrix.from_rows([[1], [0]])
        with pytest.raises(DomainError):
            solve_columns(b, c)

    def test_inverse_round_trip(self):
        rng = random.Random(13)
        done = 0
        while done < 40:
            a = random_int_matrix(rng, rng.randint(1, 4))
            if a.rank() != a.rows:
                continue
            assert a * inverse(a) == RationalMatrix.identity(a.rows)
            done += 1

    def test_inverse_singular(self):
        with pytest.raises(DomainError):
            inverse(HORSESHOE)

    def test_empty_matrix_charpoly(self):
        empty = RationalMatrix.zeros(0, 0)
        assert empty.charpoly() == (Fraction(1),)
        assert char_reversed(empty) == IntPolynomial([1])


# Entry families for the elimination properties: small rationals, integers
# far past a machine word, and mostly-zero integers.
ENTRIES = {
    "rational": st.fractions(min_value=-6, max_value=6, max_denominator=7),
    "large": st.integers(-2**90, 2**90).map(Fraction),
    "sparse": st.sampled_from([0, 0, 0, 0, 1, -1, 3]).map(Fraction),
}


@st.composite
def matrices(draw, rows=None, cols=None):
    """A RationalMatrix with 0..5 rows and columns (unless given), of
    either full random entries or rank at most k, as a product of n x k
    and k x m factors (k = 0 gives the zero matrix)."""
    n = draw(st.integers(0, 5)) if rows is None else rows
    m = draw(st.integers(0, 5)) if cols is None else cols
    entries = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    if draw(st.booleans()):
        return RationalMatrix(n, m, draw(st.lists(
            entries, min_size=n * m, max_size=n * m)))
    k = draw(st.integers(0, 3))
    left = RationalMatrix(n, k, draw(st.lists(
        entries, min_size=n * k, max_size=n * k)))
    right = RationalMatrix(k, m, draw(st.lists(
        entries, min_size=k * m, max_size=k * m)))
    return mat_mul_oracle(left, right)


class TestGaussJordanAgainstOracle:
    """Rank, column echelon form, kernel and solve share one fraction-free
    Gauss-Jordan kernel; check each against Fraction Gauss-Jordan."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(matrices())
    def test_rank(self, a):
        assert a.rank() == len(rref_oracle(a.tolist()))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(matrices())
    def test_column_rref(self, a):
        basis = column_rref(a)
        assert basis == column_rref_oracle(a)
        assert column_space(a).basis == basis

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(matrices())
    def test_kernel_basis(self, a):
        space = kernel_basis(a)
        assert space.basis == kernel_oracle(a)
        assert a * space.basis == RationalMatrix.zeros(a.rows, space.dim)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 4), st.integers(0, 3),
           st.data())
    def test_solve_columns(self, n, k, p, data):
        b = data.draw(matrices(rows=n, cols=k))
        if data.draw(st.booleans()):
            c = b * data.draw(matrices(rows=k, cols=p))
        else:
            c = data.draw(matrices(rows=n, cols=p))
        expected = solve_oracle(b, c)
        if expected == "inconsistent":
            with pytest.raises(DomainError):
                solve_columns(b, c)
        elif expected == "rank deficient":
            with pytest.raises(InvariantError):
                solve_columns(b, c)
        else:
            x = solve_columns(b, c)
            assert x == expected
            assert b * x == c

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, shape):
        a = RationalMatrix.zeros(*shape)
        assert a.rank() == 0
        assert column_rref(a) == RationalMatrix.zeros(shape[0], 0)
        assert kernel_basis(a).basis == RationalMatrix.identity(shape[1])
        assert solve_columns(RationalMatrix.zeros(shape[0], 0), a) == \
            RationalMatrix.zeros(0, shape[1])

    def test_inconsistent_and_rank_deficient_systems(self):
        b = RationalMatrix.from_rows([[1, 2], [2, 4], [0, 0]])
        with pytest.raises(DomainError):
            solve_columns(b, RationalMatrix.column([1, 2, 1]))
        with pytest.raises(InvariantError):
            solve_columns(b, RationalMatrix.column([1, 2, 0]))

    def test_large_entries_stay_exact(self):
        big = 2**200 + 1
        a = RationalMatrix.from_rows([[big, big + 1, 1],
                                      [big - 1, big, Fraction(1, big)]])
        assert column_rref(a) == column_rref_oracle(a)
        assert kernel_basis(a).basis == kernel_oracle(a)


class TestPowers:
    def test_power_matches_repeated_products(self):
        rng = random.Random(37)
        for _ in range(12):
            n = rng.randint(0, 4)
            a = random_rational_matrix(rng, n, n, max_den=3, bound=3)
            expected = RationalMatrix.identity(n)
            for k in range(21):
                assert a ** k == expected
                expected = mat_mul(expected, a)
