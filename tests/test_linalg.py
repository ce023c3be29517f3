import contextlib
import io
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conley import _modular, linalg
from conley._modular import is_prime, primes
from conley.cli import main
from conley.errors import DomainError, InvariantError, ShapeError
from conley.linalg import (RationalMatrix, Subspace, char_reversed,
                           char_reversed_rational, column_space, inverse,
                           kernel_basis, mat_mul, rank, solve_columns)
from conley.poly import IntPolynomial

from oracles import (SMALL_PRIMES, block_diag, char_reversed_oracle,
                     charpoly_cofactor, charpoly_oracle, column_rref_oracle,
                     conjugate, is_prime_trial, kernel_oracle,
                     mat_mul_oracle, primes_below_oracle, random_int_matrix,
                     random_rational_matrix, random_unimodular, rref_oracle,
                     rref_rank, solve_oracle, zero_column)

HORSESHOE = RationalMatrix.from_rows([[1, -1], [1, -1]])
# Minors far past the hypothesis sizes: entries in [-2, 2], n = 16, and
# the same matrix with column 0 zeroed.
NONSINGULAR_16 = random_int_matrix(random.Random(1), 16, -2, 2)
SINGULAR_16 = zero_column(NONSINGULAR_16, 0)
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

    @pytest.mark.parametrize("rows, cols, shown", [
        (2, 3, "2x3 matrix needs 6 entries, got 1"),
        (10 ** 5000, 1, "<integer of 16610 bits>x1 matrix needs "
                        "<integer of 16610 bits> entries, got 1"),
    ], ids=["small", "huge"])
    def test_entry_count_mismatch_is_a_shape_error(self, rows, cols, shown):
        with pytest.raises(ShapeError, match=f"^{shown}$"):
            RationalMatrix(rows, cols, [1])

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

    def test_product_trace_matches_trace_of_oracle_product(self):
        rng = random.Random(18)
        for _ in range(150):
            p, q = rng.randint(0, 5), rng.randint(0, 5)
            a = random_rational_matrix(rng, p, q)
            b = random_rational_matrix(rng, q, p)
            got = a.product_trace(b)
            assert type(got) is Fraction
            assert got == mat_mul_oracle(a, b).trace()
        with pytest.raises(ShapeError, match="^product trace needs a 3x2 "
                                             "matrix, got 2x3$"):
            RationalMatrix.zeros(2, 3).product_trace(
                RationalMatrix.zeros(2, 3))

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

    @pytest.mark.parametrize("a, b", [
        (RationalMatrix.zeros(0, 3),
         RationalMatrix.from_rows([[Fraction(1, 2), 1], [0, 2], [3, 1]])),
        (RationalMatrix(2, 0, []), RationalMatrix(0, 3, [])),
        (RationalMatrix.zeros(0, 0), RationalMatrix.zeros(0, 0)),
        (RationalMatrix.from_rows([[-7]]), RationalMatrix.from_rows([[3]])),
        (RationalMatrix.from_rows([[1, 2], [3, 4], [0, -1]]),
         RationalMatrix.from_rows([[Fraction(1, 2), Fraction(-1, 3)],
                                   [Fraction(1, 4), Fraction(5, 6)]])),
        (RationalMatrix.from_rows([[Fraction(3, 2)]]),
         RationalMatrix.from_rows([[Fraction(4, 3)]])),
        (RationalMatrix.from_rows([[Fraction(2, 3), Fraction(1, 3)],
                                   [Fraction(1, 3), Fraction(2, 3)]]),
         RationalMatrix.from_rows([[3, 6], [-3, 3]])),
        (RationalMatrix.from_rows([[Fraction(1, 6), Fraction(5, 6)]]),
         RationalMatrix.from_rows([[3], [Fraction(3, 10)]])),
    ], ids=["0xk_kxm", "nx0_0xm", "0x0", "1x1", "int_rational",
            "cancel_1x1", "cancel", "partly_cancel"])
    def test_product_on_the_stored_integers(self, a, b):
        got = mat_mul(a, b)
        expected = mat_mul_oracle(a, b)
        assert got == expected
        # Lowest terms: equal matrices store the same denominator and
        # entries, so a product with denominator 1 is the integer matrix.
        assert (got._d, got._e) == (expected._d, expected._e)
        assert all(type(x) is int for x in got._e)
        if got.is_integer:
            rows = [[int(x) for x in r] for r in expected.tolist()]
            integer = RationalMatrix(got.rows, got.cols,
                                     [x for r in rows for x in r])
            assert got == integer and hash(got) == hash(integer)

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
            basis = column_space(a).basis
            assert column_space(basis).basis == basis
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
        with pytest.raises(ShapeError,
                           match="^char_reversed needs a square matrix"):
            char_reversed(RationalMatrix.zeros(2, 3))

    def test_rational_entries_rejected(self):
        half = RationalMatrix.from_rows([[Fraction(1, 2)]])
        with pytest.raises(DomainError,
                           match="char_reversed needs integer entries"):
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
        # The third row of the rational matrix is the sum of the first two.
        rational = RationalMatrix.from_rows(
            [[Fraction(1, 2), Fraction(1, 3), 1],
             [1, Fraction(-2, 5), Fraction(3, 7)],
             [Fraction(3, 2), Fraction(-1, 15), Fraction(10, 7)]])
        for a in (HORSESHOE, rational):
            with pytest.raises(DomainError):
                inverse(a)

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
    """Column echelon form, kernel and solve share one forward
    fraction-free elimination and its back substitution, and rank takes
    its pivot count; check each against Fraction Gauss-Jordan."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(matrices())
    def test_rank(self, a):
        assert a.rank() == len(rref_oracle(a.tolist()))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(matrices())
    @example(RationalMatrix.zeros(0, 4))
    @example(RationalMatrix.zeros(4, 0))
    @example(RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                       [Fraction(3, 2), 1]]))
    def test_forward_elimination_keeps_each_vector_that_raises_the_rank(
            self, a):
        # On the rows and on the columns alike: vector k is kept exactly
        # when it raises the rank of the vectors before it, so the count
        # kept is the rank.
        rows = a._scaled_int_rows()[1]
        for vectors, n in ((rows, a.cols),
                           (linalg._columns(rows, a.cols), a.rows)):
            ranks = [rref_rank(vectors[:k]) for k in range(len(vectors) + 1)]
            _, found, dependent = linalg._eliminate(vectors, n)
            assert found == [
                k for k in range(len(vectors)) if ranks[k + 1] > ranks[k]]
            assert sorted(found + [k for k, _ in dependent]) == \
                list(range(len(vectors)))
        assert a.rank() == ranks[-1]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(matrices())
    @example(SINGULAR_16)
    def test_column_rref(self, a):
        basis = column_space(a).basis
        assert basis == column_rref_oracle(a)
        space = column_space(a)
        assert space.basis == basis
        assert Subspace(space.ambient_dim, space.basis) == space

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(matrices())
    @example(SINGULAR_16)
    def test_kernel_basis(self, a):
        space = kernel_basis(a)
        assert space.basis == kernel_oracle(a)
        assert a * space.basis == RationalMatrix.zeros(a.rows, space.dim)
        assert Subspace(space.ambient_dim, space.basis) == space

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

    def test_solve_and_inverse_with_large_minors(self):
        b = column_space(SINGULAR_16).basis
        c = SINGULAR_16 * b
        assert solve_columns(b, c) == solve_oracle(b, c)
        identity = RationalMatrix.identity(16)
        assert inverse(NONSINGULAR_16) == solve_oracle(NONSINGULAR_16,
                                                       identity)
        assert solve_oracle(SINGULAR_16, identity) == "inconsistent"
        with pytest.raises(DomainError):
            inverse(SINGULAR_16)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, shape):
        a = RationalMatrix.zeros(*shape)
        assert a.rank() == 0
        assert column_space(a).basis == RationalMatrix.zeros(shape[0], 0)
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
        assert column_space(a).basis == column_rref_oracle(a)
        assert kernel_basis(a).basis == kernel_oracle(a)


def _from_columns(n, columns):
    """The n x len(columns) matrix with these columns."""
    return RationalMatrix(n, len(columns),
                          [col[i] for i in range(n) for col in columns])


@st.composite
def full_rank_columns(draw):
    """(n, columns): k <= n independent columns of length n <= 6, with
    integer or rational entries."""
    n = draw(st.integers(0, 6))
    k = draw(st.integers(0, n))
    entries = draw(st.sampled_from([st.integers(-4, 4),
                                    ENTRIES["rational"]]))
    columns = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                            min_size=k, max_size=k))
    assume(rref_rank(columns) == k)
    return n, columns


NONZERO = st.one_of(st.integers(-5, -1), st.integers(1, 5),
                    st.fractions(1, 5, max_denominator=6))


class TestSubspaceConstructor:
    """The public constructor takes column_space's canonical basis, so a
    subspace is equal to, and hashes like, its column space however its
    basis is presented."""

    def test_a_scaled_basis_is_reduced(self):
        space = Subspace(2, RationalMatrix.from_rows([[2], [0]]))
        assert space == column_space(RationalMatrix.from_rows([[1], [0]]))
        assert space.basis.column_list(0) == [1, 0]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(full_rank_columns(), st.data())
    def test_every_presentation_gives_the_column_space(self, drawn, data):
        n, columns = drawn
        k = len(columns)
        space = column_space(_from_columns(n, columns))
        assert space.basis == column_rref_oracle(_from_columns(n, columns))
        # The first nonzero row of each column is a pivot row, and the
        # pivot rows form the identity: nonnilpotent_part relies on it.
        pivots = [next(i for i, x in enumerate(space.basis.column_list(j))
                       if x) for j in range(k)]
        assert [space.basis.row_list(p) for p in pivots] == \
            RationalMatrix.identity(k).tolist()
        scales = data.draw(st.lists(NONZERO, min_size=k, max_size=k))
        order = data.draw(st.permutations(range(k)))
        copies = [columns,
                  [[s * x for x in col] for s, col in zip(scales, columns)],
                  [columns[j] for j in order]]
        if k >= 2:
            i, j = data.draw(st.lists(st.integers(0, k - 1), min_size=2,
                                      max_size=2, unique=True))
            c = data.draw(NONZERO)
            sheared = list(columns)
            sheared[i] = [x + c * y for x, y in zip(columns[i], columns[j])]
            copies.append(sheared)
        for copy in copies:
            subspace = Subspace(n, _from_columns(n, copy))
            assert subspace == space
            assert hash(subspace) == hash(space)
        if k < n:
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=k,
                                        max_size=k))
            combination = [sum(c * col[i] for c, col in zip(coeffs, columns))
                           for i in range(n)]
            with pytest.raises(InvariantError,
                               match="subspace basis columns are dependent"):
                Subspace(n, _from_columns(n, columns + [combination]))
        empty = Subspace(n, RationalMatrix.zeros(n, 0))
        assert empty == column_space(RationalMatrix.zeros(n, 0))
        assert empty.dim == 0


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


class TestOperandTypes:
    def test_sum_and_difference_with_a_scalar_raise_type_error(self):
        a = RationalMatrix.identity(2)
        for op in (lambda: a + 1, lambda: a - 1, lambda: 1 + a,
                   lambda: 1 - a):
            with pytest.raises(TypeError):
                op()

    def test_augment_needs_a_matrix(self):
        with pytest.raises(TypeError):
            RationalMatrix.identity(2).augment([[1], [2]])

    @pytest.mark.parametrize("bad", [0.5, True, "1", None])
    def test_non_rational_entries_and_scalars(self, bad):
        with pytest.raises(DomainError):
            RationalMatrix(1, 1, [bad])
        with pytest.raises(DomainError):
            RationalMatrix.identity(1) * bad


@st.composite
def fraction_grids(draw):
    """(n, m, row-major Fraction entries) for an n x m matrix."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    return n, m, draw(st.lists(entries, min_size=n * m, max_size=n * m))


def _routes(n, m, values, other, s, k):
    """The matrix with these entries, reached in six ways: the
    constructor, the scaled integer form times k, a sum and difference, a
    scalar and its inverse, a double transpose and an augment."""
    a = RationalMatrix(n, m, values)
    b = RationalMatrix(n, m, other)
    denom = lcm(*(x.denominator for x in values))
    scaled = [[k * int(x * denom) for x in values[i * m:(i + 1) * m]]
              for i in range(n)]
    split = m // 2
    left, right = (RationalMatrix(n, len(cols), [values[i * m + j]
                                                 for i in range(n)
                                                 for j in cols])
                   for cols in (range(split), range(split, m)))
    return [a, RationalMatrix._from_scaled(scaled, m, k * denom),
            a + b - b, (a * s) * (1 / s), a.transpose().transpose(),
            left.augment(right)]


class TestCanonicalStorage:
    """A matrix is stored as its least common denominator and integer
    entries in lowest terms, whichever route built it."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(fraction_grids(),
           st.fractions(min_value=-6, max_value=6,
                        max_denominator=7).filter(bool),
           st.integers(-5, 5).filter(bool), st.data())
    def test_routes_store_alike(self, grid, s, k, data):
        n, m, values = grid
        other = data.draw(st.lists(ENTRIES["rational"], min_size=n * m,
                                   max_size=n * m))
        expected = [values[i * m:(i + 1) * m] for i in range(n)]
        routes = _routes(n, m, values, other, s, k)
        for x in routes:
            assert (x.rows, x.cols) == (n, m)
            assert x._d > 0 and all(type(e) is int for e in x._e)
            assert gcd(x._d, *x._e) == 1
            read = [x.tolist(), [x.row_list(i) for i in range(n)],
                    [[x[i, j] for j in range(m)] for i in range(n)]]
            columns = [x.column_list(j) for j in range(m)]
            for got in read + [columns]:
                assert all(type(v) is Fraction for row in got for v in row)
            assert read[0] == read[1] == read[2] == expected
            assert columns == [[row[j] for row in expected]
                               for j in range(m)]
            if n == m:
                trace = x.trace()
                assert type(trace) is Fraction
                assert trace == sum(values[i * (m + 1)] for i in range(n))
        candidates = routes + [RationalMatrix(n, m, other),
                               RationalMatrix(n, m, values[::-1])]
        for x in candidates:
            for y in candidates:
                assert (x == y) == (x.tolist() == y.tolist())
                if x == y:
                    assert hash(x) == hash(y)


def _check_charpoly(a):
    """a.charpoly() equals the Fraction Faddeev-LeVerrier oracle and, for
    n <= 5, cofactor expansion."""
    got = a.charpoly()
    assert got == charpoly_oracle(a)
    if a.rows <= 5:
        assert got == charpoly_cofactor(a)
    assert all(type(c) is Fraction for c in got) and got[-1] == 1
    return got


def _iroot(x, n):
    """The largest r >= 0 with r^n <= x."""
    lo, hi = 0, 1 << (x.bit_length() // n + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid ** n <= x else (lo, mid - 1)
    return lo


def _counting_passes(monkeypatch):
    """Record (modulus, returned None) for each charpoly_mod pass that
    charpoly runs."""
    calls = []
    run = linalg.charpoly_mod

    def counting(rows, modulus):
        coeffs = run(rows, modulus)
        calls.append((modulus, coeffs is None))
        return coeffs

    monkeypatch.setattr(linalg, "charpoly_mod", counting)
    return calls


class TestModularCharpoly:
    """charpoly reduces B = D a modulo products of up to eight primes below
    2^78 to Hessenberg form and rebuilds the coefficients by the CRT under
    a Hadamard bound; each case is checked against the two oracles."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(0, 10).flatmap(lambda n: st.lists(
        st.integers(-2**100, 2**100), min_size=n * n,
        max_size=n * n).map(lambda e: RationalMatrix(n, n, e))))
    def test_integer_matrices_with_large_entries(self, a):
        _check_charpoly(a)

    def test_entries_of_100_bits_need_several_primes(self):
        rng = random.Random(37)
        a = RationalMatrix.from_rows(
            [[rng.choice((-1, 1)) * 2 ** 100 + rng.randint(-9, 9)
              for _ in range(10)] for _ in range(10)])
        # |det| > 2^624 > the product of any eight primes below 2^78, so
        # the residues of two passes meet in the CRT.
        assert abs(_check_charpoly(a)[0]) > 2 ** 624

    def test_one_pass_per_group_of_eight_primes(self, monkeypatch):
        rng = random.Random(61)
        a = RationalMatrix.from_rows(
            [[rng.choice((-1, 1)) * 2 ** 100 for _ in range(10)]
             for _ in range(10)])
        hadamard = prod(2 + isqrt(sum(x * x for x in row))
                        for row in a.to_int_rows())
        ps = primes_below_oracle(2 ** 78, 24)
        k = next(k for k in range(1, 25) if prod(ps[:k]) > 2 * hadamard)
        calls = _counting_passes(monkeypatch)
        _check_charpoly(a)
        assert len(calls) == -(-k // 8) == 2
        assert calls == [(prod(ps[i:min(i + 8, k)]), False)
                         for i in range(0, k, 8)]

    def test_pivot_is_the_first_unit_of_the_column(self, monkeypatch):
        # Column 0 holds p, a zero divisor of the group modulus, above 1, a
        # unit: the pass pivots on the 1 and needs no redo.
        p = primes_below_oracle(2 ** 78, 1)[0]
        big = 2 ** 80
        a = RationalMatrix.from_rows([[big, 1, 2, 3], [p, big, 4, 5],
                                      [1, 6, big, 7], [8, 9, 10, big]])
        calls = _counting_passes(monkeypatch)
        _check_charpoly(a)
        [(modulus, failed)] = calls
        assert modulus % p == 0 and modulus > p and not failed

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda n: st.lists(
        st.fractions(min_value=-10**6, max_value=10**6,
                     max_denominator=10**6),
        min_size=n * n, max_size=n * n).map(
            lambda e: RationalMatrix(n, n, e))))
    def test_rational_matrices(self, a):
        _check_charpoly(a)

    def test_entries_that_vanish_modulo_the_first_prime(self, monkeypatch):
        ps = primes_below_oracle(2 ** 78, 16)
        p = ps[0]
        calls = _counting_passes(monkeypatch)
        rng = random.Random(41)
        for n in range(1, 7):
            a = random_int_matrix(rng, n) * p
            calls.clear()
            _check_charpoly(a)
            if n >= 3:
                # Every multiple of p is a zero divisor of the first
                # group's modulus, so column 0 has no unit: that pass
                # returns None and is skipped, and the next primes form
                # the next group.
                (first, failed), (second, _), *_ = calls
                k = next(k for k in range(2, 9) if prod(ps[:k]) == first)
                assert failed
                assert second in {prod(ps[k:j]) for j in range(k + 1, 16)}
                assert all(gcd(m, first) == 1 for m, _ in calls[1:])
            else:
                assert not any(failed for _, failed in calls)
            # The coefficient of t^k for p M is p^(n-k) times that for M.
            assert (a * Fraction(1, p)).charpoly() == \
                tuple(c / p ** (n - k) for k, c in enumerate(a.charpoly()))

    def test_groups_whose_primes_divide_the_pivot_column_are_skipped(
            self, monkeypatch):
        # Column 0 below the diagonal holds multiples of ps[0] ps[8]: no
        # unit modulo the first group (ps[0..7]) or the second (ps[8..15]);
        # the third group, ps[16..23], pivots.
        ps = primes_below_oracle(2 ** 78, 24)
        rng = random.Random(53)
        rows = [[rng.choice((-1, 1)) * 2 ** 400 + rng.randint(-9, 9)
                 for _ in range(4)] for _ in range(4)]
        for i in range(1, 4):
            rows[i][0] = ps[0] * ps[8] * rng.choice((-2, -1, 1, 2))
        a = RationalMatrix.from_rows(rows)
        # The bound passes every product of seven primes, so each group
        # holds eight.
        hadamard = prod(2 + isqrt(sum(x * x for x in row)) for row in rows)
        assert 2 * hadamard > prod(ps[:16])
        calls = _counting_passes(monkeypatch)
        _check_charpoly(a)
        assert calls[:3] == [(prod(ps[0:8]), True), (prod(ps[8:16]), True),
                             (prod(ps[16:24]), False)]
        assert not any(failed for _, failed in calls[3:])

    def test_zero_divisor_fixture_meets_a_skipped_group(self, monkeypatch,
                                                        fixture_path):
        # zero_divisor.json holds multiples of the first prime below 2^78,
        # so the golden corpus keeps a charpoly whose group is skipped.
        calls = _counting_passes(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["zeta", fixture_path("zero_divisor.json")]) == 0
        assert any(failed for _, failed in calls)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 8).flatmap(lambda n: st.lists(
        st.sampled_from([0, 0, 0, 0, 1, -1, 2]), min_size=n * n,
        max_size=n * n).map(lambda e: RationalMatrix(n, n, e))))
    def test_sparse_matrices_need_pivot_swaps_and_skips(self, a):
        _check_charpoly(a)

    def test_block_triangular_matrices(self):
        rng = random.Random(43)
        for _ in range(20):
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
            n = sum(sizes)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            start = 0
            for size in sizes:
                for i in range(start + size, n):
                    for j in range(start, start + size):
                        rows[i][j] = 0
                start += size
            _check_charpoly(RationalMatrix.from_rows(rows))

    def test_nilpotent_and_tiny_matrices(self):
        rng = random.Random(47)
        zero_char = {n: tuple(Fraction(int(k == n)) for k in range(n + 1))
                     for n in range(9)}
        for n in range(9):
            upper = RationalMatrix.from_rows(
                [[rng.randint(-5, 5) if j > i else 0 for j in range(n)]
                 for i in range(n)])
            assert _check_charpoly(upper) == zero_char[n]
            if n:
                u = random_unimodular(rng, n)
                assert _check_charpoly(conjugate(u, upper)) == zero_char[n]
        assert RationalMatrix.zeros(0, 0).charpoly() == (Fraction(1),)
        for x in (0, 1, -1, 2 ** 61 - 1, -(2 ** 200), Fraction(-7, 3)):
            assert _check_charpoly(RationalMatrix.from_rows([[x]])) == \
                (-Fraction(x), Fraction(1))
        assert _check_charpoly(block_diag(
            [RationalMatrix.from_rows([[0, 1], [0, 0]])] * 3)) == zero_char[6]

    @pytest.mark.parametrize("n, k", [(1, 1), (1, 2), (2, 2), (3, 3), (5, 2)])
    def test_determinant_at_the_symmetric_residue_edge(self, n, k):
        # diag(+-a, ..., +-a) has Hadamard bound H = (2 + a)^n, and the
        # product M of the first k primes is the first to pass 2 H, so
        # |det| = a^n lies within a factor 2 of H and just below M / 2.
        ps = primes_below_oracle(2 ** 78, k)
        modulus = prod(ps)
        a = _iroot((modulus - 1) // 2, n) - 2
        bound = (2 + a) ** n
        assert prod(ps[:-1]) <= 2 * bound < modulus
        assert bound <= 2 * a ** n
        rng = random.Random(53 + n)
        for negatives in range(n + 1):
            signs = [-1] * negatives + [1] * (n - negatives)
            rng.shuffle(signs)
            d = RationalMatrix.from_rows(
                [[s * a if i == j else 0 for j in range(n)]
                 for i, s in enumerate(signs)])
            det = prod(signs) * a ** n
            got = _check_charpoly(d)
            assert d.det() == det
            assert got[0] == (-1) ** n * det


def test_charpoly_forms_no_matrix_product(monkeypatch):
    # Faddeev-LeVerrier multiplied n integer matrices, O(n^4); the
    # modular route must form none.  Every product of two matrices goes
    # through linalg.mat_mul.
    calls = []
    product = linalg.mat_mul

    def counting(a, b):
        calls.append(a.rows)
        return product(a, b)

    monkeypatch.setattr(linalg, "mat_mul", counting)
    a = random_int_matrix(random.Random(59), 12, -9, 9)
    assert mat_mul(a, a) == a ** 2 and calls
    calls.clear()
    a.charpoly()
    a.det()
    char_reversed(a)
    assert calls == []


def test_char_reversed_of_an_integer_matrix_builds_no_fraction(monkeypatch):
    # det(I - A t) of an integer matrix is read as ints off the integer core
    # of the characteristic polynomial; only charpoly() builds Fractions.
    # A repeated row makes A singular, so the degree drops below n.
    rows = random_int_matrix(random.Random(61), 6, -9, 9).to_int_rows()
    rows[5] = rows[2]
    a = RationalMatrix.from_rows(rows)
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(linalg, "Fraction", counting)
    got = char_reversed(a)
    assert built == []
    assert list(got.coeffs) == char_reversed_oracle(rows)
    assert got.degree < 6
    assert [c.denominator for c in a.charpoly()] == [1] * 7 and built


@pytest.mark.parametrize("a", [
    RationalMatrix.from_rows(
        [[Fraction(1, 2), 1, 0, Fraction(2, 3), 1],
         [1, 2, 0, Fraction(4, 3), 2],
         [0, Fraction(1, 5), 1, 0, -1],
         [Fraction(1, 2), Fraction(6, 5), 1, Fraction(2, 3), 0]]),
    RationalMatrix.zeros(4, 5),
    RationalMatrix.from_rows([[2, 1, 0], [1, 3, 1], [0, 1, 4]]),
], ids=["rank_deficient", "zero", "full_rank"])
def test_one_elimination_per_subspace(monkeypatch, a):
    # The echelon basis, the kernel and the solve each come out of one
    # forward elimination and its back substitution, and none re-ranks
    # the basis that elimination built.
    calls = []
    eliminate = linalg._eliminate

    def counting(vectors, n):
        calls.append(n)
        return eliminate(vectors, n)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    for build in (column_space, kernel_basis,
                  lambda m: solve_columns(m, m)):
        calls.clear()
        try:
            build(a)
        except InvariantError:      # a's columns are dependent
            pass
        assert len(calls) == 1


class TestPrimeSource:
    def test_first_prime_below_2_78(self):
        assert next(primes()) == 2 ** 78 - 11

    def test_primes_match_the_fermat_oracle(self):
        assert list(islice(primes(), 8)) == primes_below_oracle(2 ** 78, 8)

    def test_small_primes_for_root_lifting_come_in_order(self):
        assert list(islice(primes(2, 1), 100)) == SMALL_PRIMES[:100]

    def test_witnesses_decide_every_candidate_below_2_78(self):
        # psi_12, the least strong pseudoprime to the first twelve prime
        # bases (Sorenson and Webster, Math. Comp. 86, 2017), fools
        # Miller-Rabin to them; every candidate primes() tries lies below.
        psi_12 = 318665857834031151167461
        assert _modular.WITNESSES == tuple(SMALL_PRIMES[:12])
        assert 399165290221 * 798330580441 == psi_12
        assert is_prime(psi_12)
        assert next(primes()) < 2 ** 78 < psi_12

    def test_miller_rabin_matches_trial_division(self):
        assert [n for n in range(10 ** 5) if is_prime(n)] == \
            [n for n in range(10 ** 5) if is_prime_trial(n)]

    @pytest.mark.parametrize("n, factors", [
        (3215031751, (151, 751, 28351)),
        (2152302898747, (6763, 10627, 29947)),
        (3474749660383, (1303, 16927, 157543)),
        (341550071728321, (10670053, 32010157)),
        (3825123056546413051, (149491, 747451, 34233211)),
    ])
    def test_strong_pseudoprimes_to_the_first_bases_are_composite(
            self, n, factors):
        # Each passes Miller-Rabin to the first four to nine prime bases.
        assert prod(factors) == n
        assert not is_prime(n)

    def test_importing_the_package_finds_no_prime(self):
        code = ("import conley, conley.cli, conley._modular as m; "
                "print(m.nth_prime.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             timeout=30).stdout
        assert out.strip() == "0"

    def test_threads_that_race_for_a_new_prime_store_it_once(
            self, monkeypatch):
        # A slow is_prime holds the search open, so four threads that start
        # together on a cleared memo all search for the first prime before
        # any stores it; the memo must still hold one entry per index.
        _modular.nth_prime.cache_clear()
        fast = _modular.is_prime

        def slow(n):
            time.sleep(0.001)
            return fast(n)

        monkeypatch.setattr(_modular, "is_prime", slow)
        start = threading.Barrier(4, timeout=30)
        taken = []

        def take():
            start.wait()
            taken.append(list(islice(primes(), 2)))

        threads = [threading.Thread(target=take) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        expected = primes_below_oracle(2 ** 78, 2)
        assert expected[0] == 2 ** 78 - 11
        assert taken == [expected] * 4
        assert _modular.nth_prime.cache_info().currsize == 2
        # Multiples of the first prime send its bound's group of primes
        # through the one-prime redo, whose CRT a repeated prime would
        # break.
        a = RationalMatrix.from_rows(
            [[expected[0] * x for x in row]
             for row in ([1, 2, 3], [5, 1, 7], [11, 13, 1])])
        assert a.charpoly() == charpoly_oracle(a)
