"""Dense exact linear algebra over the rationals.

A matrix is stored as its least common denominator D > 0 and the
row-major integer entries of D times the matrix, in lowest terms (D and
the entries share no factor), so equal matrices have equal storage and an
integer matrix has D = 1; entries leave as Fractions.  Every kernel reads
the stored integers.  Products, powers and the characteristic polynomial
bring in the matching power of D once, when the result is built.  Rank,
kernel, column echelon form and solve share one fraction-free (Bareiss)
Gauss-Jordan elimination: every intermediate is an integer minor of the
input, and the reduced echelon form is d times an integer matrix, which
becomes the stored form with denominator d.  The cyclic decomposition
behind ``spectral.invariant_factors`` calls the same elimination directly
on its integer Krylov chains.
Subspaces carry a canonical basis (the reduced column echelon form), so
equal subspaces compare equal entrywise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import DomainError, InvariantError, ShapeError
from .poly import IntPolynomial

# The scalar field: arbitrary-precision rationals from the standard
# library, already kept in lowest terms with a positive denominator.
Rational = Fraction


def _scaled(values):
    """(D, ints): D the least common denominator of a sequence of ints and
    Fractions, and ints the tuple of its members times D; DomainError for
    any other member."""
    values = tuple(values)
    denom = 1
    for x in values:
        if type(x) is int:
            continue
        if isinstance(x, Fraction):
            denom = lcm(denom, x.denominator)
        elif not isinstance(x, int) or isinstance(x, bool):
            raise DomainError(f"matrix entry {x!r} is not a rational number")
    if denom == 1:
        return 1, tuple(map(int, values))
    return denom, tuple(x.numerator * (denom // x.denominator)
                        for x in values)


class RationalMatrix:
    """Immutable dense matrix of exact rationals, stored as a positive
    common denominator and the integer entries of the matrix times it."""

    __slots__ = ("rows", "cols", "_d", "_e")

    def __init__(self, rows, cols, entries):
        denom, flat = _scaled(entries)
        if len(flat) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, "
                f"got {len(flat)}")
        self.rows, self.cols, self._d, self._e = rows, cols, denom, flat

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ShapeError("ragged rows in matrix literal")
        return cls(nrows, ncols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n):
        return cls._from_scaled(
            [[int(i == j) for j in range(n)] for i in range(n)], n, 1)

    @classmethod
    def zeros(cls, rows, cols):
        return cls._from_scaled([[0] * cols for _ in range(rows)], cols, 1)

    @classmethod
    def column(cls, entries):
        entries = list(entries)
        return cls(len(entries), 1, entries)

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return Fraction(self._e[i * self.cols + j], self._d)

    def row_list(self, i):
        return [Fraction(x, self._d)
                for x in self._e[i * self.cols:(i + 1) * self.cols]]

    def column_list(self, j):
        return [Fraction(self._e[i * self.cols + j], self._d)
                for i in range(self.rows)]

    def tolist(self):
        return [self.row_list(i) for i in range(self.rows)]

    @property
    def is_square(self):
        return self.rows == self.cols

    @property
    def is_integer(self):
        return self._d == 1

    def to_int_rows(self):
        if not self.is_integer:
            raise DomainError("matrix has non-integer entries")
        return [list(row) for row in self._scaled_int_rows()[1]]

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._d, self._e) == (
            other.rows, other.cols, other._d, other._e)

    def __hash__(self):
        return hash((self.rows, self.cols, self._d, self._e))

    def __repr__(self):
        return f"RationalMatrix.from_rows({self.tolist()!r})"

    def __neg__(self):
        return self * -1

    def __add__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix addition shape mismatch")
        # The two halves of [self | other] share one denominator.
        c = self.cols
        denom, rows = self.augment(other)._scaled_int_rows()
        return RationalMatrix._from_scaled(
            [[x + y for x, y in zip(row[:c], row[c:])] for row in rows],
            c, denom)

    def __sub__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            return mat_mul(self, other)
        d, (num,) = _scaled([other])
        denom, rows = self._scaled_int_rows()
        return RationalMatrix._from_scaled(
            [[num * x for x in row] for row in rows], self.cols, denom * d)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n):
        self._require_square("matrix power")
        if n < 0:
            raise DomainError("negative matrix power")
        denom, rows = self._scaled_int_rows()
        out = [[int(i == j) for j in range(self.cols)]
               for i in range(self.rows)]
        # Binary exponentiation: rows runs through (D self)^(2^k).
        k = n
        while k:
            if k & 1:
                out = _int_product(out, _columns(rows, self.cols))
            k >>= 1
            if k:
                rows = _int_product(rows, _columns(rows, self.cols))
        return RationalMatrix._from_scaled(out, self.cols, denom ** n)

    def transpose(self):
        denom, rows = self._scaled_int_rows()
        return RationalMatrix._from_scaled(_columns(rows, self.cols),
                                           self.rows, denom)

    def trace(self):
        self._require_square("trace")
        return Fraction(sum(self._e[::self.cols + 1]), self._d)

    def augment(self, other):
        if not isinstance(other, RationalMatrix):
            raise TypeError("augment needs a RationalMatrix, got "
                            f"{type(other).__name__}")
        if self.rows != other.rows:
            raise ShapeError("augment needs equal row counts")
        denom = lcm(self._d, other._d)
        s, t = denom // self._d, denom // other._d
        return RationalMatrix._from_scaled(
            [[s * x for x in p] + [t * y for y in q] for p, q in
             zip(self._scaled_int_rows()[1], other._scaled_int_rows()[1])],
            self.cols + other.cols, denom)

    def _require_square(self, what):
        if not self.is_square:
            raise ShapeError(f"{what} needs a square matrix, "
                             f"got {self.rows}x{self.cols}")

    def _scaled_int_rows(self):
        """(D, rows): the stored denominator D and the rows of D * self as
        int tuples."""
        c, e = self.cols, self._e
        return self._d, [e[i * c:(i + 1) * c] for i in range(self.rows)]

    @classmethod
    def _from_scaled(cls, rows, ncols, denom):
        """The matrix (1 / denom) * rows, for int rows with ncols columns
        and a nonzero int denom, stored in lowest terms."""
        flat = tuple(chain.from_iterable(rows))
        if denom != 1:
            g = gcd(denom, *flat)
            if denom < 0:
                g = -g
            if g != 1:
                denom //= g
                flat = tuple(x // g for x in flat)
        m = object.__new__(cls)
        m.rows, m.cols, m._d, m._e = len(rows), ncols, denom, flat
        return m

    def rank(self):
        """Exact rank: the pivot count of fraction-free elimination."""
        return len(_gauss_jordan(self._scaled_int_rows()[1])[0])

    def charpoly(self):
        """Monic characteristic polynomial det(tI - self), ascending
        Fraction coefficients, computed by the Faddeev-LeVerrier trace
        recursion on the integer matrix B = D self.

        The coefficients c_k of det(tI - B) are integers, and so is every
        matrix of the recursion, so c_k = -tr(M_k) / k divides exactly;
        the coefficient of t^(n-k) for self is c_k / D^k.
        """
        self._require_square("characteristic polynomial")
        n = self.rows
        denom, rows = self._scaled_int_rows()
        # M_k is a polynomial in B, so it commutes with B and B's columns
        # serve every step.
        cols = _columns(rows, n)
        coeffs = [1]                    # descending: c_0, c_1, ...
        m = [[0] * n for _ in range(n)]
        for k in range(1, n + 1):
            for i in range(n):
                m[i][i] += coeffs[-1]
            m = _int_product(m, cols)
            c, r = divmod(-sum(m[i][i] for i in range(n)), k)
            if r:
                raise InvariantError("Faddeev-LeVerrier trace of an integer "
                                     "matrix is not divisible by its step")
            coeffs.append(c)
        return tuple(Fraction(c, denom ** k)
                     for k, c in reversed(list(enumerate(coeffs))))

    def det(self):
        self._require_square("determinant")
        if self.rows == 0:
            return Fraction(1)
        c0 = self.charpoly()[0]
        return c0 if self.rows % 2 == 0 else -c0


def mat_mul(a, b):
    """Exact product a * b; ``RationalMatrix.__mul__`` forwards here."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by "
                         f"{b.rows}x{b.cols}")
    da, ra = a._scaled_int_rows()
    db, rb = b._scaled_int_rows()
    return RationalMatrix._from_scaled(
        _int_product(ra, _columns(rb, b.cols)), b.cols, da * db)


def _columns(rows, ncols):
    """The columns of an integer row list with ncols columns."""
    return [[row[j] for row in rows] for j in range(ncols)]


def _int_product(rows, cols):
    """Integer matrix product, given the left factor's rows and the right
    factor's columns."""
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


def _gauss_jordan(m):
    """Fraction-free Gauss-Jordan elimination in place on a list of
    integer rows (the list is rewritten, the rows are not mutated).

    Returns (pivot column list, d).  Each step updates every other row,
    earlier pivot rows included, by (p x - f y) / prev, which Sylvester's
    identity makes exact (Bareiss 1968), so every entry stays a minor of
    the input.  Afterwards the first len(pivots) rows of m are d times the
    rows of the reduced row echelon form, d the last pivot (1 when there
    is none), and the remaining rows are zero.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        row = m[r]
        p = row[c]
        for i in range(nrows):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], row)]
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, prev


def rank(a):
    """Exact rank of a; forwards to ``RationalMatrix.rank``."""
    return a.rank()


class Subspace:
    """Subspace of Q^n carried by a canonical basis.

    The basis columns are the reduced column echelon form of any spanning
    set, so two Subspace values are equal exactly when they describe the
    same subspace.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis):
        if basis.rows != ambient_dim:
            raise ShapeError("basis rows must match the ambient dimension")
        if basis.cols > ambient_dim:
            raise ShapeError("more basis columns than the ambient dimension")
        if basis.cols and basis.rank() != basis.cols:
            raise InvariantError("subspace basis columns are dependent")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def spanned_by_columns(cls, m):
        return cls(m.rows, column_rref(m))

    @property
    def dim(self):
        return self.basis.cols

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return (f"Subspace(dim={self.dim}, "
                f"ambient_dim={self.ambient_dim})")

    def contains(self, vector):
        """Exact membership test for a length-n coordinate sequence."""
        _, vec = _scaled(vector)
        if len(vec) != self.ambient_dim:
            raise ShapeError("vector length does not match ambient space")
        vectors = _columns(self.basis._scaled_int_rows()[1], self.dim)
        return len(_gauss_jordan(vectors + [vec])[0]) == self.dim


def column_rref(m):
    """Canonical basis (reduced column echelon form) of the column space."""
    return _echelon_basis(_columns(m._scaled_int_rows()[1], m.cols), m.rows)


def _echelon_basis(vectors, n):
    """The reduced column echelon form of the span of integer vectors of
    length n, as an n x rank matrix; vectors is consumed."""
    pivots, d = _gauss_jordan(vectors)
    r = len(pivots)
    return RationalMatrix._from_scaled(_columns(vectors[:r], n), r, d)


def column_space(a):
    """Column space of a, with canonical basis."""
    return Subspace.spanned_by_columns(a)


def kernel_basis(a):
    """Canonical basis of the exact null space {v : a v = 0}.

    With d times the reduced row echelon form in m, the free column f
    gives the integer null vector with d at f and -m[r][f] at pivot
    column p_r; the result is normalised to reduced column echelon form.
    """
    m = a._scaled_int_rows()[1]
    pivots, d = _gauss_jordan(m)
    vectors = []
    for f in (c for c in range(a.cols) if c not in pivots):
        v = [0] * a.cols
        v[f] = d
        for r, p in enumerate(pivots):
            v[p] = -m[r][f]
        vectors.append(v)
    return Subspace(a.cols, _echelon_basis(vectors, a.cols))


def solve_columns(b, c):
    """The unique x with b x = c for a full-column-rank b; raises
    DomainError when the system is inconsistent."""
    if b.rows != c.rows:
        raise ShapeError("solve needs matching row counts")
    rows = b.augment(c)._scaled_int_rows()[1]
    pivots, d = _gauss_jordan(rows)
    if any(p >= b.cols for p in pivots):
        raise DomainError("inconsistent linear system")
    if len(pivots) != b.cols:
        raise InvariantError("solve requires full column rank")
    return RationalMatrix._from_scaled(
        [row[b.cols:] for row in rows[:b.cols]], c.cols, d)


def inverse(a):
    """Exact inverse of a square nonsingular matrix."""
    a._require_square("inverse")
    if a.rank() != a.rows:
        raise DomainError("matrix is singular")
    return solve_columns(a, RationalMatrix.identity(a.rows))


def _reversed_from_charpoly(coeffs):
    """det(I - a t) from the monic charpoly coefficients of a: the
    coefficient of t^k is the charpoly coefficient of t^(n-k)."""
    rev = list(reversed(coeffs))
    for c in rev:
        if c.denominator != 1:
            raise DomainError(
                "characteristic polynomial is not integral")
    return IntPolynomial([int(c) for c in rev])


def char_reversed(a):
    """det(I - a t) in Z[t] for a square integer matrix.

    The constant term is always 1; the degree drops by the multiplicity of
    the zero eigenvalue.
    """
    a._require_square("char_reversed")
    if not a.is_integer:
        raise DomainError("char_reversed needs integer entries")
    return _reversed_from_charpoly(a.charpoly())


def char_reversed_rational(a):
    """det(I - a t) for a rational square matrix whose characteristic
    polynomial happens to be integral (e.g. any matrix similar to an
    integer one).  DomainError when the coefficients are not integers."""
    a._require_square("char_reversed_rational")
    return _reversed_from_charpoly(a.charpoly())
