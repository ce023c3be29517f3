"""Dense exact linear algebra over the rationals.

A matrix is stored as its least common denominator D > 0 and the
row-major integer entries of D times the matrix, in lowest terms (D and
the entries share no factor), so equal matrices have equal storage and an
integer matrix has D = 1.  Every kernel reads the stored integers, and a
product slices rows and columns off them once.  One Hessenberg core,
modulo products of primes, pivoting on units and rebuilt by the CRT under
a proven bound, gives the int coefficients of det(tI - D A), so an integer
matrix reads det(I - A t) as ints; its power traces are int sums of the
stored entries, and Fractions are built only at the public edge.

Elimination is fraction-free (Bareiss), so every intermediate is an
integer minor of the input, and there is one of it.  The forward
elimination (_eliminate, on _reduce and _pivot) takes integer vectors one
at a time, keeps those independent of the ones before and reduces the
rest.  Its pivot count is every rank, and its steps eliminate the Krylov
chains behind ``spectral.invariant_factors`` as they grow.  Back
substitution (_back_substitute) gives a reduced vector's coordinates on
the independent ones, integers once scaled by the last pivot d, so
``column_space``, ``kernel_basis`` and ``solve_columns`` build d times
the reduced echelon form, stored with denominator d.  Subspaces carry
that canonical basis (the reduced column echelon form), so equal
subspaces compare equal entrywise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm, prod
from operator import mul

from ._modular import charpoly_mod, primes
from .errors import DomainError, InvariantError, ShapeError, _shown
from .poly import IntPolynomial, _power

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
            raise DomainError(f"matrix entry {_shown(x)} is not a rational "
                              "number")
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
                f"{_shown(rows)}x{_shown(cols)} matrix needs "
                f"{_shown(rows * cols)} entries, got {len(flat)}")
        self.rows, self.cols, self._d, self._e = rows, cols, denom, flat

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeError("ragged rows in matrix literal")
        return cls(len(rows), ncols, [x for r in rows for x in r])

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
        denom = lcm(self._d, other._d)
        s, t = denom // self._d, denom // other._d
        return RationalMatrix._from_flat(self.rows, self.cols, denom, tuple(
            [s * x + t * y for x, y in zip(self._e, other._e)]))

    def __sub__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            return mat_mul(self, other)
        d, (num,) = _scaled([other])
        return RationalMatrix._from_flat(self.rows, self.cols, self._d * d,
                                         tuple([num * x for x in self._e]))

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n):
        self._require_square("matrix power")
        if n < 0:
            raise DomainError("negative matrix power")
        return _power(self, n, lambda: RationalMatrix.identity(self.rows))

    def transpose(self):
        denom, rows = self._scaled_int_rows()
        return RationalMatrix._from_scaled(_columns(rows, self.cols),
                                           self.rows, denom)

    def trace(self):
        return Fraction(self._trace_sum(), self._d)

    def _trace_sum(self):
        """D tr(self) as an int, D the stored denominator."""
        self._require_square("trace")
        return sum(self._e[::self.cols + 1])

    def product_trace(self, other):
        """tr(self * other) without forming the product."""
        return Fraction(self._product_trace_sum(other), self._d * other._d)

    def _product_trace_sum(self, other):
        """D E tr(self * other) as an int, D and E the stored denominators:
        the sum of the stored self_rc other_cr over all r, c."""
        if (self.rows, self.cols) != (other.cols, other.rows):
            raise ShapeError(f"product trace needs a {self.cols}x{self.rows}"
                             f" matrix, got {other.rows}x{other.cols}")
        c = other.cols
        return sum(map(mul, self._e, chain.from_iterable(
            other._e[r::c] for r in range(c))))

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
        return cls._from_flat(len(rows), ncols, denom,
                              tuple(chain.from_iterable(rows)))

    @classmethod
    def _from_flat(cls, nrows, ncols, denom, flat):
        """_from_scaled for the row-major tuple of the rows; only a
        denominator other than 1 takes a gcd."""
        if denom != 1:
            g = gcd(denom, *flat)
            if denom < 0:
                g = -g
            if g != 1:
                denom //= g
                flat = tuple(x // g for x in flat)
        m = object.__new__(cls)
        m.rows, m.cols, m._d, m._e = nrows, ncols, denom, flat
        return m

    def rank(self):
        """Exact rank: the pivot count of the forward elimination of the
        rows."""
        return len(_eliminate(self._scaled_int_rows()[1], self.cols)[1])

    def charpoly(self):
        """Monic characteristic polynomial det(tI - self), ascending
        Fraction coefficients: c_k / D^k at t^(n-k), from _char_core."""
        denom, coeffs = self._char_core()
        return tuple(Fraction(c) if denom == 1 else Fraction(c, denom ** k)
                     for k, c in reversed(list(enumerate(coeffs))))

    def _char_core(self):
        """(D, [1, c_1, ..., c_n]): the stored denominator and the int
        coefficients of det(tI - B), B = D self, from t^n down (those of
        det(I - B t) from t^0 up).  Up to sign, c_k is the sum of the
        principal k x k minors of B, so Hadamard's inequality gives
        |c_k| <= prod(2 + isqrt(r_i^2)), r_i the Euclidean norm of row i.
        Primes just below 2^78 are taken until their product passes twice
        that bound, in groups of at most _GROUP; one Hessenberg pass runs on
        B modulo the product of each group, redone one prime at a time if
        it finds no unit pivot, and the symmetric residues of the CRT of
        the passes are the c_k.
        """
        self._require_square("characteristic polynomial")
        denom, rows = self._scaled_int_rows()
        bound = 2 * prod(2 + isqrt(sum(map(mul, row, row))) for row in rows)
        source = primes()
        modulus, coeffs = 1, None
        while modulus <= bound:
            m = p = next(source)
            group = [p]
            while modulus * m <= bound and len(group) < _GROUP:
                p = next(source)
                group.append(p)
                m *= p
            part = charpoly_mod(rows, m)
            if part is None:                    # no unit pivot mod m
                part, m = charpoly_mod(rows, group[0]), group[0]
                for p in group[1:]:
                    part, m = _crt(part, m, charpoly_mod(rows, p), p), m * p
            coeffs = _crt(coeffs, modulus, part, m) if coeffs else part
            modulus *= m
        half = modulus // 2
        return denom, [c - modulus if c > half else c for c in coeffs]

    def det(self):
        self._require_square("determinant")
        denom, coeffs = self._char_core()
        return Fraction((-1) ** self.rows * coeffs[-1], denom ** self.rows)


# Primes per Hessenberg pass at most: at n = 16 (CPython 3.11, x86_64) one
# pass modulo k primes costs half of k one-prime passes at k = 4 and 8,
# 0.7 of them at k = 16 and more than all k at k = 48.
_GROUP = 8


def _crt(a, m, b, n):
    """The list congruent to a mod m and to b mod n, entry by entry, reduced
    mod m n, for coprime m and n."""
    inv = pow(m, -1, n)
    return [x + m * ((y - x) * inv % n) for x, y in zip(a, b)]


def mat_mul(a, b):
    """Exact product a * b on the stored integers, each row of D a and
    each column of E b sliced once; ``RationalMatrix.__mul__`` forwards
    here."""
    k, m = a.cols, b.cols
    if k != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{k} by {b.rows}x{m}")
    x, y = a._e, b._e
    cols = [y[j::m] for j in range(m)]
    rows = [x[i * k:(i + 1) * k] for i in range(a.rows)]
    return RationalMatrix._from_flat(a.rows, m, a._d * b._d, tuple(
        [sum(map(mul, row, col)) for row in rows for col in cols]))


def _columns(rows, ncols):
    """The columns of an integer row list with ncols columns."""
    return [[row[j] for row in rows] for j in range(ncols)]


def _reduce(columns, y):
    """y, in pivot order, reduced in place against the columns of a forward
    elimination (fraction-free Bareiss, forward only): step k turns each
    entry i > k into (p y_i - f y_k) / prev, p the k-th pivot, prev the one
    before (1 for k = 0) and f the column's entry i.  Entry i is then the
    minor of the pivot rows 0..k and row i on the first k + 1 vectors and y
    (Sylvester's identity), so each division is exact."""
    prev = 1
    for k, col in enumerate(columns):
        p, z = col[k], y[k]
        if z:
            y[k + 1:] = [(p * a - f * z) // prev
                         for a, f in zip(y[k + 1:], col[k + 1:])]
        elif p != prev:
            y[k + 1:] = [p * a // prev for a in y[k + 1:]]
        prev = p
    return y


def _pivot(order, columns, y):
    """Append y, reduced by _reduce, to the columns as pivot d = len(columns)
    and return True; False when y is zero from position d on (y depends on
    the columns).  The first nonzero entry of y from d on becomes the pivot:
    it is swapped to position d, in ``order`` and in every column, so pivot
    k is the leading k + 1 square minor of the vectors on their rows in
    ``order``."""
    d = len(columns)
    for j in range(d, len(y)):
        if y[j]:
            break
    else:
        return False
    if j != d:
        order[d], order[j] = order[j], order[d]
        for col in columns:
            col[d], col[j] = col[j], col[d]
        y[d], y[j] = y[j], y[d]
    columns.append(y)
    return True


def _eliminate(vectors, n):
    """(columns, found, dependent) of one forward elimination of integer
    vectors of length n, each put in pivot order, reduced and pivoted in
    as it arrives: those independent of the ones before them, reduced
    (pivot k is columns[k][k]), their positions, and (position, y) for
    every other vector, y its first d entries reduced, d the pivots before
    it (the rest are zero, and later pivots swap only those)."""
    order, columns, found, dependent = list(range(n)), [], [], []
    for k, v in enumerate(vectors):
        y = _reduce(columns, [v[i] for i in order])
        if _pivot(order, columns, y):
            found.append(k)
        else:
            del y[len(columns):]
            dependent.append((k, y))
    return columns, found, dependent


def _back_substitute(columns, y, scale):
    """x = scale c, c the coordinates of a vector on the first d = len(y)
    independent ones, y the vector reduced.  _reduce is linear and turns
    independent vector j into columns[j] up to entry j and zeros after, so
    y_k = sum_(j >= k) columns[j][k] c_j, solved from the last pivot up.
    Each division is exact when x is integral, as it is with the last
    pivot as scale (Cramer's rule); a remainder is an arithmetic fault."""
    d = len(y)
    x = [0] * d
    for k in range(d - 1, -1, -1):
        s = scale * y[k]
        for j in range(k + 1, d):
            s -= columns[j][k] * x[j]
        x[k], r = divmod(s, columns[k][k])
        if r:
            raise InvariantError("back substitution leaves a remainder: "
                                 "the coordinates are not integral")
    return x


def _coordinates(vectors, n):
    """(found, scale, dependent): _eliminate's independent positions, its
    last pivot (1 if none) and (position, x) for every other vector, x
    scale times its coordinates on the independent ones before it."""
    columns, found, dependent = _eliminate(vectors, n)
    scale = columns[-1][len(columns) - 1] if columns else 1
    return found, scale, [(k, _back_substitute(columns, y, scale))
                          for k, y in dependent]


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
        space = column_space(basis)
        if space.dim != basis.cols:
            raise InvariantError("subspace basis columns are dependent")
        self.ambient_dim, self.basis = ambient_dim, space.basis

    @classmethod
    def _from_echelon(cls, ambient_dim, basis):
        """Skips the elimination: basis is already an echelon form."""
        s = object.__new__(cls)
        s.ambient_dim, s.basis = ambient_dim, basis
        return s

    @classmethod
    def spanned_by_columns(cls, m):
        """The column space of m; forwards to ``column_space``."""
        return column_space(m)

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
        return f"Subspace(dim={self.dim}, ambient_dim={self.ambient_dim})"

    def contains(self, vector):
        """Exact membership test for a length-n coordinate sequence."""
        _, vec = _scaled(vector)
        if len(vec) != self.ambient_dim:
            raise ShapeError("vector length does not match ambient space")
        vectors = _columns(self.basis._scaled_int_rows()[1], self.dim)
        vectors.append(vec)
        return len(_eliminate(vectors, self.ambient_dim)[1]) == self.dim


def column_space(a):
    """Column space of a, with canonical basis B (the reduced column echelon
    form) from one forward elimination of a's rows.  The rows independent
    of the ones before them are B's pivot rows P, where B is the identity,
    and a = B a[P], so row i of B holds the coordinates of a[i] on a[P]."""
    found, scale, dependent = _coordinates(a._scaled_int_rows()[1], a.cols)
    r = len(found)
    rows = [[0] * r for _ in range(a.rows)]
    for j, i in enumerate(found):
        rows[i][j] = scale
    for i, x in dependent:
        rows[i][:len(x)] = x
    return Subspace._from_echelon(a.rows, RationalMatrix._from_scaled(
        rows, r, scale))


def kernel_basis(a):
    """Canonical basis of the exact null space {v : a v = 0}.

    The columns of a are eliminated last to first, so a free column f
    depends on pivot columns after it, and its null vector (scale at f,
    minus its scaled coordinates at those columns) starts at f, where every
    other one is zero: in increasing f these vectors are the reduced column
    echelon form.
    """
    n = a.cols
    found, scale, dependent = _coordinates(
        [a._e[j::n] for j in range(n - 1, -1, -1)], a.rows)
    pivots = [n - 1 - k for k in found]
    rows = [[0] * len(dependent) for _ in range(n)]
    for t, (k, x) in enumerate(reversed(dependent)):
        rows[n - 1 - k][t] = scale
        for p, y in zip(pivots, x):
            rows[p][t] = -y
    return Subspace._from_echelon(n, RationalMatrix._from_scaled(
        rows, len(dependent), scale))


def solve_columns(b, c):
    """The unique x with b x = c for a full-column-rank b, from one forward
    elimination of b's columns, then c's.  Raises DomainError when a column
    of c is independent (no solution), then InvariantError for a short rank."""
    if b.rows != c.rows:
        raise ShapeError("solve needs matching row counts")
    m, k = b.cols, c.cols
    found, scale, dependent = _coordinates(
        [b._e[j::m] for j in range(m)] + [c._e[j::k] for j in range(k)],
        b.rows)
    if found and found[-1] >= m:
        raise DomainError("inconsistent linear system")
    if len(found) != m:
        raise InvariantError("solve requires full column rank")
    # The stored integers are D b and E c, and D b y = E c for y the
    # coordinates of c's columns over scale, so x = (D / E) y.
    return RationalMatrix._from_scaled(
        [[b._d * y for y in row]
         for row in _columns([x for _, x in dependent], m)], k, scale * c._d)


def inverse(a):
    """Exact inverse of a square nonsingular matrix."""
    a._require_square("inverse")
    return solve_columns(a, RationalMatrix.identity(a.rows))


def char_reversed(a):
    """det(I - a t) in Z[t] for a square integer matrix, read off its
    int characteristic polynomial: the constant term is 1, and the degree
    drops by the multiplicity of the zero eigenvalue."""
    a._require_square("char_reversed")
    if not a.is_integer:
        raise DomainError("char_reversed needs integer entries")
    return IntPolynomial._of(a._char_core()[1])


def char_reversed_rational(a):
    """det(I - a t) for a rational square matrix whose characteristic
    polynomial happens to be integral (e.g. any matrix similar to an
    integer one), read off its charpoly coefficients in reverse.
    DomainError when the coefficients are not integers."""
    a._require_square("char_reversed_rational")
    rev = a.charpoly()[::-1]
    if any(c.denominator != 1 for c in rev):
        raise DomainError("characteristic polynomial is not integral")
    return IntPolynomial._of([c.numerator for c in rev])
