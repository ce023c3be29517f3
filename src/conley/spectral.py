"""Eventual kernel and image, induced invertible parts, and exact
conjugacy invariants of rational matrices.

Similarity over the rationals is certified by invariant factors (the
diagonal of the Smith normal form of tI - A over Q[t]), obtained from a
cyclic decomposition: the minimal polynomial is the annihilator of a
suitable vector, and the rest comes from the map induced on the quotient
by that vector's cyclic subspace.  All of it runs on integer rows: one
fraction-free elimination of the Krylov chain gives the annihilator, and
a second, of the chain beside the identity, the quotient map.  The block
structure per irreducible factor of the characteristic polynomial is
read off the same invariant factors, so the index and the block profile
share one computation and never leave exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import mul

from .errors import DomainError, InvariantError
from .linalg import (RationalMatrix, Subspace, _gauss_jordan, column_space,
                     kernel_basis, solve_columns)
from .poly import (T, IntPolynomial, exact_div, poly_gcd,
                   squarefree_decomposition)

KIND_RATIONAL = "rational_eigenvalue"
KIND_COMPLEX = "complex_pair"
KIND_UNRESOLVED = "unresolved"


def generalized_kernel(a):
    """ker(a^n) for an n x n matrix: the stabilised member of the chain
    ker a <= ker a^2 <= ..., with canonical basis."""
    a._require_square("generalized kernel")
    return kernel_basis(a ** a.rows)


def generalized_image(a):
    """Column space of a^n for an n x n matrix, with canonical basis."""
    a._require_square("generalized image")
    return column_space(a ** a.rows)


@dataclass(frozen=True)
class InducedMap:
    """Restriction of a square matrix to its eventual image.

    ``matrix`` is the (invertible) action in the coordinates of
    ``image_basis``; the defining identity is
    ``source * image_basis = image_basis * matrix``.
    """

    matrix: RationalMatrix
    image_basis: Subspace
    ambient_dim: int
    source: RationalMatrix

    @property
    def dim(self):
        return self.matrix.rows

    def verify(self):
        """Recheck the intertwining identity and invertibility exactly."""
        b = self.image_basis.basis
        if self.source * b != b * self.matrix:
            raise InvariantError("induced map does not intertwine its basis")
        if self.dim and self.matrix.rank() != self.dim:
            raise InvariantError("induced map is singular")
        return True


def nonnilpotent_part(a):
    """The invertible map induced by a on its eventual image.

    The quotient of the ambient space by the eventual kernel is canonically
    isomorphic to the eventual image, and a maps that image bijectively to
    itself, so this is the nonnilpotent part of a.  A nilpotent input gives
    the empty 0 x 0 map.
    """
    a._require_square("nonnilpotent part")
    image = generalized_image(a)
    basis = image.basis
    if image.dim == 0:
        matrix = RationalMatrix.zeros(0, 0)
    else:
        matrix = solve_columns(basis, a * basis)
        if matrix.rank() != image.dim:
            raise InvariantError("restriction to the eventual image "
                                 "is singular")
    return InducedMap(matrix=matrix, image_basis=image,
                      ambient_dim=a.rows, source=a)


# ---------------------------------------------------------------------------
# invariant factors via a cyclic decomposition

def _apply(rows, w):
    """The integer matrix with these rows times the integer vector w."""
    return [sum(map(mul, row, w)) for row in rows]


def _kills(rows, q, j):
    """True when q(B) e_j = 0, B the integer matrix with these rows and q
    ascending integer coefficients (Horner's rule)."""
    w = [0] * len(rows)
    for c in reversed(q):
        w = _apply(rows, w)
        w[j] += c
    return not any(w)


def _split_cyclic(denom, rows):
    """(minimal polynomial of m, map induced on the quotient by a cyclic
    subspace whose annihilator is that polynomial) for m = rows / denom,
    int rows over a positive int denom; the quotient comes back in the
    same form, in lowest terms.

    Such a subspace has an m-invariant complement, so the quotient map
    carries exactly the remaining invariant factors.  A vector misses the
    minimal polynomial mu only inside ker (mu / r)(m) for one of the at
    most n irreducible factors r of mu; any n trial vectors (1, x, x^2,
    ...) are independent (Vandermonde), so each such proper subspace holds
    at most n - 1 of them and one of the first n (n - 1) + 1 succeeds.
    """
    n = len(rows)
    for x in range(1, n * (n - 1) + 2):
        # The Krylov chain of v under B = denom * m stays integral; a
        # dependency c_k among the B^k v is c_k denom^k among the m^k v.
        chain = [[x ** i for i in range(n)]]
        for _ in range(n):
            chain.append(_apply(rows, chain[-1]))
        krylov = [list(col) for col in zip(*chain)]
        pivots, last = _gauss_jordan(krylov)
        d = len(pivots)
        # The pivots are columns 0..d-1, and column d is last times the
        # coordinates of B^d v on them: q(B) v = 0.
        q = [-krylov[k][d] for k in range(d)] + [last]
        p = IntPolynomial([c * denom ** k
                           for k, c in enumerate(q)]).normalized()
        if d == n:
            return p, 1, []
        # Eliminating [chain | I] inverts the basis of the chain and the
        # unit vectors at its pivots among the identity columns; rows d..
        # of its identity block are last times the quotient coordinates.
        basis = [[v[i] for v in chain[:d]] + [int(i == j) for j in range(n)]
                 for i in range(n)]
        pivots, last = _gauss_jordan(basis)
        if len(pivots) != n:
            raise InvariantError("Krylov chain and unit vectors do not "
                                 "span the space")
        units = [c - d for c in pivots[d:]]
        # q(B) is a nonzero multiple of denom^d p(m), which kills the
        # chain, so p(m) = 0 once q(B) kills the units too.
        if all(_kills(rows, q, j) for j in units):
            unit_columns = [[row[j] for row in rows] for j in units]
            quotient = RationalMatrix._from_scaled(
                [_apply(unit_columns, row[d:]) for row in basis[d:]],
                len(units), last * denom)
            return (p, *quotient._scaled_int_rows())
    raise InvariantError("no trial vector reached the minimal polynomial")


def invariant_factors(a):
    """Nontrivial invariant factors of a, smallest first.

    Each factor divides the next, their product is the characteristic
    polynomial, and the list determines a up to similarity over Q.
    Returned primitive and integral (monic for integer input).
    """
    a._require_square("invariant factors")
    denom, rows = a._scaled_int_rows()
    factors = []
    while rows:
        p, denom, rows = _split_cyclic(denom, rows)
        factors.append(p)
    factors.reverse()
    return factors


def is_similar(a, b):
    """True when a and b are conjugate over Q (same rational canonical
    form); matrices of different sizes are never similar."""
    a._require_square("similarity test")
    b._require_square("similarity test")
    if a.rows != b.rows:
        return False
    return invariant_factors(a) == invariant_factors(b)


# ---------------------------------------------------------------------------
# Jordan-type block profile per irreducible factor

@dataclass(frozen=True)
class EigenClass:
    """Block data for one factor of the characteristic polynomial.

    ``block_sizes`` is non-increasing; for a quadratic complex-pair factor
    the sizes count conjugate pairs once.  ``kind`` is one of
    KIND_RATIONAL, KIND_COMPLEX, KIND_UNRESOLVED.
    """

    factor: IntPolynomial
    kind: str
    block_sizes: tuple
    algebraic_multiplicity: int
    geometric_multiplicity: int


@dataclass(frozen=True)
class JordanProfile:
    ambient_dim: int
    entries: tuple

    def class_for(self, factor):
        for entry in self.entries:
            if entry.factor == factor:
                return entry
        return None

    def without_zero_class(self):
        """The profile with the zero-eigenvalue class removed; this equals
        the profile of the nonnilpotent part."""
        kept = tuple(e for e in self.entries if e.factor != T)
        dim = sum(e.factor.degree * e.algebraic_multiplicity for e in kept)
        return JordanProfile(dim, kept)

    def check(self):
        total = 0
        for e in self.entries:
            if list(e.block_sizes) != sorted(e.block_sizes, reverse=True):
                raise InvariantError("block sizes are not non-increasing")
            if len(e.block_sizes) != e.geometric_multiplicity:
                raise InvariantError("block count disagrees with geometric "
                                     "multiplicity")
            if sum(e.block_sizes) != e.algebraic_multiplicity:
                raise InvariantError("block sizes disagree with algebraic "
                                     "multiplicity")
            total += e.factor.degree * e.algebraic_multiplicity
        if total != self.ambient_dim:
            raise InvariantError("profile does not fill the ambient space")
        return True


def _signed_divisors(c):
    out = set()
    for d in range(1, isqrt(c) + 1):
        if c % d == 0:
            out.update((d, -d, c // d, -(c // d)))
    return sorted(out)


def _split_squarefree(part):
    """Split a monic squarefree integer polynomial into a zero root,
    integer roots, and an undivided remainder classified by degree."""
    out = []
    rem = part
    if rem.degree >= 1 and rem.coefficient(0) == 0:
        out.append((T, KIND_RATIONAL))
        rem = exact_div(rem, T)
    if rem.degree >= 1:
        for r in _signed_divisors(abs(rem.coefficient(0))):
            if rem.degree < 1:
                break
            if rem(r) == 0:
                factor = IntPolynomial([-r, 1])
                out.append((factor, KIND_RATIONAL))
                rem = exact_div(rem, factor)
    if rem.degree == 1:
        raise InvariantError("monic linear factor escaped root extraction")
    if rem.degree == 2:
        disc = rem.coefficient(1) ** 2 - 4 * rem.coefficient(0)
        out.append((rem, KIND_COMPLEX if disc < 0 else KIND_UNRESOLVED))
    elif rem.degree >= 3:
        out.append((rem, KIND_UNRESOLVED))
    return out


def _class_sort_key(entry):
    f = entry.factor
    if f.degree == 1:
        return (1, -f.coefficient(0))
    return (f.degree, f.coeffs)


def _uniform_pieces(factors):
    """Split the squarefree part of the largest invariant factor into
    pieces whose irreducible factors share one exponent vector across all
    the invariant factors; yields (piece, block sizes).

    An irreducible factor q with exponent e in an invariant factor is an
    elementary divisor q^e, i.e. one block of size e, so a piece with a
    uniform exponent vector has one block multiset for all its factors.
    """
    pieces = [(part, (e,))
              for part, e in squarefree_decomposition(factors[-1])]
    for f in factors[:-1]:
        parts = squarefree_decomposition(f)
        refined = []
        for piece, exponents in pieces:
            for part, e in parts:
                g = poly_gcd(piece, part)
                if g.degree > 0:
                    refined.append((g, exponents + (e,)))
                    piece = exact_div(piece, g)
            if piece.degree > 0:
                refined.append((piece, exponents))
        pieces = refined
    for piece, exponents in pieces:
        yield piece, tuple(sorted(exponents, reverse=True))


def jordan_profile(a):
    """Block profile of an integer square matrix over Q-irreducible
    factors of its characteristic polynomial.

    The block sizes are read off the invariant factors.  Factors are
    obtained from coprime splitting of their squarefree parts, integer-root
    extraction and a quadratic discriminant test; residual factors of
    degree >= 3 (and irrational real quadratics) are reported as
    KIND_UNRESOLVED, with exact block data, one entry per product of
    irreducible factors that share a block structure.
    """
    a._require_square("jordan profile")
    if not a.is_integer:
        raise DomainError("jordan_profile needs integer entries")
    n = a.rows
    if n == 0:
        return JordanProfile(0, ())
    entries = []
    for piece, sizes in _uniform_pieces(invariant_factors(a)):
        for factor, kind in _split_squarefree(piece):
            entries.append(EigenClass(
                factor=factor, kind=kind, block_sizes=sizes,
                algebraic_multiplicity=sum(sizes),
                geometric_multiplicity=len(sizes)))
    entries.sort(key=_class_sort_key)
    profile = JordanProfile(n, tuple(entries))
    profile.check()
    return profile
