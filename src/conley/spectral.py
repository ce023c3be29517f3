"""Eventual kernel and image, induced invertible parts, and exact
conjugacy invariants of rational matrices.

The eventual image is the stable member of the chain im A >= im A^2 >=
..., built one elimination per step until a step keeps the dimension;
there A maps the image onto itself, so the induced map A+ is invertible
without a further rank check.

Similarity over the rationals is certified by invariant factors (the
diagonal of the Smith normal form of tI - A over Q[t]), obtained from a
cyclic decomposition: the minimal polynomial is the annihilator of a
suitable vector, and the rest comes from the map induced on the quotient
by that vector's cyclic subspace.  All of it runs on integer rows: one
fraction-free elimination of the Krylov chain gives the annihilator, and
a second, of the chain beside the identity, the quotient map.  The block
structure per irreducible factor of the characteristic polynomial is
read off the same invariant factors, so the index and the block profile
share one computation and never leave exact arithmetic.  Integer
eigenvalues come from p-adic lifting of the roots modulo a small prime,
in time polynomial in the degree and the coefficients' bit length.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from ._modular import is_prime
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
    ker a <= ker a^2 <= ..., with canonical basis.

    It forms a^n rather than stopping where the chain stabilises, so that
    it shares no step with generalized_image: dim ker a^n + dim im a^k = n
    then compares two independent computations, where a stopping power
    shared by both would make it hold by rank-nullity alone."""
    a._require_square("generalized kernel")
    return kernel_basis(a ** a.rows)


def generalized_image(a):
    """The eventual image im a^n of an n x n matrix, with canonical basis.

    It follows the chain V_0 = Q^n >= V_1 >= ..., V_(k+1) = a V_k, one
    elimination of a times the basis of V_k per step, so no power of a
    is formed.  At the first step that keeps the dimension, a maps V_k
    onto itself, so every later member equals V_k, and the subspace just
    built is V_k itself (the canonical basis is unique).  The dimension
    falls at each earlier step, so there are at most n + 1 eliminations.
    """
    a._require_square("generalized image")
    dim, image = a.rows, a
    while (space := column_space(image)).dim != dim:
        dim, image = space.dim, a * space.basis
    return space


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
        """Check the intertwining identity and invertibility exactly.

        nonnilpotent_part proves invertibility by construction and does
        not rank the matrix, so this is the one explicit check of it."""
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
    the empty 0 x 0 map.  The matrix is not ranked: generalized_image
    stops only where a maps the image onto itself, which is the statement
    that this matrix is invertible.
    """
    a._require_square("nonnilpotent part")
    image = generalized_image(a)
    basis = image.basis
    return InducedMap(matrix=solve_columns(basis, a * basis),
                      image_basis=image, ambient_dim=a.rows, source=a)


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


def _eval_mod(coeffs, x, m):
    """f(x) mod m for f with these ascending integer coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _lifting_prime(coeffs, deriv):
    """(p, roots of f mod p) for the smallest prime p at which every root
    of f mod p is simple, f the monic squarefree integer polynomial with
    ascending coefficients ``coeffs`` and derivative ``deriv``.

    A root that is double mod p makes p divide Res(f, f'), an integer
    combination of f and f', which is nonzero because f is squarefree.
    Hadamard's bound on the Sylvester matrix gives |Res(f, f')|^2 <=
    |f|^(2(n-1)) |f'|^(2n) in euclidean norms, so once the skipped primes
    multiply past that bound f cannot be squarefree, and the search stops
    with InvariantError instead of running on.
    """
    skipped, bound = 1, None
    p = 1
    while True:
        p += 1
        if not is_prime(p):
            continue
        reduced = [c % p for c in coeffs]
        roots = [r for r in range(p) if not _eval_mod(reduced, r, p)]
        if all(_eval_mod(deriv, r, p) for r in roots):
            return p, roots
        if bound is None:
            n = len(deriv)
            bound = (sum(c * c for c in coeffs) ** (n - 1)
                     * sum(c * c for c in deriv) ** n)
        skipped *= p
        if skipped * skipped > bound:
            raise InvariantError(f"{IntPolynomial(coeffs)} has a repeated "
                                 f"root: no prime keeps its roots simple")


def _integer_root_candidates(f):
    """A list that holds every integer root of f, a monic squarefree
    integer polynomial with f(0) != 0, by p-adic lifting (R. Loos,
    "Computing rational zeros of integral polynomials by p-adic
    expansion", SIAM J. Comput. 1983).

    An integer root reduces to a simple root r mod p, and Newton's step
    lifts r uniquely from modulus m to m^2.  A root divides f(0), so once
    m > 2 |f(0)| the symmetric residue of the lifted r is the root itself,
    and a lifted r that does not divide f(0) is no root.  A candidate may
    still not be a root; the caller checks each one exactly.
    """
    coeffs = f.coeffs
    c0 = coeffs[0]
    if len(coeffs) == 2:
        return [-c0]
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    p, roots = _lifting_prime(coeffs, deriv)
    out = []
    for r in roots:
        m = p
        while m <= 2 * abs(c0):
            m *= m
            r = (r - _eval_mod(coeffs, r, m)
                 * pow(_eval_mod(deriv, r, m), -1, m)) % m
        if 2 * r > m:
            r -= m
        if r and c0 % r == 0:
            out.append(r)
    return out


def _split_squarefree(part):
    """Split a monic squarefree integer polynomial into a zero root,
    integer roots, and an undivided remainder classified by degree."""
    out = []
    rem = part
    if rem.degree >= 1 and rem.coefficient(0) == 0:
        out.append((T, KIND_RATIONAL))
        rem = exact_div(rem, T)
    if rem.degree >= 1:
        for r in _integer_root_candidates(rem):
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
    extraction by p-adic lifting (every integer root, whatever its size,
    in time polynomial in the bit length) and a quadratic discriminant
    test; residual factors of degree >= 3 (and irrational real quadratics)
    are reported as KIND_UNRESOLVED, with exact block data, one entry per
    product of irreducible factors that share a block structure.
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
