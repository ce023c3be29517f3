"""Eventual kernel and image, induced invertible parts, and exact
conjugacy invariants of rational matrices.

The eventual image is the stable member of the chain im A >= im A^2 >=
..., followed on integer spanning columns with one forward elimination
(linalg's) per step until a step keeps the dimension; there A maps the
image onto itself, so the induced map A+, read off the pivot rows of the
one column space taken at the end, is invertible without a further rank
check.  The eventual kernel follows its own chain, ker A <= ker A^2 <=
..., with one kernel per step, and stops at the first that does not
grow; neither chain forms a power of A.

Similarity over the rationals is certified by invariant factors (the
diagonal of the Smith normal form of tI - A over Q[t]), obtained from a
cyclic decomposition: the minimal polynomial is the annihilator of a
suitable vector, and the rest comes from the map induced on the quotient
by that vector's cyclic subspace.  All of it runs on integer rows, and
the Krylov chain is eliminated once, by the same forward elimination, as
it grows: it stops at its first dependent vector, whose integer
coordinates on the earlier ones give the monic annihilator, and each
column of the matrix reduced by the same steps gives a column of the
quotient map.  A module is
generated by a trial vector and the lifts of its quotient's generators,
so an annihilator is certified to be the minimal polynomial on the
lifted trial vectors of the lower levels, not on every unit vector.  The
block structure per irreducible factor of the characteristic polynomial
is read off the same invariant factors, so the index and the block
profile share one computation and never leave exact arithmetic.  Integer
eigenvalues come from p-adic lifting of the roots modulo a small prime,
in time polynomial in the degree and the coefficients' bit length.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from ._modular import primes
from .errors import DomainError, InvariantError
from .linalg import (RationalMatrix, Subspace, _back_substitute, _columns,
                     _eliminate, _pivot, _reduce, column_space,
                     kernel_basis, solve_columns)
from .poly import (T, IntPolynomial, exact_div, poly_gcd,
                   squarefree_decomposition)

KIND_RATIONAL = "rational_eigenvalue"
KIND_COMPLEX = "complex_pair"
KIND_UNRESOLVED = "unresolved"


def generalized_kernel(a):
    """ker(a^n) for an n x n matrix: the stable member of the chain
    K_0 = 0 <= K_1 <= ..., with canonical basis.

    K_(j+1) = {v : a v in K_j} is the first n coordinates of ker [a | B_j],
    B_j the canonical basis of K_j: B_j has full column rank, so dropping
    the last coordinates keeps that kernel's vectors independent, and every
    leading entry of its reduced column echelon basis lies among the first
    n, where the truncated basis is the canonical one of K_(j+1).  K_1 is
    ker a itself, which ends the chain when a is nonsingular; otherwise it
    stops at the first kernel of dimension dim K_j.  It forms no power of a.

    The chain shares no step with generalized_image, which eliminates
    columns of integer spanning sets of the images and takes one column
    space; this one takes kernels, with its own stop.  So dim ker a^n +
    dim im a^n = n, checked by verify, compares two independent
    computations rather than holding by rank-nullity alone."""
    a._require_square("generalized kernel")
    n = a.rows
    rows = a._scaled_int_rows()[1]
    space = kernel_basis(a)     # K_1, all of the chain for a nonsingular a
    while k := space.dim:
        # [D a | d B_j], D and d the denominators: scaling a block keeps
        # the first n coordinates of the kernel.
        kernel = kernel_basis(RationalMatrix._from_scaled(
            [r + b for r, b in zip(rows, space.basis._scaled_int_rows()[1])],
            n + k, 1)).basis
        if kernel.cols == k:
            break
        denom, vectors = kernel._scaled_int_rows()
        space = Subspace._from_echelon(n, RationalMatrix._from_scaled(
            vectors[:n], kernel.cols, denom))
    return space


def generalized_image(a):
    """The eventual image im a^n of an n x n matrix, with canonical basis.

    It follows the chain V_0 = Q^n >= V_1 >= ..., V_(k+1) = a V_k, on
    integer spanning columns: S_1 = D a for the denominator D of a, and
    S_(k+1) = D a times the columns of S_k that the forward elimination
    finds independent, a basis of V_k, so no power of a is formed.  At
    the first step that keeps the dimension, a maps V_k onto itself, so
    every later member equals V_k, and one column space of that basis
    gives the canonical one (the identity when the first step keeps
    dimension n).  The dimension falls at each earlier step, so there are
    at most n + 1 forward eliminations.
    """
    a._require_square("generalized image")
    n = a.rows
    rows = a._scaled_int_rows()[1]
    dim, basis, span = n, None, _columns(rows, n)
    while len(keep := _eliminate(span, n)[1]) != dim:
        dim, basis = len(keep), [span[j] for j in keep]
        span = [_apply(rows, v) for v in basis]
    if basis is None:
        return Subspace._from_echelon(n, RationalMatrix.identity(n))
    return column_space(RationalMatrix._from_scaled(_columns(basis, n),
                                                    dim, 1))


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
        """Solve B X = source B for the matrix and rank it, exactly;
        nonnilpotent_part reads the matrix off pivot rows and does neither."""
        b = self.image_basis.basis
        try:    # b has full column rank: at most one solution
            solved = solve_columns(b, self.source * b)
        except DomainError:     # source * b leaves the span of b
            solved = None
        if solved != self.matrix:
            raise InvariantError("induced map does not intertwine its basis")
        if self.dim and self.matrix.rank() != self.dim:
            raise InvariantError("induced map is singular")
        return True


def nonnilpotent_part(a):
    """The invertible map induced by a on its eventual image.

    The quotient of the ambient space by the eventual kernel is canonically
    isomorphic to the eventual image, and a maps that image bijectively to
    itself, so this is the nonnilpotent part of a.  A nilpotent input gives
    the empty 0 x 0 map.  Nothing is ranked or solved: generalized_image
    stops only where a maps the image onto itself, so the matrix is
    invertible, and the canonical basis B is the identity on its pivot rows
    P (each column's first nonzero row), so B X = a B gives X = a[P] B.
    An image of dimension n has B = I, and then X = a, with no product.
    """
    a._require_square("nonnilpotent part")
    image = generalized_image(a)
    if image.dim == a.rows:
        return InducedMap(a, image, a.rows, a)
    denom, rows = a._scaled_int_rows()
    cols = _columns(image.basis._scaled_int_rows()[1], image.dim)
    pivot_rows = [rows[next(i for i, x in enumerate(c) if x)] for c in cols]
    return InducedMap(RationalMatrix._from_scaled(pivot_rows, a.cols, denom)
                      * image.basis, image, a.rows, a)


# ---------------------------------------------------------------------------
# invariant factors via a cyclic decomposition

def _apply(rows, w):
    """The integer matrix with these rows times the integer vector w."""
    return [sum(map(mul, row, w)) for row in rows]


def _trial(n, x):
    """The trial vector (1, x, x^2, ..., x^(n-1))."""
    return [x ** i for i in range(n)]


def _kills(rows, q, w):
    """True when q(B) w = 0, B the integer matrix with these rows and q
    the ascending integer coefficients of a monic polynomial (Horner's
    rule)."""
    out = w
    for c in reversed(q[:-1]):
        out = [sum(map(mul, row, out)) + c * z for row, z in zip(rows, w)]
    return not any(out)


def _probe(rows, q, x):
    """False proves q(B) != 0: it leaves the next trial vector alive."""
    return _kills(rows, q, _trial(len(rows), x + 1))


def _krylov(rows, v):
    """(order, columns, dependent): the Krylov chain v, Bv, ..., B^(d-1) v
    of B = rows in linalg's forward elimination, each vector put in pivot
    order (entry i is entry order[i]), reduced and pivoted in as it
    arrives, up to its first dependent vector B^d v.  Pivot k is the
    leading k + 1 square minor of the chain on its rows in ``order``;
    ``dependent`` is B^d v reduced, zero from position d on.
    """
    order, columns, w = list(range(len(rows))), [], v
    while True:
        y = _reduce(columns, [w[i] for i in order])
        if not _pivot(order, columns, y):
            return order, columns, y
        w = _apply(rows, w)


def _quotient(denom, rows, order, columns):
    """(units, D, rows'): the map induced by B = rows / denom on Q^n modulo
    the span of _krylov's chain K, on the classes of e_u, u in units =
    order[d:], as int rows' over a positive D in lowest terms.  _reduce
    turns x into l (x_i - K_i K_R^-1 x_R) at each i >= d, R = order[:d]
    and l the last pivot: l times the class of x.  So column u of the
    quotient map is B e_u reduced, from position d on, over l denom.
    """
    d = len(columns)
    classes = [_reduce(columns, [rows[i][u] for i in order])[d:]
               for u in order[d:]]
    quotient = RationalMatrix._from_scaled(
        list(zip(*classes)), len(classes), columns[-1][d - 1] * denom)
    return (order[d:], *quotient._scaled_int_rows())


def _annihilator(columns, dependent):
    """Ascending coefficients of the monic annihilator q = t^d - sum c_k
    t^k of v, read off _krylov's eliminated chain: c holds the coordinates
    of B^d v on v, ..., B^(d-1) v, back substituted with scale 1.  B is an
    integer matrix, so the annihilator of v divides det(tI - B) and is
    monic in Z[t] by Gauss's lemma: the c_k are integers, and a remainder
    is an arithmetic fault.
    """
    return [-x for x in _back_substitute(
        columns, dependent[:len(columns)], 1)] + [1]


def _split_cyclic(denom, rows, start):
    """(x, q, units, D, rows') for the first trial vector v = (1, x, x^2,
    ...), x >= start, whose monic annihilator q under B = rows passes the
    probe, and _quotient's map modulo its cyclic subspace Z(v) ([], 1, []
    if Z(v) is everything).  If q is the minimal polynomial, Z(v) has an
    invariant complement, so the quotient carries the other invariant
    factors.  Each chain stops at its first dependent vector, so a trial
    whose annihilator has degree d forms d products with B, not n, and
    its one elimination serves q and the quotient alike.

    v misses the minimal polynomial mu only inside ker (mu / r)(B), r one
    of the at most n irreducible factors of mu; any n trial vectors are
    independent (Vandermonde), so one of the first n (n - 1) + 1 succeeds.
    """
    n = len(rows)
    for x in range(start, n * (n - 1) + 2):
        order, columns, dependent = _krylov(rows, _trial(n, x))
        q = _annihilator(columns, dependent)
        if len(columns) == n:
            return x, q, [], 1, []
        if _probe(rows, q, x):
            return (x, q, *_quotient(denom, rows, order, columns))
    raise InvariantError("no trial vector reached the minimal polynomial")


def invariant_factors(a):
    """Nontrivial invariant factors of a, smallest first.

    Each factor divides the next, their product is the characteristic
    polynomial, and the list determines a up to similarity over Q.
    Returned primitive and integral (monic for integer input).

    Each level splits off a cyclic subspace Z(v) and hands its quotient
    down.  A level's space is generated as a module by v and the lifts
    (entries put at the units) of its quotient's generators, i.e. of the
    lower levels' trial vectors.  q(B) commutes with B and kills v, so q is
    the minimal polynomial once it kills those lifts.  Levels are certified
    bottom up; one that fails moves to its next trial, its lower levels
    redone.
    """
    a._require_square("invariant factors")
    denom, rows = a._scaled_int_rows()
    levels, start = [], 1
    while True:
        while rows:
            x, q, units, *quotient = _split_cyclic(denom, rows, start)
            levels.append((denom, rows, x, q, units))
            start, (denom, rows) = 1, quotient
        generators = []
        for j in range(len(levels) - 1, -1, -1):
            denom, rows, x, q, units = levels[j]
            lifts = []
            for g in generators:
                lifts.append([0] * len(rows))
                for u, c in zip(units, g):
                    lifts[-1][u] = c
            if not all(_kills(rows, q, w) for w in lifts):
                del levels[j:]
                start = x + 1
                break
            if j:   # only the level above reads them
                generators = [_trial(len(rows), x), *lifts]
        else:
            # B = denom m, so c_k B^k is c_k denom^k m^k.
            return [IntPolynomial([c * denom ** k for k, c in enumerate(q)])
                    .normalized() for denom, _, _, q, _ in reversed(levels)]


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
    for p in primes(2, 1):
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
