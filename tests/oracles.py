"""Independent reference computations for the test suite.

Everything in here deliberately avoids the code paths it is used to check:
determinants of polynomial matrices go through plain cofactor expansion
(the library reduces modulo primes to Hessenberg form), ranks, reduced
echelon forms,
kernels and solutions go through textbook Gauss-Jordan elimination over
Fractions (the library runs it fraction-free on integer rows and divides
once at the end),
invariant factors come from gcds of minors (the library uses a cyclic
decomposition), polynomial gcds and division run Euclid and long division
over Fractions (the library uses integer pseudo-remainders and integer
long division), products and the Faddeev-LeVerrier trace recursion run
entry by entry over Fractions (the library runs products on
denominator-cleared integers), integer roots come from trying every
divisor of the constant term (the library lifts roots mod a prime
p-adically), primes come from trial division and Fermat's test (the
library runs Miller-Rabin), the eventual image is the column space of
A^n (the library follows the chain im A^k until its dimension holds), a
pseudo-remainder rescales the whole running remainder at every step (the
library rescales each coefficient once, when its window reaches it), and
periodic words are enumerated with one stack entry per word (the library
closes the words of a prefix one symbol short in place).

The reference reports are the one exception: they call the library's
public functions, one per fact and each on the bare basic set, so every
fact is computed afresh where the report builders compute it once per
basic set; they check the sharing, not the facts.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt
import random

from conley.dynamics import (StepBudget, conley_index, count_periodic,
                             enumerate_periodic_oracle, lefschetz_series,
                             zeta_basic_set, zeta_via_index)
from conley.errors import DomainError, ResourceError
from conley.linalg import (RationalMatrix, Subspace, char_reversed_rational,
                           inverse)
from conley.poly import RationalFunction
from conley.report import _check, _set_header, encode_matrix, encode_poly
from conley.spectral import generalized_kernel, nonnilpotent_part


def _pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def det_poly(matrix):
    """Cofactor-expansion determinant of a matrix of coefficient lists."""
    n = len(matrix)
    if n == 0:
        return [1]
    if n == 1:
        return list(matrix[0][0])
    total = []
    for j, entry in enumerate(matrix[0]):
        if not any(entry):
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = _pmul(entry, det_poly(minor))
        if j % 2:
            term = [-c for c in term]
        total = _padd(total, term)
    return _ptrim(total)


def char_reversed_oracle(int_rows):
    """det(I - A t) by cofactor expansion, ascending int coefficients."""
    n = len(int_rows)
    m = [[[1, -int_rows[i][j]] if i == j else [0, -int_rows[i][j]]
          for j in range(n)] for i in range(n)]
    return _ptrim(det_poly(m))


def rref_rank(rows):
    """Rank by plain Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def det_oracle(rows):
    """Determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def rref_oracle(rows):
    """Reduced row echelon form over Fractions, in place.

    Returns the pivot column list.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def quotient_map_oracle(rows, denom, chain, units):
    """The map induced by B = rows / denom on Q^n modulo the span K of the
    independent vectors in chain, on the classes of e_u, u in units, as
    the Schur complement B_UU - K_U K_R^-1 B_RU over Fractions, R the
    other indices (the library reduces each B e_u against the chain's
    fraction-free factor).  K_R^-1 B_RU is read off the RREF of
    [K_R | B_RU]."""
    d, n = len(chain), len(rows)
    b = [[Fraction(x, denom) for x in row] for row in rows]
    rest = [r for r in range(n) if r not in units]
    assert len(rest) == d == n - len(units)
    aug = [[Fraction(v[r]) for v in chain] + [b[r][u] for u in units]
           for r in rest]
    assert rref_oracle(aug) == list(range(d)), "K_R is singular"
    return RationalMatrix(len(units), len(units), [
        b[i][j] - sum((v[i] * aug[k][d + c] for k, v in enumerate(chain)),
                      Fraction(0))
        for i in units for c, j in enumerate(units)])


def column_rref_oracle(m):
    """Reduced column echelon form of a RationalMatrix: the nonzero rows
    of the Fraction RREF of its transpose, transposed back."""
    rows = [m.column_list(j) for j in range(m.cols)]
    pivots = rref_oracle(rows)
    return RationalMatrix(m.rows, len(pivots), [
        rows[j][i] for i in range(m.rows) for j in range(len(pivots))])


def eventual_image_oracle(a):
    """im a^n for an n x n RationalMatrix: a^n eliminated once by the
    Fraction elimination (the library follows the chain im a^k and forms
    no power).  It is wrapped with _from_echelon, since the public
    constructor would re-eliminate the basis with the library."""
    return Subspace._from_echelon(a.rows, column_rref_oracle(a ** a.rows))


def eventual_kernel_oracle(a):
    """ker a^n for an n x n RationalMatrix: a^n eliminated once by the
    Fraction elimination (the library follows the chain of kernels and forms
    no power), wrapped with _from_echelon like eventual_image_oracle."""
    return Subspace._from_echelon(a.rows, kernel_oracle(a ** a.rows))


def kernel_oracle(m):
    """Reduced column echelon basis of the null space of a RationalMatrix,
    read off its Fraction RREF: one vector per free column f, 1 at f and
    -rref[r][f] at pivot column p_r."""
    rows = [m.row_list(i) for i in range(m.rows)]
    pivots = rref_oracle(rows)
    vectors = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [Fraction(int(j == f)) for j in range(m.cols)]
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        vectors.append(v)
    return column_rref_oracle(RationalMatrix(
        m.cols, len(vectors),
        [v[i] for i in range(m.cols) for v in vectors]))


def solve_oracle(b, c):
    """The x with b x = c from the Fraction RREF of [b | c]; the string
    "inconsistent" when a pivot falls in c, "rank deficient" when b has
    dependent columns."""
    rows = [b.row_list(i) + c.row_list(i) for i in range(b.rows)]
    pivots = rref_oracle(rows)
    if any(p >= b.cols for p in pivots):
        return "inconsistent"
    if len(pivots) != b.cols:
        return "rank deficient"
    return RationalMatrix(b.cols, c.cols,
                          [x for row in rows[:b.cols] for x in row[b.cols:]])


def mat_mul_oracle(a, b):
    """Product of two RationalMatrix values by the textbook triple loop
    over Fractions."""
    assert a.cols == b.rows
    return RationalMatrix(a.rows, b.cols, [
        sum((a[i, k] * b[k, j] for k in range(a.cols)), Fraction(0))
        for i in range(a.rows) for j in range(b.cols)])


def charpoly_oracle(a):
    """Monic det(tI - a), ascending Fractions, by the Faddeev-LeVerrier
    recursion M_k = a (M_(k-1) + c_(k-1) I), c_k = -tr(M_k) / k on
    Fraction matrices."""
    n = a.rows
    ident = RationalMatrix.identity(n)
    coeffs = [Fraction(1)]              # descending
    m = RationalMatrix.zeros(n, n)
    for k in range(1, n + 1):
        m = mat_mul_oracle(a, m + coeffs[-1] * ident)
        coeffs.append(-sum((m[i, i] for i in range(n)), Fraction(0)) / k)
    return tuple(reversed(coeffs))


def charpoly_cofactor(a):
    """Monic det(tI - a), ascending, by cofactor expansion."""
    n = a.rows
    char = [[[-a[i, j], 1] if i == j else [-a[i, j]] for j in range(n)]
            for i in range(n)]
    return tuple(det_poly(char))


def is_prime_trial(n):
    """Primality by trial division by every d <= sqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


SMALL_PRIMES = [d for d in range(2, 10 ** 4) if is_prime_trial(d)]


def is_prime_fermat(n, bases=(2, 3, 5, 7, 11, 13, 17, 19, 23)):
    """Trial division by every prime below 10^4, then Fermat's test to
    several bases (the library runs Miller-Rabin)."""
    if n < 2:
        return False
    for d in SMALL_PRIMES:
        if n % d == 0:
            return n == d
    return all(pow(a, n - 1, n) == 1 for a in bases)


def primes_below_oracle(limit, count):
    """The count largest primes below limit, largest first, by
    is_prime_fermat on every number in turn."""
    found = []
    n = limit - 1
    while len(found) < count:
        if is_prime_fermat(n):
            found.append(n)
        n -= 1
    return found


def random_rational_matrix(rng, rows, cols, max_den=7, bound=6):
    return RationalMatrix(rows, cols, [
        Fraction(rng.randint(-bound, bound), rng.randint(1, max_den))
        for _ in range(rows * cols)])


def random_int_matrix(rng, n, lo=-3, hi=3):
    return RationalMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def zero_column(m, j):
    """m with column j replaced by zeros: a singular matrix."""
    return RationalMatrix.from_rows(
        [row[:j] + [0] + row[j + 1:] for row in m.tolist()])


def random_unimodular(rng, n, steps=10):
    """Product of elementary integer row operations: determinant +/-1 and
    an exact integer inverse."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif op == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 2:
            rows[i] = [-a for a in rows[i]]
    return RationalMatrix.from_rows(rows)


def conjugate(u, a):
    """u a u^-1, exactly."""
    return u * a * inverse(u)


def jordan_block(lam, size):
    return RationalMatrix.from_rows(
        [[lam if i == j else (1 if j == i + 1 else 0)
          for j in range(size)] for i in range(size)])


def companion(coeffs):
    """Companion matrix of the monic polynomial with ascending integer
    coefficients ``coeffs``."""
    d = len(coeffs) - 1
    return RationalMatrix.from_rows(
        [[int(i == j + 1) - (coeffs[i] if j == d - 1 else 0)
          for j in range(d)] for i in range(d)])


def quadratic_companion_block(size, c0=1, c1=-1):
    """Block-Jordan matrix built on the companion matrix of
    t^2 + c1 t + c0 (default t^2 - t + 1): ``size`` copies of the
    companion on the diagonal, identity blocks on the superdiagonal.  For
    a squarefree quadratic this is the single elementary divisor
    (t^2 + c1 t + c0)^size.  Real dimension 2 * size."""
    comp = [[0, -c0], [1, -c1]]
    n = 2 * size
    rows = [[0] * n for _ in range(n)]
    for b in range(size):
        for i in range(2):
            for j in range(2):
                rows[2 * b + i][2 * b + j] = comp[i][j]
        if b + 1 < size:
            rows[2 * b][2 * (b + 1)] = 1
            rows[2 * b + 1][2 * (b + 1) + 1] = 1
    return RationalMatrix.from_rows(rows)


def block_diag(blocks):
    n = sum(b.rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                rows[at + i][at + j] = b[i, j]
        at += b.rows
    return RationalMatrix.from_rows(rows)


def poly_divmod_oracle(num, den):
    """Quotient and remainder of ascending Fraction coefficient lists, by
    long division over the rationals."""
    num = list(num)
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        quot[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    return _ptrim(quot), _ptrim(num)


def pseudo_rem_oracle(a, b):
    """The library's pseudo-remainder of int lists a by b, each step
    scaling the whole running remainder by lead(b) / gcd(lead(b), leading
    term) and rebuilding it."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k]
        if not c:
            continue
        g = gcd(c, lead)
        m, c = lead // g, c // g
        s = k - db
        r = [m * x for x in r[:s]] + \
            [m * x - c * y for x, y in zip(r[s:k], b)]
    return _ptrim(r[:db])


def enumerate_periodic_dfs(shift, n, budget):
    """enumerate_periodic_oracle with one stack entry per prefix and per
    word, each pop one step of ``budget``; the same count, the same
    ResourceError and the same charge to the budget."""
    if n < 1:
        raise DomainError("period must be at least 1")
    message = (f"enumerating periods up to {n} takes more than "
               f"{budget.steps} steps")
    if n > budget.left:
        raise ResourceError(message)
    adj = shift.adjacency
    successors = [[j for j in range(shift.n) if row[j]] for row in adj]
    total = steps = 0
    for first in range(shift.n):
        stack = [(first, n - 1)]
        while stack:
            steps += 1
            if steps > budget.left:
                raise ResourceError(message)
            prev, remaining = stack.pop()
            if remaining == 0:
                total += adj[prev][first]
                continue
            for nxt in successors[prev]:
                stack.append((nxt, remaining - 1))
    budget.left -= max(steps, n)
    return total


def poly_gcd_oracle(a, b):
    """Monic gcd of ascending Fraction coefficient lists, not both zero
    (Euclid over the rationals)."""
    while b:
        a, b = b, poly_divmod_oracle(a, b)[1]
    return [c / a[-1] for c in a]


def invariant_factors_oracle(a):
    """Invariant factors of a square rational matrix, smallest first, as
    monic ascending Fraction lists: d_k / d_(k-1), where the determinantal
    divisor d_k is the monic gcd of all k x k minors of tI - a, each by
    cofactor expansion.  Exponential in n; meant for n <= 6."""
    n = a.rows
    char = [[_ptrim([Fraction(-a[i, j]), Fraction(int(i == j))])
             for j in range(n)] for i in range(n)]
    divisors = [[Fraction(1)]]
    for k in range(1, n + 1):
        g = []
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                minor = det_poly([[char[i][j] for j in cols] for i in rows])
                g = poly_gcd_oracle(g, minor)
        divisors.append(g)
    factors = []
    for k in range(1, n + 1):
        quot, rem = poly_divmod_oracle(divisors[k], divisors[k - 1])
        assert not rem
        if len(quot) > 1:
            factors.append(quot)
    return factors


def integer_roots_oracle(coeffs):
    """Sorted integer roots of a nonzero integer polynomial (ascending
    coefficients): 0 when the constant term vanishes, and each divisor
    +-d of the lowest nonzero coefficient at which the polynomial
    vanishes.  Trial division costs time exponential in that
    coefficient's bit length, so keep it to small inputs."""
    low = next(k for k, c in enumerate(coeffs) if c)
    c = abs(coeffs[low])
    candidates = {0} if low else set()
    for d in range(1, isqrt(c) + 1):
        if c % d == 0:
            candidates.update((d, -d, c // d, -(c // d)))
    return sorted(r for r in candidates
                  if sum(a * r ** k for k, a in enumerate(coeffs)) == 0)


def random_shift_graph(rng, max_vertices=4):
    n = rng.randint(1, max_vertices)
    adjacency = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
    orientation = [rng.choice([1, -1]) for _ in range(n)]
    return adjacency, orientation


def out_split(adjacency, vertex, part):
    """Division and edge matrices (D, E) of the out-splitting of a graph at
    ``vertex`` (R. F. Williams, Ann. of Math. 98, 1973; Lind and Marcus,
    Symbolic Dynamics and Coding, 2.4).  The edges from ``vertex`` into
    ``part`` leave its first copy, ``vertex`` itself, and the rest leave a
    second copy, appended as vertex n.  D (n x (n + 1)) marks the copies of
    each vertex and E ((n + 1) x n) lists each copy's edges, so D E is the
    graph's adjacency matrix and E D the split graph's; the graph's entries
    are never edited."""
    n = len(adjacency)
    d = [[int(j == i or (i == vertex and j == n)) for j in range(n + 1)]
         for i in range(n)]
    e = [list(row) for row in adjacency]
    split = adjacency[vertex]
    e[vertex] = [x if k in part else 0 for k, x in enumerate(split)]
    e.append([0 if k in part else x for k, x in enumerate(split)])
    return d, e


def zeta_via_index_reference(basic, ambient_dim):
    """The zeta function assembled degree by degree from conley_index:
    the product of det(I - M_k t)^((-1)^(k+1)) over the index
    automorphisms M_k."""
    index = conley_index(basic, ambient_dim)
    result = RationalFunction(1)
    for k in index.degrees():
        factor = RationalFunction(
            char_reversed_rational(index.entry(k).matrix))
        result = result * factor ** ((-1) ** (k + 1))
    return result


def reference_index_report(system):
    """build_index_report, from one conley_index call per basic set."""
    dim = system.effective_dim()
    sets = []
    for basic in system.sorted_sets():
        section = _set_header(basic)
        index = conley_index(basic, dim)
        if index.is_trivial:
            section["conley_index"] = {"nontrivial_degree": None}
        else:
            degree = index.degrees()[0]
            entry = index.entry(degree)
            section["conley_index"] = {
                "nontrivial_degree": degree,
                "dim": entry.dim,
                "map": encode_matrix(entry.matrix),
                "invariant_factors": [encode_poly(f)
                                      for f in entry.invariant_factors],
            }
        sets.append(section)
    return {"command": "index", "ambient_dim": system.ambient_dim,
            "basic_sets": sets}


def _periodic_check(basic, max_enum):
    budget = StepBudget()
    try:
        for period in range(1, max_enum + 1):
            counted = count_periodic(basic.shift, period)
            enumerated = enumerate_periodic_oracle(basic.shift, period,
                                                   budget)
            if counted != enumerated:
                return _check(basic.name, "periodic_counts", "fail",
                              f"n = {period}: trace gives {counted}, "
                              f"enumeration gives {enumerated}")
    except ResourceError as exc:
        return _check(basic.name, "periodic_counts", "skipped", str(exc))
    return _check(basic.name, "periodic_counts", "pass",
                  f"trace formula matches enumeration for n = "
                  f"1..{max_enum}")


def reference_verify_report(system, max_enum=6):
    """build_verify_report, from one public function call per fact:
    zeta_basic_set, zeta_via_index, nonnilpotent_part, generalized_kernel
    and lefschetz_series, each on the bare basic set or its structure
    matrix."""
    dim = system.effective_dim()
    checks = []
    for basic in system.sorted_sets():
        name = basic.name
        a = basic.structure.matrix
        n = a.rows
        if basic.shift is not None:
            checks.append(_periodic_check(basic, max_enum))

        direct = zeta_basic_set(basic, dim)
        via_index = zeta_via_index(basic, dim)
        checks.append(_check(
            name, "zeta_routes", "pass" if direct == via_index else "fail",
            f"direct {direct} vs index route {via_index}"))

        induced = nonnilpotent_part(a)
        split_ok = generalized_kernel(a).dim + induced.image_basis.dim == n
        checks.append(_check(
            name, "kernel_image_split", "pass" if split_ok else "fail",
            f"dim gKer + dim gIm = {n}" if split_ok else
            "dimension count failed"))

        try:
            induced.verify()
            checks.append(_check(name, "induced_map", "pass",
                                 "intertwines its basis and is invertible"))
        except Exception as exc:    # noqa: BLE001 - reported, not raised
            checks.append(_check(name, "induced_map", "fail", str(exc)))

        tail = [(induced.matrix ** k).trace() for k in range(1, 5)]
        tail_ok = lefschetz_series(basic, dim, 4) == tail
        checks.append(_check(
            name, "trace_tail", "pass" if tail_ok else "fail",
            "trace(A^k) = trace(A+^k) for k = 1..4" if tail_ok
            else "trace tails differ"))

    ok = all(c["status"] != "fail" for c in checks)
    return {"command": "verify", "ambient_dim": system.ambient_dim,
            "checks": checks, "ok": ok}


__all__ = [
    "block_diag", "char_reversed_oracle", "charpoly_cofactor",
    "charpoly_oracle", "column_rref_oracle", "companion", "conjugate",
    "det_oracle", "det_poly", "enumerate_periodic_dfs",
    "eventual_image_oracle",
    "integer_roots_oracle",
    "invariant_factors_oracle", "is_prime_fermat", "is_prime_trial",
    "jordan_block", "kernel_oracle", "mat_mul_oracle", "poly_divmod_oracle",
    "poly_gcd_oracle", "primes_below_oracle", "pseudo_rem_oracle",
    "quadratic_companion_block", "quotient_map_oracle",
    "random_int_matrix",
    "random_rational_matrix", "random_shift_graph", "random_unimodular",
    "reference_index_report", "reference_verify_report", "rref_oracle",
    "rref_rank", "solve_oracle", "zero_column", "zeta_via_index_reference",
]


def _self_check():
    rng = random.Random(0)
    u = random_unimodular(rng, 4)
    assert u * inverse(u) == RationalMatrix.identity(4)


_self_check()
