"""Symbolic-dynamics layer: signed transition graphs, structure matrices,
Conley indices of basic sets, homology zeta functions, and the
Morse-inequality polynomial report.

A basic set is described by a square integer structure matrix A (signs
record orientation behaviour on the unstable bundle) together with its
Morse index u.  The index automorphism in degree u is the nonnilpotent
part of A; every other degree is trivial.  The zeta function needs only
det(I - A t) because the nilpotent part contributes the factor 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, InvariantError, ResourceError, \
    ValidationError
from .linalg import RationalMatrix, char_reversed, char_reversed_rational
from .poly import RationalFunction
from .spectral import invariant_factors, nonnilpotent_part


@dataclass(frozen=True)
class VertexShiftSpec:
    """Transition graph with one orientation sign per symbol."""

    n: int
    adjacency: tuple
    orientation: tuple

    def __post_init__(self):
        problems = []
        if len(self.adjacency) != self.n:
            problems.append(f"adjacency has {len(self.adjacency)} rows, "
                            f"expected {self.n}")
        for i, row in enumerate(self.adjacency):
            if len(row) != self.n:
                problems.append(f"adjacency[{i}] has {len(row)} entries, "
                                f"expected {self.n}")
                continue
            for j, v in enumerate(row):
                if v not in (0, 1):
                    problems.append(f"adjacency[{i}][{j}] = {v!r} "
                                    "is not 0 or 1")
        if len(self.orientation) != self.n:
            problems.append(f"orientation has {len(self.orientation)} "
                            f"entries, expected {self.n}")
        else:
            for k, s in enumerate(self.orientation):
                if s not in (1, -1):
                    problems.append(f"orientation[{k}] = {s!r} "
                                    "is not +1 or -1")
        if problems:
            raise ValidationError("; ".join(problems))

    @classmethod
    def from_lists(cls, adjacency, orientation):
        return cls(n=len(adjacency),
                   adjacency=tuple(tuple(r) for r in adjacency),
                   orientation=tuple(orientation))


@dataclass(frozen=True)
class StructureMatrix:
    """Square integer matrix of a basic set.

    ``raw`` is False exactly when the matrix came from a vertex shift, in
    which case every entry lies in {-1, 0, 1}.
    """

    matrix: RationalMatrix
    raw: bool = True

    def __post_init__(self):
        self.matrix._require_square("structure matrix")
        if not self.matrix.is_integer:
            raise ValidationError("structure matrix entries must be "
                                  "integers")
        if not self.raw:
            bad = [x for row in self.matrix.to_int_rows() for x in row
                   if abs(x) > 1]
            if bad:
                raise InvariantError("shift-derived structure matrix has "
                                     f"entries outside -1..1: {bad}")

    @classmethod
    def from_rows(cls, rows):
        return cls(RationalMatrix.from_rows(rows), raw=True)

    @property
    def size(self):
        return self.matrix.rows


def build_structure_matrix(shift):
    """Scale column k of the adjacency matrix by the orientation sign of
    symbol k."""
    rows = [[shift.orientation[k] * shift.adjacency[j][k]
             for k in range(shift.n)] for j in range(shift.n)]
    return StructureMatrix(RationalMatrix.from_rows(rows), raw=False)


def count_periodic(shift, n):
    """Points of period dividing n in the vertex shift: trace of the n-th
    power of the transition matrix."""
    if n < 1:
        raise DomainError("period must be at least 1")
    g = RationalMatrix.from_rows([list(r) for r in shift.adjacency])
    return int((g ** n).trace())


# Stack entries the brute-force enumeration may pop in one call; the full
# 8-shift passes it at period 7.
ORACLE_MAX_STEPS = 10**6


class StepBudget:
    """Stack entries that a run of enumerations may pop in all."""

    def __init__(self, steps):
        self.steps = steps
        self.left = steps


def enumerate_periodic_oracle(shift, n, max_period=12, max_symbols=8,
                              budget=None):
    """Brute-force count of admissible length-n cyclic symbol words.

    Exhaustive (with dead-prefix pruning), so it is an independent check
    of count_periodic.  Caps on the period, the symbol count and the
    number of steps guard against runaway enumeration; a StepBudget
    passed as ``budget`` also caps the steps of all the calls sharing it.
    """
    if n < 1:
        raise DomainError("period must be at least 1")
    if n > max_period:
        raise ResourceError(f"period {n} exceeds the cap {max_period}")
    if shift.n > max_symbols:
        raise ResourceError(f"{shift.n} symbols exceed the cap "
                            f"{max_symbols}")
    if budget is not None and budget.left < ORACLE_MAX_STEPS:
        limit = budget.left
        message = (f"enumerating periods up to {n} takes more than "
                   f"{budget.steps} steps")
    else:
        limit = ORACLE_MAX_STEPS
        message = (f"enumerating period {n} takes more than "
                   f"{ORACLE_MAX_STEPS} steps")
    adj = shift.adjacency
    successors = [[j for j in range(shift.n) if row[j]] for row in adj]
    total = 0
    steps = 0
    for first in range(shift.n):
        # Depth-first over the admissible words starting at ``first``; an
        # entry is (last symbol, symbols still to append) of one prefix.
        stack = [(first, n - 1)]
        while stack:
            steps += 1
            if steps > limit:
                raise ResourceError(message)
            prev, remaining = stack.pop()
            if remaining == 0:
                total += adj[prev][first]
                continue
            for nxt in successors[prev]:
                stack.append((nxt, remaining - 1))
    if budget is not None:
        budget.left -= steps
    return total


@dataclass(frozen=True)
class BasicSetSpec:
    """Named basic set: structure matrix plus Morse index.

    ``shift`` is kept when the matrix was built from a transition graph,
    so the original presentation can be serialised back out.
    """

    name: str
    structure: StructureMatrix
    index_u: int
    shift: VertexShiftSpec | None = None

    def __post_init__(self):
        if self.index_u < 0:
            raise ValidationError(f"basic set {self.name!r}: index "
                                  f"{self.index_u} is negative")


@dataclass(frozen=True)
class IndexEntry:
    """One nontrivial degree of a Conley index: the dimension, the matrix
    of the index automorphism, and its invariant factors."""

    dim: int
    matrix: RationalMatrix
    invariant_factors: tuple


class ConleyIndex:
    """Graded Conley index; degrees absent from ``graded`` are (0, 0)."""

    def __init__(self, graded):
        graded = dict(graded)
        for k, entry in graded.items():
            if entry.dim != entry.matrix.rows:
                raise InvariantError("index entry dimension mismatch")
            if entry.dim and entry.matrix.rank() != entry.dim:
                raise InvariantError(f"index automorphism in degree {k} "
                                     "is singular")
        if len(graded) > 1:
            raise InvariantError("a zero-dimensional basic set has at most "
                                 "one nontrivial degree")
        self.graded = graded

    def entry(self, k):
        return self.graded.get(k)

    def degrees(self):
        return sorted(self.graded)

    @property
    def is_trivial(self):
        return not self.graded

    def __eq__(self, other):
        if not isinstance(other, ConleyIndex):
            return NotImplemented
        return self.graded == other.graded

    def __repr__(self):
        if self.is_trivial:
            return "ConleyIndex(trivial)"
        parts = ", ".join(f"{k}: dim {e.dim}" for k, e in
                          sorted(self.graded.items()))
        return f"ConleyIndex({parts})"


def _check_index_bound(basic, ambient_dim):
    if basic.index_u > ambient_dim:
        raise ValidationError(
            f"basic set {basic.name!r}: index {basic.index_u} exceeds the "
            f"ambient dimension {ambient_dim}")


def conley_index(basic, ambient_dim):
    """Conley index of a basic set: in degree u the invertible part of the
    structure matrix, trivial in every other degree (and in every degree
    when the structure matrix is nilpotent)."""
    _check_index_bound(basic, ambient_dim)
    induced = nonnilpotent_part(basic.structure.matrix)
    if induced.dim == 0:
        return ConleyIndex({})
    entry = IndexEntry(dim=induced.dim, matrix=induced.matrix,
                       invariant_factors=tuple(
                           invariant_factors(induced.matrix)))
    return ConleyIndex({basic.index_u: entry})


def zeta_basic_set(basic, ambient_dim):
    """Homology zeta function of one basic set, computed directly from the
    structure matrix: det(I - A t) to the power (-1)^(u+1)."""
    _check_index_bound(basic, ambient_dim)
    poly = char_reversed(basic.structure.matrix)
    if basic.index_u % 2 == 1:
        return RationalFunction(poly)
    return RationalFunction(1, poly)


def zeta_via_index(basic, ambient_dim):
    """Zeta function assembled degree by degree from the Conley index;
    agrees with zeta_basic_set because the nilpotent part contributes 1.
    Kept as an independent route for the verification command."""
    index = conley_index(basic, ambient_dim)
    result = RationalFunction(1)
    for k in range(ambient_dim + 1):
        entry = index.entry(k)
        if entry is None:
            continue
        factor = RationalFunction(char_reversed_rational(entry.matrix))
        result = result * factor ** ((-1) ** (k + 1))
    return result


def lefschetz_series(basic, ambient_dim, m):
    """Traces of the first m powers of the structure matrix.  From some
    power on these equal the traces of the nonnilpotent part."""
    if m < 1:
        raise DomainError("series length must be at least 1")
    a = basic.structure.matrix
    out = []
    power = a
    for k in range(m):
        if k:
            power = power * a
        out.append(int(power.trace()))
    return out


@dataclass
class SystemSpec:
    """A family of named basic sets with optional ambient homology data.

    ``ambient_maps`` are trusted input: the integer matrices of the map
    induced on ambient homology in each degree.  ``split_at`` is a user
    assertion (not verified here) that the splitting hypothesis of the
    Morse inequality holds at that degree.
    """

    basic_sets: tuple
    ambient_dim: int | None = None
    ambient_maps: dict = field(default_factory=dict)
    split_at: int | None = None

    def __post_init__(self):
        self.basic_sets = tuple(self.basic_sets)
        names = [b.name for b in self.basic_sets]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"duplicate basic set names: {dupes}")
        if self.ambient_dim is not None:
            if self.ambient_dim < 0:
                raise ValidationError("ambient dimension is negative")
            for b in self.basic_sets:
                _check_index_bound(b, self.ambient_dim)
            for k in self.ambient_maps:
                if not 0 <= k <= self.ambient_dim:
                    raise ValidationError(
                        f"homology map degree {k} outside 0.."
                        f"{self.ambient_dim}")
            if self.split_at is not None and not \
                    0 <= self.split_at <= self.ambient_dim:
                raise ValidationError(
                    f"split_at {self.split_at} outside 0.."
                    f"{self.ambient_dim}")
        elif self.ambient_maps:
            raise ValidationError("homology maps given without an ambient "
                                  "dimension")

    def sorted_sets(self):
        return sorted(self.basic_sets, key=lambda b: b.name)

    def effective_dim(self):
        """Ambient dimension if given, else the smallest dimension that
        admits every declared index."""
        if self.ambient_dim is not None:
            return self.ambient_dim
        return max((b.index_u for b in self.basic_sets), default=0)


@dataclass
class MorseReport:
    """Both sides of the Morse-inequality identity at level q and the
    solved polynomial P with its integrality verdict."""

    q: int
    lhs_product: RationalFunction
    rhs_product: RationalFunction
    p_of_t: RationalFunction
    is_integer_polynomial: bool
    split_asserted_at: int | None = None

    def check_identity(self):
        lhs = self.p_of_t ** ((-1) ** self.q) * self.lhs_product
        if lhs != self.rhs_product:
            raise InvariantError("Morse report identity failed")
        return True


def morse_split_check(system, q):
    """Solve for the polynomial P with
    P^((-1)^q) * prod_{u(i) <= q} Z_i = prod_{k <= q} det(I - M_k t)^((-1)^(k+1))
    where M_k are the ambient homology maps, and report whether P is an
    integer polynomial (it is whenever the splitting hypothesis holds)."""
    if q < 0:
        raise ValidationError("q must be nonnegative")
    if system.ambient_dim is None:
        raise ValidationError("morse check needs ambient data")
    if q > system.ambient_dim:
        raise ValidationError(f"q = {q} exceeds the ambient dimension "
                              f"{system.ambient_dim}")
    missing = [k for k in range(q + 1) if k not in system.ambient_maps]
    if missing:
        raise ValidationError(f"missing ambient homology maps for degrees "
                              f"{missing}")
    lhs = RationalFunction(1)
    for basic in system.sorted_sets():
        if basic.index_u <= q:
            lhs = lhs * zeta_basic_set(basic, system.ambient_dim)
    rhs = RationalFunction(1)
    for k in range(q + 1):
        factor = RationalFunction(char_reversed(system.ambient_maps[k]))
        rhs = rhs * factor ** ((-1) ** (k + 1))
    ratio = rhs * lhs.inverse()
    p_of_t = ratio if q % 2 == 0 else ratio.inverse()
    report = MorseReport(q=q, lhs_product=lhs, rhs_product=rhs,
                         p_of_t=p_of_t,
                         is_integer_polynomial=p_of_t.is_polynomial,
                         split_asserted_at=system.split_at)
    report.check_identity()
    return report
