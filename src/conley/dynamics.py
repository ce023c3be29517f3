"""Symbolic-dynamics layer: signed transition graphs, structure matrices,
Conley indices of basic sets, homology zeta functions, and the
Morse-inequality polynomial report.

A basic set is described by a square integer structure matrix A (signs
record orientation behaviour on the unstable bundle) together with its
Morse index u.  The index automorphism in degree u is the nonnilpotent
part of A; every other degree is trivial.  The zeta function needs only
det(I - A t) because the nilpotent part contributes the factor 1.

The spec dataclasses (VertexShiftSpec, BasicSetSpec, SystemSpec) own every
check on the values of their input, for library callers and system files
alike.  Each raises a ValidationError at the first problem, located by a
JSON pointer into the document form that system_io.system_to_dict writes
for that object (``/index`` of a basic set, ``/orientation/1`` of a shift).

A report computes A+, the one fact about a basic set that several of its
checks read, once, through one BasicSetAnalysis per set and call.  The two
zeta routes start from different facts, det(I - A t) and det(I - A+ t).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import mul

from .errors import DomainError, InvariantError, ResourceError, \
    ValidationError, _decimal, _shown
from .linalg import RationalMatrix, char_reversed, char_reversed_rational
from .poly import RationalFunction
from .spectral import invariant_factors, nonnilpotent_part


def _check_entries(values, allowed, rule, path):
    """Raise at the first of ``values`` that is not an int in ``allowed``
    (a set), located at its position under ``path``; a passing row is
    tested whole, and only a failing one entry by entry."""
    if set(map(type, values)) <= {int} and allowed.issuperset(values):
        return
    for k, v in enumerate(values):
        if type(v) is not int:
            raise ValidationError("expected an integer", f"{path}/{k}")
        if v not in allowed:
            raise ValidationError(f"entry {_shown(v)} {rule}", f"{path}/{k}")


@dataclass(frozen=True)
class VertexShiftSpec:
    """Transition graph with one orientation sign per symbol."""

    n: int
    adjacency: tuple
    orientation: tuple

    def __post_init__(self):
        n = self.n
        if len(self.adjacency) != n:
            raise ValidationError(f"adjacency has {len(self.adjacency)} "
                                  f"rows, expected {_shown(n)}", "/adjacency")
        for i, row in enumerate(self.adjacency):
            if len(row) != n:
                raise ValidationError(f"row has {len(row)} entries, "
                                      f"expected {_shown(n)}",
                                      f"/adjacency/{i}")
            _check_entries(row, {0, 1}, "not in [0, 1]", f"/adjacency/{i}")
        if len(self.orientation) != n:
            raise ValidationError(f"orientation has {len(self.orientation)} "
                                  f"entries, expected {_shown(n)}",
                                  "/orientation")
        _check_entries(self.orientation, {1, -1}, "must be 1 or -1",
                       "/orientation")

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
        if not self.raw and not {-1, 0, 1}.issuperset(self.matrix._e):
            bad = [x for x in self.matrix._e if abs(x) > 1]
            raise InvariantError(
                "shift-derived structure matrix has entries outside "
                f"-1..1: [{', '.join(map(_shown, bad))}]")

    @classmethod
    def from_rows(cls, rows):
        return cls(RationalMatrix.from_rows(rows), raw=True)

    @property
    def size(self):
        return self.matrix.rows


def build_structure_matrix(shift):
    """Scale column k of the adjacency matrix by the orientation sign of
    symbol k."""
    rows = [list(map(mul, row, shift.orientation))
            for row in shift.adjacency]
    return StructureMatrix(RationalMatrix._from_scaled(rows, shift.n, 1),
                           raw=False)


def count_periodic(shift, n):
    """Points of period dividing n in the vertex shift: tr G^n, G the
    transition matrix, as the trace of the product of the half powers
    G^(n - h) and G^h, h = floor(n / 2), which is never formed.  G^h costs
    the products of one square and multiply, G^(n - h) = G^h G one more
    when n is odd, and n = 1 reads tr G; both traces are int sums."""
    if n < 1:
        raise DomainError("period must be at least 1")
    # The spec has checked that every entry is 0 or 1.
    g = RationalMatrix._from_scaled(shift.adjacency, shift.n, 1)
    if n == 1:
        return g._trace_sum()
    half = g ** (n // 2)
    return (half * g if n % 2 else half)._product_trace_sum(half)


# Stack entries the brute-force enumeration may pop unless the caller
# passes its own budget; the full 8-shift uses it up at period 7.
ORACLE_MAX_STEPS = 2 * 10**6


class StepBudget:
    """Steps (prefixes and words visited) a run of enumerations may take."""

    def __init__(self, steps=ORACLE_MAX_STEPS):
        self.steps = steps
        self.left = steps


def _spent(n, budget):
    """The ResourceError of an enumeration to period n that spent budget;
    formatted only when raised."""
    return ResourceError(f"enumerating periods up to {_shown(n)} takes "
                         f"more than {_shown(budget.steps)} steps")


def enumerate_periodic_oracle(shift, n, budget=None):
    """Brute-force count of admissible length-n cyclic symbol words.

    Exhaustive (with dead-prefix pruning), so it is an independent check
    of count_periodic.  The walk draws on ``budget``, a StepBudget that
    calls may share (a fresh one when none is given), and raises
    ResourceError once it is spent.  Each call costs at least n steps, so
    periods on a graph without cycles, whose walks end at once, spend it
    too.
    """
    if n < 1:
        raise DomainError("period must be at least 1")
    if budget is None:
        budget = StepBudget()
    if n > budget.left:
        raise _spent(n, budget)
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
            if steps > budget.left:
                raise _spent(n, budget)
            prev, remaining = stack.pop()
            if remaining > 1:
                for nxt in successors[prev]:
                    stack.append((nxt, remaining - 1))
            elif remaining:
                # Words one symbol short close here, one step each.
                nexts = successors[prev]
                steps += len(nexts)
                if steps > budget.left:
                    raise _spent(n, budget)
                for nxt in nexts:
                    total += adj[nxt][first]
            else:
                total += adj[prev][first]
    budget.left -= max(steps, n)
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
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("name must be a nonempty string", "/name")
        if not self.name.isprintable():  # a newline would forge report lines
            raise ValidationError("name must be printable text", "/name")
        index = self.index_u
        if isinstance(index, bool) or not isinstance(index, int):
            raise ValidationError("expected an integer", "/index")
        if index < 0:
            raise ValidationError(f"index {_shown(index)} must be "
                                  "nonnegative", "/index")


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
                raise InvariantError("index automorphism in degree "
                                     f"{_shown(k)} is singular")
        if len(graded) > 1:
            raise InvariantError("a zero-dimensional basic set has at most "
                                 "one nontrivial degree")
        self.graded = graded

    @classmethod
    def _of_invertible(cls, degree, entry):
        """Skips the rank check: entry.matrix is an A+ from
        nonnilpotent_part, invertible by construction."""
        index = object.__new__(cls)
        index.graded = {degree: entry}
        return index

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
            f"basic set {_shown(basic.name)}: index {_shown(basic.index_u)} "
            f"exceeds the ambient dimension {_shown(ambient_dim)}")


class BasicSetAnalysis:
    """A basic set with structure matrix A and its nonnilpotent part A+,
    computed on first use and kept for the life of this object.

    conley_index, zeta_basic_set and zeta_via_index take one in place of
    the basic set, so a caller that needs several of them computes A+,
    the one fact that several checks read, once.
    """

    def __init__(self, basic):
        self.basic = basic

    @cached_property
    def induced(self):
        """The nonnilpotent part A+ of A, on the eventual image."""
        return nonnilpotent_part(self.basic.structure.matrix)


def _analysis(basic, ambient_dim):
    """The analysis of a basic set, or basic itself when it already is
    one, after checking the Morse index against the ambient dimension."""
    if not isinstance(basic, BasicSetAnalysis):
        basic = BasicSetAnalysis(basic)
    _check_index_bound(basic.basic, ambient_dim)
    return basic


def _in_degree(poly, u):
    """poly to the power (-1)^(u+1), the sign of degree u in a zeta
    function."""
    return RationalFunction(poly) if u % 2 == 1 else \
        RationalFunction(1, poly)


def conley_index(basic, ambient_dim):
    """Conley index of a basic set (a BasicSetSpec or its
    BasicSetAnalysis): in degree u the invertible part of the structure
    matrix, trivial in every other degree (and in every degree when the
    structure matrix is nilpotent)."""
    facts = _analysis(basic, ambient_dim)
    induced = facts.induced
    if induced.dim == 0:
        return ConleyIndex({})
    entry = IndexEntry(dim=induced.dim, matrix=induced.matrix,
                       invariant_factors=tuple(
                           invariant_factors(induced.matrix)))
    return ConleyIndex._of_invertible(facts.basic.index_u, entry)


def zeta_basic_set(basic, ambient_dim):
    """Homology zeta function of one basic set (a BasicSetSpec or its
    BasicSetAnalysis), computed directly from the structure matrix:
    det(I - A t) to the power (-1)^(u+1)."""
    facts = _analysis(basic, ambient_dim)
    return _in_degree(char_reversed(facts.basic.structure.matrix),
                      facts.basic.index_u)


def zeta_via_index(basic, ambient_dim):
    """Zeta function assembled from the Conley index of a basic set (a
    BasicSetSpec or its BasicSetAnalysis): det(I - A+ t) of the index
    automorphism in degree u, to the power (-1)^(u+1), since every other
    degree is trivial.  Agrees with zeta_basic_set because the nilpotent
    part contributes 1; kept as an independent route for the verification
    command."""
    facts = _analysis(basic, ambient_dim)
    return _in_degree(char_reversed_rational(facts.induced.matrix),
                      facts.basic.index_u)


def _power_traces(a, m):
    """Traces of a, a^2, ..., a^m, m >= 1, from the powers up to h =
    ceil(m / 2) alone (h - 1 products): tr a^(h+k) = tr(a^h a^k).  Each is
    an int sum over its denominator, a Fraction only where that is not 1."""
    powers = list(accumulate(repeat(a, (m + 1) // 2), mul))
    top = powers[-1]
    traces = [(p._trace_sum(), p._d) for p in powers] + [
        (top._product_trace_sum(p), top._d * p._d) for p in powers[:m // 2]]
    return [t if d == 1 else Fraction(t, d) for t, d in traces]


def lefschetz_series(basic, ambient_dim, m):
    """Traces of the first m powers of the structure matrix.  They equal
    those of the nonnilpotent part from the first power on, since the
    nilpotent part adds trace 0 to every power."""
    _check_index_bound(basic, ambient_dim)
    if m < 1:
        raise DomainError("series length must be at least 1")
    # The structure matrix is an integer matrix, so every trace is an int.
    return _power_traces(basic.structure.matrix, m)


@dataclass
class SystemSpec:
    """A family of named basic sets with optional ambient homology data.

    Names must be unique, and with an ambient dimension every index, map
    degree and ``split_at`` must lie in 0..dim.  ``ambient_maps`` are
    trusted input: the integer matrices of the map induced on ambient
    homology in each degree.  ``split_at`` is a user assertion (not
    verified here) that the splitting hypothesis of the Morse inequality
    holds at that degree.
    """

    basic_sets: tuple
    ambient_dim: int | None = None
    ambient_maps: dict = field(default_factory=dict)
    split_at: int | None = None

    def __post_init__(self):
        self.basic_sets = tuple(self.basic_sets)
        seen = set()
        for i, b in enumerate(self.basic_sets):
            if b.name in seen:
                raise ValidationError(f"duplicate name {_shown(b.name)}",
                                      f"/basic_sets/{i}/name")
            seen.add(b.name)
        dim = self.ambient_dim
        if dim is None:
            if self.ambient_maps:
                raise ValidationError("homology maps given without an "
                                      "ambient dimension", "/ambient")
            if self.split_at is not None:
                raise ValidationError("split_at given without an ambient "
                                      "dimension", "/ambient")
            return
        if dim < 0:
            raise ValidationError("dim must be nonnegative", "/ambient/dim")
        for k in self.ambient_maps:
            if not 0 <= k <= dim:
                problem = "must be nonnegative" if k < 0 else \
                    f"exceeds dim {_shown(dim)}"
                raise ValidationError(
                    f"degree {_shown(k)} {problem}",
                    f"/ambient/homology_maps/{_decimal(k)}")
        if self.split_at is not None and not 0 <= self.split_at <= dim:
            raise ValidationError(f"split_at {_shown(self.split_at)} outside "
                                  f"0..{_shown(dim)}", "/ambient/split_at")
        for i, b in enumerate(self.basic_sets):
            if b.index_u > dim:
                raise ValidationError(f"index {_shown(b.index_u)} exceeds "
                                      f"ambient dim {_shown(dim)}",
                                      f"/basic_sets/{i}/index")

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
        raise ValidationError(f"q = {_shown(q)} exceeds the ambient "
                              f"dimension {_shown(system.ambient_dim)}")
    present = sum(1 for k in system.ambient_maps if 0 <= k <= q)
    if present <= q:
        # The first five missing degrees lie below present + 5.
        missing = [k for k in range(min(q + 1, present + 5))
                   if k not in system.ambient_maps][:5]
        more = q + 1 - present - len(missing)
        raise ValidationError(
            f"missing ambient homology maps for degrees {missing}"
            + (f" and {_shown(more)} more" if more else ""))
    lhs = RationalFunction(1)
    for basic in system.sorted_sets():
        if basic.index_u <= q:
            lhs = lhs * zeta_basic_set(basic, system.ambient_dim)
    rhs = RationalFunction(1)
    for k in range(q + 1):
        rhs = rhs * _in_degree(char_reversed(system.ambient_maps[k]), k)
    ratio = rhs * lhs.inverse()
    p_of_t = ratio if q % 2 == 0 else ratio.inverse()
    report = MorseReport(q=q, lhs_product=lhs, rhs_product=rhs,
                         p_of_t=p_of_t,
                         is_integer_polynomial=p_of_t.is_polynomial,
                         split_asserted_at=system.split_at)
    report.check_identity()
    return report
