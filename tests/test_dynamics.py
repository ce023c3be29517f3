import enum
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conley import dynamics, linalg, report, spectral
from conley.dynamics import (BasicSetAnalysis, BasicSetSpec, ConleyIndex,
                             IndexEntry, StepBudget, StructureMatrix,
                             SystemSpec, VertexShiftSpec,
                             build_structure_matrix,
                             conley_index, count_periodic,
                             enumerate_periodic_oracle, lefschetz_series,
                             morse_split_check, zeta_basic_set,
                             zeta_via_index)
from conley.errors import (DomainError, InvariantError, ResourceError,
                           ValidationError)
from conley.linalg import RationalMatrix, char_reversed
from conley.poly import IntPolynomial, RationalFunction, poly_mul
from conley.report import build_index_report, build_verify_report
from conley.spectral import is_similar, jordan_profile

from oracles import (block_diag, companion, conjugate,
                     enumerate_periodic_dfs, jordan_block,
                     mat_mul_oracle, out_split, random_int_matrix,
                     random_shift_graph,
                     random_unimodular, reference_index_report,
                     reference_verify_report, zeta_via_index_reference)


def P(*coeffs):
    return IntPolynomial(coeffs)


def basic(name, rows, u):
    return BasicSetSpec(name, StructureMatrix.from_rows(rows), u)


HORSESHOE = basic("horseshoe", [[1, -1], [1, -1]], 1)
TORUS_P = basic("p", [[1]], 0)
TORUS_LAMBDA = basic("lambda", [[0, 1], [-1, 1]], 1)
TORUS_INF = basic("infinity", [[1]], 2)
FOURHANDLE = basic("four-handle",
                   [[1, 0, -1, -1], [0, 1, 0, 0], [0, 1, 0, 0],
                    [0, 1, 0, 0]], 1)


def torus_system():
    maps = {0: RationalMatrix.from_rows([[1]]),
            1: RationalMatrix.from_rows([[0, 1], [-1, 1]]),
            2: RationalMatrix.from_rows([[1]])}
    return SystemSpec(basic_sets=(TORUS_P, TORUS_LAMBDA, TORUS_INF),
                      ambient_dim=2, ambient_maps=maps, split_at=1)


class TestStructureMatrix:
    def test_horseshoe_graph(self):
        shift = VertexShiftSpec.from_lists([[1, 1], [1, 1]], [1, -1])
        got = build_structure_matrix(shift)
        assert got.matrix == RationalMatrix.from_rows([[1, -1], [1, -1]])
        assert not got.raw

    def test_identity_graph(self):
        shift = VertexShiftSpec.from_lists([[1, 0], [0, 1]], [1, 1])
        assert build_structure_matrix(shift).matrix == \
            RationalMatrix.identity(2)

    def test_fourhandle_preimage(self):
        # one valid (adjacency, signs) preimage of the four-handle matrix;
        # signs are constant per column
        shift = VertexShiftSpec.from_lists(
            [[1, 0, 1, 1], [0, 1, 0, 0], [0, 1, 0, 0], [0, 1, 0, 0]],
            [1, 1, -1, -1])
        assert build_structure_matrix(shift).matrix == \
            FOURHANDLE.structure.matrix

    def test_malformed_shift_lists_entries(self):
        # The first bad entry is reported, located in the graph's document
        # form: adjacency before orientation, row by row.
        for adjacency, orientation, shown in (
                (((0, 2), (0, 0)), (1, 5),
                 "/adjacency/0/1: entry 2 not in [0, 1]"),
                (((0, 1), (0, 0)), (1, 5),
                 "/orientation/1: entry 5 must be 1 or -1")):
            with pytest.raises(ValidationError) as err:
                VertexShiftSpec(2, adjacency, orientation)
            assert str(err.value) == shown
        # entries equal to 0, 1 or -1 that are not ints are refused too
        for adjacency, orientation, where in (
                (((1.0,),), (1,), "/adjacency/0/0"),
                (((True,),), (1,), "/adjacency/0/0"),
                (((Fraction(1),),), (1,), "/adjacency/0/0"),
                (((1,),), (True,), "/orientation/0")):
            with pytest.raises(ValidationError) as err:
                VertexShiftSpec(1, adjacency, orientation)
            assert str(err.value) == f"{where}: expected an integer"

    def test_non_integer_matrix_rejected(self):
        with pytest.raises(ValidationError):
            StructureMatrix(RationalMatrix.from_rows([[Fraction(1, 2)]]))

    def test_shift_derived_entries_outside_signs_are_listed(self):
        with pytest.raises(InvariantError, match=re.escape(": [5, -7]")):
            StructureMatrix(RationalMatrix.from_rows([[5, 0], [0, -7]]),
                            raw=False)


class TestPeriodicCounts:
    def test_full_shift_period_three(self):
        shift = VertexShiftSpec.from_lists([[1, 1], [1, 1]], [1, 1])
        assert count_periodic(shift, 3) == 8
        assert enumerate_periodic_oracle(shift, 3) == 8

    def test_identity_graph_two_loops(self):
        shift = VertexShiftSpec.from_lists([[1, 0], [0, 1]], [1, 1])
        for n in (1, 2, 5):
            assert count_periodic(shift, n) == 2

    def test_swap_graph(self):
        shift = VertexShiftSpec.from_lists([[0, 1], [1, 0]], [1, 1])
        assert count_periodic(shift, 2) == 2
        assert enumerate_periodic_oracle(shift, 2) == 2
        assert count_periodic(shift, 1) == 0

    def test_empty_graph(self):
        shift = VertexShiftSpec.from_lists([[0, 0], [0, 0]], [1, 1])
        assert enumerate_periodic_oracle(shift, 4) == 0

    def test_full_shift_fixed_points(self):
        shift = VertexShiftSpec.from_lists([[1, 1], [1, 1]], [1, 1])
        assert enumerate_periodic_oracle(shift, 1) == 2

    def test_period_zero_rejected(self):
        shift = VertexShiftSpec.from_lists([[1]], [1])
        with pytest.raises(DomainError):
            count_periodic(shift, 0)
        with pytest.raises(DomainError):
            enumerate_periodic_oracle(shift, 0)

    def test_long_period_spends_the_budget(self):
        shift = VertexShiftSpec.from_lists([[1]], [1])
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="more than 2000000 steps"):
            enumerate_periodic_oracle(shift, 10**7)
        assert time.perf_counter() - start < 5

    def test_no_symbol_cap(self):
        full9 = VertexShiftSpec.from_lists([[1] * 9] * 9, [1] * 9)
        assert enumerate_periodic_oracle(full9, 2) == 81 == \
            count_periodic(full9, 2)

    def test_step_cap(self):
        full8 = VertexShiftSpec.from_lists([[1] * 8] * 8, [1] * 8)
        assert enumerate_periodic_oracle(full8, 6) == 8 ** 6
        with pytest.raises(ResourceError):
            enumerate_periodic_oracle(full8, 7)

    def test_half_powers_match_repeated_oracle_products(self):
        # tr(G^(n - h) G^h), h = n // 2, against the trace of G, G G, ...
        # multiplied out over Fractions; also on no symbols and on a
        # 2-cycle with an edge into a sink (vertex 2).
        rng = random.Random(233)
        graphs = [random_shift_graph(rng, 5)[0] for _ in range(25)]
        graphs += [[], [[0, 1, 1], [1, 0, 0], [0, 0, 0]]]
        for adjacency in graphs:
            k = len(adjacency)
            shift = VertexShiftSpec.from_lists(adjacency, [1] * k)
            g = RationalMatrix(k, k, [x for row in adjacency for x in row])
            power = g
            for n in range(1, 17):
                assert count_periodic(shift, n) == power.trace()
                power = mat_mul_oracle(power, g)

    def test_products_are_those_of_the_half_power(self, monkeypatch):
        # G^h by square and multiply takes bit_length(h) - 1 squarings
        # and bit_count(h) - 1 multiplications; an odd n > 1 adds G^h G,
        # and n = 1 reads tr G.  No G^n is formed.
        products = _count_products(monkeypatch)
        shift = VertexShiftSpec.from_lists(
            [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [1, 1, 1])
        for n in range(1, 70):
            products.clear()
            count_periodic(shift, n)
            h = n // 2
            half = h.bit_length() + h.bit_count() - 2 if h else 0
            assert len(products) == half + (n % 2 == 1 and n > 1), n

    def test_budget_is_shared_across_calls(self):
        cycle = VertexShiftSpec.from_lists([[0, 1], [1, 0]], [1, 1])
        budget = StepBudget(10)
        # Period 3 on the 2-cycle pops 3 stack entries per start symbol.
        assert enumerate_periodic_oracle(cycle, 3, budget=budget) == 0
        assert budget.left == 4
        with pytest.raises(ResourceError, match="more than 10 steps"):
            enumerate_periodic_oracle(cycle, 3, budget=budget)

    def test_callers_budget_replaces_the_default(self):
        full8 = VertexShiftSpec.from_lists([[1] * 8] * 8, [1] * 8)
        assert enumerate_periodic_oracle(
            full8, 7, budget=StepBudget(10**7)) == 8 ** 7

    def test_each_call_costs_at_least_its_period(self):
        # On a graph without cycles every walk ends after one step.
        acyclic = VertexShiftSpec.from_lists([[0]], [1])
        budget = StepBudget(10)
        assert enumerate_periodic_oracle(acyclic, 4, budget) == 0
        assert budget.left == 6
        with pytest.raises(ResourceError, match="more than 10 steps"):
            enumerate_periodic_oracle(acyclic, 7, budget)

    def test_trace_formula_matches_enumeration(self):
        rng = random.Random(211)
        for _ in range(60):
            adjacency, orientation = random_shift_graph(rng)
            shift = VertexShiftSpec.from_lists(adjacency, orientation)
            for n in range(1, 7):
                assert count_periodic(shift, n) == \
                    enumerate_periodic_oracle(shift, n)


@st.composite
def _walks(draw):
    """A transition graph on at most 5 symbols and a period in 1..8."""
    n = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    adjacency = draw(st.lists(row, min_size=n, max_size=n))
    return VertexShiftSpec.from_lists(adjacency, [1] * n), \
        draw(st.integers(1, 8))


def _enumerated(enumerate_fn, shift, period, steps):
    budget = StepBudget(steps)
    try:
        out = enumerate_fn(shift, period, budget)
    except ResourceError as exc:
        out = str(exc)
    return out, budget.left


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_walks(), st.sampled_from([0, -1, -2, 1]))
def test_enumeration_matches_one_stack_entry_per_word(walk, offset):
    # Budgets at, just below and just above the charge of the walk: the
    # count or the overrun message, and the budget left, must match.
    shift, period = walk
    probe = StepBudget(10 ** 7)
    enumerate_periodic_dfs(shift, period, probe)
    steps = max(probe.steps - probe.left + offset, 0)
    assert _enumerated(enumerate_periodic_oracle, shift, period, steps) == \
        _enumerated(enumerate_periodic_dfs, shift, period, steps)


class TestConleyIndex:
    def test_horseshoe_trivial_everywhere(self):
        index = conley_index(HORSESHOE, 2)
        assert index.is_trivial
        assert index.entry(0) is None and index.entry(1) is None

    def test_torus_attractor(self):
        index = conley_index(TORUS_P, 2)
        assert index.degrees() == [0]
        entry = index.entry(0)
        assert entry.dim == 1
        assert entry.matrix == RationalMatrix.identity(1)
        assert list(entry.invariant_factors) == [P(-1, 1)]

    def test_fourhandle_degree_one(self):
        index = conley_index(FOURHANDLE, 2)
        assert index.degrees() == [1]
        entry = index.entry(1)
        assert entry.dim == 2
        assert is_similar(entry.matrix,
                          RationalMatrix.from_rows([[1, 1], [0, 1]]))
        assert list(entry.invariant_factors) == [P(1, -2, 1)]

    def test_index_exceeding_dimension(self):
        with pytest.raises(ValidationError):
            conley_index(TORUS_INF, 1)

    def test_empty_basic_set(self):
        empty = basic("void", [], 0)
        assert conley_index(empty, 0).is_trivial
        assert zeta_basic_set(empty, 0).is_one


class TestZeta:
    def test_torus_values(self):
        one_minus_t = P(1, -1)
        assert zeta_basic_set(TORUS_P, 2) == RationalFunction(1, one_minus_t)
        assert zeta_basic_set(TORUS_LAMBDA, 2) == \
            RationalFunction(P(1, -1, 1))
        assert zeta_basic_set(TORUS_INF, 2) == \
            RationalFunction(1, one_minus_t)

    def test_horseshoe_is_one(self):
        assert zeta_basic_set(HORSESHOE, 2).is_one

    def test_index_route_agrees(self):
        for b in (HORSESHOE, TORUS_P, TORUS_LAMBDA, TORUS_INF, FOURHANDLE):
            assert zeta_basic_set(b, 2) == zeta_via_index(b, 2)

    def test_index_route_agrees_random(self):
        rng = random.Random(223)
        for _ in range(60):
            n = rng.randint(1, 5)
            b = BasicSetSpec(
                "s", StructureMatrix(random_int_matrix(rng, n)),
                rng.randint(0, 3))
            assert zeta_basic_set(b, 3) == zeta_via_index(b, 3)


class TestLefschetz:
    def test_horseshoe_all_zero(self):
        assert lefschetz_series(HORSESHOE, 2, 6) == [0] * 6

    def test_fixed_point(self):
        assert lefschetz_series(TORUS_P, 2, 5) == [1] * 5

    def test_torus_six_cycle(self):
        assert lefschetz_series(TORUS_LAMBDA, 2, 12) == \
            [1, -1, -2, -1, 1, 2] * 2

    def test_length_validated(self):
        with pytest.raises(DomainError):
            lefschetz_series(TORUS_P, 2, 0)

    def test_integer_traces_build_no_fraction(self, monkeypatch):
        # The traces of an integer matrix's powers and the periodic counts
        # of a graph are int sums of stored entries; neither builds a
        # Fraction.
        built = []

        def counting(*args):
            built.append(args)
            return Fraction(*args)

        for module in (linalg, dynamics):
            monkeypatch.setattr(module, "Fraction", counting)
        full = VertexShiftSpec.from_lists([[1, 1], [1, 1]], [1, -1])
        traces = lefschetz_series(TORUS_LAMBDA, 2, 12)
        counts = [count_periodic(full, n) for n in range(1, 8)]
        assert built == []
        assert {type(t) for t in traces + counts} == {int}
        assert counts == [2, 4, 8, 16, 32, 64, 128]

    @pytest.mark.parametrize("fn", [
        conley_index, zeta_basic_set, zeta_via_index,
        lambda b, dim: lefschetz_series(b, dim, 4)])
    def test_index_above_the_ambient_dimension_is_refused(self, fn):
        with pytest.raises(ValidationError, match="exceeds the ambient"):
            fn(basic("high", [[2]], 3), 2)

    def test_long_strings_are_abbreviated_in_library_errors(self):
        long = "v" * 100_000
        with pytest.raises(DomainError) as entry:
            RationalMatrix(1, 1, [long])
        with pytest.raises(ValidationError) as name:
            conley_index(basic(long, [[2]], 3), 2)
        for exc in (entry, name):
            assert "<string of 100000 characters starting 'vvv" in \
                str(exc.value)
            assert len(str(exc.value)) < 200

    def test_matches_fraction_powers(self):
        rng = random.Random(229)
        for _ in range(40):
            n = rng.randint(0, 5)
            a = random_int_matrix(rng, n)
            b = BasicSetSpec("s", StructureMatrix(a), 0)
            power = RationalMatrix.identity(n)
            expected = []
            for _ in range(12):
                power = mat_mul_oracle(power, a)
                expected.append(power.trace())
            assert lefschetz_series(b, 0, 12) == expected

    def test_tail_matches_nonnilpotent_part(self):
        from conley.spectral import nonnilpotent_part
        rng = random.Random(227)
        for _ in range(40):
            n = rng.randint(1, 5)
            b = BasicSetSpec("s", StructureMatrix(random_int_matrix(rng, n)),
                             0)
            traces = lefschetz_series(b, 0, 10)
            plus = nonnilpotent_part(b.structure.matrix).matrix
            for k in range(n, 11):
                assert traces[k - 1] == (plus ** k).trace()


class TestMorse:
    def test_torus_q1(self):
        report = morse_split_check(torus_system(), 1)
        assert report.p_of_t.is_one
        assert report.is_integer_polynomial
        assert report.split_asserted_at == 1
        report.check_identity()

    def test_torus_q0(self):
        report = morse_split_check(torus_system(), 0)
        assert report.p_of_t.is_one
        assert report.is_integer_polynomial

    def test_single_attracting_fixed_point(self):
        system = SystemSpec(
            basic_sets=(basic("sink", [[1]], 0),),
            ambient_dim=1,
            ambient_maps={0: RationalMatrix.from_rows([[1]])})
        report = morse_split_check(system, 0)
        assert report.p_of_t.is_one
        assert report.lhs_product == RationalFunction(1, P(1, -1))
        assert report.lhs_product == report.rhs_product

    def test_missing_maps(self):
        system = SystemSpec(basic_sets=(TORUS_P,), ambient_dim=2,
                            ambient_maps={0: RationalMatrix.from_rows([[1]])})
        with pytest.raises(ValidationError):
            morse_split_check(system, 1)

    @pytest.mark.parametrize("present, q, named", [
        ((0, 2, 3, 5), 5, "[1, 4]"),
        ((1, 2, 3), 7, "[0, 4, 5, 6, 7]"),
        ((1, 2, 3), 8, "[0, 4, 5, 6, 7] and 1 more"),
        ((), 10 ** 6, "[0, 1, 2, 3, 4] and 999996 more"),
    ])
    def test_missing_maps_named_up_to_five(self, present, q, named):
        # The check runs over the maps given, not over 0..q, so a huge q
        # with no maps fails at once with a short message.
        one = RationalMatrix.from_rows([[1]])
        system = SystemSpec((), ambient_dim=q,
                            ambient_maps={k: one for k in present})
        with pytest.raises(ValidationError) as exc:
            morse_split_check(system, q)
        assert str(exc.value) == \
            f"missing ambient homology maps for degrees {named}"

    def test_needs_ambient(self):
        system = SystemSpec(basic_sets=(TORUS_P,))
        with pytest.raises(ValidationError):
            morse_split_check(system, 0)

    def test_q_beyond_dimension(self):
        with pytest.raises(ValidationError, match=re.escape(
                "q = 3 exceeds the ambient dimension 2")):
            morse_split_check(torus_system(), 3)

    def test_detects_non_polynomial(self):
        # a deliberately inconsistent ambient map: P(t) picks up a genuine
        # denominator and the verdict must go false without failing
        system = SystemSpec(
            basic_sets=(basic("sink", [[1]], 0),),
            ambient_dim=1,
            ambient_maps={0: RationalMatrix.from_rows([[2]])})
        report = morse_split_check(system, 0)
        assert not report.is_integer_polynomial
        report.check_identity()

    def test_identity_on_random_systems(self):
        rng = random.Random(229)
        for _ in range(30):
            sets = []
            for i in range(rng.randint(1, 3)):
                n = rng.randint(1, 3)
                sets.append(BasicSetSpec(
                    f"s{i}", StructureMatrix(random_int_matrix(rng, n)),
                    rng.randint(0, 2)))
            maps = {k: random_int_matrix(rng, rng.randint(1, 2))
                    for k in range(3)}
            system = SystemSpec(basic_sets=tuple(sets), ambient_dim=2,
                                ambient_maps=maps)
            q = rng.randint(0, 2)
            report = morse_split_check(system, q)
            report.check_identity()
            lhs = report.p_of_t ** ((-1) ** q) * report.lhs_product
            assert lhs == report.rhs_product


class TestSystemSpec:
    def test_duplicate_names(self):
        with pytest.raises(ValidationError):
            SystemSpec(basic_sets=(TORUS_P, basic("p", [[1]], 0)))

    def test_duplicate_names_in_one_pass(self):
        # One repeat among 100,000 names: a count per name would be
        # quadratic, one pass over a set of the names seen is not.
        one = StructureMatrix.from_rows([[1]])
        sets = [BasicSetSpec(f"s{i}", one, 0) for i in range(99_999)]
        sets.append(BasicSetSpec("s7", one, 0))
        start = time.perf_counter()
        with pytest.raises(ValidationError) as err:
            SystemSpec(basic_sets=sets)
        assert time.perf_counter() - start < 1
        assert str(err.value) == \
            "/basic_sets/99999/name: duplicate name 's7'"

    @pytest.mark.parametrize("index", [1.5, True, "1", None])
    def test_index_must_be_an_int(self, index):
        # Only a library caller can hand these in; the file parser refuses
        # them as JSON.  1.5 once printed "Conley index: degree 1.5".
        with pytest.raises(ValidationError) as err:
            BasicSetSpec("s", StructureMatrix.from_rows([[2]]), index)
        assert str(err.value) == "/index: expected an integer"

    def test_split_at_needs_an_ambient_dimension(self):
        with pytest.raises(ValidationError) as err:
            SystemSpec(basic_sets=(), split_at=7)
        assert str(err.value) == \
            "/ambient: split_at given without an ambient dimension"

    def test_map_degree_out_of_range(self):
        with pytest.raises(ValidationError):
            SystemSpec(basic_sets=(TORUS_P,), ambient_dim=1,
                       ambient_maps={2: RationalMatrix.from_rows([[1]])})

    def test_index_checked_against_dimension(self):
        with pytest.raises(ValidationError):
            SystemSpec(basic_sets=(TORUS_INF,), ambient_dim=1)

    def test_sorted_sets(self):
        system = torus_system()
        assert [b.name for b in system.sorted_sets()] == \
            ["infinity", "lambda", "p"]

    def test_effective_dim(self):
        assert torus_system().effective_dim() == 2
        assert SystemSpec(basic_sets=(TORUS_INF,)).effective_dim() == 2
        assert SystemSpec(basic_sets=()).effective_dim() == 0


# 10**5000 has 16610 bits, past the 4300 digits str() writes by default.
HUGE = 10 ** 5000


def _two_cycle():
    return VertexShiftSpec.from_lists([[0, 1], [1, 0]], [1, 1])


# Every integer a caller hands in that can reach an exception message, and
# the ConleyError subclass raised when it is too long for str().
HUGE_MESSAGE_SITES = {
    "shift-size": (ValidationError, lambda: VertexShiftSpec(HUGE, (), ())),
    "adjacency-entry": (ValidationError,
                        lambda: VertexShiftSpec.from_lists([[HUGE]], [1])),
    "orientation-sign": (ValidationError,
                         lambda: VertexShiftSpec.from_lists([[1]], [HUGE])),
    "shift-derived-entry": (InvariantError, lambda: StructureMatrix(
        RationalMatrix.from_rows([[HUGE]]), raw=False)),
    "period": (ResourceError,
               lambda: enumerate_periodic_oracle(_two_cycle(), HUGE)),
    "negative-index": (ValidationError, lambda: basic("p", [[1]], -HUGE)),
    "singular-degree": (InvariantError, lambda: ConleyIndex(
        {HUGE: IndexEntry(1, RationalMatrix.from_rows([[0]]), ())})),
    "index-bound": (ValidationError,
                    lambda: conley_index(basic("p", [[1]], HUGE), 1)),
    "ambient-dim": (ValidationError,
                    lambda: conley_index(basic("p", [[1]], HUGE + 1), HUGE)),
    "map-degree": (ValidationError, lambda: SystemSpec(
        (), ambient_dim=1,
        ambient_maps={HUGE: RationalMatrix.from_rows([[1]])})),
    "split-at": (ValidationError,
                 lambda: SystemSpec((), ambient_dim=1, split_at=HUGE)),
    "morse-q": (ValidationError, lambda: morse_split_check(
        SystemSpec((), ambient_dim=1), HUGE)),
    "max-enum": (ValidationError,
                 lambda: build_verify_report(SystemSpec(()), -HUGE)),
}


class TestHugeIntegers:
    @pytest.mark.parametrize("site", sorted(HUGE_MESSAGE_SITES))
    def test_messages_abbreviate_huge_integers(self, site):
        error, call = HUGE_MESSAGE_SITES[site]
        with pytest.raises(error, match="<integer of 16610 bits>"):
            call()

    def test_a_huge_budget_is_not_formatted_in_full(self):
        # The overrun message is built before the walk, so a budget past
        # str()'s limit must not stop a count that stays within it.
        assert enumerate_periodic_oracle(_two_cycle(), 2,
                                         StepBudget(HUGE)) == 2

    def test_powers_with_huge_exponents(self):
        # One squaring per bit of the exponent, with no recursion.
        assert (RationalMatrix.identity(2) ** 2 ** 1200).trace() == 2
        assert count_periodic(_two_cycle(), 2 ** 1100) == 2
        assert count_periodic(_two_cycle(), 2 ** 1100 + 1) == 0


class _Two(enum.IntEnum):
    TWO = 2


# Every integer a spec constructor or library entry point compares, by the
# location its error names, and a call that hands it x.
INTEGER_SITES = {
    "system-dim": ("/ambient/dim", lambda x: SystemSpec((), ambient_dim=x)),
    "split-at": ("/ambient/split_at",
                 lambda x: SystemSpec((), ambient_dim=2, split_at=x)),
    "map-degree": ("/ambient/homology_maps", lambda x: SystemSpec(
        (), ambient_dim=2,
        ambient_maps={x: RationalMatrix.from_rows([[1]])})),
    "shift-size": ("/adjacency",
                   lambda x: VertexShiftSpec(x, ((0, 1), (1, 0)), (1, 1))),
    "index-dim": ("ambient_dim", lambda x: conley_index(TORUS_P, x)),
    "zeta-dim": ("ambient_dim", lambda x: zeta_basic_set(TORUS_P, x)),
    "zeta-via-index-dim": ("ambient_dim",
                           lambda x: zeta_via_index(TORUS_P, x)),
    "series-dim": ("ambient_dim", lambda x: lefschetz_series(TORUS_P, x, 2)),
    "series-length": ("m", lambda x: lefschetz_series(TORUS_P, 2, x)),
    "count-period": ("n", lambda x: count_periodic(_two_cycle(), x)),
    "oracle-period": ("n",
                      lambda x: enumerate_periodic_oracle(_two_cycle(), x)),
    "morse-q": ("q", lambda x: morse_split_check(torus_system(), x)),
    "max-enum": ("max_enum",
                 lambda x: build_verify_report(SystemSpec(()), x)),
}


class TestPlainIntegers:
    """An integer is a plain int: never a bool or another int subclass."""

    @pytest.mark.parametrize("value", [2.0, True, "2", _Two.TWO],
                             ids=["float", "bool", "str", "int-enum"])
    @pytest.mark.parametrize("site", sorted(INTEGER_SITES))
    def test_sites_refuse_what_is_not_an_int(self, site, value):
        location, call = INTEGER_SITES[site]
        with pytest.raises(ValidationError) as caught:
            call(value)
        assert str(caught.value) == f"{location}: expected an integer"

    def test_an_int_enum_index_is_refused(self):
        with pytest.raises(ValidationError) as caught:
            basic("p", [[1]], _Two.TWO)
        assert str(caught.value) == "/index: expected an integer"


class TestCompanionRemark:
    def test_cyclic_companion_is_its_own_nonnilpotent_part(self):
        # m x m matrix with 1s below the diagonal and +/-1 in the corner:
        # always invertible, so the induced map is similar to the whole
        from conley.spectral import nonnilpotent_part
        for m in range(1, 6):
            for corner in (1, -1):
                rows = [[0] * m for _ in range(m)]
                for i in range(1, m):
                    rows[i][i - 1] = 1
                rows[0][m - 1] = corner
                a = RationalMatrix.from_rows(rows)
                assert abs(a.det()) == 1
                induced = nonnilpotent_part(a)
                assert induced.dim == m
                assert is_similar(induced.matrix, a)


# ---------------------------------------------------------------------------
# the report builders against one public function call per fact

def _nilpotent(sizes):
    return block_diag([jordan_block(0, k) for k in sizes])


@st.composite
def _structure_matrices(draw):
    """(matrix, None) or (None, shift) from one of five families."""
    family = draw(st.sampled_from(
        ["empty", "nilpotent", "singular", "shift", "derogatory"]))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    if family == "empty":
        return RationalMatrix.zeros(0, 0), None
    if family == "shift":
        adjacency, orientation = random_shift_graph(rng)
        return None, VertexShiftSpec.from_lists(adjacency, orientation)
    if family == "nilpotent":
        base = _nilpotent(draw(st.lists(st.integers(1, 3), min_size=1,
                                        max_size=3)))
    elif family == "singular":
        base = random_int_matrix(rng, draw(st.integers(1, 5)), -2, 2)
        base = RationalMatrix.from_rows(
            [row[:-1] + [0] for row in base.tolist()])
    else:
        # An invariant-factor chain f | f g | ... beside nilpotent blocks,
        # n <= 8; after a long unimodular conjugation about one in four
        # of these has an A+ with p/q entries.
        chain = [draw(st.sampled_from([[-1, 1], [1, 1], [-2, 1],
                                       [1, -1, 1], [-1, 0, 1]]))]
        for step in draw(st.lists(st.sampled_from([[1], [-1, 1], [2, 1]]),
                                  max_size=2)):
            chain.append(list(poly_mul(P(*chain[-1]), P(*step)).coeffs))
        pad = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
        blocks = [companion(f) for f in chain] + [_nilpotent(pad)]
        if sum(b.rows for b in blocks) > 8:
            blocks = blocks[:1] + blocks[-1:]
        base = block_diag(blocks)
    return conjugate(random_unimodular(rng, base.rows, 30), base), None


@st.composite
def _systems(draw):
    sets = []
    for k, (a, shift) in enumerate(draw(st.lists(_structure_matrices(),
                                                 min_size=1, max_size=3))):
        structure = build_structure_matrix(shift) if shift is not None \
            else StructureMatrix(a)
        sets.append(BasicSetSpec(f"b{k}", structure,
                                 draw(st.integers(0, 3)), shift))
    dim = draw(st.one_of(st.none(), st.integers(3, 4)))
    return SystemSpec(basic_sets=sets, ambient_dim=dim)


def _fractional_plus_system():
    """One derogatory basic set whose A+ has entries 1/2, 39/2, -13/4."""
    base = block_diag([companion([-1, 1]), companion([1, -2, 1]),
                       _nilpotent([2])])
    a = conjugate(random_unimodular(random.Random(3), base.rows, 30), base)
    return SystemSpec(basic_sets=(BasicSetSpec("s", StructureMatrix(a), 1),))


def test_explicit_example_has_a_fractional_induced_map():
    (b,) = _fractional_plus_system().basic_sets
    assert not BasicSetAnalysis(b).induced.matrix.is_integer


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_systems())
@example(_fractional_plus_system())
def test_reports_match_one_call_per_fact(system):
    assert build_index_report(system) == reference_index_report(system)
    assert build_verify_report(system, max_enum=3) == \
        reference_verify_report(system, max_enum=3)
    dim = system.effective_dim()
    for b in system.basic_sets:
        assert zeta_via_index(b, dim) == zeta_via_index_reference(b, dim)


def test_verify_computes_each_fact_once(monkeypatch):
    # One basic set, n = 4, with A+ of dimension 2 (similar to
    # [[1, 1], [0, 1]]); a second call repeats the counts, so no cache
    # outlives a call.
    system = SystemSpec(basic_sets=(FOURHANDLE,), ambient_dim=2)
    a = FOURHANDLE.structure.matrix
    counts = {}

    def counting(key, fn, when=lambda *args: True):
        def wrapper(*args, **kwargs):
            if when(*args):
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # Every characteristic polynomial, integer or rational, comes from the
    # integer core: det(I - A t) for A and charpoly() for A+.
    monkeypatch.setattr(RationalMatrix, "_char_core",
                        counting("charpoly", RationalMatrix._char_core))
    monkeypatch.setattr(RationalMatrix, "__pow__", counting(
        "power", RationalMatrix.__pow__, lambda m, k: m == a))
    monkeypatch.setattr(spectral, "generalized_image", counting(
        "image", spectral.generalized_image))
    monkeypatch.setattr(spectral, "_eliminate", counting(
        "image steps", spectral._eliminate))
    monkeypatch.setattr(spectral, "kernel_basis", counting(
        "kernel steps", spectral.kernel_basis))
    for module in (spectral, dynamics):
        monkeypatch.setattr(module, "invariant_factors", counting(
            "invariant_factors", spectral.invariant_factors))
    monkeypatch.setattr(spectral, "solve_columns", counting(
        "solve", spectral.solve_columns))
    for _ in range(2):
        counts.clear()
        assert build_verify_report(system)["ok"]
        # Neither chain forms a power of A.  The kernel chain takes one
        # kernel per step: ker A (dimension 2) and ker [A | B_1] (dimension
        # 2 = dim B_1: ker A^2 = ker A, so it stops).  The image chain takes
        # one forward elimination per step: it ranks A's columns (2) and A
        # times its two independent ones (2: A maps im A onto itself).  A+
        # is read off pivot rows and solved for once, by InducedMap.verify.
        assert counts == {"charpoly": 2, "image": 1, "kernel steps": 2,
                          "image steps": 2, "solve": 1}


def _count_products(monkeypatch):
    """A list that gets one entry, the shape of the product, per call of
    linalg.mat_mul while the monkeypatch holds; every product of two
    RationalMatrix values goes through it."""
    products = []
    product = linalg.mat_mul

    def counting(a, b):
        products.append((a.rows, b.cols))
        return product(a, b)

    monkeypatch.setattr(linalg, "mat_mul", counting)
    return products


def test_verify_forms_six_products_of_the_transition_matrix(monkeypatch):
    # Periods 1..6 form G^h, h = n // 2, and G^h G for odd n > 1: 0, 0,
    # 1, 1, 2 and 2 products, 6 where G^1..G^6 took 0 + 1 + 2 + 2 + 3 + 3.
    products = _count_products(monkeypatch)
    counted = []

    def periodic(shift, n):
        start = len(products)
        result = dynamics.count_periodic(shift, n)
        counted.append(len(products) - start)
        return result

    monkeypatch.setattr(report, "count_periodic", periodic)
    shift = VertexShiftSpec.from_lists(
        [[1, 1, 0, 0, 1], [0, 1, 1, 0, 0], [1, 0, 0, 1, 1], [0, 1, 0, 1, 0],
         [1, 0, 1, 0, 1]], [1, -1, 1, 1, -1])
    system = SystemSpec(basic_sets=(BasicSetSpec(
        "s", build_structure_matrix(shift), 1, shift),))
    result = build_verify_report(system, max_enum=6)
    assert result["ok"]
    assert counted == [0, 0, 1, 1, 2, 2]


@st.composite
def _elementary_pairs(draw):
    """Integer R (n x m) and S (m x n), n and m in 1..6, entries in
    [-2, 2]."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = st.integers(-2, 2)

    def matrix(rows, cols):
        return RationalMatrix.from_rows(draw(st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))

    return matrix(n, m), matrix(m, n)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_elementary_pairs())
def test_invariants_survive_elementary_strong_shift_equivalence(pair):
    # A = R S and B = S R are strong shift equivalent, so A+ and B+ are
    # similar and det(I - A t) = det(I - B t).  The printed A+, the zero
    # class and n are not invariants and are not compared.
    r, s = pair
    seen = []
    for structure in (r * s, s * r):
        b = BasicSetSpec("s", StructureMatrix(structure), 1)
        index = conley_index(b, 1)
        factors = () if index.is_trivial else index.entry(1).invariant_factors
        assert build_verify_report(SystemSpec(basic_sets=(b,)))["ok"]
        seen.append((factors, jordan_profile(structure).without_zero_class(),
                     char_reversed(structure)))
    assert seen[0] == seen[1]


def _shift_invariants(structure, shift=None):
    """What a strong shift equivalence keeps: the invariant factors of A+,
    the block profile without the zero class, the zeta function and, for a
    graph, its periodic counts for n = 1..6.  The printed A+, the zero
    class and n are not invariants and are left out."""
    b = BasicSetSpec("s", StructureMatrix(structure), 1, shift)
    index = conley_index(b, 1)
    factors = () if index.is_trivial else index.entry(1).invariant_factors
    counts = shift and [count_periodic(shift, n) for n in range(1, 7)]
    return (factors, jordan_profile(structure).without_zero_class(),
            zeta_basic_set(b, 1), counts)


@st.composite
def _signed_graphs(draw, lo, hi):
    """(adjacency, orientation) of a signed graph on lo..hi vertices."""
    n = draw(st.integers(lo, hi))
    adjacency = draw(st.lists(st.lists(st.integers(0, 1), min_size=n,
                                       max_size=n), min_size=n, max_size=n))
    orientation = draw(st.lists(st.sampled_from([1, -1]), min_size=n,
                                max_size=n))
    return adjacency, orientation


@st.composite
def _stranded(draw):
    """(A, shift, j, into): a structure matrix on 2..8 vertices whose column
    j (into, nothing enters j) or row j (nothing leaves j) is zero, drawn
    from a signed graph (shift its vertex shift) or with entries in
    [-2, 2] (shift None)."""
    graph = draw(st.booleans())
    if graph:
        adjacency, orientation = draw(_signed_graphs(2, 8))
        n = len(adjacency)
    else:
        n = draw(st.integers(2, 8))
        adjacency = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n,
                                           max_size=n),
                                  min_size=n, max_size=n))
    j, into = draw(st.integers(0, n - 1)), draw(st.booleans())
    for i in range(n):
        if into:
            adjacency[i][j] = 0
        else:
            adjacency[j][i] = 0
    if not graph:
        return adjacency, None, j, into
    shift = VertexShiftSpec.from_lists(adjacency, orientation)
    return build_structure_matrix(shift).matrix.to_int_rows(), shift, j, into


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_stranded())
def test_invariants_survive_removing_a_stranded_vertex(case):
    # A stranded vertex j has a zero column or row in A, and deleting it
    # is a lag-1 strong shift equivalence: with R = A without column j and
    # S = I without row j (nothing enters j), or R = I without column j and
    # S = A without row j (nothing leaves j), A = R S and A' = S R.
    a, shift, j, into = case
    n = len(a)
    keep = [k for k in range(n) if k != j]
    unit = [[int(k == c) for c in range(n)] for k in keep]
    r, s = (([[row[k] for k in keep] for row in a], unit) if into else
            ([list(col) for col in zip(*unit)], [a[k] for k in keep]))
    a, r, s, smaller = map(RationalMatrix.from_rows, (
        a, r, s, [[a[i][k] for k in keep] for i in keep]))
    assert mat_mul_oracle(r, s) == a and mat_mul_oracle(s, r) == smaller
    removed = shift and VertexShiftSpec.from_lists(
        [[shift.adjacency[i][k] for k in keep] for i in keep],
        [shift.orientation[k] for k in keep])
    assert _shift_invariants(a, shift) == _shift_invariants(smaller, removed)


@st.composite
def _splittings(draw):
    """(adjacency, orientation, vertex, part): a signed graph on 1..7
    vertices, the vertex to split, and the neighbours (successors for an
    out-splitting, predecessors for an in-splitting) of its first copy."""
    adjacency, orientation = draw(_signed_graphs(1, 7))
    n = len(adjacency)
    vertex = draw(st.integers(0, n - 1))
    part = draw(st.sets(st.integers(0, n - 1)))
    return adjacency, orientation, vertex, part


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_splittings())
def test_invariants_survive_signed_out_splitting(case):
    # G = D E and G' = E D, and each copy keeps its parent's orientation,
    # so with O = diag(orientation) the structure matrices are A = D (E O)
    # and A' = (E O) D, an elementary strong shift equivalence.
    adjacency, orientation, vertex, part = case
    d, e = out_split(adjacency, vertex, part)
    eo = [[x * o for x, o in zip(row, orientation)] for row in e]
    d, e, eo = map(RationalMatrix.from_rows, (d, e, eo))
    shift = VertexShiftSpec.from_lists(adjacency, orientation)
    split = VertexShiftSpec.from_lists(mat_mul_oracle(e, d).to_int_rows(),
                                       orientation + [orientation[vertex]])
    a, a_split = mat_mul_oracle(d, eo), mat_mul_oracle(eo, d)
    assert build_structure_matrix(shift).matrix == a
    assert build_structure_matrix(split).matrix == a_split
    assert _shift_invariants(a, shift) == _shift_invariants(a_split, split)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_splittings())
def test_invariants_survive_signed_in_splitting(case):
    # In-splitting G is out-splitting its transpose: with (D, E) that of
    # G^T, G = E^T D^T and the split graph is G' = D^T E^T, whose second
    # copy keeps the orientation of vertex.  With O and O' the two
    # orientations as diagonal matrices, R = E^T and S = D^T O give
    # R S = A and S R = O' A' O', which is A' conjugated by a +-1 diagonal.
    adjacency, orientation, vertex, part = case
    d, e = out_split([list(col) for col in zip(*adjacency)], vertex, part)
    split_orientation = orientation + [orientation[vertex]]
    signs = [[int(i == j) * o for j in range(len(split_orientation))]
             for i, o in enumerate(split_orientation)]
    dt, r = ([list(col) for col in zip(*m)] for m in (d, e))
    s = [[x * o for x, o in zip(row, orientation)] for row in dt]
    dt, r, s, signs = map(RationalMatrix.from_rows, (dt, r, s, signs))
    shift = VertexShiftSpec.from_lists(adjacency, orientation)
    split = VertexShiftSpec.from_lists(mat_mul_oracle(dt, r).to_int_rows(),
                                       split_orientation)
    a = build_structure_matrix(shift).matrix
    a_split = build_structure_matrix(split).matrix
    assert mat_mul_oracle(r, s) == a
    assert mat_mul_oracle(s, r) == \
        mat_mul_oracle(mat_mul_oracle(signs, a_split), signs)
    assert _shift_invariants(a, shift) == _shift_invariants(a_split, split)


def _rank_callers(monkeypatch):
    """The code objects of the functions that call RationalMatrix.rank,
    one per call, while the monkeypatch holds."""
    callers = []
    rank = RationalMatrix.rank

    def recording(m):
        callers.append(sys._getframe(1).f_code)
        return rank(m)

    monkeypatch.setattr(RationalMatrix, "rank", recording)
    return callers


def test_a_singular_index_automorphism_is_refused():
    singular = RationalMatrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(InvariantError, match="singular"):
        ConleyIndex({1: IndexEntry(dim=2, matrix=singular,
                                   invariant_factors=())})


@pytest.mark.parametrize("system", [
    SystemSpec(basic_sets=(FOURHANDLE,), ambient_dim=2),
    _fractional_plus_system()], ids=["four-handle", "derogatory"])
def test_index_does_not_rank_the_index_automorphism(monkeypatch, system):
    # Nor does it solve for it: A+ is read off the image's pivot rows.
    callers = _rank_callers(monkeypatch)
    solves = []
    solve_columns = spectral.solve_columns

    def recording(b, c):
        solves.append((b, c))
        return solve_columns(b, c)

    monkeypatch.setattr(spectral, "solve_columns", recording)
    build_index_report(system)
    assert callers == []
    assert solves == []


def test_verify_ranks_each_nonzero_index_once(monkeypatch):
    # Horseshoe has the trivial index, the other four a nonzero one; the
    # one elimination of A+ is the explicit induced_map check.
    sets = (HORSESHOE, TORUS_P, TORUS_LAMBDA, FOURHANDLE,
            *_fractional_plus_system().basic_sets)
    system = SystemSpec(basic_sets=sets, ambient_dim=4)
    callers = _rank_callers(monkeypatch)
    assert build_verify_report(system)["ok"]
    assert callers == [spectral.InducedMap.verify.__code__] * 4
