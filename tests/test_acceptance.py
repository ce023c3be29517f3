"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(run with ``pytest -s`` to see them on success).  Every comparison is
exact; the only tolerances are the stated wall-clock bounds on the three
worked fixtures.
"""

import random
import time
from contextlib import contextmanager

import pytest

from conley.cli import main
from conley.dynamics import (VertexShiftSpec, conley_index, count_periodic,
                             enumerate_periodic_oracle, morse_split_check,
                             zeta_basic_set)
from conley.linalg import (RationalMatrix, char_reversed,
                           char_reversed_rational, kernel_basis)
from conley.poly import IntPolynomial, RationalFunction
from conley.spectral import (generalized_image, generalized_kernel,
                             invariant_factors, is_similar, jordan_profile,
                             nonnilpotent_part)
from conley.system_io import parse_system

from oracles import (block_diag, conjugate, jordan_block,
                     quadratic_companion_block, random_int_matrix,
                     random_shift_graph, random_unimodular, zero_column)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


@pytest.fixture(scope="module")
def random_family():
    """The shared random family: 500 integer matrices, n <= 5, entries in
    [-3, 3], with their nonnilpotent parts."""
    rng = random.Random(20260810)
    family = []
    for _ in range(500):
        n = rng.randint(1, 5)
        a = random_int_matrix(rng, n, -3, 3)
        family.append((a, nonnilpotent_part(a)))
    return family


def test_criterion_1_horseshoe(fixture_path):
    with criterion(1, "horseshoe: nilpotent structure matrix, trivial "
                      "index in every degree, under 1 s"):
        start = time.perf_counter()
        system = parse_system(fixture_path("horseshoe.json"))
        (basic,) = system.basic_sets
        a = basic.structure.matrix
        assert a == RationalMatrix.from_rows([[1, -1], [1, -1]])
        assert basic.index_u == 1
        assert a * a == RationalMatrix.zeros(2, 2)
        induced = nonnilpotent_part(a)
        assert induced.dim == 0
        assert induced.matrix == RationalMatrix.zeros(0, 0)
        index = conley_index(basic, system.ambient_dim)
        assert index.is_trivial
        for q in range(system.ambient_dim + 1):
            assert index.entry(q) is None
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_fourhandle(fixture_path):
    with criterion(2, "four-handle: dim 2 index in degree 1 conjugate to "
                      "the unipotent 2x2 block, matching block profile, "
                      "under 1 s"):
        start = time.perf_counter()
        system = parse_system(fixture_path("fourhandle.json"))
        (basic,) = system.basic_sets
        index = conley_index(basic, system.ambient_dim)
        assert index.degrees() == [1]
        entry = index.entry(1)
        assert entry.dim == 2
        shear = RationalMatrix.from_rows([[1, 1], [0, 1]])
        assert list(entry.invariant_factors) == [IntPolynomial([1, -2, 1])]
        assert is_similar(entry.matrix, shear)
        profile = jordan_profile(basic.structure.matrix)
        zero = profile.class_for(IntPolynomial([0, 1]))
        one = profile.class_for(IntPolynomial([-1, 1]))
        assert zero is not None and zero.block_sizes == (1, 1)
        assert one is not None and one.block_sizes == (2,)
        assert len(profile.entries) == 2
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_3_torus(fixture_path, capsys):
    with criterion(3, "torus: the three zeta functions and the q = 1 "
                      "Morse check with P(t) = 1, under 1 s"):
        start = time.perf_counter()
        system = parse_system(fixture_path("torus.json"))
        by_name = {b.name: b for b in system.basic_sets}
        one_minus_t = IntPolynomial([1, -1])
        assert zeta_basic_set(by_name["p"], 2) == \
            RationalFunction(1, one_minus_t)
        assert zeta_basic_set(by_name["lambda"], 2) == \
            RationalFunction(IntPolynomial([1, -1, 1]))
        assert zeta_basic_set(by_name["infinity"], 2) == \
            RationalFunction(1, one_minus_t)
        report = morse_split_check(system, 1)
        assert report.p_of_t.is_one
        assert report.is_integer_polynomial
        code = main(["morse", fixture_path("torus.json"), "--q", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "P(t) = 1" in out
        assert "integer polynomial: yes" in out
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_4_reversed_charpoly_family(random_family):
    with criterion(4, "det(I - A t) = det(I - A+ t) on 500 random "
                      "matrices, exactly"):
        assert len(random_family) == 500
        for a, induced in random_family:
            assert char_reversed(a) == char_reversed_rational(induced.matrix)


def test_criterion_5_similarity_invariance():
    with criterion(5, "invariant factors of the nonnilpotent part are "
                      "unchanged by 200 unimodular conjugations"):
        rng = random.Random(5_2026)
        for _ in range(200):
            n = rng.randint(1, 5)
            a = random_int_matrix(rng, n, -3, 3)
            u = random_unimodular(rng, n)
            b = conjugate(u, a)
            assert b.is_integer
            assert invariant_factors(nonnilpotent_part(a).matrix) == \
                invariant_factors(nonnilpotent_part(b).matrix)


def test_criterion_6_kernel_chain(random_family):
    with criterion(6, "kernel chain stabilises at the matrix size, "
                      "dimensions split, and the induced part is "
                      "invertible"):
        for a, induced in random_family:
            n = a.rows
            stable = generalized_kernel(a)
            assert kernel_basis(a ** n) == stable
            assert kernel_basis(a ** (n + 1)) == stable
            assert kernel_basis(a ** (n + 2)) == stable
            image = generalized_image(a)
            assert stable.dim + image.dim == n
            if induced.dim:
                assert induced.matrix.rank() == induced.dim
                assert induced.matrix.det() != 0


def test_criterion_7_periodic_counts():
    with criterion(7, "trace formula equals brute-force enumeration on "
                      "100+ random graphs, periods 1..6"):
        rng = random.Random(7_2026)
        for _ in range(120):
            adjacency, orientation = random_shift_graph(rng, max_vertices=4)
            shift = VertexShiftSpec.from_lists(adjacency, orientation)
            for n in range(1, 7):
                assert count_periodic(shift, n) == \
                    enumerate_periodic_oracle(shift, n)


def test_criterion_8_planted_jordan_blocks():
    with criterion(8, "jordan_profile recovers planted block multisets in "
                      "200 conjugated block-diagonal matrices"):
        rng = random.Random(8_2026)
        for _ in range(200):
            blocks = []
            expected = {}
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.65:
                    lam = rng.randint(-2, 2)
                    size = rng.randint(1, 3)
                    blocks.append(jordan_block(lam, size))
                    expected.setdefault(IntPolynomial([-lam, 1]),
                                        []).append(size)
                else:
                    size = rng.randint(1, 3)
                    blocks.append(quadratic_companion_block(size))
                    expected.setdefault(IntPolynomial([1, -1, 1]),
                                        []).append(size)
            total = sum(b.rows for b in blocks)
            planted = conjugate(random_unimodular(rng, total),
                                block_diag(blocks))
            assert planted.is_integer
            profile = jordan_profile(planted)
            got = {e.factor: sorted(e.block_sizes, reverse=True)
                   for e in profile.entries}
            want = {f: sorted(sizes, reverse=True)
                    for f, sizes in expected.items()}
            assert got == want


def test_criterion_9_trace_tails(random_family):
    with criterion(9, "trace(A^k) = trace(A+^k) for 1 <= k <= 10 on the "
                      "criterion-4 family and on it with a column zeroed"):
        rng = random.Random(9)
        for a, induced in random_family:
            singular = zero_column(a, rng.randrange(a.rows))
            for m, plus in ((a, induced.matrix),
                            (singular, nonnilpotent_part(singular).matrix)):
                power, plus_power = m, plus
                for _ in range(10):
                    assert power.trace() == plus_power.trace()
                    power = power * m
                    plus_power = plus_power * plus
