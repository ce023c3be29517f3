import ast
import contextlib
import inspect
import io
import json
import pathlib
import re
import signal
import sys
from fractions import Fraction

import pytest

import conley
from conftest import HANG_GUARD_S, HangGuardTimeout
from conley.cli import main

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "bench"))
from spans import Tracer  # noqa: E402 - the bench directory is not a package


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                    reason="the hang guard needs SIGALRM")
def test_hang_guard_interrupts_a_looping_test():
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= HANG_GUARD_S
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    with pytest.raises(HangGuardTimeout):
        while True:
            pass


LAYERS_UNDER = {
    "verify": ("spectral.nonnilpotent_part", "spectral.generalized_image",
               "spectral.generalized_kernel", "linalg.charpoly",
               "linalg.column_space", "linalg.kernel_basis",
               "linalg.solve_columns"),
    "index": ("spectral.nonnilpotent_part", "spectral.generalized_image",
              "spectral.invariant_factors", "linalg.column_space"),
    "jordan": ("spectral.jordan_profile", "spectral.invariant_factors",
               "poly.squarefree_decomposition"),
    # zeta's structure matrices are integer: char_reversed reads det(I - A t)
    # off the integer core, so the rational charpoly() is not on its route.
    "zeta": ("linalg.char_reversed", "poly.RationalFunction"),
    "morse": ("dynamics.morse_split_check", "dynamics.zeta_basic_set"),
}


@pytest.mark.parametrize("command", sorted(LAYERS_UNDER))
def test_tracer_sees_the_layers_under_each_report(command, fixture_path):
    # The per-layer metrics of bench/run.py come from these boundaries; a
    # basic-set analysis that bypassed them would zero their counters.
    # morse needs the ambient homology maps, which only the torus has.
    argv = [command, fixture_path("torus.json"), "--q", "1"] \
        if command == "morse" else [command, fixture_path("fourhandle.json")]
    tracer = Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    boundaries = tracer.summary()["boundaries"]
    for name in LAYERS_UNDER[command]:
        assert boundaries[name]["calls"] > 0, name


def test_tracer_sees_the_periodic_check_under_verify(fixture_path):
    # The four-handle has no graph; on the horseshoe's, verify counts
    # periodic points by traces of matrix products and by enumeration.
    tracer = Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", fixture_path("horseshoe.json")]) == 0
    boundaries = tracer.summary()["boundaries"]
    for name in ("dynamics.count_periodic",
                 "dynamics.enumerate_periodic_oracle", "linalg.mat_mul"):
        assert boundaries[name]["calls"] > 0, name


def test_readme_lists_exactly_the_verify_checks(fixture_path):
    # The README's check list documents verify's output, so a check added
    # to or dropped from build_verify_report must change it too.
    emitted = set()
    for name in ("horseshoe.json", "torus.json", "fourhandle.json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", fixture_path(name),
                         "--format", "json"]) == 0
        emitted |= {c["check"] for c in json.loads(out.getvalue())["checks"]}
    readme = (pathlib.Path(__file__).resolve().parent.parent
              / "README.md").read_text(encoding="utf-8")
    paragraph = next(p for p in readme.split("\n\n")
                     if p.startswith("Each `verify` check"))
    documented = set(re.findall(r"`([a-z]+(?:_[a-z]+)+)`", paragraph))
    assert documented == emitted


def test_library_imports_only_the_standard_library():
    # conley promises no runtime dependencies: every absolute import in
    # the package must name a standard-library module.
    package = (pathlib.Path(__file__).resolve().parent.parent
               / "src" / "conley")
    imported = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported[name.split(".")[0]] = path.name
    assert imported, "no absolute imports found"
    outside = {name: where for name, where in imported.items()
               if name not in sys.stdlib_module_names}
    assert outside == {}


def test_library_starts_no_threads_and_takes_no_locks():
    # The library's process-wide state is two memos, which threads share
    # without a lock: that of a pure function (the prime sequences) and
    # cli's argument parser, built once and never mutated by parsing.
    package = (pathlib.Path(__file__).resolve().parent.parent
               / "src" / "conley")
    importing = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in ("threading", "_thread")
                   for name in names):
                importing.add(path.name)
    assert importing == set()


ELIMINATION = ("_reduce", "_pivot", "_eliminate", "_back_substitute")


def test_only_linalg_defines_the_elimination():
    # Every rank, subspace, solve and Krylov chain runs on one forward
    # fraction-free elimination and one back substitution, both linalg's:
    # other modules import them and define none of their own, and the
    # Gauss-Jordan elimination they replaced is named nowhere.
    package = (pathlib.Path(__file__).resolve().parent.parent
               / "src" / "conley")
    naming, defining = set(), {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if any(getattr(node, field, None) == "_gauss_jordan"
                   for field in ("id", "attr", "name")):
                naming.add(path.name)
            if (isinstance(node, ast.FunctionDef)
                    and node.name in ELIMINATION):
                defining.setdefault(node.name, []).append(path.name)
    assert naming == set()
    assert defining == {name: ["linalg.py"] for name in ELIMINATION}


def test_one_function_checks_that_a_value_is_an_integer():
    # "Is this an integer" has one check with one meaning, a plain int:
    # dynamics._require_int raises its message, and system_io, which reads
    # the file's values, calls it and tests no value against int itself;
    # its one use of int converts a homology-map degree key.
    package = (pathlib.Path(__file__).resolve().parent.parent
               / "src" / "conley")
    raising = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(
                    isinstance(node, ast.Constant)
                    and node.value == "expected an integer"
                    for node in ast.walk(func)):
                raising.add((path.name, func.name))
    assert raising == {("dynamics.py", "_require_int")}
    tree = ast.parse((package / "system_io.py").read_text(encoding="utf-8"))
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    assert all(id(node) in called for node in ast.walk(tree)
               if isinstance(node, ast.Name) and node.id == "int")


PUBLIC_API = [
    "BasicSetSpec", "ConleyError", "ConleyIndex", "DomainError",
    "EigenClass", "IndexEntry", "InducedMap", "IntPolynomial",
    "InvariantError", "JordanProfile", "KIND_COMPLEX", "KIND_RATIONAL",
    "KIND_UNRESOLVED", "MorseReport", "Rational", "RationalFunction",
    "RationalMatrix", "ResourceError", "ShapeError", "StructureMatrix",
    "Subspace", "SystemSpec", "ValidationError", "VertexShiftSpec",
    "build_structure_matrix", "char_reversed", "char_reversed_rational",
    "column_space", "conley_index", "count_periodic",
    "enumerate_periodic_oracle", "generalized_image", "generalized_kernel",
    "invariant_factors", "inverse", "is_similar", "jordan_profile",
    "kernel_basis", "lefschetz_series", "mat_mul", "morse_split_check",
    "nonnilpotent_part", "parse_system", "poly_divmod", "poly_gcd",
    "poly_mul", "rank", "ratfunc_inv", "ratfunc_mul", "solve_columns",
    "squarefree_decomposition", "system_from_dict", "system_to_dict",
    "zeta_basic_set", "zeta_via_index",
]


def test_public_api_is_pinned():
    # A simplification keeps the public library API: adding or dropping a
    # name has to change this list on purpose.
    assert sorted(conley.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert hasattr(conley, name), name


# str(inspect.signature(...)) of every public name that has one (a class
# by its constructor), plus the public classmethod that builds a Subspace.
# Rational is the standard library's Fraction, whose signature varies with
# the Python version, so it is pinned by identity instead.
PUBLIC_SIGNATURES = {
    "BasicSetSpec": "(name: 'str', structure: 'StructureMatrix', "
                    "index_u: 'int', shift: 'VertexShiftSpec | None' = None)"
                    " -> None",
    "ConleyIndex": "(graded)",
    "EigenClass": "(factor: 'IntPolynomial', kind: 'str', block_sizes: "
                  "'tuple', algebraic_multiplicity: 'int', "
                  "geometric_multiplicity: 'int') -> None",
    "IndexEntry": "(dim: 'int', matrix: 'RationalMatrix', "
                  "invariant_factors: 'tuple') -> None",
    "InducedMap": "(matrix: 'RationalMatrix', image_basis: 'Subspace', "
                  "ambient_dim: 'int', source: 'RationalMatrix') -> None",
    "IntPolynomial": "(coeffs=())",
    "JordanProfile": "(ambient_dim: 'int', entries: 'tuple') -> None",
    "MorseReport": "(q: 'int', lhs_product: 'RationalFunction', "
                   "rhs_product: 'RationalFunction', p_of_t: "
                   "'RationalFunction', is_integer_polynomial: 'bool', "
                   "split_asserted_at: 'int | None' = None) -> None",
    "RationalFunction": "(num, den=1)",
    "RationalMatrix": "(rows, cols, entries)",
    "StructureMatrix": "(matrix: 'RationalMatrix', raw: 'bool' = True)"
                       " -> None",
    "Subspace": "(ambient_dim, basis)",
    "Subspace.spanned_by_columns": "(m)",
    "SystemSpec": "(basic_sets: 'tuple', ambient_dim: 'int | None' = None, "
                  "ambient_maps: 'dict' = <factory>, split_at: "
                  "'int | None' = None) -> None",
    "ValidationError": "(message, location=None)",
    "VertexShiftSpec": "(n: 'int', adjacency: 'tuple', orientation: "
                       "'tuple') -> None",
    "build_structure_matrix": "(shift)",
    "char_reversed": "(a)",
    "char_reversed_rational": "(a)",
    "column_space": "(a)",
    "conley_index": "(basic, ambient_dim)",
    "count_periodic": "(shift, n)",
    "enumerate_periodic_oracle": "(shift, n, budget=None)",
    "generalized_image": "(a)",
    "generalized_kernel": "(a)",
    "invariant_factors": "(a)",
    "inverse": "(a)",
    "is_similar": "(a, b)",
    "jordan_profile": "(a)",
    "kernel_basis": "(a)",
    "lefschetz_series": "(basic, ambient_dim, m)",
    "mat_mul": "(a, b)",
    "morse_split_check": "(system, q)",
    "nonnilpotent_part": "(a)",
    "parse_system": "(path)",
    "poly_divmod": "(p, q)",
    "poly_gcd": "(p, q)",
    "poly_mul": "(p, q)",
    "rank": "(a)",
    "ratfunc_inv": "(f)",
    "ratfunc_mul": "(f, g)",
    "solve_columns": "(b, c)",
    "squarefree_decomposition": "(p)",
    "system_from_dict": "(doc)",
    "system_to_dict": "(system)",
    "zeta_basic_set": "(basic, ambient_dim)",
    "zeta_via_index": "(basic, ambient_dim)",
}


def test_public_signatures_are_pinned():
    # A simplification keeps each public signature too: dropping or
    # reshaping a parameter has to change this table on purpose.
    assert conley.Rational is Fraction
    signatures = {}
    for name in PUBLIC_API:
        try:
            signatures[name] = str(inspect.signature(getattr(conley, name)))
        except (TypeError, ValueError):
            continue
    del signatures["Rational"]
    signatures["Subspace.spanned_by_columns"] = str(
        inspect.signature(conley.Subspace.spanned_by_columns))
    assert signatures == PUBLIC_SIGNATURES
