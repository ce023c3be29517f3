import contextlib
import dataclasses
import io
import json
import pathlib
import random
import re
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from conley import cli, dynamics, linalg, spectral
from conley.cli import main
from conley.errors import InvariantError, ValidationError, _decimal
from conley.report import (build_index_report, build_jordan_report,
                           build_morse_report, build_verify_report,
                           build_zeta_report, render_json, render_text)
from conley.system_io import parse_system, system_from_dict

from oracles import (block_diag, companion, det_oracle,
                     quadratic_companion_block)
from test_golden import RATIONAL


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIndexCommand:
    def test_horseshoe_trivial(self, capsys, fixture_path):
        code, out, err = run_cli(capsys, "index",
                                 fixture_path("horseshoe.json"))
        assert code == 0
        assert err == ""
        assert "(0, 0) in every degree" in out

    def test_fourhandle_degree_one(self, capsys, fixture_path):
        code, out, _ = run_cli(capsys, "index",
                               fixture_path("fourhandle.json"))
        assert code == 0
        assert "degree 1, dimension 2" in out
        assert "invariant factors: 1 - 2t + t^2" in out

    def test_json_format(self, capsys, fixture_path):
        code, out, _ = run_cli(capsys, "index", fixture_path("torus.json"),
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "index"
        names = [s["name"] for s in report["basic_sets"]]
        assert names == ["infinity", "lambda", "p"]
        lam = report["basic_sets"][1]
        assert lam["conley_index"]["nontrivial_degree"] == 1
        assert lam["conley_index"]["map"] == [[0, 1], [-1, 1]]
        assert lam["conley_index"]["invariant_factors"] == [[1, -1, 1]]


class TestJordanCommand:
    def test_fourhandle_profile(self, capsys, fixture_path):
        code, out, _ = run_cli(capsys, "jordan",
                               fixture_path("fourhandle.json"),
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        profile = report["basic_sets"][0]["jordan_profile"]
        by_factor = {tuple(e["factor"]): e for e in profile}
        assert by_factor[(0, 1)]["block_sizes"] == [1, 1]
        assert by_factor[(-1, 1)]["block_sizes"] == [2]
        reduced = report["basic_sets"][0]["nonzero_profile"]
        assert [tuple(e["factor"]) for e in reduced] == [(-1, 1)]

    def test_text_mentions_kinds(self, capsys, fixture_path):
        code, out, _ = run_cli(capsys, "jordan", fixture_path("torus.json"))
        assert code == 0
        assert "complex_pair" in out


    @pytest.mark.parametrize("blocks, expected", [
        ([quadratic_companion_block(2, -2, 0), companion([-3, 0, 1]),
          companion([-3, 0, 1])],
         {(-3, 0, 1): [1, 1], (-2, 0, 1): [2]}),
        ([companion([-2, 0, 1])] * 4
         + [quadratic_companion_block(2, -3, 0)] * 2,
         {(-3, 0, 1): [2, 2], (-2, 0, 1): [1, 1, 1, 1]}),
    ], ids=["n8", "n16"])
    def test_mixed_residual_profile(self, capsys, tmp_path, blocks,
                                    expected):
        path = tmp_path / "mixed.json"
        rows = block_diag(blocks).to_int_rows()
        path.write_text(json.dumps({"basic_sets": [
            {"name": "mixed", "index": 1, "matrix": rows}]}),
            encoding="utf-8")
        code, out, err = run_cli(capsys, "jordan", str(path),
                                 "--format", "json")
        assert code == 0, err
        profile = json.loads(out)["basic_sets"][0]["jordan_profile"]
        assert {tuple(e["factor"]): e["block_sizes"]
                for e in profile} == expected
        assert {e["kind"] for e in profile} == {"unresolved"}


def _jordan_in_subprocess(tmp_path, rows):
    """The jordan_profile of a one-set system run through ``conley
    jordan`` in its own process, which must exit 0 within 30 s."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"basic_sets": [
        {"name": "m", "index": 1, "matrix": rows}]}), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "conley.cli", "jordan", str(path),
         "--format", "json"],
        capture_output=True, text=True, timeout=30, check=False)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)["basic_sets"][0]["jordan_profile"]


class TestJordanLargeEntries:
    """Integer eigenvalues are found in time polynomial in the bit length
    of the characteristic polynomial's coefficients."""

    @pytest.mark.parametrize("rows, expected", [
        ([[2 ** 61 - 1]], [([1 - 2 ** 61, 1], [1])]),
        ([[2 ** 40, 0, 0], [0, -2 ** 40, 1], [0, 0, -2 ** 40]],
         [([2 ** 40, 1], [2]), ([-2 ** 40, 1], [1])]),
    ], ids=["mersenne_61", "plus_minus_2_pow_40"])
    def test_large_eigenvalues_pinned(self, tmp_path, rows, expected):
        profile = _jordan_in_subprocess(tmp_path, rows)
        assert [(e["factor"], e["block_sizes"]) for e in profile] == expected
        assert {e["kind"] for e in profile} == {"rational_eigenvalue"}

    @pytest.mark.parametrize("n", [32, 48])
    def test_singular_random_matrix(self, tmp_path, n):
        rng = random.Random(n)
        rows = [[0] + [rng.randint(-2, 2) for _ in range(n - 1)]
                for _ in range(n)]
        profile = _jordan_in_subprocess(tmp_path, rows)
        for x in (3, -2):
            product = 1
            for e in profile:
                value = sum(c * x ** k for k, c in enumerate(e["factor"]))
                product *= value ** e["algebraic_multiplicity"]
            assert product == det_oracle(
                [[x * (i == j) - rows[i][j] for j in range(n)]
                 for i in range(n)])


class TestZetaCommand:
    def test_torus_zetas_and_product(self, capsys, fixture_path):
        code, out, _ = run_cli(capsys, "zeta", fixture_path("torus.json"),
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        zetas = {s["name"]: s["zeta"] for s in report["basic_sets"]}
        assert zetas["p"]["numerator"] == [-1]
        assert zetas["p"]["denominator"] == [-1, 1]
        assert zetas["lambda"]["numerator"] == [1, -1, 1]
        assert zetas["lambda"]["denominator"] == [1]
        assert zetas["infinity"] == zetas["p"]
        assert report["product"]["numerator"] == [1, -1, 1]
        assert report["product"]["denominator"] == [1, -2, 1]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_coefficients_of_any_length_print(self, capsys, tmp_path,
                                              monkeypatch, fmt):
        # Entries of 3001 digits parse under the interpreter's default
        # limit of 4300 digits; det(I - A t) has a 6001-digit coefficient.
        a, b = 10 ** 3000 + 7, 10 ** 3000 + 9
        a_digits = "1" + "0" * 2999 + "7"
        b_digits = "1" + "0" * 2999 + "9"
        ab_digits = "1" + "0" * 2998 + "16" + "0" * 2998 + "63"
        assert _from_digits(ab_digits) == a * b
        path = tmp_path / "long.json"
        path.write_text('{"basic_sets": [{"name": "d", "index": 1, '
                        '"matrix": [[' + a_digits + ', 0], [0, '
                        + b_digits + ']]}]}', encoding="utf-8")
        limit = _digit_limit()
        code, out, err = run_cli(capsys, "zeta", str(path), "--format", fmt)
        assert (code, err) == (0, "")
        assert _digit_limit() == limit
        if fmt == "text":
            assert f" + {ab_digits}t^2\n" in out
        else:
            zeta = json.loads(out, parse_int=str)["basic_sets"][0]["zeta"]
            assert [_from_digits(c) for c in zeta["numerator"]] == \
                [1, -(a + b), a * b]
            assert zeta["numerator"][2] == ab_digits
        # the limit comes back on the error exits too
        code, _, _ = run_cli(capsys, "zeta", str(tmp_path / "missing.json"))
        assert (code, _digit_limit()) == (2, limit)

        def broken(system):
            raise InvariantError("patched builder")
        monkeypatch.setattr(cli, "build_zeta_report", broken)
        code, _, _ = run_cli(capsys, "zeta", str(path), "--format", fmt)
        assert (code, _digit_limit()) == (3, limit)

    def test_concurrent_calls_keep_the_digit_limit(self, capsys, tmp_path):
        # One thread prints coefficients past the default digit limit while
        # another keeps parsing under it; neither call changes the
        # process-wide limit, so each sees the one the other sees.
        rng = random.Random(1)
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"basic_sets": [{
            "name": "d", "index": 1,
            "matrix": [[rng.randrange(10 ** 400, 10 ** 401)
                        for _ in range(12)] for _ in range(12)]}]}),
            encoding="utf-8")
        one = tmp_path / "one.json"
        one.write_text('{"basic_sets": [{"name": "p", "index": 0, '
                       '"matrix": [[1]]}]}', encoding="utf-8")
        limit = _digit_limit()
        outcomes = []

        def call(*argv):
            try:
                outcomes.append(main(list(argv)))
            except Exception as exc:
                outcomes.append(exc)

        def printer():
            for _ in range(3):
                call("zeta", str(big))

        thread = threading.Thread(target=printer)
        thread.start()
        while thread.is_alive():
            call("index", str(one))
        thread.join()
        capsys.readouterr()
        assert outcomes and [o for o in outcomes if o != 0] == []
        assert _digit_limit() == limit


def _digit_limit():
    """The interpreter's int-to-string digit limit; None before 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def _from_digits(s):
    """int(s) for a decimal string of at most 7300 digits, read in two
    pieces that each stay under the interpreter's default digit limit."""
    sign, s = (-1, s[1:]) if s.startswith("-") else (1, s)
    return sign * (int(s[:-3000] or "0") * 10 ** 3000 + int(s[-3000:]))


@contextlib.contextmanager
def _digit_limit_set(value):
    """Set the interpreter's digit limit inside the block (where it has
    one) and restore it on every exit."""
    limit = _digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(value)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_decimal_matches_str_at_any_length():
    rng = random.Random(1)
    cases = [0, 1, -1]
    for k in (599, 600, 601, 1200, 5000):
        for n in (10 ** k - 1, 10 ** k, 10 ** k + 1):
            cases += [n, -n]
    cases += [rng.choice((1, -1))
              * rng.randrange(10 ** rng.randrange(1, 20001))
              for _ in range(60)]
    with _digit_limit_set(0):
        expected = [str(n) for n in cases]
        assert [_decimal(n) for n in cases] == expected
    # no piece crosses the lowest limit the interpreter accepts
    with _digit_limit_set(640):
        assert [_decimal(n) for n in cases] == expected


def _reports(system, q_values=(0, 1, 2)):
    """Every report of every command on one system; morse at each q whose
    ambient maps the system provides."""
    yield build_index_report(system)
    yield build_jordan_report(system)
    yield build_zeta_report(system)
    yield build_verify_report(system)
    for q in q_values:
        try:
            yield build_morse_report(system, q)
        except ValidationError:
            pass


def test_render_json_writes_what_json_dumps_writes():
    rational = dict(RATIONAL, basic_sets=RATIONAL["basic_sets"] + [
        {"name": "\u00e9", "index": 0, "matrix": [[0, 1], [0, 0]]}])
    systems = [system_from_dict(rational)] + [
        parse_system(path) for path in
        sorted(pathlib.Path(__file__).parent.joinpath("fixtures").glob(
            "*.json"))]
    reports = [r for system in systems for r in _reports(system)]
    assert {r["command"] for r in reports} == \
        {"index", "jordan", "zeta", "morse", "verify"}
    rendered = [render_json(r) for r in reports]
    assert rendered == [json.dumps(r, indent=2) + "\n" for r in reports]
    text = "".join(rendered)
    for piece in ("[]", "null", "true", "false", '"\\u00e9"'):
        assert piece in text


def test_library_prints_integers_of_any_length():
    # Outside cli.main, under the interpreter's default digit limit.
    big = 2 ** 16000
    system = system_from_dict({"basic_sets": [
        {"name": "big", "index": 1, "matrix": [[big, 1], [1, 0]]}]})
    report = build_zeta_report(system)
    zeta = report["basic_sets"][0]["zeta"]
    assert -big in zeta["numerator"] + zeta["denominator"]
    text = render_text(report)
    matrix_row = re.search(r"\[(\d+) +1\]", text).group(1)
    assert _from_digits(matrix_row) == big
    coefficients = re.findall(r"(\d{4000,})t", text)
    assert coefficients and all(_from_digits(c) == big for c in coefficients)
    decoded = json.loads(render_json(report), parse_int=str)
    section = decoded["basic_sets"][0]
    assert _from_digits(section["matrix"][0][0]) == big
    assert [[_from_digits(c) for c in section["zeta"][key]]
            for key in ("numerator", "denominator")] == \
        [zeta["numerator"], zeta["denominator"]]
    assert section["zeta"]["display"] == zeta["display"]


def test_main_leaves_the_digit_limit_alone(tmp_path):
    rng = random.Random(1)
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"basic_sets": [{
        "name": "d", "index": 1,
        "matrix": [[rng.randrange(10 ** 400, 10 ** 401)
                    for _ in range(12)] for _ in range(12)]}]}),
        encoding="utf-8")
    limit = _digit_limit()
    seen = set()
    codes = []
    out = io.StringIO()

    def printer():
        with contextlib.redirect_stdout(out):
            codes.append(main(["zeta", str(big)]))

    thread = threading.Thread(target=printer)
    thread.start()
    while thread.is_alive():
        seen.add(_digit_limit())
        time.sleep(0.001)
    thread.join()
    assert (codes, seen) == ([0], {limit})
    # det(I - A t) has coefficients past the default limit of 4300 digits
    assert re.search(r"\d{4400,}", out.getvalue())


class TestMorseCommand:
    def test_torus_q1_verdict_true(self, capsys, fixture_path):
        code, out, _ = run_cli(capsys, "morse", fixture_path("torus.json"),
                               "--q", "1")
        assert code == 0
        assert "P(t) = 1" in out
        assert "integer polynomial: yes" in out

    def test_json_fields(self, capsys, fixture_path):
        code, out, _ = run_cli(capsys, "morse", fixture_path("torus.json"),
                               "--q", "1", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["p"] == {"numerator": [1], "denominator": [1],
                               "display": "1"}
        assert report["is_integer_polynomial"] is True
        assert report["split_asserted_at"] == 1

    def test_false_verdict_still_exits_zero(self, capsys, tmp_path):
        doc = {"basic_sets": [{"name": "sink", "index": 0,
                               "matrix": [[1]]}],
               "ambient": {"dim": 1, "homology_maps": {"0": [[2]]}}}
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli(capsys, "morse", str(path), "--q", "0")
        assert code == 0
        assert "integer polynomial: no" in out

    def test_missing_maps_is_user_error(self, capsys, fixture_path):
        code, _, err = run_cli(capsys, "morse",
                               fixture_path("horseshoe.json"), "--q", "0")
        assert code == 2
        assert "error" in err


class TestVerifyCommand:
    @pytest.mark.parametrize("name", ["horseshoe.json", "torus.json",
                                      "fourhandle.json"])
    def test_fixtures_verify(self, capsys, fixture_path, name):
        code, out, err = run_cli(capsys, "verify", fixture_path(name))
        assert code == 0, err
        assert "all checks passed" in out
        assert "fail" not in out

    def test_wrong_induced_map_fails_its_checks(self, capsys, fixture_path,
                                                monkeypatch):
        # A+ off by one entry: the checks that read it must fail, so the
        # facts shared between the routes leave none of them vacuous.
        def off_by_one(a):
            induced = spectral.nonnilpotent_part(a)
            rows = induced.matrix.tolist()
            rows[0][0] += 1
            return dataclasses.replace(
                induced, matrix=linalg.RationalMatrix.from_rows(rows))

        monkeypatch.setattr(dynamics, "nonnilpotent_part", off_by_one)
        code, out, err = run_cli(capsys, "verify",
                                 fixture_path("fourhandle.json"))
        assert code == 3
        assert "verification failed" in err
        status = {line.split(": ")[1].split(" (")[0]: line.split()[0]
                  for line in out.splitlines() if "four-handle: " in line}
        for check in ("zeta_routes", "induced_map", "trace_tail"):
            assert status[check] == "fail", out
        assert "CHECK FAILURES DETECTED" in out

    def test_empty_basic_set_checks_traces_from_one(self, capsys, tmp_path):
        # A 0x0 structure matrix: every power has trace 0 on both sides.
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"basic_sets": [
            {"name": "e", "index": 0, "matrix": []}]}), encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert "   pass  e: trace_tail (trace(A^k) = trace(A+^k) for " \
               "k = 1..4)\n" in out

    def test_periodic_check_runs_for_graphs(self, capsys, fixture_path):
        code, out, _ = run_cli(capsys, "verify",
                               fixture_path("horseshoe.json"),
                               "--format", "json")
        report = json.loads(out)
        kinds = {c["check"] for c in report["checks"]}
        assert "periodic_counts" in kinds
        assert report["ok"] is True
        assert code == 0

    def test_long_periods_enumerate_without_recursion(self, capsys,
                                                      tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"basic_sets": [{
            "name": "cycle", "index": 1,
            "graph": {"adjacency": [[0, 1], [1, 0]],
                      "orientation": [1, 1]}}]}), encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", str(path),
                                 "--max-enum", "1200")
        assert code == 0, err
        assert "trace formula matches enumeration for n = 1..1200" in out

    def test_periodic_check_budget_covers_all_periods(self, capsys,
                                                      tmp_path):
        # Each period alone is cheap on the 2-cycle; the sum over 100000
        # periods is not, so the whole check reads skipped, quickly.
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"basic_sets": [{
            "name": "cycle", "index": 1,
            "graph": {"adjacency": [[0, 1], [1, 0]],
                      "orientation": [1, 1]}}]}), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", str(path),
                                 "--max-enum", "100000", "--format", "json")
        assert time.perf_counter() - start < 60
        assert code == 0, err
        periodic = [c for c in json.loads(out)["checks"]
                    if c["check"] == "periodic_counts"]
        assert [c["status"] for c in periodic] == ["skipped"]

    def test_acyclic_graph_spends_the_budget_quickly(self, capsys,
                                                     tmp_path):
        # Each period of [[0]] pops one stack entry but costs a
        # count_periodic call; charging each period at least n steps
        # ends the check after about two thousand periods.
        path = tmp_path / "acyclic.json"
        path.write_text(json.dumps({"basic_sets": [{
            "name": "acyclic", "index": 0,
            "graph": {"adjacency": [[0]], "orientation": [1]}}]}),
            encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", str(path),
                                 "--max-enum", "1000000000",
                                 "--format", "json")
        assert time.perf_counter() - start < 5
        assert code == 0, err
        periodic = [c for c in json.loads(out)["checks"]
                    if c["check"] == "periodic_counts"]
        assert [c["status"] for c in periodic] == ["skipped"]

    @pytest.mark.parametrize("max_enum", ["0", "-3"])
    def test_max_enum_below_one_is_user_error(self, capsys, fixture_path,
                                              max_enum):
        code, out, err = run_cli(capsys, "verify",
                                 fixture_path("horseshoe.json"),
                                 "--max-enum", max_enum)
        assert code == 2
        assert out == ""
        assert "max_enum must be at least 1" in err

    def test_enumeration_too_long_is_skipped(self, capsys, tmp_path):
        # The full 8-shift has 8^n words of length n; period 12 alone
        # would take hours to enumerate.
        path = tmp_path / "full8.json"
        path.write_text(json.dumps({"basic_sets": [{
            "name": "full8", "index": 1,
            "graph": {"adjacency": [[1] * 8] * 8,
                      "orientation": [1] * 8}}]}), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", str(path),
                                 "--max-enum", "12", "--format", "json")
        assert time.perf_counter() - start < 60
        assert code == 0, err
        periodic = [c for c in json.loads(out)["checks"]
                    if c["check"] == "periodic_counts"]
        assert [c["status"] for c in periodic] == ["skipped"]


# Inputs that once escaped validation with a traceback, or echoed a long
# string in full, mapped to the file content and the JSON pointer the error
# names (None: the file path).  Each error line stays short.
BAD_INPUTS = {
    "superscript-key": (
        '{"basic_sets": [], "ambient": {"dim": 2, '
        '"homology_maps": {"\u00b2": [[1]]}}}', "/ambient/homology_maps: "),
    "long-key": (
        '{"basic_sets": [], "ambient": {"dim": 2, '
        '"homology_maps": {"' + "9" * 5000 + '": [[1]]}}}',
        "/ambient/homology_maps: "),
    # A rejected key is located at its object, so a newline in it cannot
    # split the error line.
    "newline-key": (
        '{"basic_sets": [], "ambient": {"dim": 2, '
        '"homology_maps": {"1\\n   pass  forged": [[1]]}}}',
        "/ambient/homology_maps: "),
    "long-entry": (
        '{"basic_sets": [{"name": "s", "index": 0, '
        '"matrix": [[' + "7" * 5000 + ']]}]}', None),
    "not-utf8": (b'{"basic_sets": [\xff]}', None),
    "deep-nesting": ("[" * 200_000, None),
    # A newline forged report lines; a lone surrogate crashed text output.
    "newline-name": (
        '{"basic_sets": [{"name": "h\\n   pass  x: zeta_routes (ok)'
        '\\n\\nall checks passed\\n", "index": 0, "matrix": [[1]]}]}',
        "/basic_sets/0/name"),
    "surrogate-name": (
        '{"basic_sets": [{"name": "a\\ud800", "index": 0, '
        '"matrix": [[1]]}]}', "/basic_sets/0/name"),
    "long-word-key": (
        '{"basic_sets": [], "ambient": {"dim": 2, '
        '"homology_maps": {"' + "x" * 100_000 + '": [[1]]}}}',
        "/ambient/homology_maps: degree key <string of 100000 characters"),
    "long-duplicate-name": (
        '{"basic_sets": ['
        + ", ".join(['{"name": "' + "n" * 100_000 + '", "index": 0, '
                     '"matrix": [[1]]}'] * 2) + ']}',
        "/basic_sets/1/name: duplicate name <string of 100000 characters"),
    "long-unknown-key": (
        '{"basic_sets": [], "' + "k" * 100_000 + '": 1}',
        ": unknown key <string of 100000 characters"),
}


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "index", "/no/such/file.json")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_schema_error_location(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"basic_sets": [{"name": "s", "index": 0, '
                        '"matrix": [[1, 2]]}]}', encoding="utf-8")
        code, _, err = run_cli(capsys, "index", str(path))
        assert code == 2
        assert "/basic_sets/0/matrix" in err

    @pytest.mark.parametrize("name", sorted(BAD_INPUTS))
    def test_bad_input_exits_two_with_location(self, capsys, tmp_path, name):
        content, pointer = BAD_INPUTS[name]
        path = tmp_path / f"{name}.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        code, out, err = run_cli(capsys, "index", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err[-1] == "\n" and err[:-1].isprintable()  # one clean line
        assert (pointer or str(path)) in err
        assert len(err) < 300 + len(str(path))

    def test_long_integer_argument_is_abbreviated(self, capsys,
                                                  fixture_path):
        code, out, err = run_cli(capsys, "morse", fixture_path("torus.json"),
                                 "--q", str(2 ** 70))
        assert (code, out) == (2, "")
        assert err == ("error: q = <integer of 71 bits> exceeds the ambient "
                       "dimension 2\n")

    def test_missing_maps_message_stays_short(self, capsys, tmp_path):
        # No homology maps at all and q = dim = 10^6: the message names
        # five degrees and a count, not a million.
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"basic_sets": [],
                                    "ambient": {"dim": 10 ** 6}}),
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "morse", str(path),
                                 "--q", str(10 ** 6))
        assert (code, out) == (2, "")
        assert err == ("error: missing ambient homology maps for degrees "
                       "[0, 1, 2, 3, 4] and 999996 more\n")
        assert len(err) < 200

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["morse"])          # missing file and --q
        assert exc.value.code == 2

    def test_invariant_breach_exits_three(self, capsys, fixture_path,
                                          monkeypatch):
        from conley.errors import InvariantError
        import conley.cli as cli_module

        def boom(system):
            raise InvariantError("synthetic breach")

        monkeypatch.setattr(cli_module, "build_index_report", boom)
        code, _, err = run_cli(capsys, "index",
                               fixture_path("horseshoe.json"))
        assert code == 3
        assert "invariant" in err

    def test_verify_disagreement_exits_three(self, capsys, fixture_path,
                                             monkeypatch):
        import conley.cli as cli_module

        def fake_verify(system, max_enum=6):
            return {"command": "verify", "ambient_dim": None,
                    "checks": [{"basic_set": "s", "check": "zeta_routes",
                                "status": "fail", "detail": "synthetic"}],
                    "ok": False}

        monkeypatch.setattr(cli_module, "build_verify_report", fake_verify)
        code, out, err = run_cli(capsys, "verify",
                                 fixture_path("horseshoe.json"))
        assert code == 3
        assert "CHECK FAILURES" in out
        assert "verification failed" in err


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command, extra", [
        ("index", ()), ("jordan", ()), ("zeta", ()),
        ("morse", ("--q", "1")), ("verify", ()),
    ])
    def test_byte_identical_runs(self, capsys, fixture_path, fmt, command,
                                 extra):
        argv = [command, fixture_path("torus.json"), "--format", fmt,
                *extra]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.endswith("\n")


def test_parser_reused_across_calls_keeps_no_state(capsys, fixture_path):
    # The parser is built once per process; a call that fails parsing
    # and later calls with other options must each behave as alone.
    torus = fixture_path("torus.json")
    calls = [["verify", torus, "--format", "json", "--max-enum", "3"],
             ["verify", torus, "--max-enum", "x"],
             ["morse", torus],
             ["verify", torus]]
    codes = []
    for argv in calls:
        alone = subprocess.run([sys.executable, "-m", "conley.cli", *argv],
                               capture_output=True, text=True, check=False)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (alone.returncode, alone.stdout, alone.stderr)
        codes.append(code)
    assert codes == [0, 2, 2, 0]


def test_console_entry_point(fixture_path):
    result = subprocess.run(
        [sys.executable, "-m", "conley.cli", "zeta",
         fixture_path("torus.json")],
        capture_output=True, text=True, check=False)
    assert result.returncode == 0
    assert "zeta function" in result.stdout


def _square(elements, max_n=4):
    return st.integers(0, max_n).flatmap(lambda n: st.lists(
        st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def _valid_documents(draw):
    """Small valid system documents: integer matrices and signed shifts
    with n <= 4, and optionally an ambient manifold of dimension <= 3 with
    a homology map in every degree, unit maps at the two ends as for a
    torus."""
    dim = draw(st.none() | st.integers(0, 3))
    sets = []
    for i in range(draw(st.integers(1, 3))):
        entry = {"name": f"s{i}",
                 "index": draw(st.integers(0, 3 if dim is None else dim))}
        if draw(st.booleans()):
            entry["matrix"] = draw(_square(st.integers(-3, 3)))
        else:
            adjacency = draw(_square(st.integers(0, 1)))
            entry["graph"] = {"adjacency": adjacency, "orientation": [
                draw(st.sampled_from((1, -1))) for _ in adjacency]}
        sets.append(entry)
    doc = {"basic_sets": sets}
    if dim is not None:
        unit = st.sampled_from(([[1]], [[-1]]))
        maps = {str(k): draw(unit if k in (0, dim)
                             else _square(st.integers(-3, 3)))
                for k in range(dim + 1)}
        doc["ambient"] = {"dim": dim, "homology_maps": maps}
        if draw(st.booleans()):
            doc["ambient"]["split_at"] = draw(st.integers(0, dim))
    return doc


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_valid_documents(), st.integers(0, 3))
def test_valid_documents_never_exit_three(doc, q):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "system.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["index"], ["jordan"], ["zeta"], ["verify"],
                     ["morse", "--q", str(q)]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([*argv, str(path)])
            # morse exits 2 without ambient data or for q past its dim.
            expected = {0, 2} if argv[0] == "morse" else {0}
            assert code in expected, (argv, doc, err.getvalue())
