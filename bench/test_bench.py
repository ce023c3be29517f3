"""Tests of the benchmark itself: seeded generation, the span tracer, the
known-answer checks and the metric documentation.

    python3 -m pytest -q bench
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
from checks import check_output
from spans import BOUNDARIES, Tracer
from workloads import WORKLOADS, probe_case, write_cases

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
cli = run.import_conley()


def _files(workload, seed, directory):
    paths = write_cases(WORKLOADS[workload](seed), directory)
    return {name: path.read_bytes() for name, path in paths.items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_seed_gives_identical_files(workload, tmp_path):
    assert _files(workload, 7, tmp_path / "a") == \
        _files(workload, 7, tmp_path / "b")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_different_seeds_give_different_files(workload, tmp_path):
    first = _files(workload, 7, tmp_path / "a")
    second = _files(workload, 8, tmp_path / "b")
    assert first.keys() == second.keys()
    generated = [name for name in first
                 if name not in ("horseshoe", "fourhandle", "torus")]
    assert generated
    assert all(first[name] != second[name] for name in generated)


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_span_self_times_are_never_negative(tmp_path):
    paths = write_cases(WORKLOADS["catalog"](3), tmp_path)
    tracer = Tracer()
    with tracer.installed():
        for command in ("index", "jordan", "zeta", "morse", "verify"):
            tracer.op = command
            _run(run.argv_for(command, paths["catalog"], "text"))
        _run(run.argv_for("zeta", paths["catalog"], "json"))
    summary = tracer.summary()
    assert summary["span_self_s"]
    assert min(summary["span_self_s"]) >= 0
    for name, stats in summary["boundaries"].items():
        assert stats["calls"] > 0, name
        assert 0 <= stats["self_s"] <= stats["total_s"] + 1e-9, name


def test_tracer_restores_the_library_and_keeps_stdout(tmp_path):
    import conley.linalg
    import conley.report
    original_mul = conley.linalg.mat_mul
    original_rank = conley.linalg.RationalMatrix.rank
    paths = write_cases(WORKLOADS["derogatory"](3), tmp_path)
    argv = ["index", str(paths["derog04"])]
    plain = _run(argv)
    with Tracer().installed():
        assert conley.linalg.mat_mul is not original_mul
        traced = _run(argv)
    assert traced == plain
    assert conley.linalg.mat_mul is original_mul
    assert conley.linalg.RationalMatrix.rank is original_rank


def test_known_answers_catch_a_wrong_invariant_factor(tmp_path):
    workload = WORKLOADS["derogatory"](3)
    paths = write_cases(workload, tmp_path)
    case = workload.cases["derog01"]
    stdout = _run(["index", str(paths["derog01"]), "--format", "json"])
    assert check_output("index", stdout, case) == []
    report = json.loads(stdout)
    report["basic_sets"][0]["conley_index"]["invariant_factors"][0][0] += 1
    assert check_output("index", json.dumps(report), case)


def test_known_answers_catch_a_wrong_block_size(tmp_path):
    workload = WORKLOADS["dense"](3)
    paths = write_cases(workload, tmp_path)
    case = workload.cases["planted00"]
    stdout = _run(["jordan", str(paths["planted00"]), "--format", "json"])
    assert check_output("jordan", stdout, case) == []
    report = json.loads(stdout)
    entry = report["basic_sets"][0]["jordan_profile"][0]
    entry["block_sizes"] = [sum(entry["block_sizes"])]
    entry["geometric_multiplicity"] = 1
    assert check_output("jordan", json.dumps(report), case)


def test_probe_expects_the_split_profile():
    expected = probe_case().planted["probe"]
    assert expected == {(-2, 0, 1): ("unresolved", [2]),
                        (-3, 0, 1): ("unresolved", [1, 1])}


def test_metric_names_match_benchmark_json(tmp_path):
    paths = write_cases(WORKLOADS["catalog"](3), tmp_path)
    tracer = Tracer()
    with tracer.installed():
        _run(["zeta", str(paths["catalog"])])
    names = set(run.per_layer(tracer.summary(), 1))
    assert names == {m["name"] for m in BENCHMARK["per_layer"]}
    assert len(BOUNDARIES) * 3 < len(names)
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert e2e == {"setup_s", "sets_per_s", "peak_rss_mb"} | {
        f"{cmd}_s" for cmd in ("index", "jordan", "zeta", "morse",
                               "verify")}


def test_doc_records_every_metric_and_workload():
    doc = (HERE / "README.md").read_text()
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert f"`{metric['name']}`" in doc, metric["name"]
    for workload in BENCHMARK["workloads"]:
        assert f"`{workload['name']}`" in doc
        assert workload["why"] in doc
        assert workload["why"] == WORKLOADS[workload["name"]](1).why
