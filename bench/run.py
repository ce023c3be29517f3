"""Benchmark of the conley CLI: end-to-end command times per workload, and
a traced run that splits them over the library's layers.

    python3 bench/run.py --workload dense --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 10

One client in one process drives ``conley.cli.main`` in a closed loop: an
operation (one command on one system file) starts when the previous one
has finished.  The run generates its system files from the seed, checks
every command's ``--format json`` output against known answers (untimed),
then repeats text-format passes over the workload for ``--seconds``
seconds.  With ``--trace 1`` half of that time is spent on traced passes,
and the per-layer metrics replace the end-to-end ones.  A report goes to
stdout; its last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory for what each
metric and workload means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from checks import check_output
from spans import BOUNDARIES, MODULES, Tracer
from workloads import COMMANDS, MORSE_Q, WORKLOADS, probe_case, write_cases

ROOT = Path(__file__).resolve().parent.parent
OP_TIMEOUT_S = 30.0
# Whole-run budget for operations; anything still due after it is recorded
# as a timeout, so a run ends well inside three minutes.
RUN_BUDGET_S = 150.0
SETUP_LAUNCHES = 9
# Predicted dominant layer (the module with the largest self time) and
# dominant boundary (the function with the largest self time) per workload.
PREDICTED = {"catalog": ("poly", "poly.poly_gcd"),
             "derogatory": ("spectral", "spectral.invariant_factors"),
             "dense": ("linalg", "linalg.mat_mul")}


class OpTimeout(BaseException):
    """Raised by the alarm inside an operation that ran too long; derived
    from BaseException so no ``except Exception`` in the library eats it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_conley():
    """Import the package from this checkout's src/ or exit 2."""
    src = ROOT / "src"
    if not (src / "conley" / "cli.py").is_file():
        print(f"error: no conley sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import conley.cli
    if Path(conley.cli.__file__).resolve().parent.parent != src.resolve():
        print("error: conley was imported from outside this checkout",
              file=sys.stderr)
        sys.exit(2)
    return conley.cli


def _arithmetic_loop():
    """Fraction sums whose denominators grow to a few hundred bits, then
    Fraction and integer arithmetic on small values: the library's work."""
    big = Fraction(0)
    for i in range(1, 160):
        big += Fraction(1, i)
    small = Fraction(0)
    x = 1
    for i in range(1, 500):
        small += Fraction(x % 1009, i % 97 + 1)
        x = (x * 48271 + i) % 2147483647
    return big + small


def _startup_loop():
    """Building and running an argument parser and reading and decoding a
    JSON file: the fixed cost of one CLI call."""
    for _ in range(3):
        parser = argparse.ArgumentParser(prog="calibration")
        sub = parser.add_subparsers(dest="command", required=True)
        for command in COMMANDS:
            p = sub.add_parser(command)
            p.add_argument("file")
            p.add_argument("--format", choices=("text", "json"))
        args = parser.parse_args(["index", str(ROOT / "BENCHMARK.json")])
        with open(args.file, encoding="utf-8") as fh:
            doc = json.loads(fh.read())
    return doc


# Calibration loops and the seconds each takes at the reference speed (a
# core of a 2.1 GHz x86-64 server running CPython 3.11).  Operations
# that are mostly computation are normalised by the arithmetic loop;
# fixture controls and interpreter launches, mostly CLI start-up, by the
# start-up loop.  Each loop tracks its own kind of work to within a few
# per cent while the machine's speed swings, and the other kind less well.
CALIBRATIONS = {"arithmetic": (_arithmetic_loop, 0.0027),
                "startup": (_startup_loop, 0.0034)}


def calibrate(kind):
    """Seconds one calibration loop of ``kind`` takes now: the median of
    three runs, so one interrupted run does not skew it.

    The effective speed of a shared machine swings by up to a factor of
    two within seconds, for CPU time as much as for wall time.  Each timing
    is therefore multiplied by the loop's reference seconds over the mean
    of the calibrations just before and just after it (``speed``): the
    result is the time the work would take at the reference speed.
    """
    loop = CALIBRATIONS[kind][0]
    samples = []
    for _ in range(3):
        start = perf_counter()
        if not loop():
            raise AssertionError("calibration loop produced no result")
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def speed(kind, before, after):
    return CALIBRATIONS[kind][1] / ((before + after) / 2)


def argv_for(command, path, fmt):
    argv = [command, str(path), "--format", fmt]
    if command == "morse":
        argv += ["--q", str(MORSE_Q)]
    return argv


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def percentile_tail(samples):
    """(label, value) for the highest of p50/p75/p90/p95/p99 that has at
    least ten samples beyond it, or None."""
    n = len(samples)
    ordered = sorted(samples)
    best = None
    for p in (50, 75, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = (f"p{p}", ordered[min(n - 1, int(n * p / 100))])
    return best


class Runner:
    """State of one benchmark run: the files, the failure log, and the
    output digests that later repetitions must reproduce."""

    def __init__(self, cli, workload, paths, deadline):
        self.cli = cli
        self.workload = workload
        self.paths = paths
        self.deadline = deadline
        self.attempted = 0
        self.failures = {}        # (command, case) -> {reason: count}
        self.wrong = False
        self.digests = {}         # (command, case, format) -> sha256
        self.timed_out = set()
        self.tracer = None
        self.op_samples = {}      # command -> normalised text-op seconds
        self.speed = []           # speed factor of each timed interval

    def fail(self, command, case, reason, wrong=True):
        reasons = self.failures.setdefault((command, case), {})
        reasons[reason] = reasons.get(reason, 0) + 1
        self.wrong = self.wrong or wrong

    def call(self, command, path, fmt):
        """Run the CLI in-process; (exit code, stdout, first stderr line,
        seconds), or None on timeout."""
        remaining = min(OP_TIMEOUT_S, self.deadline - perf_counter())
        if remaining <= 0:
            return None
        out, err = io.StringIO(), io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, remaining)
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = self.cli.main(argv_for(command, path, fmt))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:   # noqa: BLE001 - a crash is a result
                    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    code = 1
            elapsed = perf_counter() - start
        except OpTimeout:
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        message = err.getvalue().strip().splitlines()
        return code, out.getvalue(), message[0] if message else "", elapsed

    def op(self, command, case, fmt):
        """One operation; its seconds when it succeeded, else None."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = f"{command}:{case}:{fmt}"
        if (command, case) in self.timed_out:
            self.fail(command, case, "timeout (earlier run of this case "
                      "timed out; not rerun)", wrong=False)
            return None
        result = self.call(command, self.paths[case], fmt)
        if result is None:
            self.timed_out.add((command, case))
            self.fail(command, case, "timeout", wrong=False)
            return None
        code, stdout, message, elapsed = result
        if code != 0:
            self.fail(command, case, f"exit {code}: {message}")
            return None
        key = (command, case, fmt)
        if fmt == "json" and key not in self.digests:
            for problem in check_output(command, stdout,
                                        self.workload.cases[case]):
                self.fail(command, case, f"wrong answer: {problem}")
        expected = self.digests.setdefault(key, digest(stdout))
        if digest(stdout) != expected:
            self.fail(command, case, f"{fmt} stdout differs from the "
                      "first run")
            return None
        return elapsed

    def check_pass(self):
        """Untimed JSON pass: known answers, and the warm-up."""
        for command, case in self.workload.ops():
            self.op(command, case, "json")

    def timed_pass(self, fmt="text"):
        """One pass of every command.  Returns the normalised seconds per
        command and the basic sets done.  A command's time is the sum over
        its files of the median over the file's repeats (a file runs once
        unless it is a fixture repeated as a control); failed operations
        are left out.  Each file's operations are bracketed by
        calibrations."""
        gc.collect()
        times, sets = {}, {}
        kind = before = None
        for command in COMMANDS:
            cases, repeats = self.workload.plan[command]
            wanted = "startup" if repeats > 1 else "arithmetic"
            if wanted != kind:
                kind, before = wanted, calibrate(wanted)
            total, done = 0.0, 0
            for case in cases:
                raw = [self.op(command, case, fmt) for _ in range(repeats)]
                raw = [r for r in raw if r is not None]
                after = calibrate(kind)
                factor = speed(kind, before, after)
                before = after
                self.speed.append(factor)
                if not raw:
                    continue
                if fmt == "text" and self.tracer is None:
                    self.op_samples.setdefault(command, []).extend(
                        r * factor for r in raw)
                total += statistics.median(raw) * factor
                done += len(self.workload.cases[case].doc["basic_sets"])
            times[command] = total
            sets[command] = done
        return times, sets

    def passes(self, seconds, rounds_json=False):
        """Repeat passes until the next one would end after ``seconds``;
        at least one.  Returns the per-pass (times, sets) list of the
        text passes."""
        out = []
        durations = []
        start = perf_counter()
        while True:
            begin = perf_counter()
            out.append(self.timed_pass())
            if rounds_json:
                self.timed_pass("json")
            durations.append(perf_counter() - begin)
            spent = perf_counter() - start
            if spent + statistics.median(durations) > seconds:
                return out
            if perf_counter() > self.deadline:
                return out


def measure_setup(runner, directory):
    """Normalised wall times of a fresh interpreter running ``conley
    index`` on a one-set [[1]] system: SETUP_LAUNCHES launches after one
    warm-up launch, each bracketed by calibrations."""
    path = directory / "setup.json"
    path.write_text(json.dumps({"basic_sets": [
        {"name": "p", "index": 0, "matrix": [[1]]}]}) + "\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "conley.cli", "index", str(path)]
    samples = []
    expected = None
    before = calibrate("startup")
    for i in range(SETUP_LAUNCHES + 1):
        runner.attempted += 1
        start = perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, cwd=str(ROOT),
                                  capture_output=True, text=True,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            runner.fail("setup", "setup", "timeout", wrong=False)
            continue
        elapsed = perf_counter() - start
        after = calibrate("startup")
        factor = speed("startup", before, after)
        before = after
        if proc.returncode != 0:
            runner.fail("setup", "setup", f"exit {proc.returncode}")
            continue
        expected = expected or proc.stdout
        if proc.stdout != expected or "dimension 1" not in proc.stdout:
            runner.fail("setup", "setup", "unexpected stdout")
            continue
        if i:
            samples.append(elapsed * factor)
            runner.speed.append(factor)
    return samples


def run_probe(runner, directory):
    """Untimed known-defect probe: ``jordan`` on the 8x8 reproducer.
    Returns (status line, failed)."""
    case = probe_case()
    path = directory / "probe.json"
    path.write_text(case.text())
    result = runner.call("jordan", path, "json")
    if result is None:
        return "timeout", True
    code, stdout, message, _ = result
    if code != 0:
        return f"exit {code}: {message}", True
    problems = check_output("jordan", stdout, case)
    if problems:
        runner.wrong = True
        return "wrong answer: " + "; ".join(problems), True
    return "exit 0, planted profile recovered", False


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(pass_results, setup_samples):
    metrics = {"setup_s": (_median(setup_samples), "s")}
    per_pass_sets = 0.0
    per_pass_time = 0.0
    for command in COMMANDS:
        values = [times[command] for times, sets in pass_results
                  if sets[command]]
        med = _median(values)
        metrics[f"{command}_s"] = (med, "s")
        if med is not None:
            per_pass_time += med
            per_pass_sets += _median([sets[command]
                                      for _, sets in pass_results])
    metrics["sets_per_s"] = (per_pass_sets / per_pass_time
                             if per_pass_time else None, "1/s")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    return metrics


def per_layer(summary, rounds):
    metrics = {}
    for name in BOUNDARIES:
        st = summary["boundaries"][name]
        metrics[f"{name}.calls"] = (st["calls"] / rounds, "count")
        metrics[f"{name}.total_s"] = (st["total_s"] / rounds, "s")
        metrics[f"{name}.self_s"] = (st["self_s"] / rounds, "s")
    for module in MODULES:
        metrics[f"{module}.self_s"] = (summary["modules"][module] / rounds,
                                       "s")
    for key, count in summary["nested"].items():
        metrics[key] = (count / rounds, "count")
    b = summary["boundaries"]
    for module in ("spectral", "linalg"):
        names = [n for n in BOUNDARIES if n.startswith(module + ".")]
        metrics[f"{module}.max_dim"] = (
            max(b[n]["max_size"] for n in names), "count")
        metrics[f"{module}.max_bits"] = (
            max(b[n]["max_bits"] for n in names), "bits")
    metrics["poly.poly_gcd.max_degree"] = (b["poly.poly_gcd"]["max_size"],
                                           "count")
    metrics["poly.poly_gcd.max_bits"] = (b["poly.poly_gcd"]["max_bits"],
                                         "bits")
    return metrics


def untraced_lines(metrics, pass_results, setup_samples, op_samples):
    lines = [f"  passes: {len(pass_results)}; setup launches: "
             f"{len(setup_samples)}; times are normalised to the reference "
             "speed",
             f"    {'metric':<12} {'value':>12}  unit"]
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        lines.append(f"    {name:<12} {shown:>12}  {unit}")
    for command in COMMANDS:
        samples = op_samples.get(command, [])
        tail = percentile_tail(samples)
        text = f"{tail[0]} {tail[1]:.4f} s" if tail else "n/a"
        lines.append(f"    {command:<7} per-operation latency: median "
                     f"{_median(samples) or 0:.4f} s, {text} "
                     f"(N={len(samples)} operations)")
    return lines


def traced_lines(workload, summary, rounds, untraced, traced):
    boundaries = summary["boundaries"]
    untraced_s = sum(_median([t[c] for t, _ in untraced]) for c in COMMANDS)
    traced_s = sum(_median([t[c] for t, _ in traced]) for c in COMMANDS)
    lines = [f"  traced rounds (one text pass + one json pass): {rounds}; "
             f"spans per round: {len(summary['span_self_s']) // rounds}",
             f"  tracing overhead: normalised text pass {traced_s:.4f} s "
             f"traced vs {untraced_s:.4f} s untraced = "
             f"{traced_s - untraced_s:+.4f} s",
             "  span times below are raw wall seconds"]
    layer = max(MODULES, key=lambda m: summary["modules"][m])
    boundary = max(BOUNDARIES, key=lambda b: boundaries[b]["self_s"])
    for kind, found, self_s, predicted in (
            ("layer", layer, summary["modules"][layer],
             PREDICTED[workload.name][0]),
            ("boundary", boundary, boundaries[boundary]["self_s"],
             PREDICTED[workload.name][1])):
        lines.append(f"  dominant {kind}: {found} (self "
                     f"{self_s / rounds:.4f} s per round); predicted "
                     f"{predicted}: "
                     f"{'match' if found == predicted else 'MISMATCH'}")
    lines.append("  layer self time per round: " + ", ".join(
        f"{m} {summary['modules'][m] / rounds:.4f} s" for m in MODULES))
    lines.append(f"    {'boundary':<38} {'calls':>9} {'total_s':>10} "
                 f"{'self_s':>10} {'max_size':>8} {'max_bits':>8}")
    for name in BOUNDARIES:
        st = boundaries[name]
        lines.append(f"    {name:<38} {st['calls'] / rounds:>9g} "
                     f"{st['total_s'] / rounds:>10.4f} "
                     f"{st['self_s'] / rounds:>10.4f} "
                     f"{st['max_size']:>8} {st['max_bits']:>8}")
    for key, count in summary["nested"].items():
        lines.append(f"    {key}: {count / rounds:g}")
    return lines


def run_workload(args):
    started = perf_counter()
    cli = import_conley()
    workload = WORKLOADS[args.workload](args.seed)
    directory = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    paths = write_cases(workload, directory)
    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(cli, workload, paths, started + RUN_BUDGET_S)

    probe_status, probe_failed = run_probe(runner, directory)
    setup_samples = [] if args.trace else measure_setup(runner, directory)
    runner.check_pass()
    pass_results = runner.passes(args.seconds / 2 if args.trace
                                 else args.seconds)

    lines = [f"workload {workload.name}: seed {args.seed}, "
             f"{args.seconds} s, trace {args.trace}",
             f"  why: {workload.why}",
             "  files: " + ", ".join(
                 f"{name} ({len(case.doc['basic_sets'])} sets, n<="
                 f"{max(len(r) for _, _, r in case.matrices())})"
                 for name, case in sorted(workload.cases.items())),
             "  commands: " + ", ".join(
                 f"{cmd} x{workload.plan[cmd][1]} on "
                 f"{'+'.join(workload.plan[cmd][0])}" for cmd in COMMANDS)]
    if args.trace:
        tracer = Tracer()
        runner.tracer = tracer
        with tracer.installed():
            traced = runner.passes(args.seconds / 2, rounds_json=True)
        runner.tracer = None
        summary = tracer.summary()
        metrics = per_layer(summary, len(traced))
        lines += traced_lines(workload, summary, len(traced), pass_results,
                              traced)
    else:
        metrics = end_to_end(pass_results, setup_samples)
        lines += untraced_lines(metrics, pass_results, setup_samples,
                                runner.op_samples)

    failed_ops = sum(sum(r.values()) for r in runner.failures.values())
    total = runner.attempted + 1
    errors = failed_ops + int(probe_failed)
    lines.append(f"  error_rate: {errors}/{total} = {errors / total:.6f} "
                 "(failed operations and the known-defect probe over all "
                 "attempted)")
    lines.append(f"  known-defect probe (jordan on the 8x8 reproducer, "
                 f"untimed): {probe_status}")
    if runner.failures:
        lines.append("  failed operations (excluded from the timings):")
        for (command, case), reasons in sorted(runner.failures.items()):
            for reason, count in sorted(reasons.items()):
                lines.append(f"    {command} {case}: {reason} x{count}")
    else:
        lines.append("  failed operations: none")
    lines.append(f"  machine speed (reference / measured calibration): "
                 f"median {statistics.median(runner.speed):.3f}, range "
                 f"{min(runner.speed):.3f}..{max(runner.speed):.3f} over "
                 f"{len(runner.speed)} calibrated intervals")
    lines.append(f"  run wall time: {perf_counter() - started:.1f} s")
    print("\n".join(lines))

    result = {"correct": not runner.wrong, "attempted": runner.attempted,
              "failed": failed_ops,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in turn, each in its own process so that peak memory
    is per workload."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=str(ROOT))
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
