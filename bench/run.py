"""Benchmark runner: seeded workloads through the `homsensor` CLI.

    python3 bench/run.py --workload {sweeps,grid,spectral} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
its `src/` directory.  Every invocation is a fresh `python3 -m
homsensor` process, as a user runs it, one at a time (a closed loop
with one client).  Children run with HOMSENSOR_WORKERS unset and one
BLAS/OpenMP thread: the plain single-threaded baseline.

--trace 0 measures the end-to-end metrics.  Set-up is timed
SETUP_REPEATS times; then whole passes over the workload's invocations
repeat until S seconds have gone by, and each figure is the median over
passes.  --trace 1 makes one timed pass, then runs the invocations in
one process through homsensor.cli.main twice, untraced and traced
(bench/inprocess.py), and reports the per-layer metrics of the traced
run.  Every invocation's outputs are checked (bench/check.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import check
import workloads
from tracer import TRACED, layer_name

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
FIXTURE = os.path.join(BENCH_DIR, "fixtures", "stack.json")
WORK_DIR = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CLEARED_ENV = ("HOMSENSOR_WORKERS",)
SWEEP_COMMANDS = ("spectrum", "coincidence", "fisher", "budget")
LOAD_STACK = "import sys, homsensor; homsensor.load_stack(sys.argv[1])"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC
    return env


def environment() -> dict:
    """Machine and versions recorded with every result."""
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "pinned": PINNED_ENV, "cleared": list(CLEARED_ENV)}


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(argv, log_path) -> Child:
    """Run one process to completion; wall time and its own rusage."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


@dataclass
class Tally:
    """Invocations attempted and failed, with the first problems seen."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems, log_path=None):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems[:5])
                if log_path:
                    self.problems.append("log: %s" % (_tail(log_path),))


def _tail(path, limit=400) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()[-limit:].strip()
    except OSError:
        return "unreadable"


def cli_argv(command, config_path, out_dir) -> list:
    return [command, "--config", config_path, "--out", out_dir]


def setup_once(workload, directory, tally) -> float:
    """One fresh-process stack resolution; its wall time in seconds."""
    log = directory + ".log"
    if workloads.uses_fixture(workload):
        child = run_child([sys.executable, "-c", LOAD_STACK, FIXTURE], log)
        problems = ([] if child.code == 0
                    else ["load_stack exited with %d" % (child.code,)])
    else:
        child = run_child([sys.executable, "-m", "homsensor", "calibrate",
                           "--out", directory], log)
        problems = check.check_calibration(child.code, directory, FIXTURE)
    tally.record(problems, log)
    return child.wall_s


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    rows: int = 0
    command_wall_s: dict = field(default_factory=dict)


def timed_pass(invocations, directory, tally) -> Pass:
    """Each invocation once, in a fresh process, timed and then checked."""
    os.makedirs(directory)
    result = Pass()
    for i, (command, config_path) in enumerate(invocations):
        out = os.path.join(directory, "%d_%s" % (i, command))
        log = out + ".log"
        child = run_child([sys.executable, "-m", "homsensor"]
                          + cli_argv(command, config_path, out), log)
        rows, problems = check.check_invocation(
            child.code, out, command, workloads.expected_rows(command))
        tally.record(problems, log)
        shutil.rmtree(out, ignore_errors=True)
        result.wall_s += child.wall_s
        result.cpu_s += child.cpu_s
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        result.rows += rows
        result.command_wall_s[command] = (
            result.command_wall_s.get(command, 0.0) + child.wall_s)
    return result


def in_process(invocations, directory, traced, tally) -> dict:
    """Run all invocations in one process (bench/inprocess.py)."""
    os.makedirs(directory)
    outs = [os.path.join(directory, "%d_%s" % (i, command))
            for i, (command, _) in enumerate(invocations)]
    plan = os.path.join(directory, "plan.json")
    result_path = os.path.join(directory, "result.json")
    with open(plan, "w", encoding="utf-8") as f:
        json.dump({"traced": traced,
                   "argv": [cli_argv(command, config_path, out)
                            for (command, config_path), out
                            in zip(invocations, outs)]}, f)
    log = os.path.join(directory, "inprocess.log")
    child = run_child([sys.executable, os.path.join(BENCH_DIR, "inprocess.py"),
                       plan, result_path], log)
    try:
        with open(result_path, encoding="utf-8") as f:
            result = json.load(f)
    except (OSError, ValueError):
        result = None
    if child.code != 0 or result is None:
        tally.record(["in-process run exited with %d" % (child.code,)], log)
        return None
    for (command, _), out, code in zip(invocations, outs, result["codes"]):
        _, problems = check.check_invocation(
            code, out, command, workloads.expected_rows(command))
        tally.record(problems, log)
    return result


def end_to_end_metrics(setups, passes) -> dict:
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cells_per_s": (statistics.median(p.rows / p.wall_s for p in passes),
                        "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (max(p.rss_mb for p in passes), "MB"),
    }


def layer_metrics(timed: Pass, plain: dict, traced: dict,
                  fail_frac: float) -> dict:
    """Per-layer metrics from a timed pass and two in-process runs."""
    out = {"cli.import_s": (plain["import_s"], "s")}
    for command in SWEEP_COMMANDS:
        out["cli.%s.wall_s" % command] = (
            timed.command_wall_s.get(command, 0.0), "s")
    layers = traced["layers"]
    for module, attribute, counts_points in TRACED:
        name = layer_name(module, attribute)
        row = layers.get(name, {"calls": 0, "points": 0, "self_ms": 0.0})
        out[name + ".calls"] = (row["calls"], "count")
        if counts_points:
            out[name + ".points"] = (row["points"], "count")
        out[name + ".self_ms"] = (row["self_ms"], "ms")
    out["estimation.warnings"] = (traced["warnings"], "count")
    out["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    out["fail_frac"] = (fail_frac, "ratio")
    return out


def measure(workload, seed, seconds, trace, work, tally) -> dict:
    invocations = workloads.write_configs(
        workload, seed, FIXTURE, os.path.join(work, "configs"))
    if trace:
        timed = timed_pass(invocations, os.path.join(work, "timed"), tally)
        plain = in_process(invocations, os.path.join(work, "plain"), False,
                           tally)
        traced = in_process(invocations, os.path.join(work, "traced"), True,
                            tally)
        if plain is None or traced is None:
            return None
        return layer_metrics(timed, plain, traced,
                             tally.failed / tally.attempted)

    setups = [setup_once(workload, os.path.join(work, "setup%d" % i), tally)
              for i in range(SETUP_REPEATS)]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(timed_pass(
            invocations, os.path.join(work, "pass%d" % len(passes)), tally))
    return end_to_end_metrics(setups, passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "homsensor", "cli.py")):
        print("bench: no homsensor sources under %s; run from the root of a "
              "source checkout" % (SRC,), file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK_DIR)
    tally = Tally()
    try:
        metrics = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in tally.problems:
        print("bench: FAIL %s" % (problem,), file=sys.stderr)
    if metrics is None:
        print("bench: the in-process run failed; no metrics",
              file=sys.stderr)
        return 1

    print("bench: workload=%s seed=%d trace=%d env=%s"
          % (args.workload, args.seed, args.trace,
             json.dumps(environment(), sort_keys=True)))
    for name, (value, unit) in metrics.items():
        print("bench: %-44s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
