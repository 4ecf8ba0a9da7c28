#!/usr/bin/env python3
"""Build and run the RewindDB end-to-end benchmark.

    python3 rwbench/run.py --workload oltp|pitr|hot_rows --seed N \
        --seconds S --trace 0|1
    python3 rwbench/run.py --quick

Run from the root of a source checkout. The first call builds the
engine and the benchmark program (Release) into .bench_build/; later
calls only check that build. A run is PARTS processes started one after
the other, each doing a PARTS-th of the work on inputs drawn from its
own seed (seed * PARTS + part); the run reports the mean of their
metrics and the sum of their operation counts. The same work spread
over several processes is steadier than in one: on a shared host a
process's speed depends on where its memory and threads land, and that
luck differs from one process to the next. Each part keeps its
databases under .bench_run/<workload>-<pid>/ and removes that
directory whatever the outcome. A traced run (--trace 1) also writes
each part's spans to .bench_trace/<workload>-seed<N>-part<P>.json. The
last line of standard output is the run's JSON result; build output
goes to standard error.

--quick builds the checks' test as well, runs it, and runs all three
workloads at tiny sizes with every check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "rwbench")
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
TRACES = os.path.join(ROOT, ".bench_trace")
WORKLOADS = ("oltp", "pitr", "hot_rows")
PARTS = 4
PART_TIMEOUT_S = 40


def build(targets):
    """Configure (once) and build `targets`; False on any failure."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("rwbench: no engine sources (src/) next to rwbench/",
              file=sys.stderr)
        return False
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run_part(workload, seed, seconds, trace, quick):
    """Runs one process; returns (exit code, last stdout line)."""
    run_dir = os.path.join(RUNS, "%s-%d" % (workload, os.getpid()))
    cmd = [os.path.join(BUILD, "rwbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", "1" if trace else "0", "--dir", run_dir]
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", trace]
    if quick:
        cmd.append("--quick")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PART_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("rwbench: %s timed out" % workload, file=sys.stderr)
        return 1, ""
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:
            pass
    lines = out.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def run_workload(workload, seed, seconds, trace, quick):
    """Runs the parts of one workload; returns (exit code, result line).

    Stops at the first part that fails and returns its own line."""
    parts = 1 if quick else PARTS
    results = []
    for part in range(parts):
        trace_out = None
        if trace:
            trace_out = os.path.join(
                TRACES, "%s-seed%d-part%d.json" % (workload, seed, part))
        code, line = run_part(workload, seed * parts + part, seconds / parts,
                              trace_out, quick)
        if code != 0 or not line:
            return code or 1, line
        results.append(json.loads(line))
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": sum(values) / len(values),
                         "unit": first["unit"]}
    return 0, json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics})


def quick():
    if not build(["rwbench", "rwbench_checks_test"]):
        return 2
    # The test's databases go under .bench_run/ too.
    os.makedirs(RUNS, exist_ok=True)
    test = subprocess.run([os.path.join(BUILD, "rwbench_checks_test")],
                          stdout=sys.stderr, stderr=sys.stderr,
                          env=dict(os.environ, TMPDIR=RUNS))
    ok = test.returncode == 0
    for workload in WORKLOADS:
        code, line = run_workload(workload, 1, 1, False, True)
        print("%s: %s" % (workload, line))
        ok = ok and code == 0
    print("quick: %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required")
    if not build(["rwbench"]):
        return 2
    code, line = run_workload(args.workload, args.seed, args.seconds,
                              args.trace == 1, False)
    if line:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
