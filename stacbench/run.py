#!/usr/bin/env python3
"""The repo benchmark: build stacbench from source, run one workload.

Run from the repository root:

    python3 stacbench/run.py --workload calibrate --seed 1 --seconds 20 --trace 0
    python3 stacbench/run.py --selftest

The first run configures and builds stacbench/ (which compiles ../src) into
.bench_build/stacbench; later runs reuse the build.  A run prints the
binary's progress lines, then as its last stdout line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1.  It
exits nonzero when the build fails, an output check fails, or the printed
metrics do not match BENCHMARK.json.  Result files (and the traced run's
self-time table) go to .bench_build/results/.

--selftest runs every workload smoke-sized, traced and untraced, and checks
that every metric named in BENCHMARK.json is printed with its unit.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "stacbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "stacbench")
RUN_TIMEOUT_S = 170
# Compiler and benchmark temporaries stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configure once, then build incrementally; the log is kept on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                # A failed configure must not leave a cache that skips it.
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace, tiny=False):
    """Run the stacbench binary; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--results", RESULTS_DIR]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout.splitlines()


def validate(lines, spec, trace):
    """Parse the result line and check it against BENCHMARK.json; returns
    (result, problems)."""
    if not lines:
        return None, ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, ["last line is not JSON: " + lines[-1][:200]]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
        return result, problems
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result["metrics"]
    for name, unit in expected.items():
        if name not in printed:
            problems.append(f"metric {name} missing")
        elif printed[name].get("unit") != unit:
            problems.append(f"metric {name} unit {printed[name].get('unit')}"
                            f" != {unit}")
    for name in printed:
        if name not in expected:
            problems.append(f"metric {name} not in BENCHMARK.json")
    if result["attempted"] < 1:
        problems.append("attempted < 1")
    return result, problems


def selftest(spec):
    build()
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, lines = run_binary(workload, 1, 1, trace, tiny=True)
            result, problems = validate(lines, spec, trace)
            if code != 0:
                problems.append(f"exit code {code}")
            if result is not None and result.get("correct") is not True:
                problems.append("output checks failed")
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"selftest {workload} trace={trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    os.makedirs(TMP_DIR, exist_ok=True)
    os.environ["TMPDIR"] = TMP_DIR
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.selftest:
        sys.exit(selftest(spec))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    build()
    code, lines = run_binary(args.workload, args.seed, seconds, args.trace)
    result, problems = validate(lines, spec, args.trace)
    for line in lines[:-1]:
        print(line)
    if problems:
        fail("; ".join(problems))
    print(lines[-1], flush=True)
    if code != 0 or not result["correct"]:
        sys.exit(code or 1)


if __name__ == "__main__":
    main()
