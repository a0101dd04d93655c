#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the engine and the benchmark program from source (CMake, into
.bench_build/perfbench), runs one workload for a fixed time and prints the
result as the last line of standard output. Run it from the repository root:

  python3 perfbench/run.py --workload star_analytics --seed 1 --seconds 10 --trace 0

With --trace 0 the result carries the end-to-end metrics that BENCHMARK.json
names, with --trace 1 its per-layer metrics, taken from a traced run. Every
statement's result is checked. A wrong result, a failed statement or a
spill file left behind makes the result incorrect and the exit code 1.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
SPILL_ROOT = os.path.join(".bench_build", "spill")
EXPECTED_DIR = os.path.join("perfbench", "expected")
RUN_TIMEOUT_S = 170
# BENCHMARK.json lists the first two; the other two are for traced runs of
# the optimizer and spill layers (see README.md, "Steadiness").
WORKLOADS = ("star_analytics", "serving_mixed", "join_planning",
             "spill_sort_join")


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def build():
    """Configures and builds the benchmark program; returns its path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log,
                                      stderr=subprocess.STDOUT).returncode
            except OSError as e:
                fail("cannot run %s: %s" % (cmd[0], e))
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(BUILD_DIR, "qopt_perfbench")


def compare_expected(path, statements):
    """Counts statements whose oracle digest differs from the stored one."""
    with open(path) as f:
        stored = json.load(f)["statements"]
    if len(stored) != len(statements):
        sys.stderr.write("perfbench: %s lists %d statements, run has %d\n"
                         % (path, len(stored), len(statements)))
        return max(1, len(statements))
    bad = 0
    for want, got in zip(stored, statements):
        if (want["sql"], want["rows"], want["checksum"]) != (
                got["sql"], got["rows"], got["checksum"]):
            sys.stderr.write("perfbench: differs from %s: %s\n"
                             % (path, got["sql"]))
            bad += max(1, got["observed"])
    return bad


def main():
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="store this run's result digests under "
                             "perfbench/expected")
    args = parser.parse_args()
    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in WORKLOADS:
        fail("unknown workload %r" % args.workload)
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    binary = build()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spill_dir = os.path.join(SPILL_ROOT, "%s-%d" % (tag, os.getpid()))
    out = os.path.join(BUILD_DIR, "runs", tag + ".json")
    trace_out = os.path.join(BUILD_DIR, "traces", tag + ".json")
    shutil.rmtree(spill_dir, ignore_errors=True)
    os.makedirs(spill_dir)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spill-dir", spill_dir, "--out", out, "--trace-out", trace_out]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        shutil.rmtree(spill_dir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    leftover = sorted(os.listdir(spill_dir))
    shutil.rmtree(spill_dir, ignore_errors=True)
    if code != 0 or not os.path.isfile(out):
        fail("benchmark program exited with code %d" % code)
    with open(out) as f:
        run = json.load(f)

    wrong = run["wrong"]
    if leftover:
        sys.stderr.write("perfbench: spill files left behind: %s\n"
                         % ", ".join(leftover[:5]))
        wrong += len(leftover)
    statements = run["statements"]
    expected = os.path.join(EXPECTED_DIR, "%s.seed%d.json"
                            % (args.workload, args.seed))
    if args.record_expected:
        os.makedirs(EXPECTED_DIR, exist_ok=True)
        with open(expected, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "statements": [{k: s[k] for k in ("sql", "rows",
                                                         "checksum")}
                                      for s in statements]},
                      f, indent=1)
            f.write("\n")
    elif os.path.isfile(expected):
        wrong += compare_expected(expected, statements)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = run["metrics"].get(m["name"])
        if got is None:
            fail("benchmark program did not report %s" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    failed = run["failed"] + run["shed"] + wrong
    host = run["host"]
    print("perfbench: host hardware_threads=%s build=%s compiler=%s seed=%d"
          % (host["hardware_threads"], host["build_type"], host["compiler"],
             args.seed))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
