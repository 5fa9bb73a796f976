#!/usr/bin/env python3
"""Simulator benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload dense_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the optimised `perfbench` binary from
perfbench/CMakeLists.txt (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only check that it is up to date. The binary then runs the workload and
prints, as its last stdout line, one JSON object with the keys correct,
attempted, failed and metrics. Artifacts (provenance, spans, label->layer
map, metrics) go to .bench_build/perfbench-out/.

--selftest builds, runs the binary's own checks (output identities, failed
runs, replay determinism, traced == untraced counters), then runs every
workload in smoke mode with tracing off and on and checks that the emitted
metrics are exactly those BENCHMARK.json and perfbench/spec.json name.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def git_sha():
    """HEAD's commit from .git in the checkout, or 'unknown' without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    """Configure once, then bring the binary up to date. Returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "harness", "scenario.hpp")):
        fail("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    step = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def run_binary(binary, args, capture=False):
    command = [binary] + args + ["--git-sha", git_sha(),
                                 "--out-dir", os.path.join(os.path.dirname(build_dir()),
                                                           "perfbench-out")]
    if capture:
        return subprocess.run(command, capture_output=True, text=True)
    return subprocess.run(command)


def selftest(binary):
    failures = 0

    def check(ok, what):
        nonlocal failures
        print(f"selftest {'PASS' if ok else 'FAIL'}: {what}", flush=True)
        failures += 0 if ok else 1

    check(subprocess.run([binary, "--selftest"]).returncode == 0,
          "perfbench --selftest (identities, failures, replay, traced == untraced)")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    all_names = list(expected[0]) + list(expected[1])
    check(all(NAME_RE.match(n) for n in all_names), "every metric name matches [A-Za-z0-9_.-]+")
    check(len(set(all_names)) == len(all_names), "every metric name is used once")
    check(sorted(spec["metrics"]) == sorted(all_names),
          "spec.json describes exactly the metrics BENCHMARK.json names")
    check(sorted(spec["workloads"]) == sorted(w["name"] for w in bench["workloads"]),
          "spec.json describes exactly the workloads BENCHMARK.json names")

    for workload in bench["workloads"]:
        name = workload["name"]
        described = run_binary(binary, ["--workload", name, "--seed", "1", "--seconds", "1",
                                        "--trace", "0", "--describe"], capture=True)
        line = described.stdout.strip().splitlines()[-1] if described.stdout.strip() else ""
        scenarios = json.loads(line[len("provenance: "):])["scenarios"] if line else []
        keys = spec["workloads"][name]["scenarios"][0].keys()
        distinct = []
        for s in scenarios:
            shape = {k: s[k] for k in keys}
            if shape not in distinct:
                distinct.append(shape)
        check(described.returncode == 0 and spec["workloads"][name]["scenarios"] == distinct,
              f"{name}: spec.json scenario parameters match the binary's")
        for trace in (0, 1):
            result = run_binary(binary, ["--workload", name, "--seed", "3", "--seconds", "1",
                                         "--trace", str(trace), "--smoke"], capture=True)
            try:
                last = json.loads(result.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                check(False, f"{name} trace {trace}: last line is JSON (rc={result.returncode})")
                continue
            metrics = last.get("metrics", {})
            check(result.returncode == 0 and
                  sorted(last) == ["attempted", "correct", "failed", "metrics"] and
                  last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1,
                  f"{name} trace {trace}: smoke run is correct with no failed runs")
            check({k: v.get("unit") for k, v in metrics.items()} == expected[trace],
                  f"{name} trace {trace}: emits exactly the BENCHMARK.json metrics and units")
            check(all(isinstance(v.get("value"), (int, float)) and math.isfinite(v["value"])
                      for v in metrics.values()),
                  f"{name} trace {trace}: every value is a finite number")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenarios; same metrics and checks, finishes in seconds")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if args.selftest:
        sys.exit(selftest(binary))
    forwarded = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        forwarded.append("--smoke")
    sys.stdout.flush()
    sys.exit(run_binary(binary, forwarded).returncode)


if __name__ == "__main__":
    main()
