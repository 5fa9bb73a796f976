#!/usr/bin/env python3
"""Alternating parent/change pairs of the simulator benchmark.

Runs `python3 perfbench/run.py --workload W --seed S --seconds N --trace 0`
in two checkouts, N pairs, alternating which side runs first (pair 0:
parent first, pair 1: change first, ...). Each checkout builds its own
.bench_build; a smoke run per side before the pairs builds both, so no
timed run pays for a build. Nothing in either checkout is modified.

For every end-to-end metric BENCHMARK.json declares it prints each side's
median and quartiles, how many pairs the change won (ties count for
neither side), and two verdicts:

  gain   the change won at least 9/10 of the pairs and its median beats
         the parent's by more than the parent's interquartile range;
  bound  the change's median is no worse than the parent's by more than
         the metric's declared bound (relative).

Metrics that repeat exactly in every run of both sides are reported as
identical. Quartiles use the inclusive method (linear interpolation
between order statistics).

While the pairs run, stderr gets one short line per run (pair, side,
sim_s_per_wall_s, failed runs); the full record of each run goes only to
--out. Each record keeps the run's `provenance:` line (compiler, optimized,
ndebug, nproc, git sha, seconds, ...). The summary names both sides' git
shas, and refuses (exit 1) to compare runs that differ in compiler,
optimized, ndebug, nproc or seconds: such pairs measure the build or the
machine, not the change.

Only the Python standard library is used.

Usage:
    tools/perf_pairs.py --parent DIR --change DIR --workload dense_grid
        [--seed 1] [--seconds 25] [--pairs 10] [--out pairs.jsonl]
    tools/perf_pairs.py --summarize pairs.jsonl [--benchmark BENCHMARK.json]
    tools/perf_pairs.py --selftest
"""

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


PROVENANCE_PREFIX = "provenance: "
# Provenance fields both sides of every compared run must share.
MATCHED_PROVENANCE = ("compiler", "optimized", "ndebug", "nproc", "seconds")


def run_bench(checkout, args):
    """Runs perfbench in `checkout`; returns its result object (the last
    stdout line, JSON) and its provenance object (None when the run printed
    no provenance line)."""
    command = [sys.executable, "perfbench/run.py"] + args
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, check=False)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    provenance = None
    for line in lines:
        if line.startswith(PROVENANCE_PREFIX):
            provenance = json.loads(line[len(PROVENANCE_PREFIX):])
    if proc.returncode != 0 or not lines:
        return ({"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                 "error": proc.stderr[-2000:]}, provenance)
    return json.loads(lines[-1]), provenance


def pair_order(index):
    """Which side runs first in pair `index`: alternate, parent first."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def run_pairs(checkouts, workload, seed, seconds, pairs, runner, log):
    """Runs the pairs; returns one record per run, in execution order."""
    for side in SIDES:
        runner(checkouts[side], ["--workload", workload, "--smoke"])
    records = []
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "0"]
    for index in range(pairs):
        for side in pair_order(index):
            result, provenance = runner(checkouts[side], args)
            record = {"pair": index, "side": side, "workload": workload,
                      "seed": seed, "seconds": seconds, "result": result,
                      "provenance": provenance}
            records.append(record)
            log(record)
    return records


def progress_line(record):
    """The short stderr line for one run record: pair, side, speed and
    failed runs — not the record, whose provenance alone is kilobytes."""
    result = record["result"]
    speed = result.get("metrics", {}).get("sim_s_per_wall_s", {}).get("value")
    speed_text = "n/a" if speed is None else f"{speed:.3f}"
    return (f"pair {record['pair']} {record['side']}: sim_s_per_wall_s "
            f"{speed_text}, failed {result.get('failed', 0)}")


def make_logger(progress, out):
    """A run_pairs log callback: a progress line to `progress`, the full
    record (one JSON line) to `out` when it is not None."""
    def log(record):
        print(progress_line(record), file=progress, flush=True)
        if out is not None:
            out.write(json.dumps(record, sort_keys=True) + "\n")
            out.flush()
    return log


def check_provenance(records):
    """(shas, problems): each side's git shas, and why the records may not
    be compared — a side with no provenance, or a MATCHED_PROVENANCE field
    that takes more than one value across the runs (of either side)."""
    shas = {side: sorted({(r.get("provenance") or {}).get("git_sha", "?")
                          for r in records if r["side"] == side
                          and r.get("provenance")}) for side in SIDES}
    problems = []
    for side in SIDES:
        if not shas[side]:
            problems.append(f"no {side} run recorded its provenance")
    for field in MATCHED_PROVENANCE:
        values = {}
        for record in records:
            provenance = record.get("provenance")
            if provenance is not None:
                values.setdefault(json.dumps(provenance.get(field)),
                                  set()).add(record["side"])
        if len(values) > 1:
            problems.append(f"{field} differs: " + ", ".join(
                f"{value} ({'/'.join(sorted(sides))})"
                for value, sides in sorted(values.items())))
    return shas, problems


def quartiles(values):
    """(q1, median, q3) of `values`, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(records, end_to_end):
    """Per-metric summary rows (dicts) of a list of run records."""
    by_pair = {}
    failed = {side: 0 for side in SIDES}
    attempted = {side: 0 for side in SIDES}
    for record in records:
        result = record["result"]
        side = record["side"]
        attempted[side] += 1
        if not result.get("correct", False) or result.get("failed", 0):
            failed[side] += 1
        by_pair.setdefault(record["pair"], {})[side] = result["metrics"]
    complete = [p for p in sorted(by_pair) if len(by_pair[p]) == 2]
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        higher = metric["better"] == "higher"
        values = {side: [] for side in SIDES}
        wins = 0
        counted = 0
        for p in complete:
            sides = by_pair[p]
            if name not in sides["parent"] or name not in sides["change"]:
                continue
            parent = sides["parent"][name]["value"]
            change = sides["change"][name]["value"]
            values["parent"].append(parent)
            values["change"].append(change)
            counted += 1
            if change != parent and (change > parent) == higher:
                wins += 1
        if counted == 0:
            rows.append({"name": name, "pairs": 0})
            continue
        p_q1, p_med, p_q3 = quartiles(values["parent"])
        c_q1, c_med, c_q3 = quartiles(values["change"])
        gap = (c_med - p_med) if higher else (p_med - c_med)
        identical = len(set(values["parent"] + values["change"])) == 1
        worse = -gap / abs(p_med) if p_med else (0.0 if gap >= 0 else math.inf)
        rows.append({
            "name": name,
            "unit": metric.get("unit", ""),
            "pairs": counted,
            "parent": (p_q1, p_med, p_q3),
            "change": (c_q1, c_med, c_q3),
            "wins": wins,
            "identical": identical,
            "gain": (not identical and wins * 10 >= 9 * counted
                     and gap > p_q3 - p_q1),
            "within_bound": worse <= metric.get("bound", 0.0),
            "relative_change": (c_med - p_med) / p_med if p_med else None,
        })
    return rows, failed, attempted


def format_rows(rows, failed, attempted, header="", shas=None):
    lines = [header] if header else []
    if shas is not None:
        lines.append("git sha: " + ", ".join(
            f"{side} {' '.join(shas[side]) or '?'}" for side in SIDES))
    for row in rows:
        if row["pairs"] == 0:
            lines.append(f"{row['name']:<28} no complete pairs")
            continue
        if row["identical"]:
            lines.append(f"{row['name']:<28} identical in every run: "
                         f"{row['parent'][1]!r} {row['unit']}")
            continue
        p, c = row["parent"], row["change"]
        rel = row["relative_change"]
        lines.append(
            f"{row['name']:<28} parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]"
            f"  change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}] {row['unit']}"
            f"  ({'n/a' if rel is None else f'{rel:+.1%}'})"
            f"  wins {row['wins']}/{row['pairs']}"
            f"  gain {'yes' if row['gain'] else 'no'}"
            f"  bound {'ok' if row['within_bound'] else 'EXCEEDED'}")
    lines.append("failed runs: " + ", ".join(
        f"{side} {failed[side]}/{attempted[side]}" for side in SIDES))
    return "\n".join(lines)


def load_end_to_end(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)["end_to_end"]


def selftest():
    """Checks the statistics and the alternation on canned result lines."""
    checks = []

    def check(ok, what):
        checks.append((ok, what))
        print(("ok   " if ok else "FAIL ") + what)

    end_to_end = [
        {"name": "sim_s_per_wall_s", "unit": "sim-s/wall-s",
         "better": "higher", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "delivery_ratio", "unit": "ratio", "better": "higher",
         "bound": 0.25},
    ]
    # Canned runs: the change is faster in 9 of 10 pairs (pair 3 loses),
    # setup is a wash, delivery is identical everywhere.
    parent_speed = [5.0, 5.2, 5.1, 5.3, 4.9, 5.0, 5.2, 5.1, 5.0, 5.2]
    change_speed = [6.0, 6.1, 6.2, 5.2, 6.0, 5.9, 6.3, 6.1, 6.0, 6.2]
    setup = [0.020, 0.021]

    def canned(side, index):
        speed = (parent_speed if side == "parent" else change_speed)[index]
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": {
            "sim_s_per_wall_s": {"value": speed, "unit": "sim-s/wall-s"},
            "setup_s": {"value": setup[(index + (side == "change")) % 2],
                        "unit": "s"},
            "delivery_ratio": {"value": 0.97, "unit": "ratio"}}}

    calls = []

    def provenance(side):
        return {"compiler": "gcc 12.2.0", "optimized": True, "ndebug": True,
                "nproc": 4, "git_sha": side[0] * 40, "seconds": 25}

    def runner(checkout, args):
        calls.append((checkout, args))
        if "--smoke" in args:
            return ({"correct": True, "attempted": 1, "failed": 0,
                     "metrics": {}}, provenance(checkout))
        pair = sum(1 for c in calls if "--smoke" not in c[1]) - 1
        return canned(checkout, pair // 2), provenance(checkout)

    progress, out = io.StringIO(), io.StringIO()
    records = run_pairs({"parent": "parent", "change": "change"},
                        "dense_grid", 1, 25, 10, runner,
                        make_logger(progress, out))
    timed = [c[0] for c in calls if "--smoke" not in c[1]]
    check(calls[0][0] == "parent" and calls[1][0] == "change"
          and all("--smoke" in c[1] for c in calls[:2]),
          "both sides build (smoke run) before the pairs")
    check(timed[:4] == ["parent", "change", "change", "parent"],
          "pairs alternate which side runs first")
    check(len(records) == 20, "ten pairs make twenty records")
    check(all(r["provenance"] == provenance(r["side"]) for r in records),
          "every record keeps its run's provenance")
    lines = progress.getvalue().splitlines()
    check(len(lines) == 20 and lines[0] == (
        "pair 0 parent: sim_s_per_wall_s 5.000, failed 0")
          and lines[1] == "pair 0 change: sim_s_per_wall_s 6.000, failed 0"
          and all(len(line) < 80 and "provenance" not in line
                  for line in lines),
          "progress is one short line per run: pair, side, speed, failed")
    check([json.loads(line) for line in out.getvalue().splitlines()]
          == records, "--out gets every full record")
    shas, problems = check_provenance(records)
    check(shas == {"parent": ["p" * 40], "change": ["c" * 40]}
          and not problems, "matching provenance: both shas, no problem")
    none = {side: 0 for side in SIDES}
    text = format_rows([], none, none, shas=shas)
    check(f"parent {'p' * 40}" in text and f"change {'c' * 40}" in text,
          "the report names both sides' git shas")
    mismatched = [dict(r) for r in records]
    for field, value in (("nproc", 8), ("optimized", False),
                         ("compiler", "clang 15"), ("ndebug", False),
                         ("seconds", 12)):
        for r in mismatched:
            if r["side"] == "change":
                r["provenance"] = dict(provenance("change"), **{field: value})
        problems = check_provenance(mismatched)[1]
        check(len(problems) == 1 and problems[0].startswith(field),
              f"sides differing in {field} are refused")
    bare = [dict(r, provenance=None) if r["side"] == "parent" else r
            for r in records]
    check(check_provenance(bare)[1] == [
        "no parent run recorded its provenance"],
          "a side without provenance is refused")
    rows, failed, attempted = summarize(records, end_to_end)
    speed, setup_row, delivery = rows
    check(speed["wins"] == 9 and speed["pairs"] == 10,
          "wins count pairs the change won (9/10)")
    check(abs(speed["parent"][1] - 5.1) < 1e-12
          and abs(speed["change"][1] - 6.05) < 1e-12,
          "medians of each side")
    check(abs(speed["parent"][0] - 5.0) < 1e-12
          and abs(speed["parent"][2] - 5.2) < 1e-12,
          "inclusive quartiles of the parent")
    check(speed["gain"] and speed["within_bound"],
          "9/10 wins and a median gap beyond the parent IQR is a gain")
    check(not setup_row["gain"] and setup_row["within_bound"]
          and setup_row["wins"] == 5, "a wash is neither a gain nor a breach")
    check(delivery["identical"] and not delivery["gain"],
          "identical metrics are reported as such")
    # Eight wins of ten is not enough, however large the gap.
    eight = [dict(r) for r in records]
    for r in eight:
        if r["pair"] == 5 and r["side"] == "change":
            r["result"] = canned("parent", 5)
            r["result"]["metrics"]["sim_s_per_wall_s"]["value"] = 4.0
    check(not summarize(eight, end_to_end)[0][0]["gain"],
          "8/10 wins is not a gain")
    # A narrow gap inside the parent IQR is not a gain either.
    narrow = [dict(r) for r in records]
    for r in narrow:
        if r["side"] == "change":
            value = parent_speed[r["pair"]] + 0.01
            r["result"] = canned("change", r["pair"])
            r["result"]["metrics"]["sim_s_per_wall_s"]["value"] = value
    row = summarize(narrow, end_to_end)[0][0]
    check(row["wins"] == 10 and not row["gain"],
          "10/10 wins inside the parent IQR is not a gain")
    # A slowdown past the bound is flagged; a failed run is counted.
    slow = [dict(r) for r in records]
    for r in slow:
        if r["side"] == "change":
            r["result"] = canned("change", r["pair"])
            r["result"]["metrics"]["sim_s_per_wall_s"]["value"] = 3.0
    slow[1]["result"]["failed"] = 1
    rows, failed, attempted = summarize(slow, end_to_end)
    check(not rows[0]["within_bound"], "a drop past the bound is flagged")
    check(failed["change"] == 1 and attempted["change"] == 10,
          "failed runs are counted against attempted")
    text = format_rows(rows, failed, attempted)
    check("EXCEEDED" in text and "change 1/10" in text,
          "the report names the breach and the failures")
    passed = sum(ok for ok, _ in checks)
    print(f"perf_pairs selftest: {passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload", default="dense_grid")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", help="append every run record (JSONL) here")
    parser.add_argument("--summarize", help="summarize a record file instead")
    parser.add_argument("--benchmark",
                        help="BENCHMARK.json naming the end-to-end metrics "
                             "(default: the change checkout's, else ./)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        return selftest()

    benchmark = args.benchmark or os.path.join(args.change or ".",
                                               "BENCHMARK.json")
    end_to_end = load_end_to_end(benchmark)
    if args.summarize:
        with open(args.summarize, encoding="utf-8") as f:
            records = [json.loads(line) for line in f if line.strip()]
        header = ""
    else:
        if not args.parent or not args.change:
            parser.error("--parent and --change are required")
        checkouts = {"parent": os.path.abspath(args.parent),
                     "change": os.path.abspath(args.change)}
        out = open(args.out, "a", encoding="utf-8") if args.out else None
        try:
            records = run_pairs(checkouts, args.workload, args.seed,
                                args.seconds, args.pairs, run_bench,
                                make_logger(sys.stderr, out))
        finally:
            if out is not None:
                out.close()
        header = (f"{args.workload} seed {args.seed}, --seconds "
                  f"{args.seconds:g}, {args.pairs} alternating pairs")
    shas, problems = check_provenance(records)
    if problems:
        for problem in problems:
            print(f"perf_pairs: refusing to compare: {problem}",
                  file=sys.stderr)
        return 1
    rows, failed, attempted = summarize(records, end_to_end)
    print(format_rows(rows, failed, attempted, header, shas))
    return 0


if __name__ == "__main__":
    sys.exit(main())
