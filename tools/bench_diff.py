#!/usr/bin/env python3
"""Diff two bench output trees and fail on metric drift.

The regression sentry for bench_out/: compares every BENCH_<figure>.json
present in a baseline tree against the same file in a candidate tree,
metric by metric, and exits non-zero when a deterministic metric moved
beyond its tolerance band. Intended CI use: regenerate the bench with
the current build and diff it against the committed bench_out/ — any
unexplained change in events_executed, delivery counters, energy series,
or latency histograms is a behavioral regression, not noise.

Metric classes:
  * deterministic — everything not matched below. Compared exactly by
    default; `--rel-tol R` (or a per-pattern `--tol GLOB=R`) widens the
    band to |a-b| <= R * max(|a|,|b|) + 1e-12.
  * wall-class    — wall_seconds, *_per_second, *_per_s, *.wall_s,
    *.wall_s_total, *speedup*, jobs: machine-load-dependent, so
    REPORT-ONLY by default (printed, never fatal). `--wall-rel-tol R`
    opts them into enforcement, for the records whose builds match (see
    Provenance).

Provenance: every record carries a "provenance" object — compiler,
optimized, ndebug, nproc and git_sha (bench/bench_support.hpp). Both
sides' provenance is printed for every file compared. `--wall-rel-tol`
is enforced on a file only when both sides carry provenance and agree on
compiler, optimized, ndebug and nproc; otherwise its wall-class metrics
stay report-only and the tool prints which field differs (or which side
has no provenance). A wall-clock change between different builds or
machines measures them, not the code. git_sha is printed, never
compared.

Structural drift is always fatal: a scenario, series, or metric present
on one side only, series sampled at different x points, or a run-count
mismatch. A quick-mode mismatch (baseline full vs candidate --quick)
compares apples to oranges and fails up front unless
--allow-mode-mismatch.

BENCH_micro.json uses the microbench schema (all wall-clock) and is
skipped. Files present in only one tree are reported; a baseline file
missing from the candidate is fatal, a candidate-only file is not.

Only the Python standard library is used. Exit 0 = within tolerance.

Usage:
    tools/bench_diff.py BASELINE_DIR CANDIDATE_DIR [--rel-tol R]
        [--tol GLOB=R ...] [--wall-rel-tol R] [--allow-mode-mismatch]
"""

import argparse
import fnmatch
import glob
import json
import os
import sys

MAX_REPORTED = 40

WALL_PATTERNS = (
    "wall_seconds",
    "*_per_second",
    "*_per_s",
    "*.wall_s",
    "*.wall_s_total",
    "*speedup*",
    "jobs",
)


def is_wall_metric(name):
    return any(fnmatch.fnmatch(name, p) for p in WALL_PATTERNS)


# Provenance fields both sides must share before wall-class metrics can be
# enforced.
MATCHED_PROVENANCE = ("compiler", "optimized", "ndebug", "nproc")


def provenance_text(record):
    """One record's provenance, printable; "none" without one."""
    prov = record.get("provenance")
    if not isinstance(prov, dict):
        return "none"
    return " ".join("%s=%s" % (key, json.dumps(prov.get(key)))
                    for key in MATCHED_PROVENANCE + ("git_sha",))


def wall_unenforceable(base, cand):
    """Why wall-class metrics of this pair of records cannot be enforced,
    or None when their builds and core counts match."""
    a, b = base.get("provenance"), cand.get("provenance")
    missing = [side for side, prov in (("baseline", a), ("candidate", b))
               if not isinstance(prov, dict)]
    if missing:
        return "no provenance in " + " and ".join(missing)
    differ = ["%s (%s vs %s)" % (key, json.dumps(a.get(key)),
                                 json.dumps(b.get(key)))
              for key in MATCHED_PROVENANCE if a.get(key) != b.get(key)]
    if differ:
        return "provenance differs in " + ", ".join(differ)
    return None


class Diff:
    def __init__(self, args):
        self.args = args
        self.failures = []
        self.wall_notes = []
        self.compared = 0
        # Why the current file's wall-class metrics are not enforced
        # despite --wall-rel-tol, or None.
        self.wall_reason = None

    def fail(self, where, message):
        self.failures.append("%s: %s" % (where, message))

    def tolerance_for(self, name):
        for pattern, tol in self.args.tol:
            if fnmatch.fnmatch(name, pattern):
                return tol
        return self.args.rel_tol

    def number(self, where, name, a, b):
        """Compare one numeric metric under its class's tolerance."""
        self.compared += 1
        if a == b:
            return
        denom = max(abs(a), abs(b))
        rel = abs(a - b) / denom if denom else 0.0
        if is_wall_metric(name):
            tol = self.args.wall_rel_tol
            if tol is None or self.wall_reason is not None:
                self.wall_notes.append(
                    "%s: %s %.6g -> %.6g (%+.1f%%, wall-class, not enforced)"
                    % (where, name, a, b, 100.0 * (b - a) / a if a else 0.0))
                return
        else:
            tol = self.tolerance_for(name)
        if abs(a - b) > tol * denom + 1e-12:
            self.fail(where, "%s drifted %.17g -> %.17g (rel %.3g > tol %.3g)"
                      % (name, a, b, rel, tol))

    def numbers_in(self, where, base, cand):
        """Diff every numeric key of two flat dicts; flag asymmetries."""
        for name in sorted(set(base) | set(cand)):
            a, b = base.get(name), cand.get(name)
            a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
            b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
            if a is None:
                self.fail(where, "metric %r only in candidate" % name)
            elif b is None:
                self.fail(where, "metric %r only in baseline" % name)
            elif a_num and b_num:
                self.number(where, name, a, b)
            elif a != b:
                self.fail(where, "%s changed %r -> %r" % (name, a, b))

    def file(self, name, base, cand):
        where = name
        print("%s: provenance baseline  %s" % (name, provenance_text(base)))
        print("%s: provenance candidate %s" % (name, provenance_text(cand)))
        self.wall_reason = None
        if self.args.wall_rel_tol is not None:
            self.wall_reason = wall_unenforceable(base, cand)
            if self.wall_reason is not None:
                print("%s: --wall-rel-tol not enforced: %s"
                      % (name, self.wall_reason))
        if base.get("quick") != cand.get("quick") and \
                not self.args.allow_mode_mismatch:
            self.fail(where, "quick-mode mismatch (baseline quick=%s, "
                      "candidate quick=%s); pass --allow-mode-mismatch "
                      "to compare anyway" %
                      (base.get("quick"), cand.get("quick")))
            return
        top_base = {k: v for k, v in base.items()
                    if not isinstance(v, (dict, list))}
        top_cand = {k: v for k, v in cand.items()
                    if not isinstance(v, (dict, list))}
        self.numbers_in(where, top_base, top_cand)
        self.numbers_in(where + ":metrics", base.get("metrics", {}),
                        cand.get("metrics", {}))
        base_series = base.get("series", {})
        cand_series = cand.get("series", {})
        for series in sorted(set(base_series) | set(cand_series)):
            swhere = "%s:series[%s]" % (where, series)
            if series not in base_series:
                self.fail(swhere, "only in candidate")
                continue
            if series not in cand_series:
                self.fail(swhere, "only in baseline")
                continue
            a, b = base_series[series], cand_series[series]
            if a.get("t") != b.get("t"):
                self.fail(swhere, "x-axis changed %s -> %s"
                          % (a.get("t"), b.get("t")))
                continue
            for x, va, vb in zip(a.get("t", []), a.get("v", []),
                                 b.get("v", [])):
                self.number(swhere, "%s@%g" % (series, x), va, vb)
        base_sc = base.get("scenarios", {})
        cand_sc = cand.get("scenarios", {})
        for scenario in sorted(set(base_sc) | set(cand_sc)):
            swhere = "%s:%s" % (where, scenario)
            if scenario not in base_sc:
                self.fail(swhere, "scenario only in candidate")
            elif scenario not in cand_sc:
                self.fail(swhere, "scenario only in baseline")
            else:
                self.numbers_in(swhere, base_sc[scenario],
                                cand_sc[scenario])


def bench_files(tree):
    found = {}
    for path in sorted(glob.glob(os.path.join(tree, "BENCH_*.json"))):
        name = os.path.basename(path)
        if name == "BENCH_micro.json":
            continue
        found[name] = path
    return found


def parse_tol(text):
    pattern, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError("--tol wants GLOB=REL")
    return pattern, float(value)


def main(argv):
    parser = argparse.ArgumentParser(
        prog="bench_diff.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="baseline bench tree (committed)")
    parser.add_argument("candidate", help="candidate bench tree (fresh)")
    parser.add_argument("--rel-tol", type=float, default=0.0,
                        help="relative tolerance for deterministic metrics "
                             "(default 0 = exact)")
    parser.add_argument("--tol", action="append", type=parse_tol,
                        default=[], metavar="GLOB=REL",
                        help="per-metric tolerance band (first match wins)")
    parser.add_argument("--wall-rel-tol", type=float, default=None,
                        help="enforce wall-class metrics at this relative "
                             "tolerance where both sides' provenance "
                             "matches (default: report-only)")
    parser.add_argument("--allow-mode-mismatch", action="store_true",
                        help="compare full vs --quick benches anyway")
    args = parser.parse_args(argv[1:])

    diff = Diff(args)
    base_files = bench_files(args.baseline)
    cand_files = bench_files(args.candidate)
    if not base_files:
        print("no BENCH_*.json under %s" % args.baseline, file=sys.stderr)
        return 2
    common = 0
    for name in sorted(set(base_files) | set(cand_files)):
        if name not in cand_files:
            diff.fail(name, "missing from candidate tree")
            continue
        if name not in base_files:
            print("%s: candidate-only, ignored" % name)
            continue
        with open(base_files[name], encoding="utf-8") as handle:
            base = json.load(handle)
        with open(cand_files[name], encoding="utf-8") as handle:
            cand = json.load(handle)
        diff.file(name, base, cand)
        common += 1

    for note in diff.wall_notes[:MAX_REPORTED]:
        print(note)
    if len(diff.wall_notes) > MAX_REPORTED:
        print("... and %d more wall-class note(s)"
              % (len(diff.wall_notes) - MAX_REPORTED))
    for failure in diff.failures[:MAX_REPORTED]:
        print("FAIL %s" % failure, file=sys.stderr)
    if len(diff.failures) > MAX_REPORTED:
        print("... and %d more failure(s)"
              % (len(diff.failures) - MAX_REPORTED), file=sys.stderr)
    verdict = "FAIL" if diff.failures else "OK"
    print("bench_diff: %s — %d file(s), %d metric(s) compared, "
          "%d failure(s), %d wall-class note(s)"
          % (verdict, common, diff.compared, len(diff.failures),
             len(diff.wall_notes)))
    return 1 if diff.failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
