#!/usr/bin/env python3
"""Summarize and validate ecgrid-campaign result files.

A campaign results file is JSONL: one record per completed scenario run,
appended by tools/ecgrid-campaign (src/campaign/campaign_runner.cpp).
Record schema:

  {"campaign": str, "fingerprint": 16-hex str, "seed": int,
   "config": {axis-key: value, ...}, "ok": bool, "error": str,
   "result": {scalar metrics..., "metrics": {name: value, ...}}}

`result` is present iff `ok` is true; `error` is non-empty iff `ok` is false. Torn trailing
lines (the process died mid-write) are tolerated by the runner's resume
scan, so the default report tolerates them too and counts them;
`--check` treats any malformed line as a failure.

Modes:
  default   — group records by their override config (seeds collapse into
              one group) and print per-group seed count, pass/fail, and
              mean delivery rate / p95 latency / aborted flows.
  --check   — strict schema validation for CI: every line parses, every
              record carries the required keys with the right types,
              fingerprints are 16 lowercase hex chars and unique,
              and ok/error/result agree. Exit 0 = valid, 1 = violations.
  --db PATH — read records from an ecgrid_query.py SQLite store instead
              of JSONL files and print the same grouped report
              (report mode only; --check needs the raw JSONL).

Only the Python standard library is used.

Usage:
    tools/campaign_report.py results.jsonl [more files...]
    tools/campaign_report.py --check results.jsonl
    tools/campaign_report.py --db store.db
"""

import json
import sqlite3
import sys

MAX_REPORTED = 20

FINGERPRINT_LEN = 16
HEX_DIGITS = set("0123456789abcdef")

REQUIRED_KEYS = {
    "campaign": str,
    "fingerprint": str,
    "seed": (int, float),
    "config": dict,
    "ok": bool,
    "error": str,
}

RESULT_SCALARS = (
    "packetsSent",
    "packetsReceived",
    "abortedFlows",
    "deliveryRate",
    "eventsExecuted",
    "peakQueueDepth",
    "slabSlots",
)


def load_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                yield number, line


def check_record(record):
    """Yield violation strings for one parsed record."""
    for key, kind in REQUIRED_KEYS.items():
        if key not in record:
            yield "missing key %r" % key
        elif not isinstance(record[key], kind):
            yield "key %r is %s" % (key, type(record[key]).__name__)
    fingerprint = record.get("fingerprint")
    if isinstance(fingerprint, str):
        if len(fingerprint) != FINGERPRINT_LEN or not set(fingerprint) <= HEX_DIGITS:
            yield "fingerprint %r is not 16 lowercase hex chars" % fingerprint
    ok = record.get("ok")
    if ok is True:
        if record.get("error"):
            yield "ok record carries error %r" % record["error"]
        result = record.get("result")
        if not isinstance(result, dict):
            yield "ok record has no result object"
        else:
            for key in RESULT_SCALARS:
                if not isinstance(result.get(key), (int, float)):
                    yield "result key %r missing or non-numeric" % key
            if not isinstance(result.get("metrics"), dict):
                yield "result has no metrics object"
    elif ok is False:
        if not record.get("error"):
            yield "failed record has empty error"
        if "result" in record:
            yield "failed record carries a result object"


def run_check(paths):
    violations = []
    seen = {}
    for path in paths:
        for number, line in load_lines(path):
            where = "%s:%d" % (path, number)
            try:
                record = json.loads(line)
            except ValueError as error:
                violations.append("%s: not JSON (%s)" % (where, error))
                continue
            if not isinstance(record, dict):
                violations.append("%s: record is not an object" % where)
                continue
            for problem in check_record(record):
                violations.append("%s: %s" % (where, problem))
            key = (record.get("fingerprint"), record.get("seed"))
            if isinstance(key[0], str):
                if key[0] in seen:
                    violations.append(
                        "%s: duplicate fingerprint %s (first at %s)"
                        % (where, key[0], seen[key[0]])
                    )
                else:
                    seen[key[0]] = where
    for violation in violations[:MAX_REPORTED]:
        print(violation, file=sys.stderr)
    if len(violations) > MAX_REPORTED:
        print(
            "... and %d more" % (len(violations) - MAX_REPORTED), file=sys.stderr
        )
    if violations:
        return 1
    print("campaign_report --check: %d record(s) valid" % len(seen))
    return 0


def group_key(config):
    """Stable per-config key; seeds collapse into one group."""
    return json.dumps(config, sort_keys=True)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def records_from_files(paths):
    """Yield parsed records; a torn/malformed line yields None."""
    for path in paths:
        for _, line in load_lines(path):
            try:
                yield json.loads(line)
            except ValueError:
                yield None


def records_from_db(path):
    """Reconstruct records from an ecgrid_query.py SQLite store."""
    db = sqlite3.connect(path)
    rows = db.execute(
        "SELECT fingerprint, campaign, seed, ok, error FROM run"
    ).fetchall()
    for fingerprint, campaign, seed, ok, error in rows:
        config = dict(db.execute(
            "SELECT key, value FROM run_config WHERE fingerprint = ?",
            (fingerprint,)))
        result = dict(db.execute(
            "SELECT name, value FROM run_metric WHERE fingerprint = ?",
            (fingerprint,)))
        yield {
            "campaign": campaign,
            "fingerprint": fingerprint,
            "seed": seed,
            "config": config,
            "ok": bool(ok),
            "error": error,
            "result": result,
        }
    db.close()


def run_report(records):
    groups = {}
    torn = 0
    for record in records:
        if record is None:
            torn += 1
            continue
        config = record.get("config", {})
        group = groups.setdefault(
            group_key(config),
            {"config": config, "seeds": 0, "failed": 0, "delivery": [],
             "p95": [], "aborted": []},
        )
        group["seeds"] += 1
        if not record.get("ok"):
            group["failed"] += 1
            continue
        result = record.get("result", {})
        group["delivery"].append(result.get("deliveryRate", 0.0))
        group["p95"].append(result.get("p95LatencySeconds", 0.0))
        group["aborted"].append(result.get("abortedFlows", 0))
    if not groups:
        print("no records", file=sys.stderr)
        return 1
    print(
        "%-48s %5s %6s %9s %9s %8s"
        % ("config", "seeds", "failed", "delivery", "p95_s", "aborted")
    )
    for key in sorted(groups):
        group = groups[key]
        label = ",".join(
            "%s=%s" % (axis, value)
            for axis, value in sorted(group["config"].items())
        ) or "(base)"
        if len(label) > 48:
            label = label[:45] + "..."
        print(
            "%-48s %5d %6d %9.4f %9.4f %8.1f"
            % (
                label,
                group["seeds"],
                group["failed"],
                mean(group["delivery"]),
                mean(group["p95"]),
                mean(group["aborted"]),
            )
        )
    if torn:
        print("(%d torn line(s) ignored)" % torn)
    return 0


def main(argv):
    args = [arg for arg in argv[1:] if arg != "--check"]
    check = len(args) != len(argv) - 1
    db = None
    if "--db" in args:
        at = args.index("--db")
        if at + 1 >= len(args):
            print("--db needs a path", file=sys.stderr)
            return 2
        db = args[at + 1]
        del args[at:at + 2]
    if db is not None:
        if check:
            print("--check needs the raw JSONL, not --db", file=sys.stderr)
            return 2
        if args:
            print("--db replaces file arguments", file=sys.stderr)
            return 2
        return run_report(records_from_db(db))
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if check:
        return run_check(args)
    return run_report(records_from_files(args))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
