#!/usr/bin/env python3
"""Validate ecgrid-campaign result files against the record schema.

A campaign results file is JSONL: one record per completed scenario run,
appended by tools/ecgrid-campaign (src/campaign/campaign_runner.cpp).
Record schema:

  {"campaign": str, "fingerprint": 16-hex str, "seed": int,
   "config": {axis-key: value, ...}, "ok": bool, "error": str,
   "result": {scalar metrics..., "metrics": {name: value, ...}}}

`result` is present iff `ok` is true; `error` is non-empty iff `ok` is
false. `--check` is a strict gate for CI: every line parses (a torn line
is a violation here, though the runner's resume scan tolerates it),
every record carries the required keys with the right types,
fingerprints are 16 lowercase hex chars and unique, and ok/error/result
agree. Exit 0 = valid, 1 = violations, 2 = usage.

The per-config summary (seeds, failures, mean delivery and latency) is
`tools/ecgrid_query.py ingest` followed by `ecgrid_query.py campaign`.

Only the Python standard library is used.

Usage:
    tools/campaign_report.py --check results.jsonl [more files...]
"""

import json
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


def main(argv):
    args = [arg for arg in argv[1:] if arg != "--check"]
    if len(args) == len(argv) - 1 or not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    return run_check(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
