#!/usr/bin/env python3
"""Validate ecgrid trace artifacts.

Auto-detects and checks the three trace formats the simulator and its
tooling produce:

  * ecgrid-events    — protocol event JSONL from obs::EventTracer
                       (header {"schema":"ecgrid-events","version":1,...})
  * ecgrid-telemetry — run-health samples from obs::RunTelemetry
                       (header {"schema":"ecgrid-telemetry","version":1,
                       ...}); checked for required keys, monotone wall_s
                       and sim_t, monotone event counts, and exactly one
                       final {"kind":"summary"} record after the samples.
  * chrome-trace     — {"traceEvents":[...]} JSON from tools/trace_chrome.py

Checks applied to every format: each record parses as JSON, required keys
are present, and timestamps never decrease. Event traces additionally get
span-pairing checks: every "e" must close an open (cat, id) span ("b"
without "e" is legal — an open span at end-of-sim is a signal, e.g. a
page that never woke its target) — and state samples ("state"/"host"
instants) must carry served_x/served_y together and only on a gateway.

Only the Python standard library is used. Exit 0 = valid; exit 1 prints
every violation (capped) to stderr.

Usage:
    tools/trace_check.py trace.jsonl [more files...]
"""

import json
import sys

MAX_REPORTED = 20

TELEMETRY_REQUIRED = (
    "kind",
    "events",
    "sim_t",
    "wall_s",
    "queue_depth",
    "peak_queue_depth",
    "slab_slots",
    "alloc_phase",
    "alloc_count",
    "alloc_hot",
    "events_per_wall_s",
    "sim_per_wall",
)


class Checker:
    def __init__(self, path):
        self.path = path
        self.errors = []

    def error(self, where, message):
        if len(self.errors) < MAX_REPORTED:
            self.errors.append(f"{self.path}:{where}: {message}")
        else:
            self.errors.append(None)  # counted, not printed

    def report(self):
        printed = [e for e in self.errors if e is not None]
        for line in printed:
            print(line, file=sys.stderr)
        hidden = len(self.errors) - len(printed)
        if hidden > 0:
            print(f"{self.path}: ... and {hidden} more", file=sys.stderr)
        return len(self.errors)


def check_events(checker, records):
    """ecgrid-events JSONL: schema, monotone time, span pairing."""
    last_t = None
    open_spans = {}  # (cat, id) -> begin lineno
    for lineno, record in records:
        for key in ("t", "cat", "ev", "ph"):
            if key not in record:
                checker.error(lineno, f"missing required key '{key}'")
                break
        else:
            t = record["t"]
            if not isinstance(t, (int, float)):
                checker.error(lineno, "t is not a number")
                continue
            if last_t is not None and t < last_t:
                checker.error(lineno, f"time went backwards ({t} < {last_t})")
            last_t = t
            phase = record["ph"]
            if phase == "b":
                if "id" not in record:
                    checker.error(lineno, "span begin without an id")
                    continue
                key = (record["cat"], record["id"])
                if key in open_spans:
                    checker.error(
                        lineno,
                        f"span {key} reopened "
                        f"(begun at line {open_spans[key]})",
                    )
                open_spans[key] = lineno
            elif phase == "e":
                if "id" not in record:
                    checker.error(lineno, "span end without an id")
                    continue
                key = (record["cat"], record["id"])
                if key not in open_spans:
                    checker.error(lineno, f"span end {key} with no open begin")
                else:
                    del open_spans[key]
            elif phase == "i":
                if record["cat"] == "state" and record["ev"] == "host":
                    check_state_sample(checker, lineno, record.get("args", {}))
            else:
                checker.error(lineno, f"unknown phase '{phase}'")
    # Open spans at EOF are legal (a page that never woke its target, an
    # election cut short by death) — report as info only, never an error.
    return len(open_spans)


def check_state_sample(checker, lineno, args):
    """A state/host instant: the served grid only on a gateway record."""
    has_served = "served_x" in args or "served_y" in args
    if has_served and args.get("gateway") is not True:
        checker.error(lineno, "served grid on a non-gateway record")
    if has_served and ("served_x" not in args or "served_y" not in args):
        checker.error(lineno, "served_x/served_y must appear together")


def check_telemetry(checker, records):
    """ecgrid-telemetry JSONL: monotone health samples + one summary."""
    last = {"events": None, "sim_t": None, "wall_s": None, "seq": 0}
    samples = 0
    summary_line = None
    for lineno, record in records:
        kind = record.get("kind")
        if summary_line is not None:
            checker.error(
                lineno, f"record after summary (line {summary_line})"
            )
            continue
        if kind not in ("sample", "summary"):
            checker.error(lineno, f"unknown kind {kind!r}")
            continue
        missing = [k for k in TELEMETRY_REQUIRED if k not in record]
        if missing:
            checker.error(lineno, f"missing keys: {', '.join(missing)}")
            continue
        for key in ("events", "sim_t", "wall_s"):
            value = record[key]
            if not isinstance(value, (int, float)):
                checker.error(lineno, f"{key} is not a number")
                break
            if last[key] is not None and value < last[key]:
                checker.error(
                    lineno,
                    f"{key} went backwards ({value} < {last[key]})",
                )
            last[key] = value
        if kind == "sample":
            samples += 1
            if record.get("seq") != samples:
                checker.error(
                    lineno,
                    f"sample seq {record.get('seq')} != expected {samples}",
                )
        else:
            summary_line = lineno
            if record.get("samples") != samples:
                checker.error(
                    lineno,
                    f"summary says {record.get('samples')} samples, "
                    f"counted {samples}",
                )
    if summary_line is None:
        checker.error("eof", "no summary record (run did not finish?)")
    return samples


def check_chrome(checker, trace):
    """Chrome trace-event JSON: the subset trace_chrome.py emits."""
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        checker.error(0, "traceEvents missing or not a list")
        return
    open_spans = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        for key in ("name", "ph", "pid"):
            if key not in event:
                checker.error(where, f"missing key '{key}'")
                break
        else:
            phase = event["ph"]
            if phase == "M":
                continue
            if "ts" not in event:
                checker.error(where, "missing key 'ts'")
                continue
            if phase in ("b", "e"):
                if "id" not in event:
                    checker.error(where, f"async '{phase}' without an id")
                    continue
                key = (event.get("cat"), event["id"])
                if phase == "b":
                    open_spans[key] = index
                elif key not in open_spans:
                    checker.error(where, f"span end {key} with no open begin")
                else:
                    del open_spans[key]
            elif phase == "i":
                if event.get("s") not in ("t", "p", "g"):
                    checker.error(where, "instant without a valid scope 's'")
            else:
                checker.error(where, f"unexpected phase '{phase}'")


def check_file(path):
    checker = Checker(path)
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline().strip()
        if not first:
            checker.error(1, "empty file")
            return checker, "empty", 0
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            checker.error(1, f"invalid JSON: {exc}")
            return checker, "unparseable", 0

        if isinstance(header, dict) and "traceEvents" in header:
            # Whole-file JSON (possibly single-line); re-read everything.
            handle.seek(0)
            try:
                trace = json.load(handle)
            except json.JSONDecodeError as exc:
                checker.error(1, f"invalid JSON: {exc}")
                return checker, "chrome-trace", 0
            check_chrome(checker, trace)
            return checker, "chrome-trace", len(trace.get("traceEvents", []))

        schema = header.get("schema") if isinstance(header, dict) else None
        if schema not in ("ecgrid-events", "ecgrid-telemetry"):
            checker.error(1, f"unknown schema {schema!r}")
            return checker, "unknown", 0

        def parsed_lines():
            for lineno, raw in enumerate(handle, start=2):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    yield lineno, json.loads(raw)
                except json.JSONDecodeError as exc:
                    checker.error(lineno, f"invalid JSON: {exc}")

        count = 0

        def counted():
            nonlocal count
            for item in parsed_lines():
                count += 1
                yield item

        if schema == "ecgrid-events":
            open_count = check_events(checker, counted())
            label = f"ecgrid-events v{header.get('version')}"
            if open_count:
                label += f" ({open_count} span(s) left open)"
            return checker, label, count
        samples = check_telemetry(checker, counted())
        label = (
            f"ecgrid-telemetry v{header.get('version')} "
            f"({samples} sample(s))"
        )
        return checker, label, count


def main(argv):
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    for path in argv[1:]:
        checker, kind, records = check_file(path)
        errors = checker.report()
        status = "OK" if errors == 0 else f"{errors} error(s)"
        print(f"{path}: {kind}, {records} record(s): {status}")
        failures += errors
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
