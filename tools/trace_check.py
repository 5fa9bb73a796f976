#!/usr/bin/env python3
"""Validate ecgrid trace artifacts.

Auto-detects and checks the two trace formats the simulator and its
tooling produce:

  * ecgrid-events — protocol event JSONL from obs::EventTracer
                    (header {"schema":"ecgrid-events","version":1,...})
  * chrome-trace  — {"traceEvents":[...]} JSON from tools/trace_chrome.py

Checks applied to both formats: each record parses as JSON, required keys
are present, and timestamps never decrease. Event traces additionally get
span-pairing checks: every "e" must close an open (cat, id) span ("b"
without "e" is legal — an open span at end-of-sim is a signal, e.g. a
page that never woke its target) — and state samples ("state"/"host"
instants) must carry served_x/served_y together and only on a gateway.
The per-hop and per-reception diagnostics instants (DIAGNOSTIC_ARGS:
radio deaf/collision, routing, member relay, retire) must carry their
argument keys. Counter records ("C", the sim/health run-health samples)
must carry the numeric args events, queue_depth, peak_queue_depth and
slab_slots, and their events count never decreases.

Only the Python standard library is used. Exit 0 = valid; exit 1 prints
every violation (capped) to stderr. --selftest runs the checks on inline
fixtures and exits 0 when each is judged as expected.

Usage:
    tools/trace_check.py trace.jsonl [more files...]
    tools/trace_check.py --selftest
"""

import json
import os
import sys
import tempfile

MAX_REPORTED = 20

HEALTH_KEYS = ("events", "queue_depth", "peak_queue_depth", "slab_slots")

# Argument keys each diagnostics instant must carry, by (cat, ev).
DIAGNOSTIC_ARGS = {
    ("phy", "deaf"): ("src", "hdr", "state", "at"),
    ("phy", "collision"): ("src", "hdr", "at"),
    ("route", "local"): ("src", "dst", "flow", "seq"),
    ("route", "fwd"): ("src", "dst", "flow", "seq", "gx", "gy"),
    ("route", "non_router_drop"): ("src", "dst", "flow", "seq"),
    ("route", "buffer"): ("src", "dst", "flow", "seq"),
    ("route", "rreq_relay"): ("src", "dst", "hop"),
    ("route", "rrep_no_reverse"): ("src", "dst", "gx", "gy"),
    ("grid", "member_relay"): ("src", "dst", "flow", "seq", "to"),
    ("grid", "member_drop"): ("src", "dst", "flow", "seq", "gw", "from"),
    ("grid", "retire"): ("gx", "gy", "cause"),
}


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
    last_events = None
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
                required = DIAGNOSTIC_ARGS.get((record["cat"], record["ev"]))
                if required:
                    args = record.get("args", {})
                    missing = [k for k in required if k not in args]
                    if missing:
                        checker.error(
                            lineno,
                            f"{record['cat']}/{record['ev']} missing args: "
                            f"{', '.join(missing)}",
                        )
            elif phase == "C":
                last_events = check_counter(
                    checker, lineno, record.get("args"), last_events
                )
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


def check_counter(checker, where, args, last_events):
    """A "C" record: the health keys, numeric, and a monotone event count.
    Returns the record's events value (or last_events when unusable)."""
    if not isinstance(args, dict):
        checker.error(where, "counter without an args object")
        return last_events
    missing = [k for k in HEALTH_KEYS if k not in args]
    if missing:
        checker.error(where, f"counter missing keys: {', '.join(missing)}")
        return last_events
    for key in HEALTH_KEYS:
        if not isinstance(args[key], (int, float)):
            checker.error(where, f"counter key '{key}' is not a number")
            return last_events
    events = args["events"]
    if last_events is not None and events < last_events:
        checker.error(
            where, f"counter events went backwards ({events} < {last_events})"
        )
    return events


def check_chrome(checker, trace):
    """Chrome trace-event JSON: the subset trace_chrome.py emits."""
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        checker.error(0, "traceEvents missing or not a list")
        return
    open_spans = {}
    last_events = None
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
            elif phase == "C":
                last_events = check_counter(
                    checker, where, event.get("args"), last_events
                )
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
        if schema != "ecgrid-events":
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

        open_count = check_events(checker, counted())
        label = f"ecgrid-events v{header.get('version')}"
        if open_count:
            label += f" ({open_count} span(s) left open)"
        return checker, label, count


def selftest():
    """Judges inline fixtures; each must pass or fail as labelled."""
    import trace_chrome  # same directory; converts fixtures to Chrome form

    header = '{"schema":"ecgrid-events","version":1,"seed":"1"}'

    def health(t, events, depth=3, peak=5, slab=8):
        return json.dumps({
            "t": t, "cat": "sim", "ev": "health", "ph": "C", "node": -1,
            "args": {"events": events, "queue_depth": depth,
                     "peak_queue_depth": peak, "slab_slots": slab}})

    good = [
        header,
        '{"t":1.0,"cat":"pkt","ev":"flow","ph":"b","id":4,"node":1}',
        '{"t":1.5,"cat":"state","ev":"host","ph":"i","node":1,'
        '"args":{"gateway":true,"served_x":2,"served_y":3}}',
        '{"t":1.6,"cat":"route","ev":"fwd","ph":"i","node":1,'
        '"args":{"src":1,"dst":2,"flow":1,"seq":0,"gx":2,"gy":3}}',
        health(2.0, 16384),
        '{"t":2.5,"cat":"pkt","ev":"flow","ph":"e","id":4,"node":2}',
        health(3.0, 32768),
    ]
    _, chrome_good = trace_chrome.convert(good)  # None (invalid) on error
    chrome_health = {"name": "sim/health", "cat": "sim", "ph": "C",
                     "ts": 1.0, "pid": 1,
                     "args": {"events": 16384, "queue_depth": 1,
                              "peak_queue_depth": 2, "slab_slots": 4}}
    chrome_back = dict(chrome_health, ts=2.0,
                       args=dict(chrome_health["args"], events=1))
    chrome_missing = dict(chrome_health,
                          args={"events": 16384, "queue_depth": 1})
    fixtures = [
        ("paired span, gateway state, forward, health counters", good, True),
        ("forward record without its next grid",
         [header, '{"t":1.0,"cat":"route","ev":"fwd","ph":"i","node":1,'
          '"args":{"src":1,"dst":2,"flow":1,"seq":0}}'], False),
        ("unmatched span end",
         [header, '{"t":1.0,"cat":"pkt","ev":"flow","ph":"e","id":9,'
          '"node":1}'], False),
        ("served grid on a non-gateway record",
         [header, '{"t":1.0,"cat":"state","ev":"host","ph":"i","node":1,'
          '"args":{"gateway":false,"served_x":2,"served_y":3}}'], False),
        ("counter missing a health key",
         [header, '{"t":1.0,"cat":"sim","ev":"health","ph":"C","node":-1,'
          '"args":{"events":16384,"queue_depth":3,"peak_queue_depth":5}}'],
         False),
        ("counter events going backwards",
         [header, health(1.0, 32768), health(2.0, 16384)], False),
        ("chrome conversion of the good fixture", [json.dumps(chrome_good)],
         True),
        ("chrome counter missing a health key",
         [json.dumps({"traceEvents": [chrome_missing]})], False),
        ("chrome counter events going backwards",
         [json.dumps({"traceEvents": [chrome_health, chrome_back]})], False),
        ("retired run-health schema header",
         ['{"schema":"ecgrid-telemetry","version":1}',
          '{"kind":"summary","samples":0,"events":0}'], False),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        for index, (what, lines, valid) in enumerate(fixtures):
            path = os.path.join(scratch, f"fixture{index}.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            checker, _, _ = check_file(path)
            judged_valid = not checker.errors
            ok = judged_valid == valid
            failures += 0 if ok else 1
            verdict = "valid" if judged_valid else "invalid"
            print(f"{'ok  ' if ok else 'FAIL'} {what}: {verdict}")
    print(f"trace_check selftest: {len(fixtures) - failures}/"
          f"{len(fixtures)} checks passed")
    return 0 if failures == 0 else 1


def main(argv):
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if argv[1:] == ["--selftest"]:
        return selftest()
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
