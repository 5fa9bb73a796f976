#!/usr/bin/env python3
"""Convert an ecgrid-events JSONL trace to Chrome trace-event format.

Input: the JSONL file written by obs::EventTracer (see src/obs/trace.hpp)
— a header line {"schema":"ecgrid-events","version":1,...} followed by one
event per line:

    {"t":12.000341,"cat":"pkt","ev":"flow","ph":"b","id":42,"node":7,
     "args":{"dst":19,"bytes":512}}

Output: a Chrome/Perfetto-loadable JSON object {"traceEvents":[...]}.
Open it at https://ui.perfetto.dev (or chrome://tracing). The mapping:

  * ph "b"/"e"  -> async begin/end ("b"/"e"), paired by (cat, id). Spans
                   render as horizontal bars per category; nesting within
                   an id is preserved by the viewer.
  * ph "i"      -> instant ("i"), thread-scoped.
  * ph "C"      -> counter ("C"), one track per series: args holds the
                   series values (the sim/health run-health samples:
                   events, queue_depth, peak_queue_depth, slab_slots).
                   Counters belong to the process, so they get no tid.
  * sim time    -> ts in microseconds (Chrome's native unit), so one
                   simulated second reads as one second in the viewer.
  * node        -> tid, with pid 1 for everything. One lane per host.
  * header meta -> process_name/thread_name metadata ("M") records.

Only the Python standard library is used. Exit status is 0 on success,
1 on malformed input (first error is reported).

Usage:
    tools/trace_chrome.py events.jsonl [-o trace.json]
"""

import argparse
import json
import sys


def fail(lineno, message):
    print(f"trace_chrome: line {lineno}: {message}", file=sys.stderr)
    return 1


def convert(lines):
    """Yields (ok, result): ok=False carries (lineno, error) instead."""
    events = []
    nodes = set()
    header = None
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            return (lineno, f"invalid JSON: {exc}"), None
        if lineno == 1:
            if record.get("schema") != "ecgrid-events":
                return (lineno, "missing ecgrid-events schema header"), None
            header = record
            continue
        for key in ("t", "cat", "ev", "ph"):
            if key not in record:
                return (lineno, f"missing required key '{key}'"), None
        phase = record["ph"]
        if phase not in ("b", "e", "i", "C"):
            return (lineno, f"unknown phase '{phase}'"), None
        out = {
            "name": f"{record['cat']}/{record['ev']}",
            "cat": record["cat"],
            "ph": phase,
            "ts": record["t"] * 1e6,
            "pid": 1,
        }
        if phase != "C":
            out["tid"] = record.get("node", 0)
            nodes.add(out["tid"])
        if phase in ("b", "e"):
            if "id" not in record:
                return (lineno, "span event without an id"), None
            out["id"] = record["id"]
        elif phase == "i":
            out["s"] = "t"  # thread-scoped instant
        if "args" in record:
            out["args"] = record["args"]
        events.append(out)

    if header is None:
        return (0, "empty trace (no header line)"), None

    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": "ecgrid simulation"},
        }
    ]
    for tid in sorted(nodes):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": f"host {tid}"},
            }
        )
    return None, {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            k: v for k, v in header.items() if k not in ("schema", "version")
        },
    }


def main():
    parser = argparse.ArgumentParser(
        description="ecgrid-events JSONL -> Chrome trace-event JSON"
    )
    parser.add_argument("input", help="EventTracer JSONL file")
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="output path (default: <input>.chrome.json)",
    )
    options = parser.parse_args()

    with open(options.input, "r", encoding="utf-8") as handle:
        error, trace = convert(handle)
    if error is not None:
        return fail(*error)

    output = options.output or options.input + ".chrome.json"
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
        handle.write("\n")
    spans = sum(1 for e in trace["traceEvents"] if e["ph"] == "b")
    instants = sum(1 for e in trace["traceEvents"] if e["ph"] == "i")
    counters = sum(1 for e in trace["traceEvents"] if e["ph"] == "C")
    print(f"{output}: {spans} spans, {instants} instants, "
          f"{counters} counters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
