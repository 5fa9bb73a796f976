// EventTracer — structured sim-time protocol event tracing (JSONL).
//
// An EventTracer appends one JSON object per protocol event to a file:
//
//   {"schema":"ecgrid-events","version":1,"protocol":"ECGRID","seed":"7"}
//   {"t":12.004103,"cat":"pkt","ev":"flow","ph":"b","id":4294967299,
//    "node":31,"args":{"dst":58,"bytes":512}}
//   {"t":12.051327,"cat":"mac","ev":"tx","ph":"i","node":31,
//    "args":{"hdr":"DATA","dst":17,"attempt":1}}
//
// ph follows the Chrome trace-event phase alphabet: "b"/"e" open and close
// an async span correlated by (cat, id); "i" is an instant; "C" is a
// counter sample, whose args are the values of named series and whose
// node is -1 (it describes the run, not a host). Spans may be left open
// (a packet that never arrives has no "e" — that *is* the signal), but
// every "e" must match an open "b": tools/trace_check.py validates exactly
// that, and tools/trace_chrome.py converts the file to the Chrome
// trace-event JSON that Perfetto / chrome://tracing render.
//
// The harness writes one counter record, the run-health sample, every
// harness::kHealthSampleEvents committed events:
//
//   {"t":4.012345000,"cat":"sim","ev":"health","ph":"C","node":-1,
//    "args":{"events":16384,"queue_depth":412,"peak_queue_depth":498,
//    "slab_slots":512}}
//
// Every field is engine state, none is wall time, so the health records
// replay byte-identically like the rest of the trace.
//
// Determinism: emission only formats and writes — no RNG, no scheduling,
// no clock reads beyond Simulator::now() — so tracing-on and tracing-off
// runs replay to identical state digests (gated in tests/obs_test.cpp).
// Component code should treat its tracer pointer as optional and emit
// only behind a null check; obs::tracer(sim) returns nullptr when tracing
// is off.
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <string>

#include "sim/simulator.hpp"
#include "util/ownership.hpp"

namespace ecgrid::obs {

/// One key/value argument of a trace event. Implicitly constructible from
/// the types call sites actually pass (ids, counts, seconds, flags, reason
/// strings), so emission reads as a brace list:
///   tracer->instant("mac", "drop", node, {{"reason", "retry_limit"}});
struct TraceField {
  enum class Kind : std::uint8_t { kInt, kDouble, kBool, kString };

  TraceField(const char* key, int value)
      : key(key), kind(Kind::kInt), intValue(value) {}
  TraceField(const char* key, long value)
      : key(key), kind(Kind::kInt), intValue(value) {}
  TraceField(const char* key, long long value)
      : key(key), kind(Kind::kInt), intValue(value) {}
  TraceField(const char* key, unsigned value)
      : key(key), kind(Kind::kInt), intValue(static_cast<long long>(value)) {}
  TraceField(const char* key, unsigned long value)
      : key(key), kind(Kind::kInt), intValue(static_cast<long long>(value)) {}
  TraceField(const char* key, unsigned long long value)
      : key(key), kind(Kind::kInt), intValue(static_cast<long long>(value)) {}
  TraceField(const char* key, double value)
      : key(key), kind(Kind::kDouble), doubleValue(value) {}
  TraceField(const char* key, bool value)
      : key(key), kind(Kind::kBool), intValue(value ? 1 : 0) {}
  TraceField(const char* key, const char* value)
      : key(key), kind(Kind::kString), stringValue(value) {}

  const char* key;
  Kind kind;
  long long intValue = 0;
  double doubleValue = 0.0;
  const char* stringValue = "";
};

class ECGRID_DOMAIN_PER_SCENARIO EventTracer {
 public:
  /// Opens `path` (truncated) and writes the schema header line, extended
  /// with `meta` key/value pairs (run provenance: protocol, seed, ...).
  /// Throws when the file cannot be opened.
  EventTracer(sim::Simulator& sim, const std::string& path,
              const std::map<std::string, std::string>& meta = {});
  ~EventTracer();
  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  /// Open an async span; correlated with its end() by (cat, id).
  void begin(const char* cat, const char* ev, std::uint64_t id, int node,
             std::initializer_list<TraceField> args = {});
  /// Close the matching open span.
  void end(const char* cat, const char* ev, std::uint64_t id, int node,
           std::initializer_list<TraceField> args = {});
  /// Point event.
  void instant(const char* cat, const char* ev, int node,
               std::initializer_list<TraceField> args = {});
  /// Counter sample: each arg is one series' value at now().
  void counter(const char* cat, const char* ev,
               std::initializer_list<TraceField> args);

  /// Events written so far (header line excluded).
  [[nodiscard]] std::uint64_t eventsWritten() const { return events_; }

  void flush();

 private:
  void writeLine(const char* cat, const char* ev, const char* ph,
                 const std::uint64_t* id, int node,
                 std::initializer_list<TraceField> args);

  sim::Simulator& sim_;
  std::FILE* out_ = nullptr;
  std::uint64_t events_ = 0;
};

}  // namespace ecgrid::obs
