// Observability layer (src/obs): MetricsRegistry semantics, EventTracer
// output and span pairing, SimProfiler attribution, the null-safe inert
// helpers, and — the load-bearing guarantee — the determinism gate:
// enabling metrics, tracing, and profiling leaves a scenario's replay
// digest trace byte-identical to a bare run. Also the per-hop and
// per-reception diagnostics records (radio deaf/collision, routing,
// member relay) with their argument keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "energy/battery.hpp"
#include "harness/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"

namespace ecgrid {
namespace {

std::string tempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<std::string> readLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::size_t countHealthRecords(const std::vector<std::string>& lines) {
  return static_cast<std::size_t>(
      std::count_if(lines.begin(), lines.end(), [](const std::string& line) {
        return line.find("\"ev\":\"health\",\"ph\":\"C\"") !=
               std::string::npos;
      }));
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterFindOrCreateSharesOneCell) {
  obs::MetricsRegistry registry;
  obs::Counter a = registry.counter("mac.frames_sent");
  obs::Counter b = registry.counter("mac.frames_sent");
  a.add();
  b.add(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
  EXPECT_EQ(registry.instrumentCount(), 1u);
}

TEST(MetricsRegistry, GaugeIsLastWriteWins) {
  obs::MetricsRegistry registry;
  obs::Gauge g = registry.gauge("queue.depth");
  g.set(3.0);
  g.set(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  EXPECT_DOUBLE_EQ(registry.snapshot().at("queue.depth"), 7.5);
}

TEST(MetricsRegistry, RejectsKindCollisionsAndBadNames) {
  obs::MetricsRegistry registry;
  registry.counter("x.count");
  EXPECT_THROW(registry.gauge("x.count"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("x.count", {1.0}), std::invalid_argument);
  EXPECT_THROW(registry.counter(""), std::invalid_argument);
  EXPECT_THROW(registry.counter("has space"), std::invalid_argument);
  EXPECT_THROW(registry.counter("has\"quote"), std::invalid_argument);
}

TEST(MetricsRegistry, HistogramRequiresAscendingAndIdenticalEdges) {
  obs::MetricsRegistry registry;
  EXPECT_THROW(registry.histogram("h", {}), std::invalid_argument);
  EXPECT_THROW(registry.histogram("h", {2.0, 1.0}), std::invalid_argument);
  registry.histogram("h", {1.0, 2.0});
  EXPECT_NO_THROW(registry.histogram("h", {1.0, 2.0}));
  EXPECT_THROW(registry.histogram("h", {1.0, 3.0}), std::invalid_argument);
}

TEST(MetricsRegistry, HistogramSnapshotExpandsBinsAndPercentiles) {
  obs::MetricsRegistry registry;
  obs::Histogram h = registry.histogram("lat", {1.0, 2.0, 4.0});
  for (double v : {0.5, 0.5, 1.5, 3.0, 10.0}) h.observe(v);
  obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.at("lat.count"), 5.0);
  EXPECT_DOUBLE_EQ(snap.at("lat.sum"), 15.5);
  EXPECT_DOUBLE_EQ(snap.at("lat.mean"), 3.1);
  EXPECT_DOUBLE_EQ(snap.at("lat.min"), 0.5);
  EXPECT_DOUBLE_EQ(snap.at("lat.max"), 10.0);
  // Cumulative bucket counts, Prometheus-style.
  EXPECT_DOUBLE_EQ(snap.at("lat.le_1"), 2.0);
  EXPECT_DOUBLE_EQ(snap.at("lat.le_2"), 3.0);
  EXPECT_DOUBLE_EQ(snap.at("lat.le_4"), 4.0);
  EXPECT_DOUBLE_EQ(snap.at("lat.le_inf"), 5.0);
  // Percentiles come interpolated and clamped to the observed range.
  EXPECT_GT(snap.at("lat.p50"), 0.0);
  EXPECT_LE(snap.at("lat.p50"), snap.at("lat.p95"));
  EXPECT_LE(snap.at("lat.p95"), snap.at("lat.p99"));
  EXPECT_LE(snap.at("lat.p99"), 10.0);
}

TEST(MetricsRegistry, HistogramEdgeFactories) {
  std::vector<double> linear = obs::Histogram::linearEdges(0.0, 1.0, 4);
  ASSERT_EQ(linear.size(), 4u);
  EXPECT_DOUBLE_EQ(linear[0], 0.25);
  EXPECT_DOUBLE_EQ(linear[3], 1.0);
  std::vector<double> expo = obs::Histogram::exponentialEdges(1.0, 2.0, 3);
  ASSERT_EQ(expo.size(), 3u);
  EXPECT_DOUBLE_EQ(expo[2], 4.0);
}

TEST(MetricsRegistry, InertHandlesAreSafeNoOps) {
  obs::Counter counter;
  obs::Gauge gauge;
  obs::Histogram histogram;
  counter.add(10);
  gauge.set(1.0);
  histogram.observe(2.0);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.percentile(50.0), 0.0);
}

TEST(ObsHelpers, ReturnInertHandlesWithoutAHub) {
  sim::Simulator simulator(1);
  obs::Counter counter = obs::counter(simulator, "a.b");
  counter.add();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(obs::tracer(simulator), nullptr);
  EXPECT_EQ(obs::of(simulator), nullptr);
}

TEST(ObsHelpers, ResolveAgainstTheInstalledHub) {
  sim::Simulator simulator(1);
  obs::Observability hub(simulator);
  obs::Counter viaSim = obs::counter(simulator, "a.b");
  viaSim.add(3);
  EXPECT_EQ(hub.metrics().counter("a.b").value(), 3u);
  EXPECT_EQ(obs::of(simulator), &hub);
}

// ---------------------------------------------------------------------------
// EventTracer
// ---------------------------------------------------------------------------

TEST(EventTracer, WritesHeaderSpansAndInstants) {
  sim::Simulator simulator(1);
  std::string path = tempPath("ecgrid_obs_trace.jsonl");
  {
    obs::EventTracer tracer(simulator, path, {{"protocol", "ECGRID"}});
    simulator.schedule(1.5, [&] {
      tracer.begin("pkt", "flow", 42, 7, {{"dst", 19}, {"bytes", 512}});
      tracer.instant("mac", "drop", 7,
                     {{"reason", "retry_limit"}, {"delay_s", 0.25}});
    });
    simulator.schedule(2.5, [&] { tracer.end("pkt", "flow", 42, 9); });
    simulator.run();
    EXPECT_EQ(tracer.eventsWritten(), 3u);
    tracer.flush();
  }
  std::vector<std::string> lines = readLines(path);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"schema\":\"ecgrid-events\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"version\":1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"protocol\":\"ECGRID\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"t\":1.500000000"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":42"), std::string::npos);
  EXPECT_NE(lines[1].find("\"args\":{\"dst\":19,\"bytes\":512}"),
            std::string::npos);
  EXPECT_NE(lines[2].find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"reason\":\"retry_limit\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"delay_s\":0.25"), std::string::npos);
  EXPECT_NE(lines[3].find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"node\":9"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(EventTracer, ThrowsWhenFileCannotOpen) {
  sim::Simulator simulator(1);
  EXPECT_THROW(
      obs::EventTracer tracer(simulator, "/nonexistent-dir/trace.jsonl"),
      std::invalid_argument);
}

// Every "e" in a full scenario trace must close an open (cat, id) span —
// the invariant tools/trace_check.py enforces, checked here natively so
// the C++ suite catches a pairing regression without Python in the loop.
// The run-health counter records land exactly every kHealthSampleEvents
// committed events and stay within the run's high-water marks.
TEST(EventTracer, ScenarioTraceKeepsSpansPaired) {
  std::string path = tempPath("ecgrid_obs_pairing.jsonl");
  harness::ScenarioConfig config;
  config.hostCount = 30;
  config.flowCount = 2;
  config.packetsPerSecondPerFlow = 4.0;
  config.duration = 40.0;
  config.seed = 5;
  config.eventTracePath = path;
  harness::ScenarioResult result = harness::runScenario(config);
  EXPECT_GT(result.traceEventsWritten, 100u);

  std::vector<std::string> lines = readLines(path);
  ASSERT_EQ(lines.size(), result.traceEventsWritten + 1);
  std::map<std::pair<std::string, std::string>, int> open;
  int begins = 0;
  int ends = 0;
  std::uint64_t healthRecords = 0;
  std::uint64_t lastSlabSlots = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    auto field = [&line](const char* key) {
      std::size_t at = line.find(key);
      EXPECT_NE(at, std::string::npos) << line;
      at += std::string(key).size();
      return line.substr(at, line.find_first_of(",}", at) - at);
    };
    auto number = [&field](const char* key) {
      return std::stoull(field(key));
    };
    std::string phase = field("\"ph\":\"");
    phase = phase.substr(0, phase.find('"'));
    if (phase == "i") continue;
    if (phase == "C") {
      ++healthRecords;
      EXPECT_NE(line.find("\"cat\":\"sim\",\"ev\":\"health\""),
                std::string::npos)
          << line;
      EXPECT_EQ(field("\"node\":"), "-1") << line;
      EXPECT_EQ(number("\"events\":"),
                healthRecords * harness::kHealthSampleEvents)
          << line;
      const std::uint64_t depth = number("\"queue_depth\":");
      const std::uint64_t peak = number("\"peak_queue_depth\":");
      const std::uint64_t slab = number("\"slab_slots\":");
      EXPECT_LE(depth, peak) << line;
      EXPECT_LE(peak, result.peakQueueDepth) << line;
      EXPECT_GE(slab, lastSlabSlots) << line;
      lastSlabSlots = slab;
      continue;
    }
    auto key = std::make_pair(field("\"cat\":\""), field("\"id\":"));
    if (phase == "b") {
      ++begins;
      ++open[key];
    } else {
      ASSERT_EQ(phase, "e") << line;
      ++ends;
      ASSERT_GT(open[key], 0) << "unmatched end: " << line;
      --open[key];
    }
  }
  EXPECT_GT(begins, 0);
  EXPECT_GT(ends, 0);
  EXPECT_GE(begins, ends);  // open spans at the horizon are legal
  EXPECT_GT(healthRecords, 0u);
  EXPECT_EQ(healthRecords,
            result.eventsExecuted / harness::kHealthSampleEvents);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Diagnostics records: each one's category, event and argument keys
// (tools/trace_check.py requires the same keys)
// ---------------------------------------------------------------------------

using RecordKey = std::pair<std::string, std::string>;  // (cat, ev)

const std::map<RecordKey, std::vector<std::string>>& diagnosticArgKeys() {
  static const std::map<RecordKey, std::vector<std::string>> keys = {
      {{"phy", "deaf"}, {"at", "hdr", "src", "state"}},
      {{"phy", "collision"}, {"at", "hdr", "src"}},
      {{"route", "local"}, {"dst", "flow", "seq", "src"}},
      {{"route", "fwd"}, {"dst", "flow", "gx", "gy", "seq", "src"}},
      {{"route", "non_router_drop"}, {"dst", "flow", "seq", "src"}},
      {{"route", "buffer"}, {"dst", "flow", "seq", "src"}},
      {{"route", "rreq_relay"}, {"dst", "hop", "src"}},
      {{"route", "rrep_no_reverse"}, {"dst", "gx", "gy", "src"}},
      {{"grid", "member_relay"}, {"dst", "flow", "seq", "src", "to"}},
      {{"grid", "member_drop"}, {"dst", "flow", "from", "gw", "seq", "src"}},
      {{"grid", "retire"}, {"cause", "gx", "gy"}},
  };
  return keys;
}

/// Every record of a trace file (header line skipped), parsed.
std::vector<util::JsonValue> readRecords(const std::string& path) {
  std::vector<std::string> lines = readLines(path);
  std::vector<util::JsonValue> records;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    records.push_back(util::parseJson(lines[i]));
  }
  return records;
}

RecordKey keyOf(const util::JsonValue& record) {
  return {record.find("cat")->asString(), record.find("ev")->asString()};
}

/// A diagnostics record is an instant carrying exactly its argument keys.
void expectDiagnosticShape(const util::JsonValue& record) {
  EXPECT_EQ(record.find("ph")->asString(), "i") << record.dump();
  std::vector<std::string> argKeys;
  if (const util::JsonValue* args = record.find("args")) {
    for (const auto& [name, value] : args->asObject()) {
      argKeys.push_back(name);
    }
  }
  EXPECT_EQ(argKeys, diagnosticArgKeys().at(keyOf(record))) << record.dump();
}

/// The records of one diagnostics (cat, ev), each shape-checked.
std::vector<util::JsonValue> diagnostics(
    const std::vector<util::JsonValue>& records, const RecordKey& key) {
  std::vector<util::JsonValue> matching;
  for (const util::JsonValue& record : records) {
    if (keyOf(record) != key) continue;
    expectDiagnosticShape(record);
    matching.push_back(record);
  }
  return matching;
}

double numberArg(const util::JsonValue& record, const char* name) {
  return record.find("args")->find(name)->asNumber();
}

std::string stringArg(const util::JsonValue& record, const char* name) {
  return record.find("args")->find(name)->asString();
}

class StubHeader final : public net::Header {
 public:
  int bytes() const override { return 66; }
  const char* name() const override { return "STUB"; }
};

net::Packet stubFrame(net::NodeId src, net::NodeId dst) {
  net::Packet frame;
  frame.macSrc = src;
  frame.macDst = dst;
  frame.header = std::make_shared<StubHeader>();
  return frame;
}

/// Radios on one line of a channel, traced through an Observability hub.
struct TracedChannelRig {
  sim::Simulator simulator{1};
  obs::Observability hub{simulator};
  phy::Channel channel{simulator, phy::ChannelConfig{}};
  std::vector<std::unique_ptr<energy::Battery>> batteries;
  std::vector<std::unique_ptr<phy::Radio>> radios;

  TracedChannelRig(const std::string& path, const std::vector<double>& xs) {
    hub.openTrace(path);
    for (double x : xs) {
      const auto id = static_cast<net::NodeId>(radios.size());
      batteries.push_back(std::make_unique<energy::Battery>(500.0));
      radios.push_back(std::make_unique<phy::Radio>(
          simulator, *batteries.back(), energy::PowerProfile{}, id));
      radios.back()->attachChannel(&channel);
      channel.attach(radios.back().get(), [x] { return geo::Vec2{x, 0.0}; });
    }
  }

  std::vector<util::JsonValue> finish(const std::string& path) {
    hub.tracer()->flush();
    return readRecords(path);
  }
};

// A unicast whose start lands on a radio that began transmitting while
// the frame was in flight is lost; the receiver's phy/deaf instant names
// the sender, the frame, the state it was deaf in and the start time.
TEST(DiagnosticsTrace, RadioRecordsAUnicastItWasDeafTo) {
  const std::string path = tempPath("ecgrid_obs_deaf.jsonl");
  TracedChannelRig rig(path, {0.0, 150.0});
  const double flight = 150.0 / phy::ChannelConfig{}.propagationSpeed;
  rig.radios[0]->transmit(stubFrame(0, 1), 1e-3);
  rig.simulator.schedule(flight / 2.0, [&] {
    rig.radios[1]->transmit(stubFrame(1, 99), 2e-3);
  });
  rig.simulator.run(1.0);
  std::vector<util::JsonValue> deaf =
      diagnostics(rig.finish(path), {"phy", "deaf"});
  ASSERT_EQ(deaf.size(), 1u);
  EXPECT_EQ(deaf[0].find("node")->asNumber(), 1.0);
  EXPECT_EQ(numberArg(deaf[0], "src"), 0.0);
  EXPECT_EQ(stringArg(deaf[0], "hdr"), "STUB");
  EXPECT_EQ(stringArg(deaf[0], "state"), "tx");
  EXPECT_DOUBLE_EQ(numberArg(deaf[0], "at"), flight);
  std::filesystem::remove(path);
}

// Two hidden terminals unicast to the radio between them: the second
// arrival collides with the first, and the receiver records it.
TEST(DiagnosticsTrace, RadioRecordsACollisionOnAUnicast) {
  const std::string path = tempPath("ecgrid_obs_collision.jsonl");
  TracedChannelRig rig(path, {0.0, 240.0, 480.0});
  const double flight = 240.0 / phy::ChannelConfig{}.propagationSpeed;
  rig.radios[0]->transmit(stubFrame(0, 1), 2e-3);
  rig.simulator.schedule(0.5e-3, [&] {
    rig.radios[2]->transmit(stubFrame(2, 1), 2e-3);
  });
  rig.simulator.run(1.0);
  std::vector<util::JsonValue> collisions =
      diagnostics(rig.finish(path), {"phy", "collision"});
  ASSERT_EQ(collisions.size(), 1u);
  EXPECT_EQ(collisions[0].find("node")->asNumber(), 1.0);
  EXPECT_EQ(numberArg(collisions[0], "src"), 2.0);
  EXPECT_EQ(stringArg(collisions[0], "hdr"), "STUB");
  EXPECT_DOUBLE_EQ(numberArg(collisions[0], "at"), 0.5e-3 + flight);
  std::filesystem::remove(path);
}

// Double arguments are written at round-trip precision: the start of a
// collided arrival at t = 300 s parses back to exactly the sender's
// transmit instant plus the flight, to the last bit.
TEST(DiagnosticsTrace, CollisionStartParsesBackExactly) {
  const std::string path = tempPath("ecgrid_obs_collision_late.jsonl");
  TracedChannelRig rig(path, {0.0, 240.0, 480.0});
  const double flight = 240.0 / phy::ChannelConfig{}.propagationSpeed;
  const sim::Time firstAt = 300.000000123;
  const sim::Time secondAt = firstAt + 0.5e-3;
  rig.simulator.scheduleAt(firstAt, [&] {
    rig.radios[0]->transmit(stubFrame(0, 1), 2e-3);
  });
  rig.simulator.scheduleAt(secondAt, [&] {
    rig.radios[2]->transmit(stubFrame(2, 1), 2e-3);
  });
  rig.simulator.run(301.0);
  std::vector<util::JsonValue> collisions =
      diagnostics(rig.finish(path), {"phy", "collision"});
  ASSERT_EQ(collisions.size(), 1u);
  EXPECT_EQ(numberArg(collisions[0], "at"), secondAt + flight);
  std::filesystem::remove(path);
}

// A routed scenario buffers data while a route is discovered and then
// forwards it hop by hop; every diagnostics record present carries its
// argument keys, and a forward's flow/seq name a packet whose pkt/flow
// span the trace opened.
TEST(DiagnosticsTrace, ScenarioRecordsBufferAndForwardPerHop) {
  harness::ScenarioConfig config;
  config.protocol = harness::ProtocolKind::kGrid;
  config.hostCount = 30;
  config.flowCount = 2;
  config.packetsPerSecondPerFlow = 4.0;
  config.duration = 40.0;
  config.seed = 5;
  config.eventTracePath = tempPath("ecgrid_obs_route_records.jsonl");
  harness::runScenario(config);
  const std::vector<util::JsonValue> records =
      readRecords(config.eventTracePath);

  for (const util::JsonValue& record : records) {
    if (diagnosticArgKeys().count(keyOf(record)) > 0) {
      expectDiagnosticShape(record);
    }
  }
  const std::vector<util::JsonValue> buffered =
      diagnostics(records, {"route", "buffer"});
  const std::vector<util::JsonValue> forwarded =
      diagnostics(records, {"route", "fwd"});
  EXPECT_FALSE(buffered.empty());
  ASSERT_FALSE(forwarded.empty());

  std::set<std::pair<double, double>> flowSpans;  // (flow, seq)
  for (const util::JsonValue& record : records) {
    if (keyOf(record) == RecordKey{"pkt", "flow"} &&
        record.find("ph")->asString() == "b") {
      flowSpans.insert({numberArg(record, "flow"), numberArg(record, "seq")});
    }
  }
  for (const util::JsonValue& record : forwarded) {
    EXPECT_EQ(flowSpans.count(
                  {numberArg(record, "flow"), numberArg(record, "seq")}),
              1u)
        << record.dump();
  }
  std::filesystem::remove(config.eventTracePath);
}

// ---------------------------------------------------------------------------
// SimProfiler
// ---------------------------------------------------------------------------

TEST(SimProfiler, AttributesEventsToScheduleLabels) {
  sim::Simulator simulator(1);
  obs::Observability hub(simulator);
  hub.enableProfiler();
  // Four sampling periods: ticks fill all but the last two events.
  constexpr std::uint64_t kEvents =
      4 * obs::SimProfiler::kQueueSampleEveryEvents;
  for (std::uint64_t i = 0; i + 2 < kEvents; ++i) {
    simulator.schedule(1.0 + static_cast<double>(i) * 1e-3, [] {},
                       "test/tick");
  }
  simulator.schedule(10.0, [] {}, "test/other");
  simulator.schedule(11.0, [] {});  // unlabeled
  simulator.run();

  obs::SimProfiler* profiler = hub.profiler();
  ASSERT_NE(profiler, nullptr);
  EXPECT_EQ(profiler->eventsObserved(), kEvents);
  auto byLabel = profiler->byLabel();
  EXPECT_EQ(byLabel.at("test/tick").count, kEvents - 2);
  EXPECT_EQ(byLabel.at("test/other").count, 1u);
  ASSERT_TRUE(byLabel.count("unlabeled"));
  EXPECT_EQ(byLabel.at("unlabeled").count, 1u);
  EXPECT_GE(profiler->totalWallSeconds(), 0.0);
  // One queue-depth sample per kQueueSampleEveryEvents events.
  EXPECT_EQ(profiler->queueDepthSamples().size(), 4u);

  obs::MetricsRegistry registry;
  profiler->mergeInto(registry);
  obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.at("profile.events.test.tick.count"),
                   static_cast<double>(kEvents - 2));
  EXPECT_DOUBLE_EQ(snap.at("profile.events_total"),
                   static_cast<double>(kEvents));
  EXPECT_GE(snap.at("profile.wall_s_total"), 0.0);
}

// ---------------------------------------------------------------------------
// Harness integration + the determinism gate
// ---------------------------------------------------------------------------

harness::ScenarioConfig gateBase() {
  harness::ScenarioConfig config;
  config.hostCount = 30;
  config.flowCount = 2;
  config.packetsPerSecondPerFlow = 4.0;
  config.duration = 60.0;
  config.seed = 21;
  config.digestEveryEvents = 1000;
  return config;
}

TEST(ScenarioMetrics, SnapshotCoversEveryLayer) {
  harness::ScenarioConfig config = gateBase();
  config.digestEveryEvents = 0;
  harness::ScenarioResult result = harness::runScenario(config);
  const obs::MetricsSnapshot& m = result.metrics;
  // One representative name per instrumented layer.
  EXPECT_GT(m.at("phy.frames_transmitted"), 0.0);
  EXPECT_GT(m.at("mac.frames_sent"), 0.0);
  EXPECT_GT(m.at("routing.data_forwarded"), 0.0);
  EXPECT_GT(m.at("grid.elections.started"), 0.0);
  EXPECT_GT(m.at("ecgrid.sleeps"), 0.0);
  EXPECT_GT(m.at("traffic.packets_sent"), 0.0);
  // The e2e latency histogram mirrors the raw latency vector, and its
  // bench-facing p99 matches the exact percentile within bin resolution.
  EXPECT_DOUBLE_EQ(m.at("e2e.latency_s.count"),
                   static_cast<double>(result.latencies.size()));
  EXPECT_GT(result.p99LatencySeconds, 0.0);
  // The post-run traffic counters agree with the accounting fields.
  EXPECT_DOUBLE_EQ(m.at("traffic.packets_sent"),
                   static_cast<double>(result.packetsSent));
  EXPECT_DOUBLE_EQ(m.at("traffic.packets_received"),
                   static_cast<double>(result.packetsReceived));
  // Profiling was off: no wall-clock-derived entries in the snapshot.
  for (const auto& [name, value] : m) {
    EXPECT_NE(name.rfind("profile.", 0), 0u) << name;
  }
}

TEST(ScenarioMetrics, ProfiledRunReportsDispatchAndQueueDepth) {
  harness::ScenarioConfig config = gateBase();
  config.digestEveryEvents = 0;
  config.duration = 30.0;
  config.profileSimulator = true;
  harness::ScenarioResult result = harness::runScenario(config);
  EXPECT_DOUBLE_EQ(result.metrics.at("profile.events_total"),
                   static_cast<double>(result.eventsExecuted));
  EXPECT_GT(result.metrics.at("profile.events.mac.access.count"), 0.0);
  EXPECT_EQ(result.queueDepthSamples.size(),
            result.eventsExecuted / obs::SimProfiler::kQueueSampleEveryEvents);
}

// The gate: metrics + tracing + profiling enabled must replay to the
// exact digest trace of a bare run. Observability observes; it never
// draws RNG, schedules, or reorders — this is the PR's core invariant.
TEST(ObservabilityDeterminismGate, TracingAndProfilingLeaveDigestsIdentical) {
  harness::ScenarioResult plain = harness::runScenario(gateBase());

  harness::ScenarioConfig instrumented = gateBase();
  instrumented.eventTracePath = tempPath("ecgrid_obs_gate.jsonl");
  instrumented.profileSimulator = true;
  harness::ScenarioResult traced = harness::runScenario(instrumented);
  EXPECT_GT(traced.traceEventsWritten, 0u);
  EXPECT_GT(countHealthRecords(readLines(instrumented.eventTracePath)), 0u);

  ASSERT_FALSE(plain.digestTrace.empty());
  ASSERT_EQ(plain.digestTrace.size(), traced.digestTrace.size());
  for (std::size_t i = 0; i < plain.digestTrace.size(); ++i) {
    EXPECT_EQ(plain.digestTrace[i].digest, traced.digestTrace[i].digest)
        << "digest diverged at sample " << i << " (t="
        << plain.digestTrace[i].at << ")";
    EXPECT_EQ(plain.digestTrace[i].eventsExecuted,
              traced.digestTrace[i].eventsExecuted);
  }
  EXPECT_EQ(plain.eventsExecuted, traced.eventsExecuted);
  EXPECT_EQ(plain.packetsReceived, traced.packetsReceived);
  std::filesystem::remove(instrumented.eventTracePath);
}

// Two identical instrumented runs also produce byte-identical trace files
// (sim-time stamps, no wall-clock leakage into the JSONL).
TEST(ObservabilityDeterminismGate, TraceFilesReplayByteIdentical) {
  harness::ScenarioConfig config = gateBase();
  config.digestEveryEvents = 0;
  config.duration = 30.0;
  config.eventTracePath = tempPath("ecgrid_obs_replay_a.jsonl");
  harness::runScenario(config);
  std::string pathA = config.eventTracePath;
  config.eventTracePath = tempPath("ecgrid_obs_replay_b.jsonl");
  harness::runScenario(config);

  std::vector<std::string> a = readLines(pathA);
  std::vector<std::string> b = readLines(config.eventTracePath);
  ASSERT_FALSE(a.empty());
  EXPECT_GT(countHealthRecords(a), 0u);  // health records replay too
  EXPECT_EQ(a, b);
  std::filesystem::remove(pathA);
  std::filesystem::remove(config.eventTracePath);
}

}  // namespace
}  // namespace ecgrid
