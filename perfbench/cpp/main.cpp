// perfbench — the simulator benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--out-dir DIR] [--git-sha SHA]
//   perfbench --selftest
//   perfbench --workload NAME --seed N --describe   (provenance only)
//
// The workload's scenario list is sized to about S wall seconds. --trace 0
// runs it once with the profiler off and reports the end-to-end metrics.
// --trace 1 runs it untraced and then profiled, checks that the two agree
// on every deterministic counter, runs the layer probes, and reports the
// per-layer metrics. Both modes print a provenance line, one line per
// metric, and, last, one JSON object {"correct", "attempted", "failed",
// "metrics"}; with --out-dir they also write provenance, metrics, the
// label -> layer map, per-label profile, per-scenario outputs, failures
// and spans to DIR/<workload>-seed<N>-trace<k>.json.
//
// Timing metrics are refused from an unoptimised build (only --smoke and
// --selftest run there).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {
namespace {

using ecgrid::harness::ScenarioConfig;

#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
  bool selftest = false;
  bool describe = false;
  std::string outDir;
  std::string gitSha = "unknown";
};

Options parseOptions(int argc, char** argv) {
  Options options;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      options.workload = value(i);
    } else if (arg == "--seed") {
      options.seed = std::stoull(value(i));
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value(i));
    } else if (arg == "--trace") {
      options.trace = std::stoi(value(i));
    } else if (arg == "--out-dir") {
      options.outDir = value(i);
    } else if (arg == "--git-sha") {
      options.gitSha = value(i);
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--selftest") {
      options.selftest = true;
    } else if (arg == "--describe") {
      options.describe = true;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (options.selftest) return options;
  if (options.workload.empty()) throw std::invalid_argument("--workload required");
  if (options.trace != 0 && options.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return options;
}

// ---- small helpers ----------------------------------------------------------

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(v) ? v : 0.0);
  return buffer;
}

double peakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Σ of one deterministic counter over a pass.
double counterSum(const Pass& pass, const std::string& name) {
  double sum = 0.0;
  for (const ScenarioRun& run : pass.runs) {
    if (auto it = run.counters.find(name); it != run.counters.end()) {
      sum += it->second;
    }
  }
  return sum;
}

double counterMax(const Pass& pass, const std::string& name) {
  double best = 0.0;
  for (const ScenarioRun& run : pass.runs) {
    if (auto it = run.counters.find(name); it != run.counters.end()) {
      best = std::max(best, it->second);
    }
  }
  return best;
}

struct LabelProfile {
  double count = 0.0;
  double wallSeconds = 0.0;
};

/// The profiler's profile.events.<label>.{count,wall_s} summed over a
/// traced pass, by label.
std::map<std::string, LabelProfile> profileByLabel(const Pass& traced) {
  const std::string head = "profile.events.";
  std::map<std::string, LabelProfile> labels;
  for (const ScenarioRun& run : traced.runs) {
    for (const auto& [name, value] : run.profile) {
      if (name.compare(0, head.size(), head) != 0) continue;
      const std::size_t dot = name.rfind('.');
      LabelProfile& label = labels[name.substr(head.size(), dot - head.size())];
      const std::string suffix = name.substr(dot + 1);
      if (suffix == "count") label.count += value;
      if (suffix == "wall_s") label.wallSeconds += value;
    }
  }
  return labels;
}

// ---- metric tables -----------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// referenceSeconds() at the host speed wall-clock metrics are quoted
/// for: about that of a quiet 4-vCPU Xeon VM at 2 GHz (gcc 12 -O2), where
/// the reference took 23-37 ms. A scale factor only; both commits of a
/// comparison use the same one.
constexpr double kReferenceNominalSeconds = 0.025;

/// Wall-clock metrics are steadied against the two things besides the
/// simulator that move them: the shared host (see referenceSeconds) and
/// the seed, which moves a scenario's event count by up to 2x. Per
/// protocol, each scenario's run-loop wall is divided by its event count
/// and by the reference timed around it; the median of that over the
/// list's seeds, times the mean event count and kReferenceNominalSeconds,
/// estimates one scenario's run loop at the nominal host speed.
/// sim_s_per_wall_s is Σ horizon / Σ those estimates over protocols, and
/// setup_s is Σ median (setup / reference) × kReferenceNominalSeconds.
/// Model outputs are sums over the whole list.
std::vector<Metric> endToEnd(const Pass& pass) {
  struct Shape {
    double horizon = 0.0;
    double events = 0.0;
    std::vector<double> runPerEvent;  // reference units per event
    std::vector<double> setup;        // reference units
  };
  std::map<std::string, Shape> shapes;  // by protocol
  for (const ScenarioRun& run : pass.runs) {
    const auto it = run.counters.find("result.events");
    const double events =
        it != run.counters.end() ? std::max(it->second, 1.0) : 1.0;
    Shape& shape = shapes[run.protocol];
    shape.horizon = run.horizon;
    shape.events += events;
    shape.runPerEvent.push_back(run.runWall / (events * run.reference));
    shape.setup.push_back((run.callWall - run.runWall) / run.reference);
  }
  double horizon = 0.0;
  double runWall = 0.0;
  double setup = 0.0;
  for (const auto& [protocol, shape] : shapes) {
    const double meanEvents =
        shape.events / static_cast<double>(shape.runPerEvent.size());
    horizon += shape.horizon;
    runWall += meanEvents * median(shape.runPerEvent) * kReferenceNominalSeconds;
    setup += median(shape.setup) * kReferenceNominalSeconds;
  }
  const double received = counterSum(pass, "result.packets_received");
  return {
      {"sim_s_per_wall_s", "sim-s/wall-s", ratio(horizon, runWall)},
      {"setup_s", "s", setup},
      {"peak_rss_mib", "MiB", peakRssMib()},
      {"delivery_ratio", "ratio",
       ratio(received, counterSum(pass, "result.packets_sent"))},
      {"energy_j_per_delivered_pkt", "J/pkt",
       ratio(counterSum(pass, "result.energy_j"), received)},
  };
}

/// Per-layer metrics from an untraced pass and a traced pass of the same
/// scenarios; probe and failure metrics are appended by the caller.
std::vector<Metric> perLayer(const Pass& untraced, const Pass& traced) {
  auto c = [&](const std::string& name) { return counterSum(untraced, name); };
  std::map<std::string, LabelProfile> labels = profileByLabel(traced);
  auto count = [&](const std::string& label) { return labels[label].count; };
  std::map<std::string, double> busy;  // wall seconds by layer
  double attributed = 0.0;
  for (const auto& [label, profile] : labels) {
    const std::string layer = layerOfLabel(label);
    busy[layer] += profile.wallSeconds;
    if (!layer.empty()) attributed += profile.wallSeconds;
  }
  const double frames = c("phy.frames_transmitted");
  const double deliveries = c("phy.deliveries_scheduled");
  const double macSent = c("mac.frames_sent");
  const double macDropped = c("mac.frames_dropped");
  const double elections = c("grid.elections.started");
  const double discoveries = c("routing.discoveries_started");
  const double pagesSent = c("paging.pages_sent");
  return {
      {"sim.events", "count", c("result.events")},
      {"sim.events_per_wall_s", "1/s", ratio(c("result.events"), untraced.runWall())},
      {"sim.peak_queue_depth", "count", counterMax(untraced, "result.peak_queue_depth")},
      {"sim.slab_slots", "count", counterMax(untraced, "result.slab_slots")},
      {"phy.frames", "count", frames},
      {"phy.deliveries", "count", deliveries},
      {"phy.deliveries_per_frame", "ratio", ratio(deliveries, frames)},
      {"phy.rx_per_delivery", "ratio", ratio(count("phy.rx_end"), count("phy.deliver"))},
      {"phy.busy_s", "s", busy["phy"]},
      {"paging.pages_sent", "count", pagesSent},
      {"paging.page_delivery_ratio", "ratio", ratio(c("paging.pages_delivered"), pagesSent)},
      {"mac.frames_sent", "count", macSent},
      {"mac.drop_ratio", "ratio", ratio(macDropped, macSent + macDropped)},
      {"mac.retransmissions", "count", c("mac.retransmissions")},
      {"mac.busy_s", "s", busy["mac"]},
      {"routing.discoveries", "count", discoveries},
      {"routing.discovery_failure_ratio", "ratio",
       ratio(c("routing.discoveries_failed"), discoveries)},
      {"routing.rreqs", "count", c("routing.rreqs_sent")},
      {"routing.data_forwarded", "count", c("routing.data_forwarded")},
      {"routing.busy_s", "s", busy["routing"]},
      {"protocols.elections", "count", elections},
      {"protocols.election_win_ratio", "ratio", ratio(c("grid.elections.won"), elections)},
      {"protocols.retires", "count", c("grid.retires")},
      {"protocols.busy_s", "s", busy["protocols"]},
      {"core.sleeps", "count", c("ecgrid.sleeps")},
      {"core.wakes", "count", c("ecgrid.wakes")},
      {"core.busy_s", "s", busy["core"]},
      {"energy.deaths", "count", c("energy.deaths")},
      {"energy.depletion_events", "count", count("phy.battery")},
      {"energy.busy_s", "s", busy["energy"]},
      {"mobility.cell_exits", "count", count("mobility.cell_exit")},
      {"mobility.busy_s", "s", busy["mobility"]},
      {"traffic.busy_s", "s", busy["traffic"]},
      {"stats.busy_s", "s", busy["stats"]},
      {"obs.profile_overhead_ratio", "ratio", ratio(traced.runWall(), untraced.runWall())},
      {"obs.unattributed_share", "ratio", 1.0 - ratio(attributed, traced.runWall())},
  };
}

// ---- provenance and artifacts ----------------------------------------------------

std::string provenanceJson(const Options& options,
                           const std::vector<ScenarioConfig>& scenarios) {
  std::string out = "{\"compiler\": " + jsonString(kCompiler) +
                    ", \"optimized\": " + (kOptimized ? "true" : "false") +
                    ", \"ndebug\": " + (kNdebug ? "true" : "false") +
                    ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                    ", \"git_sha\": " + jsonString(options.gitSha) +
                    ", \"workload\": " + jsonString(options.workload) +
                    ", \"seed\": " + std::to_string(options.seed) +
                    ", \"seconds\": " + jsonNumber(options.seconds) +
                    ", \"trace\": " + std::to_string(options.trace) +
                    ", \"smoke\": " + (options.smoke ? "true" : "false") +
                    ", \"scenarios\": [";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioConfig& s = scenarios[i];
    out += std::string(i == 0 ? "" : ", ") + "{\"protocol\": " +
           jsonString(ecgrid::harness::toString(s.protocol)) +
           ", \"hosts\": " + std::to_string(s.hostCount) +
           ", \"field_m\": " + jsonNumber(s.fieldSize) +
           ", \"flows\": " + std::to_string(s.flowCount) +
           ", \"pps_per_flow\": " + jsonNumber(s.packetsPerSecondPerFlow) +
           ", \"payload_bytes\": " + std::to_string(s.payloadBytes) +
           ", \"max_speed\": " + jsonNumber(s.maxSpeed) +
           ", \"battery_j\": " + jsonNumber(s.batteryCapacityJ) +
           ", \"horizon_s\": " + jsonNumber(s.duration) +
           ", \"seed\": " + std::to_string(s.seed) + "}";
  }
  return out + "]}";
}

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += std::string(i == 0 ? "" : ", ") + jsonString(metrics[i].name) +
           ": {\"value\": " + jsonNumber(metrics[i].value) +
           ", \"unit\": " + jsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

void writeArtifact(const Options& options, const std::string& provenance,
                   const std::vector<Metric>& metrics, const Pass& untraced,
                   const Pass* traced, const SpanLog& spans,
                   const std::vector<std::string>& failures) {
  if (options.outDir.empty()) return;
  std::filesystem::create_directories(options.outDir);
  const std::string path = options.outDir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           std::to_string(options.trace) + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n\"provenance\": %s,\n\"metrics\": %s,\n",
               provenance.c_str(), metricsJson(metrics).c_str());
  std::fprintf(out, "\"label_layers\": {");
  for (std::size_t i = 0; i < labelLayers().size(); ++i) {
    std::fprintf(out, "%s%s: %s", i == 0 ? "" : ", ",
                 jsonString(labelLayers()[i].first).c_str(),
                 jsonString(labelLayers()[i].second).c_str());
  }
  std::fprintf(out, "},\n\"profile_labels\": {");
  if (traced != nullptr) {
    std::size_t i = 0;
    for (const auto& [label, profile] : profileByLabel(*traced)) {
      std::fprintf(out, "%s\n %s: {\"layer\": %s, \"count\": %s, \"wall_s\": %s}",
                   i++ == 0 ? "" : ",", jsonString(label).c_str(),
                   jsonString(layerOfLabel(label)).c_str(),
                   jsonNumber(profile.count).c_str(),
                   jsonNumber(profile.wallSeconds).c_str());
    }
  }
  std::fprintf(out, "},\n\"scenarios\": [");
  for (std::size_t i = 0; i < untraced.runs.size(); ++i) {
    const ScenarioRun& run = untraced.runs[i];
    auto counter = [&run](const char* name) {
      auto it = run.counters.find(name);
      return jsonNumber(it != run.counters.end() ? it->second : 0.0);
    };
    std::fprintf(out,
                 "%s\n {\"protocol\": %s, \"seed\": %llu, \"ok\": %s, "
                 "\"horizon_s\": %s, \"run_wall_s\": %s, \"setup_s\": %s, "
                 "\"reference_s\": %s, "
                 "\"events\": %s, \"sent\": %s, \"received\": %s, "
                 "\"energy_j\": %s}",
                 i == 0 ? "" : ",", jsonString(run.protocol).c_str(),
                 static_cast<unsigned long long>(run.seed), run.ok ? "true" : "false",
                 jsonNumber(run.horizon).c_str(), jsonNumber(run.runWall).c_str(),
                 jsonNumber(run.callWall - run.runWall).c_str(),
                 jsonNumber(run.reference).c_str(),
                 counter("result.events").c_str(), counter("result.packets_sent").c_str(),
                 counter("result.packets_received").c_str(),
                 counter("result.energy_j").c_str());
  }
  std::fprintf(out, "\n],\n\"failures\": [");
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::fprintf(out, "%s%s", i == 0 ? "" : ", ", jsonString(failures[i]).c_str());
  }
  std::fprintf(out, "],\n\"spans\": [");
  const auto& all = spans.spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanLog::Span& s = all[i];
    std::string args;
    for (const auto& [key, value] : s.args) {
      args += (args.empty() ? "" : ", ") + jsonString(key) + ": " + jsonString(value);
    }
    const std::string when =
        s.start < 0.0 ? "\"derived\": true, \"duration_s\": " + jsonNumber(s.end)
                      : "\"start_s\": " + jsonNumber(s.start) +
                            ", \"end_s\": " + jsonNumber(s.end);
    std::fprintf(out, "%s\n {\"id\": %zu, \"name\": %s, \"parent\": %d, %s, \"args\": {%s}}",
                 i == 0 ? "" : ",", i, jsonString(s.name).c_str(), s.parent,
                 when.c_str(), args.c_str());
  }
  std::fprintf(out, "\n]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "perfbench: wrote %s\n", path.c_str());
}

// ---- the run -------------------------------------------------------------------

int run(const Options& options) {
  const std::vector<ScenarioConfig> scenarios = workloadScenarios(
      options.workload, options.seed, options.seconds, options.smoke);
  const std::string provenance = provenanceJson(options, scenarios);
  std::printf("provenance: %s\n", provenance.c_str());
  if (options.describe) return 0;
  if (!kOptimized && !options.smoke) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timing metrics from an "
                 "unoptimised build (__OPTIMIZE__ is not defined); rebuild "
                 "with CMAKE_BUILD_TYPE=Release or pass --smoke\n");
    return 3;
  }

  SpanLog spans;
  std::vector<std::string> failures;
  int attempted = 0;
  // A run fails if it throws or breaks an identity; a traced run also
  // fails if its counters differ from the untraced run of the same config.
  auto account = [&](const Pass& pass, const Pass* reference) {
    for (std::size_t i = 0; i < pass.runs.size(); ++i) {
      ++attempted;
      std::string why = pass.runs[i].failure;
      if (why.empty() && reference != nullptr) {
        const std::string diff =
            compareCounters(reference->runs[i], pass.runs[i]);
        if (!diff.empty()) why = "traced counters differ from untraced: " + diff;
      }
      if (!why.empty()) {
        failures.push_back(std::string(reference != nullptr ? "traced" : "untraced") +
                           " scenario " + std::to_string(i) + ": " + why);
      }
    }
  };

  const Pass untraced = runPass(scenarios, false, &spans);
  account(untraced, nullptr);
  Pass traced;
  std::vector<Metric> metrics;
  if (options.trace == 0) {
    metrics = endToEnd(untraced);
  } else {
    traced = runPass(scenarios, true, &spans);
    account(traced, &untraced);
    metrics = perLayer(untraced, traced);

    const ScenarioConfig& shape = scenarios.front();
    double awake = 0.0;
    for (const ScenarioRun& run : untraced.runs) awake += run.meanAwake;
    awake /= static_cast<double>(untraced.runs.size());
    const int batches = options.smoke ? 1 : 5;
    const auto depth = static_cast<std::size_t>(
        counterMax(untraced, "result.peak_queue_depth"));
    metrics.push_back({"sim.push_pop_ns", "ns",
                       probeQueuePushPopNs(depth, options.seed, spans, batches)});
    metrics.push_back({"phy.transmit_ns_per_receiver", "ns",
                       probeTransmitNsPerReceiver(shape.hostCount, shape.fieldSize,
                                                  shape.radioRange, awake,
                                                  options.seed, spans, batches)});
    metrics.push_back({"failed_run_ratio", "ratio",
                       ratio(static_cast<double>(failures.size()), attempted)});
  }

  for (const std::string& failure : failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-34s %-14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  writeArtifact(options, provenance, metrics, untraced,
                options.trace == 1 ? &traced : nullptr, spans, failures);
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %zu, \"metrics\": %s}\n",
              failures.empty() ? "true" : "false", attempted, failures.size(),
              metricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Options options = perfbench::parseOptions(argc, argv);
    if (options.selftest) return perfbench::runSelfTest() == 0 ? 0 : 1;
    return perfbench::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
