// Running a workload pass, checking its outputs, and span bookkeeping.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <queue>
#include <random>

#include "perfbench.hpp"

namespace perfbench {

using ecgrid::harness::ScenarioConfig;
using ecgrid::harness::ScenarioResult;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---- SpanLog ------------------------------------------------------------------

int SpanLog::begin(std::string name, int parent,
                   std::map<std::string, std::string> args) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.start = secondsSince(origin_);
  span.end = span.start;
  span.args = std::move(args);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) { spans_.at(id).end = secondsSince(origin_); }

void SpanLog::derived(std::string name, int parent, double durationSeconds) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.start = -1.0;
  span.end = durationSeconds;
  spans_.push_back(std::move(span));
}

// ---- output identities ----------------------------------------------------------

std::string checkIdentities(const ScenarioConfig& config,
                            const ScenarioResult& result) {
  if (result.packetsReceived > result.packetsSent) {
    return "received > sent";
  }
  if (!(result.deliveryRate >= 0.0 && result.deliveryRate <= 1.0)) {
    return "delivery ratio outside [0, 1]";
  }
  // runScenario exposes metered energy as the mean normalised consumption
  // (aen = sum drawn / (n * capacity)) and the alive fraction, so the
  // per-host capacity identity is checked through them: no sample may
  // report more energy drawn than the hosts held, more deaths than hosts,
  // or an alive fraction outside [0, 1].
  for (const auto& [t, aen] : result.aen.points()) {
    if (!(aen >= 0.0 && aen <= 1.0 + 1e-9)) {
      return "metered hosts drew more than their capacity";
    }
  }
  for (const auto& [t, alive] : result.aliveFraction.points()) {
    if (!(alive >= 0.0 && alive <= 1.0)) {
      return "alive fraction outside [0, 1]";
    }
  }
  if (result.deathTimes.size() > static_cast<std::size_t>(config.hostCount)) {
    return "more deaths than metered hosts";
  }
  // The closing energy sample is taken when run() returns; the simulator
  // advances its clock to the horizon whether the queue drained or not, so
  // anything else means the run loop stopped early.
  if (result.aliveFraction.empty() ||
      result.aliveFraction.points().back().first != config.duration) {
    return "run stopped before its horizon";
  }
  return {};
}

// ---- machine-speed reference ------------------------------------------------------

namespace {

volatile std::uint64_t referenceSink = 0;  // keeps the mix from being folded away

}  // namespace

double referenceSeconds() {
  constexpr std::size_t kHosts = 1u << 16;
  constexpr int kEvents = 1 << 17;
  struct Host {
    std::uint64_t state[8];
  };
  struct Event {
    double time;
    std::uint32_t host;
    bool operator<(const Event& other) const { return time > other.time; }
  };
  // Fresh state and a fixed seed, so every call runs the same instructions.
  std::vector<Host> hosts(kHosts);
  std::mt19937_64 rng(20031);
  std::vector<Event> storage;
  storage.reserve(1u << 15);
  std::priority_queue<Event> queue(std::less<Event>(), std::move(storage));
  for (int i = 0; i < (1 << 14); ++i) {
    queue.push({static_cast<double>(rng() >> 11) * 0x1p-53,
                static_cast<std::uint32_t>(rng() % kHosts)});
  }
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kEvents; ++i) {
    const Event event = queue.top();
    queue.pop();
    Host& host = hosts[event.host];
    const std::uint64_t x = host.state[event.host & 7] ^ rng();
    host.state[(x >> 3) & 7] += x;
    queue.push({event.time + static_cast<double>(x >> 11) * 0x1p-53,
                static_cast<std::uint32_t>(x % kHosts)});
  }
  const double seconds = secondsSince(start);
  referenceSink = queue.top().host;
  return seconds;
}

// ---- passes ---------------------------------------------------------------------

namespace {

bool startsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

/// Σ drawn joules of the metered hosts at the horizon.
double meteredEnergy(const ScenarioConfig& config, const ScenarioResult& r) {
  if (r.aen.empty()) return 0.0;
  return r.aen.points().back().second * config.hostCount *
         config.batteryCapacityJ;
}

/// Time-weighted mean of a step series over [0, horizon].
double timeMean(const ecgrid::stats::TimeSeries& series, double horizon) {
  const auto& points = series.points();
  if (points.empty() || horizon <= 0.0) return 0.0;
  double area = 0.0;
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    area += points[i].second * (points[i + 1].first - points[i].first);
  }
  return area / horizon;
}

ScenarioRun runOne(const ScenarioConfig& config, bool traced, SpanLog* spans,
                   int parent, int index) {
  ScenarioConfig run = config;
  run.profileSimulator = traced;
  ScenarioRun out;
  out.protocol = ecgrid::harness::toString(config.protocol);
  out.seed = config.seed;
  out.horizon = config.duration;
  int span = -1;
  if (spans != nullptr) {
    span = spans->begin(
        "runScenario", parent,
        {{"index", std::to_string(index)},
         {"protocol", out.protocol},
         {"hosts", std::to_string(config.hostCount)},
         {"seed", std::to_string(config.seed)},
         {"traced", traced ? "1" : "0"}});
  }
  const Clock::time_point start = Clock::now();
  try {
    ScenarioResult result = ecgrid::harness::runScenario(run);
    out.callWall = secondsSince(start);
    out.runWall = result.runWallSeconds;
    out.failure = checkIdentities(config, result);
    out.ok = out.failure.empty();
    out.energyJ = meteredEnergy(config, result);
    out.meanAwake = timeMean(result.awakeFraction, config.duration);
    for (const auto& [name, value] : result.metrics) {
      (startsWith(name, "profile.") ? out.profile : out.counters)[name] = value;
    }
    out.counters["result.events"] = static_cast<double>(result.eventsExecuted);
    out.counters["result.packets_sent"] =
        static_cast<double>(result.packetsSent);
    out.counters["result.packets_received"] =
        static_cast<double>(result.packetsReceived);
    out.counters["result.energy_j"] = out.energyJ;
    out.counters["result.peak_queue_depth"] =
        static_cast<double>(result.peakQueueDepth);
    out.counters["result.slab_slots"] =
        static_cast<double>(result.slabSlotsTotal);
  } catch (const std::exception& error) {
    out.callWall = secondsSince(start);
    out.ok = false;
    out.failure = std::string("runScenario threw: ") + error.what();
  }
  if (spans != nullptr) {
    spans->end(span);
    spans->derived("setup", span, out.callWall - out.runWall);
    spans->derived("run_loop", span, out.runWall);
  }
  return out;
}

}  // namespace

double Pass::horizon() const {
  double sum = 0.0;
  for (const ScenarioRun& r : runs) sum += r.horizon;
  return sum;
}

double Pass::runWall() const {
  double sum = 0.0;
  for (const ScenarioRun& r : runs) sum += r.runWall;
  return sum;
}

int Pass::failed() const {
  return static_cast<int>(
      std::count_if(runs.begin(), runs.end(),
                    [](const ScenarioRun& r) { return !r.ok; }));
}

Pass runPass(const std::vector<ScenarioConfig>& scenarios, bool traced,
             SpanLog* spans) {
  Pass pass;
  int span = -1;
  if (spans != nullptr) {
    span = spans->begin(traced ? "pass.traced" : "pass.untraced");
  }
  double before = referenceSeconds();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    ScenarioRun run =
        runOne(scenarios[i], traced, spans, span, static_cast<int>(i));
    const double after = referenceSeconds();
    run.reference = 0.5 * (before + after);
    before = after;
    pass.runs.push_back(std::move(run));
  }
  if (spans != nullptr) spans->end(span);
  return pass;
}

std::string compareCounters(const ScenarioRun& reference,
                            const ScenarioRun& other) {
  const auto& a = reference.counters;
  const auto& b = other.counters;
  if (a == b) return {};
  for (const auto& [name, value] : a) {
    auto it = b.find(name);
    if (it == b.end()) return name + " missing";
    if (it->second != value) {
      return name + " " + std::to_string(value) + " vs " +
             std::to_string(it->second);
    }
  }
  return "extra counters";
}

std::string compareCounters(const Pass& reference, const Pass& other) {
  if (reference.runs.size() != other.runs.size()) return "scenario count";
  for (std::size_t i = 0; i < reference.runs.size(); ++i) {
    const std::string diff = compareCounters(reference.runs[i], other.runs[i]);
    if (!diff.empty()) return "scenario " + std::to_string(i) + ": " + diff;
  }
  return {};
}

// ---- profiler label -> layer --------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& labelLayers() {
  static const std::vector<std::pair<std::string, std::string>> map = {
      {"phy.battery", "energy"},  {"phy.", "phy"},
      {"paging.", "phy"},         {"mac.", "mac"},
      {"route.", "routing"},      {"proto.", "protocols"},
      {"gaf.", "protocols"},      {"ecgrid.", "core"},
      {"energy.", "energy"},      {"mobility.", "mobility"},
      {"traffic.", "traffic"},    {"stats.", "stats"},
  };
  return map;
}

std::string layerOfLabel(const std::string& label) {
  std::size_t best = 0;
  std::string layer;
  for (const auto& [prefix, name] : labelLayers()) {
    if (prefix.size() > best && startsWith(label, prefix)) {
      best = prefix.size();
      layer = name;
    }
  }
  return layer;
}

}  // namespace perfbench
