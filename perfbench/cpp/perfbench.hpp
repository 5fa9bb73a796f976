// Simulator benchmark: shared types of the perfbench program.
//
// A workload is a fixed list of harness::ScenarioConfig values derived
// from a seed and sized to the wall budget (workloads.cpp). A *pass* runs
// the list once, serially on one thread, through harness::runScenario
// (measure.cpp). End-to-end metrics come from one untraced pass; the
// per-layer metrics from an untraced and a profiled pass of the same list,
// whose deterministic counters must agree exactly. Probes (probes.cpp)
// time two layers' public entry points at the workload's shape. Spans
// around every call are kept in memory and written once at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed on the steady clock since `start`.
inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

// ---- workloads (workloads.cpp) --------------------------------------------

/// Names accepted by --workload, in BENCHMARK.json order.
const std::vector<std::string>& workloadNames();

/// The workload's scenario list for `seed`, with as many scenarios as fill
/// about `seconds` of wall time at a nominal per-scenario cost (so the
/// list depends on the seed and the budget only, never on a clock).
/// `smoke` shrinks it to one small, short scenario per protocol so the
/// whole pipeline runs in seconds; names and checks are unchanged. Throws
/// std::invalid_argument for an unknown name.
std::vector<ecgrid::harness::ScenarioConfig> workloadScenarios(
    const std::string& name, std::uint64_t seed, double seconds, bool smoke);

// ---- spans ------------------------------------------------------------------

/// In-memory span recorder. A span has a name, a parent (-1 for a root),
/// and either measured start/end offsets from the log's origin or, for a
/// part the benchmark can only derive (a scenario's setup vs run loop), a
/// duration alone.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;  ///< seconds since origin; < 0 when derived
    double end = 0.0;    ///< seconds since origin; duration when derived
    std::map<std::string, std::string> args;
  };

  int begin(std::string name, int parent = -1,
            std::map<std::string, std::string> args = {});
  void end(int id);
  void derived(std::string name, int parent, double durationSeconds);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---- measuring (measure.cpp) ------------------------------------------------

/// One runScenario call.
struct ScenarioRun {
  std::string protocol;
  std::uint64_t seed = 0;
  bool ok = false;
  std::string failure;      ///< why the run failed (empty when ok)
  double callWall = 0.0;    ///< wall seconds of the whole runScenario call
  double runWall = 0.0;     ///< ScenarioResult::runWallSeconds
  double horizon = 0.0;     ///< simulated seconds
  /// referenceSeconds() around the call: the mean of the reference timed
  /// just before it and just after it.
  double reference = 0.0;
  double energyJ = 0.0;     ///< metered-host energy drawn
  double meanAwake = 1.0;   ///< time-mean awake fraction of metered hosts
  /// Deterministic outputs: the metrics snapshot without profile.*, plus
  /// result fields under "result.*". Traced and untraced runs of one
  /// config must agree on every entry.
  std::map<std::string, double> counters;
  /// profile.* entries (traced runs only).
  std::map<std::string, double> profile;
};

struct Pass {
  std::vector<ScenarioRun> runs;
  [[nodiscard]] double horizon() const;
  [[nodiscard]] double runWall() const;
  [[nodiscard]] int failed() const;
};

/// Output identities every scenario must satisfy. Returns the first broken
/// identity, or an empty string. Public so the self-test can show that a
/// broken result is caught.
std::string checkIdentities(const ecgrid::harness::ScenarioConfig& config,
                            const ecgrid::harness::ScenarioResult& result);

/// Wall seconds of a fixed miniature event loop that calls nothing under
/// src/, so every commit times the same instructions: 128 Ki pops and
/// pushes on a std::priority_queue holding 16 Ki events, each reading and
/// updating one of 64 Ki 64-byte host records (4 MiB). It gauges how fast
/// the shared host runs the simulator's kind of work at the moment: the
/// host's other tenants slow whole minutes by up to a third and single
/// scenarios by up to 2x. 23-37 ms on a 4-vCPU Xeon VM.
double referenceSeconds();

/// Run every scenario once; `traced` turns on the simulator profiler.
/// referenceSeconds() is timed before the first scenario and after each.
/// Records a "pass" span with one "runScenario" child per scenario (and
/// derived "setup" / "run_loop" grandchildren) when `spans` is non-null.
Pass runPass(const std::vector<ecgrid::harness::ScenarioConfig>& scenarios,
             bool traced, SpanLog* spans);

/// Compare two runs' deterministic counters; returns a description of the
/// first difference, or an empty string when identical.
std::string compareCounters(const ScenarioRun& reference,
                            const ScenarioRun& other);
/// The same over two passes of one scenario list, scenario by scenario.
std::string compareCounters(const Pass& reference, const Pass& other);

/// Profiler label prefix (with '/' spelled '.') -> layer. Longest prefix
/// wins; labels matching none are unattributed.
const std::vector<std::pair<std::string, std::string>>& labelLayers();

/// Layer of a profile.events.<label>.{count,wall_s} label, or "" when none.
std::string layerOfLabel(const std::string& label);

// ---- probes (probes.cpp) ----------------------------------------------------

/// Median ns per EventQueue pop+push at a standing depth of `depth`, with
/// a closure the size of a phy/deliver capture. One span per batch.
double probeQueuePushPopNs(std::size_t depth, std::uint64_t seed,
                           SpanLog& spans, int batches);

/// Median ns per in-range receiver of Channel::transmitFrom plus draining
/// the scheduled receptions, on a static network of `hosts` radios placed
/// uniformly on a `field`-metre square with `awakeShare` of them awake.
double probeTransmitNsPerReceiver(int hosts, double field, double range,
                                  double awakeShare, std::uint64_t seed,
                                  SpanLog& spans, int batches);

// ---- self-test (selftest.cpp) -----------------------------------------------

/// Identity mutation, throw-as-failure, replay determinism with the final
/// state digest, and traced == untraced counters. Returns the number of
/// failed checks (0 = pass) and prints one line per check.
int runSelfTest();

}  // namespace perfbench
