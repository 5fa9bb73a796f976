// The benchmark's workloads. Each is a fixed list of scenario configs
// derived from the workload seed; the simulator receives only these.
//
//   dense_grid      GRID, 1000 hosts on the paper's 1000 m field (~196
//                   neighbours per radio), 10 CBR flows x 1 pkt/s. Every
//                   radio is awake, so PHY reception and MAC carrier sense
//                   dominate; no sleep, paging or election path runs.
//   dense_ecgrid    The same field, hosts and traffic under ECGRID: most
//                   scheduled deliveries land on sleeping radios, paging
//                   and elections are heavy.
//   paper_lifetime  The paper's section 4 baseline (100 hosts, 1 flow x
//                   10 pkt/s x 512 B) run to battery exhaustion under
//                   GRID, ECGRID and GAF: sparse, unicast-heavy, long-lived
//                   timers and battery re-arms, shallow queue.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "perfbench.hpp"

namespace perfbench {

namespace {

using ecgrid::harness::ProtocolKind;
using ecgrid::harness::ScenarioConfig;

// Scenario i of a workload runs seed + i * kSeedStride, so the scenario
// lists of nearby workload seeds never share a simulation.
constexpr std::uint64_t kSeedStride = 100'000;

// Dense workloads: simulated seconds per scenario (long enough for the
// elections, route discoveries and ECGRID's delivery collapse to set in)
// and the nominal wall seconds one scenario costs (gcc 12 Release on a
// 4-vCPU x86-64 VM). The scenario count is budget / nominal cost, so it
// is fixed by the arguments alone; many short scenarios let the wall-clock
// medians shrug off a shared machine's slow moments.
constexpr int kDenseHosts = 1000;
constexpr double kDenseHorizon = 12.0;
constexpr double kDenseGridNominal = 2.1;
constexpr double kDenseEcgridNominal = 1.0;

// paper_lifetime: each seed runs all three protocols to the paper's
// 2000 s horizon, by which every finite battery is empty.
constexpr double kLifetimeHorizon = 2000.0;
constexpr double kLifetimeNominal = 3.6;

/// Scenarios (or seeds) that fill `seconds` at `nominal` seconds each.
int countFor(double seconds, double nominal) {
  return std::max(1, static_cast<int>(std::lround(seconds / nominal)));
}

ScenarioConfig denseConfig(ProtocolKind protocol, std::uint64_t seed,
                           bool smoke) {
  ScenarioConfig config;  // paper field, radios, grid, 500 J batteries
  config.protocol = protocol;
  config.hostCount = smoke ? 200 : kDenseHosts;
  config.flowCount = 10;
  config.packetsPerSecondPerFlow = 1.0;
  config.maxSpeed = 1.0;
  config.pauseTime = 0.0;
  config.duration = smoke ? 4.0 : kDenseHorizon;
  config.seed = seed;
  return config;
}

/// bench::paperBaseline() of the figure benches, spelled out so the
/// benchmark does not depend on bench/ internals.
ScenarioConfig paperBaseline(ProtocolKind protocol, std::uint64_t seed,
                             bool smoke) {
  ScenarioConfig config;
  config.protocol = protocol;
  config.hostCount = 100;
  config.flowCount = 1;
  config.packetsPerSecondPerFlow = 10.0;
  config.payloadBytes = 512;
  config.maxSpeed = 1.0;
  config.pauseTime = 0.0;
  config.duration = smoke ? 30.0 : kLifetimeHorizon;
  config.seed = seed;
  return config;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"dense_grid", "dense_ecgrid",
                                                 "paper_lifetime"};
  return names;
}

std::vector<ScenarioConfig> workloadScenarios(const std::string& name,
                                              std::uint64_t seed,
                                              double seconds, bool smoke) {
  std::vector<ScenarioConfig> scenarios;
  if (name == "dense_grid" || name == "dense_ecgrid") {
    const bool grid = name == "dense_grid";
    const int count =
        smoke ? 1
              : countFor(seconds, grid ? kDenseGridNominal : kDenseEcgridNominal);
    for (int i = 0; i < count; ++i) {
      scenarios.push_back(
          denseConfig(grid ? ProtocolKind::kGrid : ProtocolKind::kEcgrid,
                      seed + i * kSeedStride, smoke));
    }
  } else if (name == "paper_lifetime") {
    const int seeds = smoke ? 1 : countFor(seconds, kLifetimeNominal);
    for (int i = 0; i < seeds; ++i) {
      for (ProtocolKind protocol :
           {ProtocolKind::kGrid, ProtocolKind::kEcgrid, ProtocolKind::kGaf}) {
        scenarios.push_back(
            paperBaseline(protocol, seed + i * kSeedStride, smoke));
      }
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return scenarios;
}

}  // namespace perfbench
