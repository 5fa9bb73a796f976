// Ablation — the HELLO period.
//
// The paper attributes ECGRID's small lifetime deficit against GAF to its
// periodic HELLOs ("the increased power consumption results from the
// exchanging of the HELLO message"). Sweeping the period exposes the
// trade: short periods keep tables fresh (good delivery/latency) but cost
// beacon energy; long periods save beacons but let gateway/host tables go
// stale, hurting delivery and triggering more repairs.
#include <cstdio>

#include "bench_support.hpp"

int main() {
  using namespace ecgrid;

  const double duration = bench::quickMode() ? 400.0 : 1000.0;
  std::printf("Ablation — HELLO period (ECGRID)\n");
  std::printf("  %-12s %10s %12s %12s %12s\n", "period (s)", "PDR%%",
              "latency ms", "alive@800", "frames/s");

  for (double period : {0.5, 1.0, 2.0, 4.0}) {
    harness::ScenarioConfig config = bench::paperBaseline();
    config.protocol = harness::ProtocolKind::kEcgrid;
    config.duration = duration;
    config.ecgrid.base.helloPeriod = period;
    harness::ScenarioResult result = harness::runScenario(config);
    std::printf("  %-12.1f %10.2f %12.1f %12.2f %12.0f\n", period,
                100.0 * result.deliveryRate, 1e3 * result.meanLatencySeconds,
                result.aliveFraction.valueAt(800.0),
                obs::metricOr(result.metrics, "phy.frames_transmitted") /
                    duration);
  }
  return 0;
}
