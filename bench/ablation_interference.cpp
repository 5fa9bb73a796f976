// Ablation — interference ring beyond decode range.
//
// The pure unit-disk model (the paper's, and our default) lets two
// transmitters 251 m apart coexist perfectly; real radios hear energy
// well past their decode range. This bench widens the interference
// radius to 1.5× and 2× the 250 m decode range and reports how delivery,
// latency and ARQ retransmissions degrade — the fidelity margin of the
// unit-disk assumption behind all the paper's figures.
#include <cstdio>

#include "bench_support.hpp"

int main() {
  using namespace ecgrid;

  const double duration = bench::quickMode() ? 300.0 : 590.0;
  std::printf("Ablation — interference range (decode range 250 m)\n");
  std::printf("  %-16s %10s %12s %12s %14s\n", "interf. range", "PDR%%",
              "latency ms", "MAC retx", "frames on air");

  for (double factor : {1.0, 1.5, 2.0}) {
    harness::ScenarioConfig config = bench::paperBaseline();
    config.protocol = harness::ProtocolKind::kEcgrid;
    config.duration = duration;
    harness::ScenarioResult result;
    {
      // Route the factor through the scenario's channel config.
      harness::ScenarioConfig tuned = config;
      tuned.interferenceRangeFactor = factor;
      result = harness::runScenario(tuned);
    }
    std::printf("  %-16.1f %10.2f %12.1f %12.0f %14.0f\n",
                factor * 250.0, 100.0 * result.deliveryRate,
                1e3 * result.meanLatencySeconds,
                obs::metricOr(result.metrics, "mac.retransmissions"),
                obs::metricOr(result.metrics, "phy.frames_transmitted"));
  }
  return 0;
}
