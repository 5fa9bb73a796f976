// Ablation — confining the RREQ search area (paper §3.3, citing the
// broadcast-storm problem).
//
// Compares rectangle-confined discovery (the paper's scheme: smallest
// rectangle covering source and destination grids, widened per retry)
// against always-global flooding. Confinement should slash the RREQ
// relays on the air without hurting delivery, since a failed confined
// search falls back to a global one.
#include <cstdio>

#include "bench_support.hpp"

int main() {
  using namespace ecgrid;

  const double duration = bench::quickMode() ? 300.0 : 590.0;
  std::printf("Ablation — RREQ search-range confinement\n");
  std::printf("  %-26s %10s %12s %14s %12s\n", "variant", "PDR%%",
              "latency ms", "frames on air", "RREQ relays");

  struct Variant {
    const char* label;
    bool confined;
    bool oracle;
  };
  // "no oracle" = the source has no location info for the destination, so
  // every search is global (paper: "a global search for a route is also
  // needed when the source does not have location information").
  for (const Variant& v :
       {Variant{"confined (margin 1)", true, true},
        Variant{"global flooding", false, true},
        Variant{"no location oracle", true, false}}) {
    harness::ScenarioConfig config = bench::paperBaseline();
    config.protocol = harness::ProtocolKind::kEcgrid;
    config.duration = duration;
    config.ecgrid.base.routing.confinedSearch = v.confined;
    config.useLocationOracle = v.oracle;
    // More flows = more discoveries = a sharper contrast.
    config.flowCount = 5;
    config.packetsPerSecondPerFlow = 2.0;
    harness::ScenarioResult result = harness::runScenario(config);
    std::printf("  %-26s %10.2f %12.1f %14.0f %12.0f\n", v.label,
                100.0 * result.deliveryRate, 1e3 * result.meanLatencySeconds,
                obs::metricOr(result.metrics, "phy.frames_transmitted"),
                obs::metricOr(result.metrics, "routing.rreqs_sent"));
  }
  return 0;
}
