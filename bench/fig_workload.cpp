// Workload — per-class SLO attainment under production-style traffic
// (beyond the paper).
//
// The paper drives every experiment with fixed-rate CBR flows. This bench
// replaces them with the PR-8 workload layer: an "interactive" class
// (Poisson session arrivals, small request/response flows, tight SLO) and
// a "bulk" class (bursty Pareto on-off arrivals, heavy-tailed flow sizes,
// loose SLO) running side by side, swept over an offered-load multiplier
// for GRID, ECGRID, and GAF. The question it answers: when traffic stops
// being smooth, how much tail latency do the energy-conserving protocols'
// sleep/wake cycles add, and at what load do flows start aborting instead
// of completing?
//
// Expectation: interactive SLO attainment stays high until the bulk
// class's ON bursts saturate the shared channel, then degrades first for
// the protocols that funnel traffic through a single awake gateway per
// grid (ECGRID/GAF) — the gateway's queue is where the burst lands.
#include <cstdio>
#include <string>

#include "bench_support.hpp"
#include "traffic/workload/workload_plan.hpp"

namespace {

/// SLO attainment (%) for one class in one run: slo_met / flows_completed.
double sloPct(const ecgrid::obs::MetricsSnapshot& metrics,
              const std::string& cls) {
  const double completed =
      ecgrid::obs::metricOr(metrics, "workload." + cls + ".flows_completed");
  if (completed <= 0.0) return 0.0;
  return 100.0 *
         ecgrid::obs::metricOr(metrics, "workload." + cls + ".slo_met") /
         completed;
}

}  // namespace

int main() {
  using namespace ecgrid;
  using harness::ProtocolKind;
  bench::checkKnobs();

  const std::vector<double> loadScales =
      bench::quickMode() ? std::vector<double>{1.0}
                         : std::vector<double>{0.5, 1.0, 2.0};
  const std::vector<ProtocolKind> protocols = {
      ProtocolKind::kGrid, ProtocolKind::kEcgrid, ProtocolKind::kGaf};
  const int seeds = bench::seedCount(bench::quickMode() ? 1 : 2);
  const double horizon = bench::quickMode() ? 120.0 : 300.0;

  std::printf("Workload — per-class SLO attainment (%%) vs offered load\n");
  std::printf("(interactive: Poisson arrivals, 2 s SLO; bulk: Pareto "
              "on-off arrivals, heavy-tailed sizes, 20 s SLO; horizon "
              "%.0f s, %d seed(s))\n",
              horizon, seeds);

  bench::WallTimer timer;
  bench::BenchReport report("workload");

  std::vector<harness::ScenarioConfig> configs;
  std::vector<std::string> labels;
  for (ProtocolKind protocol : protocols) {
    for (double scale : loadScales) {
      for (int seed = 0; seed < seeds; ++seed) {
        harness::ScenarioConfig config = bench::paperBaseline();
        config.protocol = protocol;
        config.duration = horizon;
        config.seed = static_cast<std::uint64_t>(1 + seed);
        // The workload replaces the CBR flows entirely.
        config.flowCount = 0;

        traffic::WorkloadClass interactive;
        interactive.name = "interactive";
        interactive.arrivals = traffic::ArrivalKind::kPoisson;
        interactive.sessionsPerSecond = 0.5 * scale;
        interactive.minFlowBytes = 1024;
        interactive.maxFlowBytes = 16384;
        interactive.flowSizeShape = 1.3;
        interactive.packetBytes = 512;
        interactive.packetsPerSecond = 20.0;
        interactive.requestResponse = true;
        interactive.responseBytes = 512;
        interactive.sloSeconds = 2.0;
        interactive.abortAfterSeconds = 30.0;

        traffic::WorkloadClass bulk;
        bulk.name = "bulk";
        bulk.arrivals = traffic::ArrivalKind::kParetoOnOff;
        bulk.sessionsPerSecond = 0.2 * scale;
        bulk.onMeanSeconds = 5.0;
        bulk.offMeanSeconds = 20.0;
        bulk.onOffShape = 1.5;
        bulk.minFlowBytes = 8192;
        bulk.maxFlowBytes = 262144;
        bulk.flowSizeShape = 1.2;
        bulk.packetBytes = 512;
        bulk.packetsPerSecond = 40.0;
        bulk.requestResponse = false;
        bulk.sloSeconds = 20.0;
        bulk.abortAfterSeconds = 60.0;

        config.workload.classes = {interactive, bulk};
        config.workload.clientPopulation = 20;
        config.workload.sinkCount = 2;
        bench::applyHorizonCap(config);
        configs.push_back(config);
        labels.push_back(bench::format(
            "%s_load%g_seed%llu", harness::toString(protocol), scale,
            static_cast<unsigned long long>(config.seed)));
      }
    }
  }
  std::vector<harness::ScenarioResult> results =
      bench::runLabelled(configs, labels);
  report.addRuns(results);

  std::size_t run = 0;
  std::uint64_t aborted = 0;
  std::vector<stats::TimeSeries> csv;
  for (ProtocolKind protocol : protocols) {
    std::printf("\n%s\n", harness::toString(protocol));
    std::printf("  %-22s", "load scale");
    for (double s : loadScales) std::printf(" %6.2f", s);
    std::printf("\n");
    stats::TimeSeries interactiveRow(
        std::string(harness::toString(protocol)) + "_interactive_slo_pct");
    stats::TimeSeries bulkRow(std::string(harness::toString(protocol)) +
                              "_bulk_slo_pct");
    stats::TimeSeries abortRow(std::string(harness::toString(protocol)) +
                               "_aborted_flows");
    // Energy and queue hotspots: what the offered load costs the hosts
    // (aen = mean consumed J/host at the horizon, the Fig. 5 metric) and
    // the shared channel (MAC drops — the gateway queue is where a burst
    // backs up first).
    stats::TimeSeries aenRow(std::string(harness::toString(protocol)) +
                             "_aen_joules");
    stats::TimeSeries dropRow(std::string(harness::toString(protocol)) +
                              "_mac_frames_dropped");
    for (double scale : loadScales) {
      double interactiveSum = 0.0;
      double bulkSum = 0.0;
      double abortSum = 0.0;
      double aenSum = 0.0;
      double dropSum = 0.0;
      for (int seed = 0; seed < seeds; ++seed) {
        const harness::ScenarioResult& r = results[run];
        if (seed == 0) {
          char label[64];
          std::snprintf(label, sizeof label, "%s_load%g",
                        harness::toString(protocol), scale);
          report.addScenarioMetrics(label, r.metrics);
        }
        interactiveSum += sloPct(r.metrics, "interactive");
        bulkSum += sloPct(r.metrics, "bulk");
        abortSum += static_cast<double>(r.abortedFlows);
        aenSum += r.aen.points().empty() ? 0.0 : r.aen.points().back().second;
        dropSum += obs::metricOr(r.metrics, "mac.frames_dropped");
        aborted += r.abortedFlows;
        ++run;
      }
      interactiveRow.add(scale, interactiveSum / seeds);
      bulkRow.add(scale, bulkSum / seeds);
      abortRow.add(scale, abortSum / seeds);
      aenRow.add(scale, aenSum / seeds);
      dropRow.add(scale, dropSum / seeds);
    }
    bench::printSampled("interactive SLO %", interactiveRow, loadScales);
    bench::printSampled("bulk SLO %", bulkRow, loadScales);
    bench::printSampled("aborted flows", abortRow, loadScales);
    bench::printSampled("aen (J/host)", aenRow, loadScales);
    bench::printSampled("mac drops", dropRow, loadScales);
    csv.push_back(std::move(interactiveRow));
    csv.push_back(std::move(bulkRow));
    csv.push_back(std::move(abortRow));
    csv.push_back(std::move(aenRow));
    csv.push_back(std::move(dropRow));
  }
  std::printf("\n(%llu aborted flows across all runs)\n",
              static_cast<unsigned long long>(aborted));
  report.addMetric("aborted_flows_total", static_cast<double>(aborted));
  report.addSeries(csv);
  bench::writeSeries("fig_workload_slo", csv);
  report.write(timer.seconds());
  return 0;
}
