// Robustness — delivery rate under adverse conditions (beyond the paper).
//
// The paper evaluates ECGRID on an ideal channel with hosts that die only
// by battery depletion. This bench stresses the protocols with the fault
// layer (src/fault): a Gilbert–Elliott burst-loss channel swept over
// stationary loss rates, crossed with a Poisson host crash/restart
// process, for GRID, ECGRID, and GAF. The question it answers: how much
// of ECGRID's energy-conserving machinery (single awake gateway per grid,
// RAS wake-ups) survives when frames corrupt and gateways crash mid-duty?
//
// Expectation: delivery degrades gracefully with loss (the MAC's ARQ
// absorbs most of it until retries exhaust) and crashes cost extra only
// while re-election converges; ECGRID should track GRID closely since
// both re-elect via the same HELLO machinery.
#include <cstdio>
#include <string>

#include "bench_support.hpp"
#include "fault/fault_plan.hpp"

int main() {
  using namespace ecgrid;
  using harness::ProtocolKind;
  bench::checkKnobs();

  const std::vector<double> lossRates =
      bench::quickMode() ? std::vector<double>{0.0, 0.2}
                         : std::vector<double>{0.0, 0.1, 0.2, 0.3};
  const std::vector<double> crashRates =
      bench::quickMode() ? std::vector<double>{0.0, 1e-3}
                         : std::vector<double>{0.0, 2e-4, 1e-3};
  const std::vector<ProtocolKind> protocols = {
      ProtocolKind::kGrid, ProtocolKind::kEcgrid, ProtocolKind::kGaf};
  const int seeds = bench::seedCount(bench::quickMode() ? 1 : 2);
  const double horizon = bench::quickMode() ? 120.0 : 300.0;
  // Mean burst = 20 frames; mean downtime 30 s before reboot.
  const double meanBurstFrames = 20.0;
  const double meanDowntime = 30.0;

  std::printf("Robustness — delivery rate (%%) under burst loss x crashes\n");
  std::printf("(Gilbert-Elliott, mean burst %.0f frames; Poisson crashes, "
              "mean downtime %.0f s; horizon %.0f s, %d seed(s))\n",
              meanBurstFrames, meanDowntime, horizon, seeds);

  bench::WallTimer timer;
  bench::BenchReport report("fig_robustness");

  std::vector<harness::ScenarioConfig> configs;
  std::vector<std::string> labels;
  for (ProtocolKind protocol : protocols) {
    for (double crashRate : crashRates) {
      for (double loss : lossRates) {
        for (int seed = 0; seed < seeds; ++seed) {
          harness::ScenarioConfig config = bench::paperBaseline();
          config.protocol = protocol;
          config.duration = horizon;
          config.seed = static_cast<std::uint64_t>(1 + seed);
          if (loss > 0.0) {
            fault::ChannelFault& ch = config.fault.channel;
            ch.kind = fault::ChannelErrorKind::kGilbertElliott;
            ch.pBadToGood = 1.0 / meanBurstFrames;
            ch.pGoodToBad = fault::gilbertElliottPGoodToBad(loss, ch.pBadToGood);
          }
          if (crashRate > 0.0) {
            config.fault.hosts.crashRatePerHostPerSecond = crashRate;
            config.fault.hosts.meanDowntimeSeconds = meanDowntime;
          }
          bench::applyHorizonCap(config);
          configs.push_back(config);
          labels.push_back(bench::format("%s_crash%g_loss%g_seed%llu",
                                         harness::toString(protocol),
                                         crashRate, loss,
                                         static_cast<unsigned long long>(
                                             config.seed)));
        }
      }
    }
  }
  std::vector<harness::ScenarioResult> results =
      bench::runLabelled(configs, labels);
  report.addRuns(results);

  std::size_t run = 0;
  double crashes = 0.0, restarts = 0.0, corrupted = 0.0;
  std::vector<stats::TimeSeries> csv;
  for (ProtocolKind protocol : protocols) {
    std::printf("\n%s\n", harness::toString(protocol));
    std::printf("  %-22s", "loss rate");
    for (double l : lossRates) std::printf(" %6.2f", l);
    std::printf("\n");
    for (double crashRate : crashRates) {
      char label[64];
      std::snprintf(label, sizeof label, "%s_pdr_pct_crash%g",
                    harness::toString(protocol), crashRate);
      stats::TimeSeries row(label);
      char rowLabel[32];
      std::snprintf(rowLabel, sizeof rowLabel, "crash rate %g", crashRate);
      std::printf("  %-22s", rowLabel);
      for (double loss : lossRates) {
        char mlabel[80];
        std::snprintf(mlabel, sizeof mlabel, "%s_crash%g_loss%g",
                      harness::toString(protocol), crashRate, loss);
        report.addScenarioMetrics(mlabel, results[run].metrics);
        double sum = 0.0;
        for (int seed = 0; seed < seeds; ++seed) {
          const harness::ScenarioResult& r = results[run++];
          sum += 100.0 * r.deliveryRate;
          crashes += obs::metricOr(r.metrics, "fault.crashes");
          restarts += obs::metricOr(r.metrics, "fault.restarts");
          corrupted += obs::metricOr(r.metrics, "phy.deliveries_corrupted");
        }
        double pct = sum / seeds;
        std::printf(" %6.2f", pct);
        row.add(loss, pct);
      }
      std::printf("\n");
      csv.push_back(std::move(row));
    }
  }
  std::printf("\n(%.0f crashes, %.0f restarts, %.0f corrupted deliveries "
              "across all runs)\n",
              crashes, restarts, corrupted);
  report.addMetric("crashes_injected", crashes);
  report.addMetric("restarts_injected", restarts);
  report.addMetric("deliveries_corrupted", corrupted);
  report.addSeries(csv);
  bench::writeSeries("fig_robustness_pdr", csv);
  report.write(timer.seconds());
  return 0;
}
