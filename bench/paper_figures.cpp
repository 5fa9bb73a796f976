// The paper's evaluation (§4, Figures 4–8) from one sweep. Every figure
// varies paperBaseline() (100 hosts, 10 pkt/s CBR, random waypoint) at
// roaming speeds 1 m/s (a) and 10 m/s (b):
//   Fig. 4  alive fraction vs time, GRID/ECGRID/GAF, 2000 s. GRID dies at
//           ≈590 s; ECGRID and GAF live longer, GAF slightly ahead.
//   Fig. 5  aen (eq. 2) vs time on Figure 4's runs: before 590 s GRID is
//           ≈33 % above ECGRID and ≈38 % above GAF.
//   Fig. 6  mean latency vs pause time 0–600 s over GRID's 590 s lifetime,
//           averaged over seeds (one flow's latency hangs on its random
//           endpoint distance). Paper: a flat 7–13 ms band.
//   Fig. 7  delivery rate on Figure 6's runs. Paper: >99 % everywhere.
//   Fig. 8  alive fraction vs time at 50–200 hosts, GRID vs ECGRID:
//           GRID flat in density, ECGRID's lifetime grows with it.
// A scenario several figures read runs once (Sweep). Each figure still
// writes its own BENCH_<figure>.json: runs, events and frames sum the
// runs that figure reads; wall_seconds is the whole sweep's.
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_support.hpp"

namespace {

using namespace ecgrid;
using harness::ProtocolKind;
using harness::ScenarioResult;
/// One figure's runs, in the order its tables read them.
using Runs = std::vector<const ScenarioResult*>;

const std::vector<double> kSpeeds = {1.0, 10.0};
const std::vector<ProtocolKind> kProtocols = {
    ProtocolKind::kGrid, ProtocolKind::kEcgrid, ProtocolKind::kGaf};

/// The distinct scenarios every figure asks for, each run once.
class Sweep {
 public:
  /// Index of the run of paperBaseline() with exactly these six fields
  /// set, the duration after the ECGRID_BENCH_HORIZON cap. The memo key is
  /// that same 6-tuple, so an equal key means an equal config and a
  /// repeated request reuses the earlier run.
  std::size_t add(ProtocolKind protocol, double speed, int hosts,
                  double pause, std::uint64_t seed, double duration) {
    harness::ScenarioConfig config = bench::paperBaseline();
    config.protocol = protocol;
    config.maxSpeed = speed;
    config.hostCount = hosts;
    config.pauseTime = pause;
    config.seed = seed;
    config.duration = duration;
    bench::applyHorizonCap(config);
    const auto [slot, fresh] = index_.try_emplace(
        Key{protocol, speed, hosts, pause, seed, config.duration},
        configs_.size());
    if (fresh) {
      configs_.push_back(config);
      labels_.push_back(bench::format(
          "%s_speed%g_n%d_pause%g_seed%llu_t%g", harness::toString(protocol),
          speed, hosts, pause, static_cast<unsigned long long>(seed),
          config.duration));
    }
    return slot->second;
  }

  std::vector<ScenarioResult> run() const {
    return bench::runLabelled(configs_, labels_);
  }

 private:
  using Key =
      std::tuple<ProtocolKind, double, int, double, std::uint64_t, double>;
  std::map<Key, std::size_t> index_;
  std::vector<harness::ScenarioConfig> configs_;
  std::vector<std::string> labels_;
};

/// A figure's record, its runs already folded into the throughput counters.
bench::BenchReport reportOver(const char* figure, const Runs& runs) {
  bench::BenchReport report(figure);
  for (const ScenarioResult* result : runs) report.addRun(*result);
  return report;
}

void printSpeed(double speed) {
  std::printf("\n(%c) roaming speed = %.0f m/s\n", speed == 1.0 ? 'a' : 'b',
              speed);
}

void printPauseHeader(const std::vector<double>& pauseTimes) {
  std::printf("  %-22s", "pause (s)");
  for (double p : pauseTimes) std::printf(" %6.0f", p);
  std::printf("\n");
}

stats::TimeSeries relabelled(const std::string& label,
                             const stats::TimeSeries& series) {
  stats::TimeSeries copy(label);
  for (auto [t, v] : series.points()) copy.add(t, v);
  return copy;
}

void figure4(const Runs& runs, double wallSeconds) {
  const std::vector<double> sampleTimes = {100, 300, 590, 800, 1000,
                                           1200, 1500, 2000};
  std::printf("Figure 4 — fraction of alive hosts vs simulation time\n");
  std::printf("(100 hosts, 10 pkt/s, pause 0; paper: GRID down at 590 s, "
              "ECGRID/GAF extend lifetime, GAF slightly ahead)\n");
  bench::BenchReport report = reportOver("fig4_alive_fraction", runs);
  std::size_t run = 0;
  for (double speed : kSpeeds) {
    printSpeed(speed);
    bench::printHeaderTimes("t (s)", sampleTimes);
    std::vector<stats::TimeSeries> csv;
    for (ProtocolKind protocol : kProtocols) {
      const char* name = harness::toString(protocol);
      const ScenarioResult& result = *runs[run++];
      bench::printSampled(name, result.aliveFraction, sampleTimes);
      report.addScenarioMetrics(bench::format("%s_speed%.0f", name, speed),
                                result.metrics);
      csv.push_back(
          relabelled(bench::format("%s_alive_speed%.0f", name, speed),
                     result.aliveFraction));
    }
    report.addSeries(csv);
    bench::writeSeries(
        speed == 1.0 ? "fig4a_alive_speed1" : "fig4b_alive_speed10", csv);
  }
  report.write(wallSeconds);
}

void figure5(const Runs& runs, double wallSeconds) {
  const std::vector<double> sampleTimes = {100, 200, 300, 400, 500,
                                           590, 800, 1200, 2000};
  std::printf("\nFigure 5 — mean energy consumption per host (aen) vs "
              "time\n");
  std::printf("(paper: before 590 s, GRID ~33%% above ECGRID and ~38%% "
              "above GAF)\n");
  bench::BenchReport report = reportOver("fig5_energy", runs);
  std::size_t run = 0;
  for (double speed : kSpeeds) {
    printSpeed(speed);
    bench::printHeaderTimes("t (s)", sampleTimes);
    std::vector<stats::TimeSeries> csv;
    std::vector<double> aenAt500;
    for (ProtocolKind protocol : kProtocols) {
      const char* name = harness::toString(protocol);
      const ScenarioResult& result = *runs[run++];
      bench::printSampled(name, result.aen, sampleTimes);
      aenAt500.push_back(result.aen.valueAt(500.0));
      report.addScenarioMetrics(bench::format("%s_speed%.0f", name, speed),
                                result.metrics);
      csv.push_back(relabelled(bench::format("%s_aen_speed%.0f", name, speed),
                               result.aen));
    }
    if (aenAt500[1] > 0.0 && aenAt500[2] > 0.0) {
      std::printf("  GRID/ECGRID aen ratio at t=500: %.2f (paper ~1.33)\n",
                  aenAt500[0] / aenAt500[1]);
      std::printf("  GRID/GAF    aen ratio at t=500: %.2f (paper ~1.38)\n",
                  aenAt500[0] / aenAt500[2]);
      report.addMetric(bench::format("grid_ecgrid_aen_ratio_speed%.0f", speed),
                       aenAt500[0] / aenAt500[1]);
      report.addMetric(bench::format("grid_gaf_aen_ratio_speed%.0f", speed),
                       aenAt500[0] / aenAt500[2]);
    }
    report.addSeries(csv);
    bench::writeSeries(speed == 1.0 ? "fig5a_aen_speed1" : "fig5b_aen_speed10",
                       csv);
  }
  report.write(wallSeconds);
}

void figure6(const Runs& runs, const std::vector<double>& pauseTimes,
             int seeds, double horizon, double wallSeconds) {
  std::printf("\nFigure 6 — mean packet delivery latency (ms) vs pause "
              "time\n");
  std::printf("(horizon %.0f s, %d seed(s) averaged; paper: 7.1–10.7 ms at "
              "1 m/s, 8.5–12.5 ms at 10 m/s)\n",
              horizon, seeds);
  bench::BenchReport report = reportOver("fig6_latency", runs);
  std::size_t run = 0;
  for (double speed : kSpeeds) {
    printSpeed(speed);
    printPauseHeader(pauseTimes);
    std::vector<stats::TimeSeries> csv;
    for (ProtocolKind protocol : kProtocols) {
      const char* name = harness::toString(protocol);
      stats::TimeSeries row(bench::format("%s_latency_ms_speed%.0f", name,
                                          speed));
      stats::TimeSeries p99Row(
          bench::format("%s_latency_p99_ms_speed%.0f", name, speed));
      std::printf("  %-22s", name);
      for (double pause : pauseTimes) {
        // Seed 0's full metrics snapshot (including the e2e.latency_s
        // histogram) represents the scenario in the perf record.
        report.addScenarioMetrics(
            bench::format("%s_speed%.0f_pause%.0f", name, speed, pause),
            runs[run]->metrics);
        double sumMs = 0.0;
        double sumP99Ms = 0.0;
        for (int seed = 0; seed < seeds; ++seed) {
          sumMs += 1e3 * runs[run]->meanLatencySeconds;
          sumP99Ms += 1e3 * runs[run]->p99LatencySeconds;
          ++run;
        }
        double meanMs = sumMs / seeds;
        std::printf(" %6.1f", meanMs);
        row.add(pause, meanMs);
        p99Row.add(pause, sumP99Ms / seeds);
      }
      std::printf("\n");
      csv.push_back(std::move(row));
      csv.push_back(std::move(p99Row));
    }
    report.addSeries(csv);
    bench::writeSeries(
        speed == 1.0 ? "fig6a_latency_speed1" : "fig6b_latency_speed10", csv);
  }
  report.write(wallSeconds);
}

void figure7(const Runs& runs, const std::vector<double>& pauseTimes,
             int seeds, double horizon, double wallSeconds) {
  std::printf("\nFigure 7 — packet delivery rate (%%) vs pause time\n");
  std::printf("(horizon %.0f s, %d seed(s) averaged; paper: >99%% "
              "everywhere)\n",
              horizon, seeds);
  bench::BenchReport report = reportOver("fig7_delivery_rate", runs);
  std::size_t run = 0;
  for (double speed : kSpeeds) {
    printSpeed(speed);
    printPauseHeader(pauseTimes);
    std::vector<stats::TimeSeries> csv;
    for (ProtocolKind protocol : kProtocols) {
      const char* name = harness::toString(protocol);
      stats::TimeSeries row(bench::format("%s_pdr_pct_speed%.0f", name, speed));
      std::printf("  %-22s", name);
      for (double pause : pauseTimes) {
        report.addScenarioMetrics(
            bench::format("%s_speed%.0f_pause%.0f", name, speed, pause),
            runs[run]->metrics);
        double sum = 0.0;
        for (int seed = 0; seed < seeds; ++seed) {
          sum += 100.0 * runs[run++]->deliveryRate;
        }
        double pct = sum / seeds;
        std::printf(" %6.2f", pct);
        row.add(pause, pct);
      }
      std::printf("\n");
      csv.push_back(std::move(row));
    }
    report.addSeries(csv);
    bench::writeSeries(
        speed == 1.0 ? "fig7a_pdr_speed1" : "fig7b_pdr_speed10", csv);
  }
  report.write(wallSeconds);
}

void figure8(const Runs& runs, const std::vector<ProtocolKind>& protocols,
             const std::vector<int>& densities, double wallSeconds) {
  const std::vector<double> sampleTimes = {300, 590, 700, 800, 1000,
                                           1200, 1600, 2000};
  std::printf("\nFigure 8 — alive fraction vs time, by host density\n");
  std::printf("(paper: GRID flat in density; ECGRID lifetime grows with "
              "density)\n");
  bench::BenchReport report = reportOver("fig8_density", runs);
  std::size_t run = 0;
  for (double speed : kSpeeds) {
    printSpeed(speed);
    bench::printHeaderTimes("t (s)", sampleTimes);
    std::vector<stats::TimeSeries> csv;
    for (ProtocolKind protocol : protocols) {
      const char* name = harness::toString(protocol);
      for (int hosts : densities) {
        const ScenarioResult& result = *runs[run++];
        bench::printSampled(bench::format("%s n=%d", name, hosts).c_str(),
                            result.aliveFraction, sampleTimes);
        const std::string label =
            bench::format("%s_n%d_speed%.0f", name, hosts, speed);
        report.addScenarioMetrics(label, result.metrics);
        csv.push_back(relabelled(label, result.aliveFraction));
      }
    }
    report.addSeries(csv);
    bench::writeSeries(
        speed == 1.0 ? "fig8a_density_speed1" : "fig8b_density_speed10", csv);
  }
  report.write(wallSeconds);
}

}  // namespace

int main() {
  bench::checkKnobs();
  const bool quick = bench::quickMode();
  const double lifetime = quick ? 800.0 : 2000.0;  // Figures 4, 5 and 8
  const double horizon = quick ? 300.0 : 590.0;    // Figures 6 and 7
  const std::vector<double> pauseTimes =
      quick ? std::vector<double>{0, 300, 600}
            : std::vector<double>{0, 150, 300, 450, 600};
  const int seeds = bench::seedCount(quick ? 1 : 2);
  const std::vector<int> densities =
      quick ? std::vector<int>{50, 100} : std::vector<int>{50, 100, 150, 200};
  const std::vector<ProtocolKind> densityProtocols = {ProtocolKind::kGrid,
                                                      ProtocolKind::kEcgrid};
  const harness::ScenarioConfig baseline = bench::paperBaseline();

  bench::WallTimer timer;
  // The longest runs (the lifetime horizons) are queued first.
  Sweep sweep;
  std::vector<std::size_t> lifetimeRuns;
  std::vector<std::size_t> densityRuns;
  std::vector<std::size_t> pauseRuns;
  for (double speed : kSpeeds) {
    for (ProtocolKind protocol : kProtocols) {
      lifetimeRuns.push_back(sweep.add(protocol, speed, baseline.hostCount,
                                       baseline.pauseTime, baseline.seed,
                                       lifetime));
    }
  }
  for (double speed : kSpeeds) {
    for (ProtocolKind protocol : densityProtocols) {
      for (int hosts : densities) {
        densityRuns.push_back(sweep.add(protocol, speed, hosts,
                                        baseline.pauseTime, baseline.seed,
                                        lifetime));
      }
    }
  }
  for (double speed : kSpeeds) {
    for (ProtocolKind protocol : kProtocols) {
      for (double pause : pauseTimes) {
        for (int seed = 0; seed < seeds; ++seed) {
          pauseRuns.push_back(sweep.add(protocol, speed, baseline.hostCount,
                                        pause,
                                        static_cast<std::uint64_t>(1 + seed),
                                        horizon));
        }
      }
    }
  }
  const std::vector<ScenarioResult> results = sweep.run();
  const double wallSeconds = timer.seconds();

  auto pick = [&](const std::vector<std::size_t>& indices) {
    Runs runs;
    for (std::size_t i : indices) runs.push_back(&results[i]);
    return runs;
  };
  figure4(pick(lifetimeRuns), wallSeconds);
  figure5(pick(lifetimeRuns), wallSeconds);
  figure6(pick(pauseRuns), pauseTimes, seeds, horizon, wallSeconds);
  figure7(pick(pauseRuns), pauseTimes, seeds, horizon, wallSeconds);
  figure8(pick(densityRuns), densityProtocols, densities, wallSeconds);
  return 0;
}
