// Ablations of ECGRID's design choices, beyond the paper's figures:
//   sleep         GRID, ECGRID without sleeping (election and load balance
//                 only) and full ECGRID: does sleeping save the energy?
//   load_balance  battery-level gateway retirement (§3.2) on and off: the
//                 spread of death times.
//   grid_size     cell side d around the paper's 100 m; past d_max =
//                 √2·r/3 ≈ 117.9 m (§2) a centre gateway no longer reaches
//                 all eight neighbours, so delivery should degrade.
//   search_range  rectangle-confined route discovery (§3.3) vs global
//                 flooding vs no location information (every search
//                 global), with five 2 pkt/s flows.
//   hello_period  HELLO period: table freshness vs beacon cost, the cost
//                 the paper blames for ECGRID's small deficit against GAF.
//   interference  an interference ring at 1.5× and 2× the 250 m decode
//                 range: the fidelity margin of the unit-disk radio.
// All 21 variants run in one pool. Each table cell is the record metric
// <ablation>.<variant>.<column> in BENCH_ablations.json, and each run's
// registry snapshot the scenario <ablation>.<variant>.
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "geo/grid.hpp"

namespace {

using namespace ecgrid;
using harness::ProtocolKind;
using harness::ScenarioConfig;
using harness::ScenarioResult;

struct Column {
  std::string name;  ///< metric suffix in the record
  std::string header;
  int precision;
  std::function<double(const ScenarioResult&, const ScenarioConfig&)> value;
};

struct Ablation {
  std::string name;
  std::string title;
  std::string variantHeader;
  std::vector<Column> columns;
};

struct Row {
  std::string ablation;  ///< Ablation::name
  std::string variant;
  double duration;
  std::function<void(ScenarioConfig&)> mutate;
};

double deathSpread(const std::vector<double>& deaths) {
  if (deaths.size() < 2) return 0.0;
  double mean = 0.0;
  for (double d : deaths) mean += d;
  mean /= static_cast<double>(deaths.size());
  double var = 0.0;
  for (double d : deaths) var += (d - mean) * (d - mean);
  return std::sqrt(var / static_cast<double>(deaths.size()));
}

Column counter(const char* name, const char* header, const char* metric) {
  return {name, header, 0,
          [metric](const ScenarioResult& r, const ScenarioConfig&) {
            return obs::metricOr(r.metrics, metric);
          }};
}

Column aliveAt(double t) {
  const std::string at = std::to_string(static_cast<int>(t));
  return {"alive_at_" + at, "alive@" + at, 2,
          [t](const ScenarioResult& r, const ScenarioConfig&) {
            return r.aliveFraction.valueAt(t);
          }};
}

const Column kPdr{"pdr_pct", "PDR%", 2,
                  [](const ScenarioResult& r, const ScenarioConfig&) {
                    return 100.0 * r.deliveryRate;
                  }};
const Column kLatency{"latency_ms", "latency ms", 1,
                      [](const ScenarioResult& r, const ScenarioConfig&) {
                        return 1e3 * r.meanLatencySeconds;
                      }};
/// -1 when no host died within the horizon.
const Column kFirstDeath{"first_death_s", "1st death", 0,
                         [](const ScenarioResult& r, const ScenarioConfig&) {
                           return r.firstDeath >= sim::kTimeNever
                                      ? -1.0
                                      : r.firstDeath;
                         }};

std::vector<Ablation> ablations() {
  const std::string gridTitle =
      bench::format("Ablation — grid cell side d (r=250 m, d_max=%.1f m)",
                    geo::maxCellSideForRange(250.0));
  const Column framesOnAir =
      counter("frames_on_air", "frames on air", "phy.frames_transmitted");
  return {
      {"sleep", "Ablation — sleep mode vs election rules only", "variant",
       {kFirstDeath, aliveAt(700.0), aliveAt(900.0), kPdr}},
      {"load_balance", "Ablation — ECGRID load-balance retirement", "variant",
       {kFirstDeath,
        {"death_std_s", "death std", 1,
         [](const ScenarioResult& r, const ScenarioConfig&) {
           return deathSpread(r.deathTimes);
         }},
        aliveAt(800.0), kPdr}},
      {"grid_size", gridTitle, "d (m)",
       {kPdr, kLatency,
        {"awake_at_300", "awake@300", 2,
         [](const ScenarioResult& r, const ScenarioConfig&) {
           return r.awakeFraction.valueAt(300.0);
         }},
        {"alive_at_end", "alive@end", 2,
         [](const ScenarioResult& r, const ScenarioConfig&) {
           return r.aliveFraction.points().back().second;
         }}}},
      {"search_range", "Ablation — RREQ search-range confinement", "variant",
       {kPdr, kLatency, framesOnAir,
        counter("rreq_relays", "RREQ relays", "routing.rreqs_sent")}},
      {"hello_period", "Ablation — HELLO period (ECGRID)", "period (ms)",
       {kPdr, kLatency, aliveAt(800.0),
        {"frame_rate_hz", "frames/s", 0,
         [](const ScenarioResult& r, const ScenarioConfig& c) {
           return obs::metricOr(r.metrics, "phy.frames_transmitted") /
                  c.duration;
         }}}},
      {"interference", "Ablation — interference range (decode range 250 m)",
       "interf. range (m)",
       {kPdr, kLatency,
        counter("mac_retx", "MAC retx", "mac.retransmissions"), framesOnAir}},
  };
}

/// Every variant of every ablation: ECGRID on paperBaseline() unless the
/// mutation says otherwise.
std::vector<Row> rows(bool quick) {
  const double lifetime = quick ? 900.0 : 1600.0;
  const double horizon = quick ? 300.0 : 590.0;
  std::vector<Row> rows = {
      {"sleep", "GRID", lifetime,
       [](ScenarioConfig& c) { c.protocol = ProtocolKind::kGrid; }},
      {"sleep", "ECGRID_sleep_off", lifetime,
       [](ScenarioConfig& c) { c.ecgrid.enableSleep = false; }},
      {"sleep", "ECGRID_full", lifetime, [](ScenarioConfig&) {}},
      {"load_balance", "load_balance_on", lifetime,
       [](ScenarioConfig& c) { c.ecgrid.enableLoadBalance = true; }},
      {"load_balance", "load_balance_off", lifetime,
       [](ScenarioConfig& c) { c.ecgrid.enableLoadBalance = false; }},
  };
  for (double d : {60.0, 80.0, 100.0, 118.0, 140.0, 170.0}) {
    rows.push_back({"grid_size", std::to_string(static_cast<int>(d)),
                    quick ? 400.0 : 590.0,
                    [d](ScenarioConfig& c) { c.gridCellSide = d; }});
  }
  // "no location oracle": the source knows nothing of the destination's
  // position, so every search is global (paper §3.3).
  struct Search {
    const char* variant;
    bool confined;
    bool oracle;
  };
  for (const Search& search : {Search{"confined", true, true},
                               Search{"global_flooding", false, true},
                               Search{"no_location_oracle", true, false}}) {
    rows.push_back({"search_range", search.variant, horizon,
                    [search](ScenarioConfig& c) {
                      c.ecgrid.base.routing.confinedSearch = search.confined;
                      c.useLocationOracle = search.oracle;
                      c.flowCount = 5;
                      c.packetsPerSecondPerFlow = 2.0;
                    }});
  }
  for (int periodMs : {500, 1000, 2000, 4000}) {
    rows.push_back({"hello_period", std::to_string(periodMs),
                    quick ? 400.0 : 1000.0, [periodMs](ScenarioConfig& c) {
                      c.ecgrid.base.helloPeriod = periodMs / 1000.0;
                    }});
  }
  for (double factor : {1.0, 1.5, 2.0}) {
    rows.push_back({"interference",
                    std::to_string(static_cast<int>(factor * 250.0)), horizon,
                    [factor](ScenarioConfig& c) {
                      c.interferenceRangeFactor = factor;
                    }});
  }
  return rows;
}

}  // namespace

int main() {
  bench::checkKnobs();
  const std::vector<Ablation> tables = ablations();
  const std::vector<Row> variants = rows(bench::quickMode());

  bench::WallTimer timer;
  std::vector<ScenarioConfig> configs;
  std::vector<std::string> labels;
  for (const Row& row : variants) {
    ScenarioConfig config = bench::paperBaseline();
    config.protocol = ProtocolKind::kEcgrid;
    config.duration = row.duration;
    row.mutate(config);
    bench::applyHorizonCap(config);
    configs.push_back(config);
    labels.push_back(row.ablation + "." + row.variant);
  }
  const std::vector<ScenarioResult> results =
      bench::runLabelled(configs, labels);

  bench::BenchReport report("ablations");
  report.addRuns(results);
  for (const Ablation& table : tables) {
    std::printf("%s\n  %-28s", table.title.c_str(),
                table.variantHeader.c_str());
    for (const Column& column : table.columns) {
      std::printf(" %13s", column.header.c_str());
    }
    std::printf("\n");
    for (std::size_t i = 0; i < variants.size(); ++i) {
      if (variants[i].ablation != table.name) continue;
      std::printf("  %-28s", variants[i].variant.c_str());
      for (const Column& column : table.columns) {
        const double value = column.value(results[i], configs[i]);
        std::printf(" %13.*f", column.precision, value);
        report.addMetric(labels[i] + "." + column.name, value);
      }
      std::printf("\n");
      report.addScenarioMetrics(labels[i], results[i].metrics);
    }
    std::printf("\n");
  }
  report.write(timer.seconds());
  return 0;
}
