// Quickstart: run one ECGRID scenario and print the headline numbers.
//
//   $ ./quickstart [--protocol ECGRID|GRID|GAF|FLOOD] [--hosts N]
//                  [--speed M/S] [--duration S] [--seed N]
//                  [--trace-events PATH] [--profile]
//
// This is the smallest complete use of the library: configure a scenario,
// run it, read the result. The observability flags:
//   --trace-events=ev.jsonl  write the run's one diagnostics stream:
//                            protocol spans and instants (elections,
//                            RETIRE, RAS pages and wakes, per-hop routing,
//                            MAC drops, collisions, deaths) plus run-health
//                            counter records; check it with
//                            tools/trace_check.py, convert it with
//                            tools/trace_chrome.py and open it in Perfetto
//   --profile                per-event-label dispatch counts + wall time
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) try {
  using namespace ecgrid;

  const util::Flags flags = util::Flags::parseOrExit(
      argc, argv,
      {"protocol", "hosts", "speed", "duration", "seed", "flows", "pps",
       "latency-percentiles", "trace-events", "profile"},
      "usage: quickstart [flags]\n"
      "Run one scenario (default ECGRID, 100 hosts, 600 s) and print the "
      "headline numbers.");

  harness::ScenarioConfig config;
  const std::string protocolName = flags.getString("protocol", "ECGRID");
  const auto protocol = harness::protocolFromString(protocolName);
  if (!protocol.has_value()) {
    flags.reject("protocol", protocolName, "ECGRID, GRID, GAF or FLOOD");
  }
  config.protocol = *protocol;
  config.hostCount = flags.getInt("hosts", 100);
  config.maxSpeed = flags.getDouble("speed", 1.0);
  config.duration = flags.getDouble("duration", 600.0);
  config.seed = flags.getUnsigned("seed", 1);
  config.flowCount = flags.getInt("flows", 10);
  config.packetsPerSecondPerFlow = flags.getDouble("pps", 1.0);
  config.eventTracePath = flags.getString("trace-events", "");
  config.profileSimulator = flags.getBool("profile", false);

  std::printf("ECGRID quickstart — protocol=%s hosts=%d speed=%.1f m/s "
              "duration=%.0f s\n",
              harness::toString(config.protocol), config.hostCount,
              config.maxSpeed, config.duration);

  harness::ScenarioResult result = harness::runScenario(config);
  auto count = [&result](const char* name) {
    return obs::metricOr(result.metrics, name);
  };

  std::printf("  events executed      : %llu\n",
              static_cast<unsigned long long>(result.eventsExecuted));
  std::printf("  frames on the air    : %.0f\n",
              count("phy.frames_transmitted"));
  std::printf("  RAS pages sent       : %.0f\n", count("paging.pages_sent"));
  std::printf("  packets sent/received: %llu / %llu (PDR %.2f%%)\n",
              static_cast<unsigned long long>(result.packetsSent),
              static_cast<unsigned long long>(result.packetsReceived),
              100.0 * result.deliveryRate);
  std::printf("  mean latency         : %.2f ms (p95 %.2f ms)\n",
              1e3 * result.meanLatencySeconds, 1e3 * result.p95LatencySeconds);
  std::printf("  median latency       : %.2f ms\n",
              1e3 * result.p50LatencySeconds);
  std::printf("  first host death     : %s\n",
              result.firstDeath >= sim::kTimeNever
                  ? "none"
                  : (std::to_string(result.firstDeath) + " s").c_str());
  std::printf("  alive at end         : %.0f%%\n",
              100.0 * result.aliveFraction.points().back().second);
  std::printf("  alive curve          :");
  for (double t : {200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0, 1600.0,
                   2000.0}) {
    if (t > config.duration) break;
    std::printf(" %.0f:%.2f", t, result.aliveFraction.valueAt(t));
  }
  std::printf("\n");
  std::printf("  awake curve          :");
  for (double t : {100.0, 300.0, 500.0, 700.0, 900.0}) {
    if (t > config.duration) break;
    std::printf(" %.0f:%.2f", t, result.awakeFraction.valueAt(t));
  }
  std::printf("\n");
  std::printf("  aen at end           : %.3f\n",
              result.aen.points().back().second);
  if (flags.getBool("latency-percentiles", false) &&
      !result.latencies.empty()) {
    std::vector<double> sorted = result.latencies;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
      std::size_t idx =
          static_cast<std::size_t>(p / 100.0 * (sorted.size() - 1));
      std::printf("  latency p%-4.0f        : %.1f ms\n", p,
                  1e3 * sorted[idx]);
    }
  }
  std::printf("  mac: sent=%.0f dropped=%.0f retx=%.0f acks=%.0f/skip=%.0f\n",
              count("mac.frames_sent"), count("mac.frames_dropped"),
              count("mac.retransmissions"), count("mac.acks_sent"),
              count("mac.acks_skipped"));
  std::printf(
      "  routing: forwarded=%.0f delivered=%.0f dropped=%.0f rreq=%.0f "
      "rrep=%.0f rerr=%.0f disc=%.0f discFail=%.0f\n",
      count("routing.data_forwarded"), count("routing.data_delivered_local"),
      count("routing.data_dropped"), count("routing.rreqs_sent"),
      count("routing.rreps_sent"), count("routing.rerrs_sent"),
      count("routing.discoveries_started"),
      count("routing.discoveries_failed"));
  if (!config.eventTracePath.empty()) {
    std::printf("  event trace          : %s (%llu events; convert with "
                "tools/trace_chrome.py)\n",
                config.eventTracePath.c_str(),
                static_cast<unsigned long long>(result.traceEventsWritten));
  }
  if (config.profileSimulator) {
    std::printf("  profile (top event labels by wall time):\n");
    std::vector<std::pair<double, std::string>> byWall;
    const std::string prefix = "profile.events.";
    const std::string suffix = ".wall_s";
    for (const auto& [name, value] : result.metrics) {
      if (name.size() > prefix.size() + suffix.size() &&
          name.compare(0, prefix.size(), prefix) == 0 &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        byWall.emplace_back(
            value, name.substr(prefix.size(),
                               name.size() - prefix.size() - suffix.size()));
      }
    }
    std::sort(byWall.rbegin(), byWall.rend());
    for (std::size_t i = 0; i < byWall.size() && i < 6; ++i) {
      auto countIt =
          result.metrics.find(prefix + byWall[i].second + ".count");
      std::printf("    %-22s %10.0f events %9.3f s\n",
                  byWall[i].second.c_str(),
                  countIt != result.metrics.end() ? countIt->second : 0.0,
                  byWall[i].first);
    }
  }
  return 0;
} catch (const std::exception& e) {
  // A malformed flag value (with usage) or an invalid scenario: a message
  // and exit 2, never std::terminate.
  return ecgrid::util::Flags::exitCodeFor(argv[0], e);
}
