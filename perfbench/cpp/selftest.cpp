// Self-test of the benchmark's own checks (perfbench --selftest):
//   1. each output identity catches a result that breaks it;
//   2. a scenario that throws counts as a failed run;
//   3. one seed run twice gives identical counters and digest traces;
//   4. a traced pass reproduces the untraced pass's counters exactly, so
//      the profiler only observes.
#include <cstdio>
#include <functional>
#include <string>

#include "perfbench.hpp"

namespace perfbench {

namespace {

using ecgrid::harness::ScenarioConfig;
using ecgrid::harness::ScenarioResult;

int report(bool ok, const std::string& what) {
  std::printf("selftest %s: %s\n", ok ? "PASS" : "FAIL", what.c_str());
  return ok ? 0 : 1;
}

/// `series` with its last point replaced.
ecgrid::stats::TimeSeries withLastPoint(const ecgrid::stats::TimeSeries& series,
                                        double t, double v) {
  ecgrid::stats::TimeSeries out(series.label());
  const auto& points = series.points();
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    out.add(points[i].first, points[i].second);
  }
  out.add(t, v);
  return out;
}

int identityChecks() {
  const ScenarioConfig config = workloadScenarios("paper_lifetime", 3, 1.0, true)[1];
  const ScenarioResult good = ecgrid::harness::runScenario(config);
  int failures = report(checkIdentities(config, good).empty(),
                        "a valid run passes every identity");
  const double horizon = config.duration;
  const std::vector<std::pair<std::string, std::function<void(ScenarioResult&)>>>
      mutations = {
          {"received > sent",
           [](ScenarioResult& r) { r.packetsReceived = r.packetsSent + 1; }},
          {"delivery ratio > 1", [](ScenarioResult& r) { r.deliveryRate = 1.5; }},
          {"delivery ratio < 0",
           [](ScenarioResult& r) { r.deliveryRate = -0.1; }},
          {"energy drawn > capacity",
           [horizon](ScenarioResult& r) {
             r.aen = withLastPoint(r.aen, horizon, 1.01);
           }},
          {"more deaths than hosts",
           [](ScenarioResult& r) { r.deathTimes.resize(1000, 1.0); }},
          {"stopped before horizon",
           [horizon](ScenarioResult& r) {
             r.aliveFraction = withLastPoint(r.aliveFraction, horizon / 2, 1.0);
           }},
      };
  for (const auto& [name, mutate] : mutations) {
    ScenarioResult broken = good;
    mutate(broken);
    const std::string caught = checkIdentities(config, broken);
    failures += report(!caught.empty(),
                       "identity check catches " + name + " (" + caught + ")");
  }
  return failures;
}

int throwCheck() {
  ScenarioConfig config = workloadScenarios("paper_lifetime", 3, 1.0, true)[0];
  config.hostCount = 0;  // runScenario rejects this with an exception
  const Pass pass = runPass({config}, false, nullptr);
  return report(pass.failed() == 1 &&
                    pass.runs[0].failure.find("threw") != std::string::npos,
                "a throwing scenario counts as a failed run");
}

int replayCheck() {
  ScenarioConfig config = workloadScenarios("dense_ecgrid", 5, 1.0, true)[0];
  config.digestEveryEvents = 4096;
  const ScenarioResult a = ecgrid::harness::runScenario(config);
  const ScenarioResult b = ecgrid::harness::runScenario(config);
  const bool sameDigests =
      !a.digestTrace.empty() && a.digestTrace == b.digestTrace;
  const bool sameCounters = a.metrics == b.metrics &&
                            a.eventsExecuted == b.eventsExecuted &&
                            a.packetsReceived == b.packetsReceived;
  char what[160];
  std::snprintf(what, sizeof what,
                "replay of one seed: %zu digests, final %016llx, identical "
                "counters",
                a.digestTrace.size(),
                a.digestTrace.empty()
                    ? 0ULL
                    : static_cast<unsigned long long>(a.digestTrace.back().digest));
  return report(sameDigests && sameCounters, what);
}

int tracedEqualsUntraced() {
  int failures = 0;
  for (const std::string& workload : workloadNames()) {
    const auto scenarios = workloadScenarios(workload, 7, 1.0, true);
    const Pass untraced = runPass(scenarios, false, nullptr);
    const Pass traced = runPass(scenarios, true, nullptr);
    const std::string diff = compareCounters(untraced, traced);
    bool profiled = true;
    for (const ScenarioRun& run : traced.runs) profiled &= !run.profile.empty();
    failures += report(diff.empty() && profiled && untraced.failed() == 0,
                       workload + ": traced counters equal untraced" +
                           (diff.empty() ? "" : " (differs: " + diff + ")"));
  }
  return failures;
}

}  // namespace

int runSelfTest() {
  return identityChecks() + throwCheck() + replayCheck() +
         tracedEqualsUntraced();
}

}  // namespace perfbench
