#include "campaign/campaign_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <vector>

#include "harness/parallel_runner.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace ecgrid::campaign {

namespace {

/// Completed-run wall-time ledger backing the status heartbeat. Wall
/// times come from ScenarioResult::runWallSeconds — the runner itself
/// never reads a clock, so the results JSONL stays wall-free.
struct WallLedger {
  std::vector<std::pair<std::string, double>> runs;  ///< (fingerprint, s)

  void add(const std::string& fingerprint, double seconds) {
    runs.emplace_back(fingerprint, seconds);
  }

  [[nodiscard]] std::vector<double> sortedSeconds() const {
    std::vector<double> seconds;
    seconds.reserve(runs.size());
    for (const auto& [fingerprint, s] : runs) seconds.push_back(s);
    std::sort(seconds.begin(), seconds.end());
    return seconds;
  }
};

double percentileOf(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// One status snapshot, written atomically (temp file + rename) so a
/// watcher polling the path never reads a torn JSON document.
void writeStatus(const CampaignOptions& options, const std::string& name,
                 const CampaignOutcome& outcome, const WallLedger& ledger,
                 const std::vector<std::string>& inFlight, bool done) {
  if (options.statusPath.empty()) return;
  const std::vector<double> sorted = ledger.sortedSeconds();
  // Lower median: with few completed runs this biases the baseline to
  // the fast side, so a single slow run still stands out as a straggler.
  const double median =
      sorted.empty() ? 0.0 : sorted[(sorted.size() - 1) / 2];
  double total = 0.0;
  for (double s : sorted) total += s;

  util::JsonObject status;
  status["campaign"] = name;
  status["total_runs"] = static_cast<double>(outcome.totalRuns);
  status["skipped"] = static_cast<double>(outcome.skipped);
  status["executed"] = static_cast<double>(outcome.executed);
  status["failed"] = static_cast<double>(outcome.failed);
  const std::size_t accounted =
      std::min(outcome.totalRuns, outcome.skipped + outcome.executed);
  const std::size_t remaining = outcome.totalRuns - accounted;
  status["remaining"] = static_cast<double>(remaining);
  util::JsonArray inFlightJson;
  for (const std::string& fingerprint : inFlight) {
    inFlightJson.emplace_back(fingerprint);
  }
  status["in_flight"] = util::JsonValue(std::move(inFlightJson));

  util::JsonObject wall;
  wall["completed"] = static_cast<double>(sorted.size());
  wall["mean"] = sorted.empty()
                     ? 0.0
                     : total / static_cast<double>(sorted.size());
  wall["p50"] = percentileOf(sorted, 50.0);
  wall["p90"] = percentileOf(sorted, 90.0);
  wall["max"] = sorted.empty() ? 0.0 : sorted.back();
  status["wall_seconds"] = util::JsonValue(std::move(wall));
  // ETA from the median completed run, scaled by in-process parallelism.
  status["eta_seconds"] =
      median * static_cast<double>(remaining) /
      static_cast<double>(std::max(1u, options.jobs));

  util::JsonArray stragglers;
  if (options.stragglerFactor > 0.0 && median > 0.0) {
    for (const auto& [fingerprint, seconds] : ledger.runs) {
      if (seconds >= options.stragglerFactor * median) {
        util::JsonObject straggler;
        straggler["fingerprint"] = fingerprint;
        straggler["wall_seconds"] = seconds;
        straggler["ratio"] = seconds / median;
        stragglers.emplace_back(std::move(straggler));
      }
    }
  }
  status["stragglers"] = util::JsonValue(std::move(stragglers));
  status["done"] = done;

  const std::string tmpPath = options.statusPath + ".tmp";
  {
    std::ofstream out(tmpPath, std::ios::trunc);
    if (!out) return;  // status is best-effort; never fail the campaign
    out << util::JsonValue(std::move(status)).dump() << '\n';
  }
  std::rename(tmpPath.c_str(), options.statusPath.c_str());
}

util::JsonObject resultToJson(const harness::ScenarioResult& result) {
  util::JsonObject out;
  out["packetsSent"] = static_cast<double>(result.packetsSent);
  out["packetsReceived"] = static_cast<double>(result.packetsReceived);
  out["abortedFlows"] = static_cast<double>(result.abortedFlows);
  out["deliveryRate"] = result.deliveryRate;
  out["meanLatencySeconds"] = result.meanLatencySeconds;
  out["p50LatencySeconds"] = result.p50LatencySeconds;
  out["p95LatencySeconds"] = result.p95LatencySeconds;
  out["p99LatencySeconds"] = result.p99LatencySeconds;
  out["eventsExecuted"] = static_cast<double>(result.eventsExecuted);
  out["peakQueueDepth"] = static_cast<double>(result.peakQueueDepth);
  out["slabSlots"] = static_cast<double>(result.slabSlotsTotal);
  out["firstDeath"] = result.firstDeath;
  out["networkDown"] = result.networkDown;
  util::JsonObject metrics;
  for (const auto& [name, value] : result.metrics) metrics[name] = value;
  out["metrics"] = std::move(metrics);
  return out;
}

std::string describeException(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace

std::set<std::string> completedFingerprints(const std::string& path) {
  std::set<std::string> done;
  std::ifstream in(path);
  if (!in) return done;  // fresh campaign: nothing recorded yet
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      const util::JsonValue record = util::parseJson(line);
      const util::JsonValue* fingerprint = record.find("fingerprint");
      if (fingerprint != nullptr) done.insert(fingerprint->asString());
    } catch (const std::invalid_argument&) {
      // Torn line (the process died mid-write): that run simply does
      // not count as completed and will execute again.
    }
  }
  return done;
}

std::string recordToJson(const std::string& campaignName, const RunSpec& run,
                         const harness::ScenarioResult* result,
                         const std::string& error) {
  util::JsonObject record;
  record["campaign"] = campaignName;
  record["fingerprint"] = run.fingerprint;
  record["seed"] = static_cast<double>(run.seed);
  record["config"] = run.overrides;
  record["ok"] = result != nullptr;
  record["error"] = error;
  if (result != nullptr) {
    record["result"] = resultToJson(*result);
  }
  return util::JsonValue(std::move(record)).dump();
}

CampaignOutcome runCampaign(const CampaignSpec& spec,
                            const CampaignOptions& options) {
  ECGRID_REQUIRE(!options.resultsPath.empty(), "campaign needs a results path");

  const std::vector<RunSpec> runs = expandCampaign(spec);
  const std::set<std::string> done =
      completedFingerprints(options.resultsPath);

  CampaignOutcome outcome;
  outcome.totalRuns = runs.size();
  std::vector<const RunSpec*> pending;
  for (const RunSpec& run : runs) {
    if (done.count(run.fingerprint) > 0) {
      ++outcome.skipped;
      continue;
    }
    pending.push_back(&run);
  }

  std::ofstream out(options.resultsPath, std::ios::app);
  ECGRID_REQUIRE(static_cast<bool>(out), "cannot open campaign results file '" +
                                             options.resultsPath +
                                             "' for append");

  const std::size_t batchSize = std::max(1u, options.jobs);
  WallLedger ledger;
  writeStatus(options, spec.name, outcome, ledger, {}, false);
  std::size_t cursor = 0;
  while (cursor < pending.size()) {
    if (options.maxRuns >= 0 &&
        outcome.executed >= static_cast<std::size_t>(options.maxRuns)) {
      break;
    }
    std::size_t batchEnd = std::min(pending.size(), cursor + batchSize);
    if (options.maxRuns >= 0) {
      const std::size_t budget =
          static_cast<std::size_t>(options.maxRuns) - outcome.executed;
      batchEnd = std::min(batchEnd, cursor + budget);
    }

    // Resolve the batch. A spec that names an unknown key fails at parse
    // time, but value-level errors (e.g. a negative rate the workload
    // plan rejects) surface here — record them, keep going.
    std::vector<harness::ScenarioConfig> configs;
    std::vector<const RunSpec*> batchRuns;
    for (std::size_t i = cursor; i < batchEnd; ++i) {
      const RunSpec& run = *pending[i];
      try {
        configs.push_back(resolveConfig(run.overrides, run.seed));
        batchRuns.push_back(&run);
      } catch (const std::exception& e) {
        out << recordToJson(spec.name, run, nullptr, e.what()) << '\n';
        ++outcome.executed;
        ++outcome.failed;
      }
    }

    if (!options.statusPath.empty() && !batchRuns.empty()) {
      // Heartbeat before the batch runs: a watcher sees which
      // fingerprints are in flight, so a wedged batch is attributable.
      std::vector<std::string> inFlight;
      inFlight.reserve(batchRuns.size());
      for (const RunSpec* run : batchRuns) {
        inFlight.push_back(run->fingerprint);
      }
      writeStatus(options, spec.name, outcome, ledger, inFlight, false);
    }

    std::vector<std::exception_ptr> failures;
    const std::vector<harness::ScenarioResult> results =
        harness::runScenariosParallel(configs, options.jobs, failures);
    for (std::size_t i = 0; i < batchRuns.size(); ++i) {
      ++outcome.executed;
      if (failures[i] != nullptr) {
        ++outcome.failed;
        out << recordToJson(spec.name, *batchRuns[i], nullptr,
                            describeException(failures[i]))
            << '\n';
      } else {
        ledger.add(batchRuns[i]->fingerprint, results[i].runWallSeconds);
        out << recordToJson(spec.name, *batchRuns[i], &results[i], "")
            << '\n';
      }
    }
    out.flush();
    ECGRID_CHECK(static_cast<bool>(out),
                 "writing campaign results failed (disk full?)");

    if (options.progress) {
      options.progress("campaign " + spec.name + ": " +
                       std::to_string(outcome.skipped + outcome.executed) +
                       "/" + std::to_string(outcome.totalRuns) +
                       " runs done (" + std::to_string(outcome.failed) +
                       " failed)");
    }
    writeStatus(options, spec.name, outcome, ledger, {}, false);
    cursor = batchEnd;
  }
  // done=true only when the expansion is fully accounted for — a maxRuns
  // cut (the simulated kill) leaves done=false, and the resumed
  // invocation's status picks the counts back up from the results file.
  writeStatus(options, spec.name, outcome, ledger, {},
              outcome.skipped + outcome.executed >= outcome.totalRuns);
  return outcome;
}

}  // namespace ecgrid::campaign
