// ecgrid-campaign — expand a declarative sweep spec into scenario runs,
// execute them with failure collection, and stream JSONL results.
//
//   ecgrid-campaign --spec=sweep.json --results=out.jsonl --jobs=8
//
// The results file is the campaign's durable state: every completed
// scenario is one flushed line, and re-running the same command skips
// every (config, seed) fingerprint already present — kill it at any
// point and restart to continue (src/campaign/campaign_runner.hpp).
//
// --workers=N forks N copies of this binary, each owning the stripe of
// runs with index % N == i and appending to its own `<results>.w<i>`
// file; the parent merges worker files back into `<results>` when all
// children exit. Leftover worker files from a killed previous run are
// merged *before* forking, so no completed run is ever lost or repeated.
//
// Flags:
//   --spec=FILE        sweep spec JSON (or first positional argument)
//   --results=FILE     JSONL output, appended (default: <spec>.jsonl)
//   --jobs=N           scenario threads per process (default 1)
//   --workers=N        worker processes (default 1 = in-process only)
//   --max-runs=N       stop after N scenarios (testing: simulated kill)
//   --resume-from=F    extra JSONL file(s) for the resume scan
//                      (comma-separated; may repeat via commas)
//   --status-file=F    live JSON status heartbeat, rewritten atomically
//                      per batch: counts, in-flight fingerprints, wall
//                      percentiles, ETA, stragglers. With --workers=N
//                      each worker writes `F.w<i>` and the parent polls
//                      and aggregates them into F.
//   --straggler-factor=K  flag completed runs at >= K x median wall time
//                      (default 4)
//   --dry-run          print the expansion summary and exit
//   --quiet            suppress per-batch progress lines

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign_runner.hpp"
#include "campaign/sweep_spec.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace {

using ecgrid::campaign::CampaignOptions;
using ecgrid::campaign::CampaignOutcome;
using ecgrid::campaign::CampaignSpec;

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot read spec file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> splitCommas(const std::string& list) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(list);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Append every line of `workerPath` to `mainPath` and remove the worker
/// file. Missing worker files are fine (worker never started).
void mergeWorkerFile(const std::string& mainPath,
                     const std::string& workerPath) {
  std::ifstream in(workerPath);
  if (!in) return;
  std::ofstream out(mainPath, std::ios::app);
  if (!out) {
    throw std::runtime_error("cannot append to results file '" + mainPath +
                             "'");
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out << line << '\n';
  }
  out.flush();
  in.close();
  if (std::remove(workerPath.c_str()) != 0) {
    throw std::runtime_error("cannot remove merged worker file '" +
                             workerPath + "'");
  }
}

std::string workerResultsPath(const std::string& resultsPath, int worker) {
  return resultsPath + ".w" + std::to_string(worker);
}

std::string workerStatusPath(const std::string& statusPath, int worker) {
  return statusPath + ".w" + std::to_string(worker);
}

/// Fold the per-worker status heartbeats into one fleet-level status
/// file: summed counts, concatenated in-flight/straggler lists, the max
/// worker ETA (workers run in parallel), and the raw per-worker objects
/// for drill-down. Best-effort: a worker that has not written yet simply
/// contributes nothing, and a torn read is skipped (workers write via
/// rename, so that only happens for exotic filesystems).
void aggregateWorkerStatus(const std::string& statusPath, int workers,
                           const std::string& campaignName) {
  ecgrid::util::JsonObject fleet;
  double totalRuns = 0.0;
  double stripeRuns = 0.0;
  double skipped = 0.0;
  double executed = 0.0;
  double failed = 0.0;
  double remaining = 0.0;
  double etaMax = 0.0;
  int reporting = 0;
  int done = 0;
  ecgrid::util::JsonArray inFlight;
  ecgrid::util::JsonArray stragglers;
  ecgrid::util::JsonArray perWorker;
  for (int w = 0; w < workers; ++w) {
    std::ifstream in(workerStatusPath(statusPath, w));
    if (!in) continue;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    ecgrid::util::JsonValue status;
    try {
      status = ecgrid::util::parseJson(buffer.str());
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++reporting;
    const auto number = [&status](const char* key) {
      const ecgrid::util::JsonValue* value = status.find(key);
      return value != nullptr && value->kind() == ecgrid::util::JsonKind::kNumber
                 ? value->asNumber()
                 : 0.0;
    };
    // total_runs is the full expansion, identical in every worker.
    totalRuns = number("total_runs");
    stripeRuns += number("stripe_runs");
    skipped += number("skipped");
    executed += number("executed");
    failed += number("failed");
    remaining += number("remaining");
    etaMax = std::max(etaMax, number("eta_seconds"));
    if (const auto* flag = status.find("done");
        flag != nullptr && flag->kind() == ecgrid::util::JsonKind::kBool &&
        flag->asBool()) {
      ++done;
    }
    if (const auto* list = status.find("in_flight");
        list != nullptr && list->kind() == ecgrid::util::JsonKind::kArray) {
      for (const auto& item : list->asArray()) inFlight.push_back(item);
    }
    if (const auto* list = status.find("stragglers");
        list != nullptr && list->kind() == ecgrid::util::JsonKind::kArray) {
      for (const auto& item : list->asArray()) stragglers.push_back(item);
    }
    perWorker.push_back(status);
  }
  fleet["campaign"] = campaignName;
  fleet["worker_count"] = static_cast<double>(workers);
  fleet["workers_reporting"] = static_cast<double>(reporting);
  fleet["total_runs"] = totalRuns;
  fleet["stripe_runs"] = stripeRuns;
  fleet["skipped"] = skipped;
  fleet["executed"] = executed;
  fleet["failed"] = failed;
  fleet["remaining"] = remaining;
  fleet["eta_seconds"] = etaMax;
  fleet["in_flight"] = ecgrid::util::JsonValue(std::move(inFlight));
  fleet["stragglers"] = ecgrid::util::JsonValue(std::move(stragglers));
  fleet["per_worker"] = ecgrid::util::JsonValue(std::move(perWorker));
  fleet["done"] = reporting == workers && done == workers;

  const std::string tmpPath = statusPath + ".tmp";
  {
    std::ofstream out(tmpPath, std::ios::trunc);
    if (!out) return;
    out << ecgrid::util::JsonValue(std::move(fleet)).dump() << '\n';
  }
  std::rename(tmpPath.c_str(), statusPath.c_str());
}

/// Fork+exec one copy of this binary per worker, each striping the
/// expansion and appending to its own file; merge when all exit. With a
/// status path, the parent polls the per-worker heartbeats while waiting
/// and keeps the aggregated fleet status fresh.
int runMultiProcess(const std::string& self, const std::string& specPath,
                    const std::string& resultsPath, int workers, int jobs,
                    long maxRuns, bool quiet, const std::string& statusPath,
                    const std::string& stragglerFactor,
                    const std::string& campaignName) {
  // Recover any previous interrupted multi-process run first, so the
  // children's resume scan only needs the main file.
  for (int w = 0; w < workers; ++w) {
    mergeWorkerFile(resultsPath, workerResultsPath(resultsPath, w));
  }

  std::vector<pid_t> children;
  for (int w = 0; w < workers; ++w) {
    std::vector<std::string> args = {
        self,
        "--spec=" + specPath,
        "--results=" + workerResultsPath(resultsPath, w),
        "--resume-from=" + resultsPath,
        "--worker-index=" + std::to_string(w),
        "--worker-count=" + std::to_string(workers),
        "--jobs=" + std::to_string(jobs),
    };
    if (maxRuns >= 0) args.push_back("--max-runs=" + std::to_string(maxRuns));
    if (quiet) args.push_back("--quiet");
    if (!statusPath.empty()) {
      args.push_back("--status-file=" + workerStatusPath(statusPath, w));
      args.push_back("--straggler-factor=" + stragglerFactor);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("ecgrid-campaign: fork");
      return 1;
    }
    if (pid == 0) {
      execv(self.c_str(), argv.data());
      std::perror("ecgrid-campaign: execv");
      _exit(127);
    }
    children.push_back(pid);
  }

  int exitCode = 0;
  if (statusPath.empty()) {
    for (pid_t pid : children) {
      int status = 0;
      if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        exitCode = 1;
      }
    }
  } else {
    // Non-blocking wait loop so the fleet status stays fresh while
    // workers run: re-aggregate every ~200 ms.
    std::vector<bool> exited(children.size(), false);
    std::size_t running = children.size();
    while (running > 0) {
      for (std::size_t i = 0; i < children.size(); ++i) {
        if (exited[i]) continue;
        int status = 0;
        const pid_t done = waitpid(children[i], &status, WNOHANG);
        if (done == 0) continue;
        exited[i] = true;
        --running;
        if (done < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
          exitCode = 1;
        }
      }
      aggregateWorkerStatus(statusPath, workers, campaignName);
      if (running > 0) usleep(200 * 1000);
    }
    aggregateWorkerStatus(statusPath, workers, campaignName);
  }
  // Merge whatever the workers produced — even on a failed worker the
  // completed lines are durable progress the next invocation resumes on.
  for (int w = 0; w < workers; ++w) {
    mergeWorkerFile(resultsPath, workerResultsPath(resultsPath, w));
  }
  return exitCode;
}

constexpr const char* kUsage =
    "usage: ecgrid-campaign --spec=sweep.json --results=out.jsonl "
    "[--jobs=N] [--workers=N]\n"
    "Run (or resume) a parameter sweep, appending one JSON line per run.";

}  // namespace

int main(int argc, char** argv) {
  try {
    const ecgrid::util::Flags flags = ecgrid::util::Flags::parseOrExit(
        argc, argv,
        {"spec", "results", "jobs", "workers", "worker-index", "worker-count",
         "max-runs", "resume-from", "status-file", "straggler-factor",
         "dry-run", "quiet"},
        kUsage);

    std::string specPath = flags.getString("spec", "");
    if (specPath.empty() && !flags.positional().empty()) {
      specPath = flags.positional().front();
    }
    if (specPath.empty()) {
      std::cerr << kUsage << '\n';
      return 2;
    }
    std::string defaultResults = specPath;
    if (defaultResults.size() > 5 &&
        defaultResults.compare(defaultResults.size() - 5, 5, ".json") == 0) {
      defaultResults.resize(defaultResults.size() - 5);
    }
    const std::string resultsPath =
        flags.getString("results", defaultResults + ".jsonl");
    const int jobs = flags.getInt("jobs", 1);
    const int workers = flags.getInt("workers", 1);
    const long maxRuns = flags.getInt("max-runs", -1);
    const bool quiet = flags.getBool("quiet", false);
    const std::string statusPath = flags.getString("status-file", "");
    const double stragglerFactor = flags.getDouble("straggler-factor", 4.0);

    const CampaignSpec spec =
        ecgrid::campaign::parseCampaignSpec(readFile(specPath));

    if (flags.getBool("dry-run", false)) {
      std::cout << "campaign " << spec.name << ": " << spec.runCount()
                << " runs (" << spec.axes.size() << " axes, "
                << spec.seeds.size() << " seeds)\n";
      return 0;
    }

    if (workers > 1) {
      return runMultiProcess(argv[0], specPath, resultsPath, workers, jobs,
                             maxRuns, quiet, statusPath,
                             std::to_string(stragglerFactor), spec.name);
    }

    CampaignOptions options;
    options.resultsPath = resultsPath;
    options.resumeFrom = splitCommas(flags.getString("resume-from", ""));
    options.jobs = static_cast<unsigned>(jobs < 1 ? 1 : jobs);
    options.workerIndex = flags.getInt("worker-index", 0);
    options.workerCount = flags.getInt("worker-count", 1);
    options.maxRuns = maxRuns;
    options.statusPath = statusPath;
    options.stragglerFactor = stragglerFactor;
    if (!quiet) {
      options.progress = [](const std::string& line) {
        std::cerr << line << '\n';
      };
    }

    const CampaignOutcome outcome =
        ecgrid::campaign::runCampaign(spec, options);
    if (!quiet) {
      std::cerr << "campaign " << spec.name << " done: " << outcome.executed
                << " executed, " << outcome.skipped << " resumed, "
                << outcome.failed << " failed (stripe "
                << outcome.stripeRuns << " of " << outcome.totalRuns
                << " total)\n";
    }
    return 0;
  } catch (const ecgrid::util::FlagError& e) {
    return ecgrid::util::Flags::exitCodeFor(argv[0], e);
  } catch (const std::exception& e) {
    std::cerr << "ecgrid-campaign: " << e.what() << '\n';
    return 1;
  }
}
