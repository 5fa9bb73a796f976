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
// Flags:
//   --spec=FILE        sweep spec JSON (or first positional argument)
//   --results=FILE     JSONL output, appended (default: <spec>.jsonl)
//   --jobs=N           scenario threads (positive; default 1)
//   --max-runs=N       stop after N scenarios (testing: simulated kill)
//   --status-file=F    live JSON status heartbeat, rewritten atomically
//                      per batch: counts, in-flight fingerprints, wall
//                      percentiles, ETA, stragglers.
//   --straggler-factor=K  flag completed runs at >= K x median wall time
//                      (default 4)
//   --dry-run          print the expansion summary and exit
//   --quiet            suppress per-batch progress lines

#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "campaign/campaign_runner.hpp"
#include "campaign/sweep_spec.hpp"
#include "util/flags.hpp"

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

constexpr const char* kUsage =
    "usage: ecgrid-campaign --spec=sweep.json --results=out.jsonl "
    "[--jobs=N]\n"
    "Run (or resume) a parameter sweep, appending one JSON line per run.";

}  // namespace

int main(int argc, char** argv) {
  try {
    const ecgrid::util::Flags flags = ecgrid::util::Flags::parseOrExit(
        argc, argv,
        {"spec", "results", "jobs", "max-runs", "status-file",
         "straggler-factor", "dry-run", "quiet"},
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
    if (jobs < 1) {
      flags.reject("jobs", flags.getString("jobs", ""), "a positive integer");
    }
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

    CampaignOptions options;
    options.resultsPath = resultsPath;
    options.jobs = static_cast<unsigned>(jobs);
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
                << outcome.failed << " failed (" << outcome.totalRuns
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
