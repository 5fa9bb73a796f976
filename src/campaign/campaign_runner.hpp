// Resumable campaign execution: sweep spec in, JSONL results out.
//
// runCampaign() expands a CampaignSpec (sweep_spec.hpp), subtracts every
// run whose fingerprint already appears in the results file, and
// executes the remainder in batches through the failure-collecting
// runScenariosParallel — one poisoned config produces a failure record
// and cannot perturb its neighbours. Each completed scenario appends ONE
// line to the results file and flushes before the next batch starts, so
// a kill at any instant loses at most the in-flight batch; restarting
// with the same spec and results path re-reads the file, skips the
// completed fingerprints, and finishes exactly the remaining runs
// (tests/campaign_test.cpp proves the interrupted + resumed file equals
// the uninterrupted one, order-normalized).
//
// Records are pure functions of (overrides, seed): no wall-clock or
// hostname fields, numbers via the canonical %.17g dump. That is what
// makes the resume-equality gate byte-exact rather than merely
// approximate.
//
// Parallelism is in-process only: `jobs` scenario threads per batch.
#pragma once

#include <cstddef>
#include <functional>
#include <set>
#include <string>

#include "campaign/sweep_spec.hpp"
#include "harness/scenario.hpp"

namespace ecgrid::campaign {

struct CampaignOptions {
  /// JSONL output, appended to (created if absent). Required.
  std::string resultsPath;
  /// In-process scenario threads per batch.
  unsigned jobs = 1;
  /// Stop (cleanly, after flushing) once this many scenarios have been
  /// executed in this invocation; < 0 = no cap. The campaign smoke test
  /// uses this to simulate a mid-campaign kill.
  long maxRuns = -1;
  /// Optional progress sink (one human-readable line per batch).
  std::function<void(const std::string&)> progress;

  /// Live status heartbeat: when non-empty, a JSON snapshot of
  /// the campaign's progress — counts, in-flight fingerprints, wall-time
  /// percentiles of completed runs, ETA, stragglers flagged at
  /// `stragglerFactor`× the median wall time — is rewritten (atomically,
  /// via rename) before and after every batch and once more with
  /// done=true at exit. The status file is ephemeral and wall-clock-laden
  /// by design; nothing in it ever feeds the byte-reproducible results
  /// JSONL.
  std::string statusPath;
  /// A completed run is a straggler when its wall time reaches this
  /// multiple of the median completed wall time (<= 0 disables).
  double stragglerFactor = 4.0;
};

struct CampaignOutcome {
  std::size_t totalRuns = 0;  ///< full expansion size
  std::size_t skipped = 0;    ///< already present in the results file
  std::size_t executed = 0;   ///< scenarios actually run this invocation
  std::size_t failed = 0;     ///< of executed, how many threw
};

/// Fingerprints of every parseable record in `path` (a missing file is
/// fine — a fresh campaign has no results yet). Malformed lines (e.g. a
/// torn final line after a kill) are skipped, not fatal: the run they
/// would have recorded simply executes again.
[[nodiscard]] std::set<std::string> completedFingerprints(
    const std::string& path);

/// One JSONL record (no trailing newline). `result` may be null for a
/// failed run; `error` carries the exception text then.
[[nodiscard]] std::string recordToJson(const std::string& campaignName,
                                       const RunSpec& run,
                                       const harness::ScenarioResult* result,
                                       const std::string& error);

/// Execute the campaign per `options`. Throws std::invalid_argument on
/// bad options; scenario failures are recorded, never rethrown.
CampaignOutcome runCampaign(const CampaignSpec& spec,
                            const CampaignOptions& options);

}  // namespace ecgrid::campaign
