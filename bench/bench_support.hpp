// Shared scaffolding for the figure-reproduction benches.
//
// A bench sweeps one or more figures' parameters, prints the series each
// figure plots as an aligned text table, and writes CSVs (bench_out/) for
// plotting plus one machine-readable BENCH_<figure>.json perf record per
// figure (see BenchReport below). Benches honour these environment
// variables:
//   ECGRID_BENCH_QUICK=1    — shrink horizons/sweeps for smoke runs
//   ECGRID_BENCH_SEEDS=N    — number of seeds averaged where applicable
//   ECGRID_BENCH_JOBS=N     — worker threads for independent runs (default
//                             1 = serial; results are identical either way)
//   ECGRID_BENCH_HORIZON=S  — cap every run's duration at S seconds (CI
//                             smoke under slow sanitizers; 0 = no cap)
//   ECGRID_BENCH_OUT=DIR    — write artifacts to DIR instead of bench_out/
//                             (CI scratch runs; keeps committed records
//                             untouched)
// An empty knob counts as unset. A malformed numeric knob
// (ECGRID_BENCH_JOBS=two, ECGRID_BENCH_SEEDS=3abc), a horizon cap that
// leaves no traffic, or an output directory that cannot be created ends the
// bench with exit code 2 and a message naming the variable (checkKnobs),
// before any scenario runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/parallel_runner.hpp"
#include "harness/scenario.hpp"
#include "obs/metrics.hpp"
#include "stats/timeseries.hpp"
#include "util/flags.hpp"

namespace ecgrid::bench {

inline bool quickMode() {
  const char* env = std::getenv("ECGRID_BENCH_QUICK");
  return env != nullptr && std::string(env) != "0";
}

/// Ends the bench on a malformed environment knob: exit code 2 and a
/// message naming the variable and what it expects.
[[noreturn]] inline void rejectEnv(const char* name, const char* value,
                                   const char* expected) {
  std::fprintf(stderr, "%s: expected %s, got '%s'\n", name, expected, value);
  std::exit(2);
}

/// Environment knob `name`, or nullptr when it is unset or empty.
inline const char* envKnob(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && *env != '\0' ? env : nullptr;
}

/// Environment knob `name` as a positive integer; `fallback` when unset.
/// The whole value must parse (util::parseInt, the flag parser's rule).
inline int positiveEnvInt(const char* name, int fallback) {
  const char* env = envKnob(name);
  if (env == nullptr) return fallback;
  const std::optional<int> n = util::parseInt(env);
  if (!n || *n <= 0) rejectEnv(name, env, "a positive integer");
  return *n;
}

inline int seedCount(int fallback) {
  return positiveEnvInt("ECGRID_BENCH_SEEDS", fallback);
}

/// Worker threads for runScenariosParallel. Default 1 (serial).
inline unsigned benchJobs() {
  return static_cast<unsigned>(positiveEnvInt("ECGRID_BENCH_JOBS", 1));
}

/// Optional hard cap on run duration (seconds), for CI smoke runs under
/// sanitizers where even quick-mode horizons are too slow. 0 = no cap.
inline double horizonCap() {
  const char* env = envKnob("ECGRID_BENCH_HORIZON");
  if (env == nullptr) return 0.0;
  const std::optional<double> s = util::parseNumber(env);
  if (!s || *s < 0.0) rejectEnv("ECGRID_BENCH_HORIZON", env, "seconds >= 0");
  return *s;
}

/// Apply the ECGRID_BENCH_HORIZON cap to one config.
inline void applyHorizonCap(harness::ScenarioConfig& config) {
  double cap = horizonCap();
  if (cap > 0.0 && config.duration > cap) config.duration = cap;
}

/// printf into a std::string, for labels and metric names.
[[gnu::format(printf, 1, 2)]] inline std::string format(const char* fmt,
                                                        ...) {
  char buffer[128];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof buffer, fmt, args);
  va_end(args);
  return buffer;
}

/// Wall-clock stopwatch for the whole bench. Wall time never feeds the
/// simulation — it is reporting-only, hence the lint suppressions.
class WallTimer {
 public:
  // ecgrid-lint: allow(banned-random)
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    // ecgrid-lint: allow(banned-random)
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;  // ecgrid-lint: allow(banned-random)
};

/// The paper's common scenario (§4): 1000×1000 m, d=100 m, r=250 m,
/// 2 Mbps, 500 J, random waypoint, CBR 512 B with a total network load of
/// 10 pkt/s (one 10-packets-per-second source, see EXPERIMENTS.md).
inline harness::ScenarioConfig paperBaseline() {
  harness::ScenarioConfig config;
  config.hostCount = 100;
  config.flowCount = 1;
  config.packetsPerSecondPerFlow = 10.0;
  config.maxSpeed = 1.0;
  config.pauseTime = 0.0;
  config.duration = 2000.0;
  return config;
}

/// Downsample a dense (time, value) sample stream into a ~`targetPoints`-
/// bucket min/mean/max envelope, returned as three TimeSeries labelled
/// `<prefix>_min` / `<prefix>_mean` / `<prefix>_max` (each point sits at
/// its bucket's mean time). Long profiled runs produce tens of thousands
/// of queue-depth samples; the envelope keeps BENCH_*.json records small
/// while preserving the spikes a plain stride-decimation would drop.
/// Deterministic in the input.
inline std::vector<stats::TimeSeries> downsampleEnvelope(
    const std::string& prefix,
    const std::vector<std::pair<double, double>>& samples,
    std::size_t targetPoints = 256) {
  std::vector<stats::TimeSeries> envelope;
  envelope.emplace_back(prefix + "_min");
  envelope.emplace_back(prefix + "_mean");
  envelope.emplace_back(prefix + "_max");
  if (samples.empty()) return envelope;
  if (targetPoints == 0) targetPoints = 1;
  const std::size_t bucketSize =
      (samples.size() + targetPoints - 1) / targetPoints;
  for (std::size_t begin = 0; begin < samples.size(); begin += bucketSize) {
    const std::size_t end = std::min(begin + bucketSize, samples.size());
    double lo = samples[begin].second;
    double hi = samples[begin].second;
    double valueSum = 0.0;
    double timeSum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      lo = std::min(lo, samples[i].second);
      hi = std::max(hi, samples[i].second);
      valueSum += samples[i].second;
      timeSum += samples[i].first;
    }
    const double count = static_cast<double>(end - begin);
    envelope[0].add(timeSum / count, lo);
    envelope[1].add(timeSum / count, valueSum / count);
    envelope[2].add(timeSum / count, hi);
  }
  return envelope;
}

/// Artifact directory: bench_out/ by default, ECGRID_BENCH_OUT overrides.
/// CI smoke runs point this at a scratch directory so regenerated output
/// never collides with the committed BENCH_*.json reference records —
/// refreshing those is a deliberate local run into the default dir.
inline std::string outputDir() {
  const char* env = envKnob("ECGRID_BENCH_OUT");
  const std::filesystem::path dir = env != nullptr ? env : "bench_out";
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) {
    std::fprintf(stderr,
                 "ECGRID_BENCH_OUT: cannot create directory '%s': %s\n",
                 dir.c_str(), error.message().c_str());
    std::exit(2);
  }
  return dir.string();
}

/// Parse and validate every knob before any config is built or run, so a
/// bad value ends the bench at once rather than crashing a scenario or
/// losing a finished sweep's output. The numeric knobs parse in the order
/// SEEDS, HORIZON, JOBS; then a horizon cap at or below the baseline's
/// traffic start (an empty flow window) and an output directory that
/// cannot be created are rejected. Call first in main().
inline void checkKnobs() {
  (void)seedCount(1);
  const double cap = horizonCap();
  (void)benchJobs();
  const double trafficStart = paperBaseline().trafficStart;
  if (cap > 0.0 && cap <= trafficStart) {
    char expected[64];
    std::snprintf(expected, sizeof expected,
                  "0 or seconds > %g (the traffic start)", trafficStart);
    rejectEnv("ECGRID_BENCH_HORIZON", envKnob("ECGRID_BENCH_HORIZON"),
              expected);
  }
  (void)outputDir();
}

/// Run `configs` on ECGRID_BENCH_JOBS workers; results come back in input
/// order. A scenario that throws ends the bench with exit code 1 once
/// every run has finished, naming each failed scenario by its `labels`
/// entry.
inline std::vector<harness::ScenarioResult> runLabelled(
    const std::vector<harness::ScenarioConfig>& configs,
    const std::vector<std::string>& labels) {
  std::vector<std::exception_ptr> failures;
  std::vector<harness::ScenarioResult> results =
      harness::runScenariosParallel(configs, benchJobs(), failures);
  bool failed = false;
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (failures[i] == nullptr) continue;
    failed = true;
    try {
      std::rethrow_exception(failures[i]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scenario %s failed: %s\n", labels[i].c_str(),
                   e.what());
    } catch (...) {
      std::fprintf(stderr, "scenario %s failed\n", labels[i].c_str());
    }
  }
  if (failed) std::exit(1);
  return results;
}

inline void writeSeries(const std::string& figure,
                        const std::vector<stats::TimeSeries>& series) {
  std::string path = outputDir() + "/" + figure + ".csv";
  stats::writeCsv(path, series);
  std::printf("  [csv] %s\n", path.c_str());
}

/// Print one time series row-sampled at fixed instants.
inline void printSampled(const char* label, const stats::TimeSeries& series,
                         const std::vector<double>& sampleTimes) {
  std::printf("  %-22s", label);
  for (double t : sampleTimes) {
    std::printf(" %6.3f", series.valueAt(t));
  }
  std::printf("\n");
}

inline void printHeaderTimes(const char* what,
                             const std::vector<double>& sampleTimes) {
  std::printf("  %-22s", what);
  for (double t : sampleTimes) std::printf(" %6.0f", t);
  std::printf("\n");
}

/// How the bench was built, for its records' provenance.
#ifdef __clang__
inline constexpr const char* kCompiler = "clang " __VERSION__;
#else
inline constexpr const char* kCompiler = "gcc " __VERSION__;
#endif
#ifdef __OPTIMIZE__
inline constexpr bool kOptimized = true;
#else
inline constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
inline constexpr bool kNdebug = true;
#else
inline constexpr bool kNdebug = false;
#endif

/// HEAD's commit in the source tree this header was compiled from (the
/// .git beside bench/), read when called; "unknown" when there is none.
inline std::string sourceGitSha() {
  const std::filesystem::path git =
      std::filesystem::path(__FILE__).parent_path().parent_path() / ".git";
  std::ifstream headFile(git / "HEAD");
  std::string head;
  if (!std::getline(headFile, head) || head.empty()) return "unknown";
  if (head.rfind("ref: ", 0) != 0) return head;  // detached
  const std::string ref = head.substr(5);
  std::ifstream looseFile(git / ref);
  std::string sha;
  if (std::getline(looseFile, sha) && !sha.empty()) return sha;
  // A packed ref: "<40-hex sha> <ref>".
  std::ifstream packed(git / "packed-refs");
  for (std::string line; std::getline(packed, line);) {
    if (line.size() == 41 + ref.size() &&
        line.compare(41, ref.size(), ref) == 0) {
      return line.substr(0, 40);
    }
  }
  return "unknown";
}

/// Machine-readable perf record, written as bench_out/BENCH_<figure>.json:
/// {
///   "figure": "...", "quick": bool, "jobs": N,
///   "provenance": {"compiler": "...", "optimized": bool, "ndebug": bool,
///                  "nproc": N, "git_sha": "..."},
///   "runs": N,
///   "wall_seconds": s, "events_executed": N, "events_per_second": x,
///   "frames_transmitted": N, "frames_per_second": x,
///   "metrics": {"name": value, ...},
///   "series": {"label": {"t": [...], "v": [...]}, ...},
///   "scenarios": {"label": {"metric": value, ...}, ...}
/// }
/// Values are plain doubles/integers; names are [A-Za-z0-9_.-] and the
/// provenance strings hold no quote or backslash, so no JSON escaping is
/// needed. CI and the perf trajectory tooling diff these.
class BenchReport {
 public:
  explicit BenchReport(std::string figure) : figure_(std::move(figure)) {}

  /// Fold one finished run into the aggregate throughput counters.
  void addRun(const harness::ScenarioResult& result) {
    ++runs_;
    eventsExecuted_ += result.eventsExecuted;
    framesTransmitted_ += static_cast<std::uint64_t>(
        obs::metricOr(result.metrics, "phy.frames_transmitted"));
  }
  void addRuns(const std::vector<harness::ScenarioResult>& results) {
    for (const harness::ScenarioResult& r : results) addRun(r);
  }

  /// Scalar headline metric (e.g. "grid_ecgrid_aen_ratio_t500").
  void addMetric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }

  /// A plotted series, stored as parallel t/v arrays.
  void addSeries(const stats::TimeSeries& series) {
    series_.push_back(series);
  }
  void addSeries(const std::vector<stats::TimeSeries>& series) {
    for (const stats::TimeSeries& s : series) series_.push_back(s);
  }

  /// One run's full MetricsRegistry snapshot (harness::ScenarioResult::
  /// metrics), keyed by a scenario label. Counter/histogram values are
  /// deterministic per (config, seed); profile.* wall-clock entries appear
  /// only when that run enabled the simulator profiler.
  void addScenarioMetrics(const std::string& label,
                          const obs::MetricsSnapshot& snapshot) {
    scenarios_.emplace_back(label, snapshot);
  }

  /// Write BENCH_<figure>.json and print its path. Call once, last.
  void write(double wallSeconds) const {
    std::string path = outputDir() + "/BENCH_" + figure_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::exit(1);
    }
    std::fprintf(out, "{\n  \"figure\": \"%s\",\n", figure_.c_str());
    std::fprintf(out, "  \"quick\": %s,\n", quickMode() ? "true" : "false");
    std::fprintf(out, "  \"jobs\": %u,\n", benchJobs());
    // How the record was made: wall-class fields compare only between
    // records that agree on the build and the core count
    // (tools/bench_diff.py).
    std::fprintf(out,
                 "  \"provenance\": {\"compiler\": \"%s\", \"optimized\": %s, "
                 "\"ndebug\": %s, \"nproc\": %u, \"git_sha\": \"%s\"},\n",
                 kCompiler, kOptimized ? "true" : "false",
                 kNdebug ? "true" : "false",
                 std::thread::hardware_concurrency(), sourceGitSha().c_str());
    std::fprintf(out, "  \"runs\": %llu,\n",
                 static_cast<unsigned long long>(runs_));
    std::fprintf(out, "  \"wall_seconds\": %.3f,\n", wallSeconds);
    std::fprintf(out, "  \"events_executed\": %llu,\n",
                 static_cast<unsigned long long>(eventsExecuted_));
    std::fprintf(out, "  \"events_per_second\": %.1f,\n",
                 wallSeconds > 0.0 ? eventsExecuted_ / wallSeconds : 0.0);
    std::fprintf(out, "  \"frames_transmitted\": %llu,\n",
                 static_cast<unsigned long long>(framesTransmitted_));
    std::fprintf(out, "  \"frames_per_second\": %.1f,\n",
                 wallSeconds > 0.0 ? framesTransmitted_ / wallSeconds : 0.0);
    std::fprintf(out, "  \"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(out, "%s\n    \"%s\": %.17g", i == 0 ? "" : ",",
                   metrics_[i].first.c_str(), metrics_[i].second);
    }
    std::fprintf(out, "%s},\n", metrics_.empty() ? "" : "\n  ");
    std::fprintf(out, "  \"series\": {");
    for (std::size_t i = 0; i < series_.size(); ++i) {
      const stats::TimeSeries& s = series_[i];
      std::fprintf(out, "%s\n    \"%s\": {\"t\": [", i == 0 ? "" : ",",
                   s.label().c_str());
      for (std::size_t j = 0; j < s.points().size(); ++j) {
        std::fprintf(out, "%s%.17g", j == 0 ? "" : ", ", s.points()[j].first);
      }
      std::fprintf(out, "], \"v\": [");
      for (std::size_t j = 0; j < s.points().size(); ++j) {
        std::fprintf(out, "%s%.17g", j == 0 ? "" : ", ", s.points()[j].second);
      }
      std::fprintf(out, "]}");
    }
    std::fprintf(out, "%s},\n", series_.empty() ? "" : "\n  ");
    std::fprintf(out, "  \"scenarios\": {");
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      std::fprintf(out, "%s\n    \"%s\": {", i == 0 ? "" : ",",
                   scenarios_[i].first.c_str());
      std::size_t j = 0;
      for (const auto& [name, value] : scenarios_[i].second) {
        std::fprintf(out, "%s\n      \"%s\": %.17g", j++ == 0 ? "" : ",",
                     name.c_str(), value);
      }
      std::fprintf(out, "%s}", scenarios_[i].second.empty() ? "" : "\n    ");
    }
    std::fprintf(out, "%s}\n}\n", scenarios_.empty() ? "" : "\n  ");
    if (std::ferror(out) != 0 || std::fclose(out) != 0) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::exit(1);
    }
    std::printf("  [json] %s (%.2fs wall, %u job(s), %llu events)\n",
                path.c_str(), wallSeconds, benchJobs(),
                static_cast<unsigned long long>(eventsExecuted_));
  }

 private:
  std::string figure_;
  std::uint64_t runs_ = 0;
  std::uint64_t eventsExecuted_ = 0;
  std::uint64_t framesTransmitted_ = 0;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<stats::TimeSeries> series_;
  std::vector<std::pair<std::string, obs::MetricsSnapshot>> scenarios_;
};

}  // namespace ecgrid::bench
