// MetricsRegistry — deterministic hierarchical run metrics.
//
// One registry lives on the run's Observability hub (obs/observability.hpp)
// and every layer registers its instruments against it by dotted name:
// "mac.retransmissions", "routing.rreqs_sent", "paging.wake_latency_s".
// Three instrument kinds cover the repo's needs:
//
//   Counter    monotone uint64 (events, frames, drops)
//   Gauge      last-write-wins double (queue depth, final ratios)
//   Histogram  fixed-bin distribution with count/sum/min/max and
//              interpolated percentiles (latencies)
//
// Instruments are *handles*: registering returns a tiny value type holding
// a pointer to the registry-owned cell. A default-constructed handle is
// inert — every operation is a no-op — so components instrument
// unconditionally and pay nothing when no Observability hub is installed
// (obs::counter(sim, ...) returns an inert handle then). Registering the
// same name twice returns the same cell, which is exactly what per-node
// components (100 MACs, one "mac.frames_sent") want.
//
// Determinism: storage is ordered (std::map keyed by name), snapshots are
// pure reads, and no instrument draws RNG, schedules events, or reads wall
// clocks — enabling metrics cannot perturb a run, and two replays of the
// same scenario produce byte-identical snapshots. The determinism gate in
// tests/obs_test.cpp holds the repo to that.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>
#include "util/ownership.hpp"

namespace ecgrid::obs {

namespace detail {

struct CounterCell {
  std::uint64_t value = 0;
};

struct GaugeCell {
  double value = 0.0;
};

struct HistogramCell {
  /// Ascending upper bin edges; an implicit overflow bin follows the last.
  std::vector<double> upperEdges;
  /// bins[i] counts observations v <= upperEdges[i] (first matching edge);
  /// bins.back() is the overflow bin.
  std::vector<std::uint64_t> bins;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void observe(double value);
  /// Interpolated percentile (p in [0,100]) from the binned distribution:
  /// linear within the containing bin, clamped to [min, max]. 0 when empty.
  [[nodiscard]] double percentile(double p) const;
};

}  // namespace detail

/// Monotone event counter. Inert when default-constructed.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) {
    if (cell_ != nullptr) cell_->value += n;
  }
  [[nodiscard]] std::uint64_t value() const {
    return cell_ != nullptr ? cell_->value : 0;
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

/// Last-write-wins scalar. Inert when default-constructed.
class Gauge {
 public:
  Gauge() = default;
  void set(double value) {
    if (cell_ != nullptr) cell_->value = value;
  }
  [[nodiscard]] double value() const {
    return cell_ != nullptr ? cell_->value : 0.0;
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

/// Fixed-bin histogram. Inert when default-constructed.
class Histogram {
 public:
  Histogram() = default;
  void observe(double value) {
    if (cell_ != nullptr) cell_->observe(value);
  }
  [[nodiscard]] std::uint64_t count() const {
    return cell_ != nullptr ? cell_->count : 0;
  }
  [[nodiscard]] double sum() const { return cell_ != nullptr ? cell_->sum : 0.0; }
  [[nodiscard]] double percentile(double p) const {
    return cell_ != nullptr ? cell_->percentile(p) : 0.0;
  }

  /// n equal-width upper edges spanning (lo, hi]; convenience for
  /// registration sites.
  [[nodiscard]] static std::vector<double> linearEdges(double lo, double hi,
                                                       int n);
  /// Geometric edges: first, first*factor, ... (n of them).
  [[nodiscard]] static std::vector<double> exponentialEdges(double first,
                                                            double factor,
                                                            int n);

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

/// Flattened snapshot: one double per name. Histograms expand into
/// <name>.count/.sum/.mean/.min/.max/.p50/.p95/.p99 plus cumulative
/// <name>.le_<edge> bucket counts ending in <name>.le_inf. Names stay
/// within [A-Za-z0-9_.-], so BenchReport serializes them unescaped.
using MetricsSnapshot = std::map<std::string, double>;

/// Snapshot lookup where an absent name reads as 0. Some counters are
/// registered only when they first fire (fault.crashes, workload.*), so a
/// run in which they never fired has no entry for them.
[[nodiscard]] inline double metricOr(const MetricsSnapshot& snapshot,
                                     const std::string& name) {
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0.0 : it->second;
}

class ECGRID_DOMAIN_PER_SCENARIO MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. Throws if `name` is malformed or already registered
  /// as a different instrument kind.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  /// Histogram edges must be non-empty and strictly ascending; re-registering
  /// requires identical edges.
  Histogram histogram(const std::string& name, std::vector<double> upperEdges);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  [[nodiscard]] std::size_t instrumentCount() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  void requireFreshName(const std::string& name, const char* kind) const;

  std::map<std::string, std::unique_ptr<detail::CounterCell>> counters_;
  std::map<std::string, std::unique_ptr<detail::GaugeCell>> gauges_;
  std::map<std::string, std::unique_ptr<detail::HistogramCell>> histograms_;
};

}  // namespace ecgrid::obs
