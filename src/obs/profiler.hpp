// SimProfiler — per-event-type dispatch counts and wall-clock attribution.
//
// Implements sim::ExecutionProbe: once installed on a Simulator
// (Observability::enableProfiler does both), every executed event is
// attributed to its schedule-site label ("mac/access", "phy/rx_end",
// "proto/hello", ...) with a dispatch count and summed wall-clock cost,
// and the event-queue size is sampled on a fixed event cadence as a
// (sim-time, size) series — the data the perf trajectory needs to see
// where simulated seconds are spent and whether the queue breathes.
//
// Wall-clock readings happen in Simulator::step (sim/simulator.cpp, with
// the same ecgrid-lint justification as the bench timers); the profiler
// itself only accumulates. Aggregation is keyed on the label *pointer*
// (labels are string literals, so one schedule site is one key) for a
// cheap hot path; byLabel()/mergeInto() re-key by string value, giving
// deterministic, content-ordered output. The probe draws no RNG and never
// schedules, so profiling cannot perturb a run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/probe.hpp"
#include "util/ownership.hpp"

namespace ecgrid::obs {

class ECGRID_DOMAIN_PER_SCENARIO SimProfiler final : public sim::ExecutionProbe {
 public:
  /// The queue size is sampled every this many executed events.
  static constexpr std::uint64_t kQueueSampleEveryEvents = 1024;

  void onEvent(const char* label, double wallSeconds, sim::Time simTime,
               std::uint64_t eventsExecuted,
               std::size_t queueSize) override;

  struct LabelStats {
    std::uint64_t count = 0;
    double wallSeconds = 0.0;
  };

  /// Attribution merged by label string, in lexicographic order.
  [[nodiscard]] std::map<std::string, LabelStats> byLabel() const;

  /// (sim time, queue size) samples every kQueueSampleEveryEvents events.
  [[nodiscard]] const std::vector<std::pair<double, double>>&
  queueDepthSamples() const {
    return queueDepth_;
  }

  [[nodiscard]] std::uint64_t eventsObserved() const { return events_; }
  [[nodiscard]] double totalWallSeconds() const { return totalWall_; }

  /// Fold the attribution into `metrics` as profile.events.<label>.count /
  /// .wall_s plus profile.events_total and profile.wall_s_total. Labels'
  /// '/' separators become '.' to stay inside the metric-name charset.
  void mergeInto(MetricsRegistry& metrics) const;

 private:
  std::uint64_t events_ = 0;
  double totalWall_ = 0.0;
  std::map<const char*, LabelStats> byPointer_;
  std::vector<std::pair<double, double>> queueDepth_;
};

}  // namespace ecgrid::obs
