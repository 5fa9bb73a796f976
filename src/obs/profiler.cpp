#include "obs/profiler.hpp"

namespace ecgrid::obs {

namespace {

constexpr const char* kUnlabeled = "unlabeled";

std::string metricLabel(const std::string& label) {
  std::string out = label;
  for (char& c : out) {
    if (c == '/') c = '.';
  }
  return out;
}

}  // namespace

void SimProfiler::onEvent(const char* label, double wallSeconds,
                          sim::Time simTime, std::uint64_t eventsExecuted,
                          std::size_t queueSize) {
  ++events_;
  totalWall_ += wallSeconds;
  LabelStats& stats = byPointer_[label == nullptr ? kUnlabeled : label];
  ++stats.count;
  stats.wallSeconds += wallSeconds;
  if (eventsExecuted % kQueueSampleEveryEvents == 0) {
    queueDepth_.emplace_back(simTime, static_cast<double>(queueSize));
  }
}

std::map<std::string, SimProfiler::LabelStats> SimProfiler::byLabel() const {
  // Distinct schedule sites may share a label string (e.g. two components
  // both labeling "proto/hello"); merging by value folds them together and
  // makes iteration order independent of pointer values.
  std::map<std::string, LabelStats> merged;
  for (const auto& [label, stats] : byPointer_) {
    LabelStats& into = merged[label];
    into.count += stats.count;
    into.wallSeconds += stats.wallSeconds;
  }
  return merged;
}

void SimProfiler::mergeInto(MetricsRegistry& metrics) const {
  for (const auto& [label, stats] : byLabel()) {
    const std::string base = "profile.events." + metricLabel(label);
    metrics.counter(base + ".count").add(stats.count);
    metrics.gauge(base + ".wall_s").set(stats.wallSeconds);
  }
  metrics.counter("profile.events_total").add(events_);
  metrics.gauge("profile.wall_s_total").set(totalWall_);
}

}  // namespace ecgrid::obs
