// Observability — the per-run hub tying metrics, tracing, and profiling
// to one Simulator.
//
// The harness constructs one Observability right after the Simulator and
// before any component, and the constructor registers it on the simulator
// (Simulator::setObservability). Components then reach it through the
// simulator reference they already hold, via the null-safe helpers below:
//
//   obs::Counter drops_ = obs::counter(sim_, "mac.frames_dropped");
//   obs::EventTracer* trace_ = obs::tracer(sim_);
//
// With no hub installed (bare unit tests, ad-hoc sims) the helpers return
// inert handles / nullptr and instrumentation costs a pointer check.
//
// Metrics are always on once a hub exists — registering and bumping
// counters is cheap and deterministic. Tracing (openTrace) and profiling
// (enableProfiler) are opt-in per run; neither draws RNG nor schedules
// events, so enabling them leaves the replay digest byte-identical
// (tests/obs_test.cpp gates this).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/ownership.hpp"

namespace ecgrid::obs {

class ECGRID_DOMAIN_PER_SCENARIO Observability {
 public:
  explicit Observability(sim::Simulator& sim) : sim_(sim) {
    sim_.setObservability(this);
  }
  ~Observability() {
    sim_.setExecutionProbe(nullptr);
    sim_.setObservability(nullptr);
  }
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  MetricsRegistry& metrics() { return metrics_; }

  /// Start event tracing into `path` (see EventTracer). `meta` key/value
  /// pairs land in the schema header line for provenance.
  EventTracer& openTrace(const std::string& path,
                         const std::map<std::string, std::string>& meta = {}) {
    tracer_ = std::make_unique<EventTracer>(sim_, path, meta);
    return *tracer_;
  }
  [[nodiscard]] EventTracer* tracer() { return tracer_.get(); }

  /// Install a SimProfiler as the simulator's execution probe.
  SimProfiler& enableProfiler() {
    profiler_ = std::make_unique<SimProfiler>();
    sim_.setExecutionProbe(profiler_.get());
    return *profiler_;
  }
  [[nodiscard]] SimProfiler* profiler() { return profiler_.get(); }

 private:
  sim::Simulator& sim_;
  MetricsRegistry metrics_;
  std::unique_ptr<EventTracer> tracer_;
  std::unique_ptr<SimProfiler> profiler_;
};

// --- null-safe component helpers -------------------------------------------
// Resolve once at construction; all are no-ops when no hub is installed.

[[nodiscard]] inline Observability* of(sim::Simulator& sim) {
  return sim.observability();
}

[[nodiscard]] inline Counter counter(sim::Simulator& sim,
                                     const std::string& name) {
  Observability* hub = sim.observability();
  return hub != nullptr ? hub->metrics().counter(name) : Counter{};
}

[[nodiscard]] inline Gauge gauge(sim::Simulator& sim,
                                 const std::string& name) {
  Observability* hub = sim.observability();
  return hub != nullptr ? hub->metrics().gauge(name) : Gauge{};
}

[[nodiscard]] inline Histogram histogram(sim::Simulator& sim,
                                         const std::string& name,
                                         std::vector<double> upperEdges) {
  Observability* hub = sim.observability();
  return hub != nullptr
             ? hub->metrics().histogram(name, std::move(upperEdges))
             : Histogram{};
}

[[nodiscard]] inline EventTracer* tracer(sim::Simulator& sim) {
  Observability* hub = sim.observability();
  return hub != nullptr ? hub->tracer() : nullptr;
}

}  // namespace ecgrid::obs
