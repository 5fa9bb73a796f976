#include "sim/simulator.hpp"

#include <chrono>  // ecgrid-lint: allow(banned-random)
#include <utility>

#include "sim/probe.hpp"
#include "util/error.hpp"

namespace ecgrid::sim {

Simulator::Simulator(std::uint64_t masterSeed) : rngFactory_(masterSeed) {}

ECGRID_HOT_PATH EventHandle Simulator::scheduleTaskIn(Time delay,
                                                      InlineTask action,
                                                      const char* label) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(delay >= 0.0, "cannot schedule into the past");
  return queue_.push(now_ + delay, std::move(action), label);
}

ECGRID_HOT_PATH EventHandle Simulator::scheduleTaskAt(Time when,
                                                      InlineTask action,
                                                      const char* label) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(when >= now_, "cannot schedule into the past");
  return queue_.push(when, std::move(action), label);
}

ECGRID_HOT_PATH void Simulator::scheduleReservedRun(
    std::span<const RunItem> items) {
  ECGRID_HOT_SCOPE();
  for (const RunItem& item : items) {
    ECGRID_REQUIRE(!wouldHaveRun(item.time, item.order),
                   "reserved event's place has already been dispatched");
  }
  queue_.appendRun(items);
}

ECGRID_HOT_PATH EventHandle Simulator::scheduleTaskReserved(Time when,
                                                            EventOrder order,
                                                            InlineTask action,
                                                            const char* label) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(!wouldHaveRun(when, order),
                 "reserved event's place has already been dispatched");
  return queue_.push(when, order, std::move(action), label);
}

void Simulator::perturbTieBreaks() {
  queue_.perturbTieBreak(rngFactory_.stream("check/tiebreak"));
}

void Simulator::setPeriodicHook(std::uint64_t everyEvents,
                                std::function<void()> hook) {
  ECGRID_REQUIRE(everyEvents > 0 || !hook,
                 "periodic hook needs a positive event period");
  hookEvery_ = everyEvents;
  hook_ = std::move(hook);
}

ECGRID_HOT_PATH bool Simulator::step(Time until) {
  if (queue_.peekTime() > until) return false;
  // One event per pop, whether a single event or a run item: each counts,
  // is probed and hooked on its own.
  Dispatch event;
  if (!queue_.pop(event)) return false;
  now_ = event.time;
  lastDispatch_ = {event.time, event.order, queue_.reservedSequences()};
  ++eventsExecuted_;
  if (probe_ != nullptr) {
    // Wall-clock attribution for the profiler. Reporting-only: wall time
    // never feeds the simulation, and without a probe installed no clock
    // is ever read — hence the lint suppressions, same as the bench
    // timers in bench/bench_support.hpp.
    // ecgrid-lint: allow(banned-random)
    const auto wallStart = std::chrono::steady_clock::now();
    event();
    // ecgrid-lint: allow(banned-random)
    const auto wallEnd = std::chrono::steady_clock::now();
    const double wallSeconds =
        std::chrono::duration<double>(wallEnd - wallStart).count();
    probe_->onEvent(event.label, wallSeconds, now_, eventsExecuted_,
                    queue_.size());
  } else {
    event();
  }
  if (hook_ && eventsExecuted_ % hookEvery_ == 0) hook_();
  return true;
}

void Simulator::run(Time until) {
  stopRequested_ = false;
  while (!stopRequested_ && step(until)) {
  }
  // Advance the clock to the horizon so post-run queries (battery reads,
  // alive checks) observe the full interval even if the queue went quiet.
  if (!stopRequested_ && until != kTimeNever && now_ <= until) {
    now_ = until;
    // Everything due at `until` that was queued has run, whichever event
    // happened to run last.
    constexpr std::uint64_t kLast = ~std::uint64_t{0};
    lastDispatch_ = {until, EventOrder{kLast, kLast},
                     queue_.reservedSequences()};
  }
}

}  // namespace ecgrid::sim
