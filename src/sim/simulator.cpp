#include "sim/simulator.hpp"

#include <chrono>  // ecgrid-lint: allow(banned-random)
#include <utility>

#include "sim/probe.hpp"
#include "sim/sharded/engine.hpp"
#include "util/error.hpp"

namespace ecgrid::sim {

Simulator::Simulator(std::uint64_t masterSeed) : rngFactory_(masterSeed) {}

// Out of line for the unique_ptr over the forward-declared engine.
Simulator::~Simulator() = default;

void Simulator::enableSharding(const sharded::ShardedEngineConfig& config) {
  ECGRID_REQUIRE(engine_ == nullptr, "sharding already enabled");
  ECGRID_REQUIRE(eventsExecuted_ == 0 && queue_.empty(),
                 "enableSharding must precede all scheduling");
  engine_ = std::make_unique<sharded::ShardedEngine>(config);
  if (queue_.tieBreakPerturbed()) {
    // perturbTieBreaks() ran first; arm the engine with the same stream.
    // Both sides draw once per push from a fresh "check/tiebreak"
    // stream, so the key sequences coincide.
    engine_->perturbTieBreak(rngFactory_.stream("check/tiebreak"));
  }
}

void Simulator::registerShardHost(std::uint64_t ownerKey,
                                  std::function<double()> xProvider) {
  if (engine_ != nullptr) engine_->registerHost(ownerKey, std::move(xProvider));
}

Simulator::HostScope::HostScope(Simulator& sim, std::uint64_t ownerKey)
    : engine_(sim.engine_.get()) {
  if (engine_ != nullptr) previousShard_ = engine_->enterHost(ownerKey);
}

Simulator::HostScope::~HostScope() {
  if (engine_ != nullptr) engine_->exitHost(previousShard_);
}

ECGRID_HOT_PATH EventHandle Simulator::scheduleTaskIn(Time delay,
                                                      InlineTask action,
                                                      const char* label) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(delay >= 0.0, "cannot schedule into the past");
  if (engine_ != nullptr) {
    return engine_->pushLocal(now_ + delay, std::move(action), label);
  }
  return queue_.push(now_ + delay, std::move(action), label);
}

ECGRID_HOT_PATH EventHandle Simulator::scheduleTaskAt(Time when,
                                                      InlineTask action,
                                                      const char* label) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(when >= now_, "cannot schedule into the past");
  if (engine_ != nullptr) {
    return engine_->pushLocal(when, std::move(action), label);
  }
  return queue_.push(when, std::move(action), label);
}

ECGRID_HOT_PATH EventHandle Simulator::scheduleTaskFor(std::uint64_t ownerKey,
                                                       Time delay,
                                                       InlineTask action,
                                                       const char* label) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(delay >= 0.0, "cannot schedule into the past");
  if (engine_ != nullptr) {
    return engine_->pushFor(ownerKey, now_ + delay, std::move(action), label);
  }
  return queue_.push(now_ + delay, std::move(action), label);
}

ECGRID_HOT_PATH void Simulator::rescheduleTask(EventHandle& handle,
                                               Time delay, InlineTask action,
                                               const char* label) {
  ECGRID_HOT_SCOPE();
  if (engine_ != nullptr) {
    handle.cancel();
    handle = scheduleTaskIn(delay, std::move(action), label);
    return;
  }
  ECGRID_REQUIRE(delay >= 0.0, "cannot schedule into the past");
  // The place a push right now would take: cancel consumes no order.
  const EventOrder order = queue_.reserveOrder();
  handle = queue_.rekey(handle, now_ + delay, order, std::move(action), label);
}

namespace {

/// A run item's call as one InlineTask, for the sharded engine, which
/// queues every item as its own event. Holds its own payload reference.
class RunItemTask {
 public:
  RunItemTask(const RunItem& item, RunPayload* payload)
      : action_(item.action),
        object_(item.object),
        arg_(item.arg),
        payload_(payload) {
    if (payload_ != nullptr) payload_->retainPayload();
  }
  RunItemTask(RunItemTask&& other) noexcept
      : action_(other.action_),
        object_(other.object_),
        arg_(other.arg_),
        payload_(std::exchange(other.payload_, nullptr)) {}
  RunItemTask(const RunItemTask&) = delete;
  RunItemTask& operator=(const RunItemTask&) = delete;
  RunItemTask& operator=(RunItemTask&&) = delete;
  ~RunItemTask() {
    if (payload_ != nullptr) payload_->releasePayload();
  }

  void operator()() { action_(object_, arg_, payload_); }

 private:
  RunAction action_;
  void* object_;
  std::uint64_t arg_;
  RunPayload* payload_;
};

}  // namespace

ECGRID_HOT_PATH EventHandle Simulator::scheduleInRun(RunCursor& run,
                                                     Time delay,
                                                     RunAction action,
                                                     void* object,
                                                     std::uint64_t arg,
                                                     const char* label) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(delay >= 0.0, "cannot schedule into the past");
  RunItem item{now_ + delay, EventOrder{}, label, action, object, arg};
  if (engine_ != nullptr) {
    // pushLocal takes the item's order itself.
    return engine_->pushLocal(item.time, InlineTask(RunItemTask(item, nullptr)),
                              label);
  }
  item.order = queue_.reserveOrder();
  return queue_.append(run, item);
}

ECGRID_HOT_PATH EventHandle Simulator::scheduleReservedInRunFor(
    RunCursor& run, std::uint64_t ownerKey, const RunItem& item,
    RunPayload* payload) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(!wouldHaveRun(item.time, item.order),
                 "reserved event's place has already been dispatched");
  if (engine_ != nullptr) {
    return engine_->pushFor(ownerKey, item.time, item.order,
                            InlineTask(RunItemTask(item, payload)),
                            item.label);
  }
  return queue_.append(run, item, payload);
}

EventOrder Simulator::reserveOrder() {
  return engine_ != nullptr ? engine_->reserveOrder() : queue_.reserveOrder();
}

ECGRID_HOT_PATH EventHandle Simulator::scheduleTaskReservedFor(
    std::uint64_t ownerKey, Time when, EventOrder order, InlineTask action,
    const char* label) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(!wouldHaveRun(when, order),
                 "reserved event's place has already been dispatched");
  if (engine_ != nullptr) {
    return engine_->pushFor(ownerKey, when, order, std::move(action), label);
  }
  return queue_.push(when, order, std::move(action), label);
}

bool Simulator::wouldHaveRun(Time when, const EventOrder& order) const {
  if (when != lastDispatch_.time) return when < lastDispatch_.time;
  // Reserved after the latest dispatch: it was not in the queue then.
  if (order.sequence >= lastDispatch_.reservedSequences) return false;
  return !orderedBefore(lastDispatch_.order, order);
}

std::uint64_t Simulator::reservedSequences() const {
  return engine_ != nullptr ? engine_->reservedSequences()
                            : queue_.reservedSequences();
}

Time Simulator::nextEventTime() {
  return engine_ != nullptr ? engine_->nextEventTime() : queue_.peekTime();
}

std::size_t Simulator::queueDepth() const {
  return engine_ != nullptr ? engine_->queueDepthTotal()
                            : queue_.size();
}

std::size_t Simulator::peakQueueDepth() const {
  return engine_ != nullptr ? engine_->peakQueueDepth() : queue_.peakDepth();
}

std::size_t Simulator::slabSlotsTotal() const {
  return engine_ != nullptr ? engine_->slabSlotsTotal() : queue_.slabSlots();
}

void Simulator::perturbTieBreaks() {
  if (engine_ != nullptr) {
    engine_->perturbTieBreak(rngFactory_.stream("check/tiebreak"));
    return;
  }
  queue_.perturbTieBreak(rngFactory_.stream("check/tiebreak"));
}

bool Simulator::tieBreaksPerturbed() const {
  return engine_ != nullptr ? engine_->tieBreakPerturbed()
                            : queue_.tieBreakPerturbed();
}

void Simulator::setPeriodicHook(std::uint64_t everyEvents,
                                std::function<void()> hook) {
  ECGRID_REQUIRE(everyEvents > 0 || !hook,
                 "periodic hook needs a positive event period");
  hookEvery_ = everyEvents;
  hook_ = std::move(hook);
}

ECGRID_HOT_PATH bool Simulator::step(Time until) {
  if (engine_ != nullptr) return stepSharded(until);
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
                    queue_.size(), 0);
  } else {
    event();
  }
  if (hook_ && eventsExecuted_ % hookEvery_ == 0) hook_();
  return true;
}

ECGRID_HOT_PATH bool Simulator::stepSharded(Time until) {
  // Mirror of the serial step() above, event for event: same clock
  // advance, same counter bump, same probe and hook points — the engine
  // only changes where the event record lives.
  if (engine_->nextEventTime() > until) return false;
  Time time = kTimeZero;
  sharded::InlineTask task;
  const char* label = nullptr;
  int shard = 0;
  EventOrder order;
  if (!engine_->popNext(time, task, label, shard, order)) return false;
  now_ = time;
  lastDispatch_ = {time, order, engine_->reservedSequences()};
  ++eventsExecuted_;
  if (probe_ != nullptr) {
    // ecgrid-lint: allow(banned-random)
    const auto wallStart = std::chrono::steady_clock::now();
    task();
    // ecgrid-lint: allow(banned-random)
    const auto wallEnd = std::chrono::steady_clock::now();
    const double wallSeconds =
        std::chrono::duration<double>(wallEnd - wallStart).count();
    probe_->onEvent(label, wallSeconds, now_, eventsExecuted_,
                    engine_->queueDepthTotal(), shard);
  } else {
    task();
  }
  task.reset();
  engine_->finishCurrent();
  if (hook_ && eventsExecuted_ % hookEvery_ == 0) hook_();
  return true;
}

void Simulator::run(Time until) {
  stopRequested_ = false;
  while (!stopRequested_ && step(until)) {
  }
  // Advance the clock to the horizon so post-run queries (battery reads,
  // alive checks) observe the full interval even if the queue went quiet.
  if (!stopRequested_ && until != kTimeNever && now_ < until) {
    now_ = until;
    // Everything due at `until` that was queued has run.
    constexpr std::uint64_t kLast = ~std::uint64_t{0};
    lastDispatch_ = {until, EventOrder{kLast, kLast}, reservedSequences()};
  }
}

}  // namespace ecgrid::sim
