// The simulation context: clock + event queue + RNG factory.
//
// A Simulator owns the run. Components hold a non-owning reference and use
// it to read the clock, schedule/cancel timers, and obtain named random
// streams. There is deliberately no global/singleton instance: benches run
// many simulations sequentially (and tests run them concurrently), each
// with its own Simulator.
//
// Observability (src/obs) attaches here without the sim layer depending on
// it: the harness installs an opaque Observability hub pointer that
// components resolve through obs/observability.hpp, and an optional
// ExecutionProbe (sim/probe.hpp) that step() feeds per-event wall-clock
// attribution. Both are passive — with neither installed the simulator
// behaves and performs exactly as before.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/event.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/hot_path.hpp"
#include "util/log.hpp"
#include "util/ownership.hpp"

namespace ecgrid::obs {
class Observability;
}

namespace ecgrid::sim {

class ExecutionProbe;

class ECGRID_DOMAIN_PER_SCENARIO Simulator {
 public:
  explicit Simulator(std::uint64_t masterSeed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  Time now() const { return now_; }

  /// Schedule `action` to run `delay` seconds from now (delay >= 0).
  /// `label` optionally tags the schedule site for the execution profiler
  /// ("mac/access", "phy/deliver", ...); it must be a string literal (or
  /// other storage outliving the simulator) — nullptr is fine and costs
  /// nothing. Accepts any callable; it is packed into an InlineTask at
  /// the call site (sim/task.hpp), so captures up to
  /// InlineTask::kInlineBytes never touch the heap — the pre-PR-9
  /// std::function signature boxed every capture over 16 bytes.
  template <class F>
  ECGRID_HOT_PATH EventHandle schedule(Time delay, F&& action,
                                       const char* label = nullptr) {
    // Scope opens before the InlineTask packs, so a heap-boxed oversized
    // closure scheduled in steady state is caught by the alloc audit.
    ECGRID_HOT_SCOPE();
    return scheduleTaskIn(delay, InlineTask(std::forward<F>(action)), label);
  }

  /// Schedule `action` at absolute time `when` (when >= now()).
  template <class F>
  ECGRID_HOT_PATH EventHandle scheduleAt(Time when, F&& action,
                                         const char* label = nullptr) {
    ECGRID_HOT_SCOPE();
    return scheduleTaskAt(when, InlineTask(std::forward<F>(action)), label);
  }

  /// Exactly `handle.cancel(); handle = schedule(delay, action, label);`
  /// — same execution order, same reserved sequences — for a timer re-armed
  /// far more often than it fires, always with the same action and label
  /// (Radio's battery-depletion event). The timer is parked
  /// (EventQueue::pushParked): its heap entry waits at `floorDelay` from
  /// now (at most `delay`) and moves only when a re-arm is due before
  /// where it waits. A timer still queued is re-armed in place and keeps
  /// the action it was armed with, so `action` is only packed when the
  /// timer is armed afresh. The nearer the floor is to the earliest a
  /// later re-arm can be due, the fewer moves; any floor gives the same
  /// run.
  template <class F>
  ECGRID_HOT_PATH void rearm(EventHandle& handle, Time delay, Time floorDelay,
                             F&& action, const char* label = nullptr) {
    ECGRID_HOT_SCOPE();
    if (rearmQueued(handle, delay, floorDelay)) return;
    armParked(handle, delay, floorDelay, InlineTask(std::forward<F>(action)),
              label);
  }

  /// Take the place in the same-time order that an event scheduled right
  /// now would get, without scheduling anything (see sim::EventOrder).
  /// Every other event keeps the key it would have had, so skipping an
  /// event this way leaves the rest of the run's order untouched.
  EventOrder reserveOrder() { return queue_.reserveOrder(); }

  /// reserveOrder() `n` times over, in O(1) (EventQueue::reserveBlock).
  OrderBlock reserveBlock(std::uint64_t n) { return queue_.reserveBlock(n); }

  /// Schedule at absolute time `when` into a place taken earlier with
  /// reserveOrder(). The event then runs exactly where it would have run
  /// had it been scheduled at reservation time. Requires
  /// !wouldHaveRun(when, order).
  template <class F>
  ECGRID_HOT_PATH EventHandle scheduleReserved(Time when, EventOrder order,
                                               F&& action,
                                               const char* label = nullptr) {
    ECGRID_HOT_SCOPE();
    return scheduleTaskReserved(when, order,
                                InlineTask(std::forward<F>(action)), label);
  }

  /// True when an event reserved as `order` for time `when` would already
  /// have been dispatched by now, had it been scheduled at reservation
  /// time — i.e. it is too late to schedule it. Decided from the latest
  /// dispatched event: earlier times have run; at the same instant, an
  /// event reserved before that dispatch ran iff it sorts no later. Exact
  /// in the default tie-break mode; under perturbTieBreaks a same-instant
  /// answer is one of the legal tie orders, which is all that mode asks.
  [[nodiscard]] bool wouldHaveRun(Time when, const EventOrder& order) const;

  /// schedule() of `action(object, arg, nullptr)` as the tail of the run
  /// `run` names (EventQueue::append): same key, same label, same handle
  /// semantics, without a slot of its own. For batches scheduled in key
  /// order — Radio's reception ends of one frame.
  EventHandle scheduleInRun(RunCursor& run, Time delay, RunAction action,
                            void* object, std::uint64_t arg,
                            const char* label);

  /// scheduleReserved() of `item` (its order taken with reserveOrder())
  /// as the tail of the run `run` names; a run opened for it holds
  /// `payload`. For batches scheduled in key order — phy::Channel's
  /// arrivals of one transmission.
  EventHandle scheduleReservedInRun(RunCursor& run, const RunItem& item,
                                    RunPayload* payload);

  /// Monomorphic backends behind the schedule templates (the templates
  /// only build the InlineTask; everything else stays out of line).
  EventHandle scheduleTaskIn(Time delay, InlineTask action, const char* label);
  EventHandle scheduleTaskAt(Time when, InlineTask action, const char* label);
  EventHandle scheduleTaskReserved(Time when, EventOrder order,
                                   InlineTask action, const char* label);
  bool rearmQueued(EventHandle& handle, Time delay, Time floorDelay);
  void armParked(EventHandle& handle, Time delay, Time floorDelay,
                 InlineTask action, const char* label);

  /// Run events until the queue drains or the clock passes `until`.
  /// Events scheduled exactly at `until` are executed.
  void run(Time until = kTimeNever);

  /// Run exactly one event if any is pending before `until`.
  /// Returns false when nothing was executed.
  bool step(Time until = kTimeNever);

  /// Request that run() return after the current event completes.
  void requestStop() { stopRequested_ = true; }

  std::uint64_t eventsExecuted() const { return eventsExecuted_; }

  /// Queue places taken so far (schedules plus reserved places); see
  /// EventQueue::reservedSequences.
  [[nodiscard]] std::uint64_t reservedSequences() const {
    return queue_.reservedSequences();
  }

  /// Time of the next live event, or kTimeNever when the queue is empty.
  Time nextEventTime() { return queue_.peekTime(); }

  // ---- Telemetry surface (src/obs/telemetry.hpp reads these) -----------

  /// Events queued right now: every live event, run items one by one
  /// (cancel removes at once).
  std::size_t queueDepth() const { return queue_.size(); }

  /// High-water mark of queueDepth over the run.
  std::size_t peakQueueDepth() const { return queue_.peakDepth(); }

  /// Pooled event-slot records ever allocated — the slab high-water mark
  /// (slots recycle; slabs never shrink). A run takes one slot however
  /// many items it holds.
  std::size_t slabSlotsTotal() const { return queue_.slabSlots(); }

  /// Parked timer entries re-keyed on reaching the top of the queue
  /// (EventQueue::parkedSurfaced); none of them is an executed event.
  std::uint64_t parkedSurfaced() const { return queue_.parkedSurfaced(); }

  /// Determinism-analysis debug mode: randomise the tie-break among
  /// equal-time events using the dedicated "check/tiebreak" stream (see
  /// EventQueue::perturbTieBreak). Call before scheduling anything so
  /// every event of the run participates. The perturbed run is itself
  /// deterministic in the master seed; it is *different* from the
  /// unperturbed run exactly when some component depends on the order
  /// of same-instant events.
  void perturbTieBreaks();
  bool tieBreaksPerturbed() const { return queue_.tieBreakPerturbed(); }

  /// Install `hook` to run after every `everyEvents`-th executed event
  /// (the invariant auditor hangs off this). The hook must not assume it
  /// runs at any particular simulation time; it may inspect state but
  /// should not schedule events. Pass an empty function to uninstall.
  void setPeriodicHook(std::uint64_t everyEvents, std::function<void()> hook);

  /// Opaque observability hub (src/obs). The simulator never dereferences
  /// it; components resolve metrics/tracing through obs/observability.hpp.
  /// Install before constructing components so their construction-time
  /// instrument registration sees the hub. nullptr uninstalls.
  void setObservability(obs::Observability* hub) { observability_ = hub; }
  obs::Observability* observability() const { return observability_; }

  /// Per-event execution probe (opt-in profiling; see sim/probe.hpp).
  /// With a probe installed every event's callback is wall-clock timed.
  /// nullptr uninstalls.
  void setExecutionProbe(ExecutionProbe* probe) { probe_ = probe; }
  ExecutionProbe* executionProbe() const { return probe_; }

  const RngFactory& rng() const { return rngFactory_; }

 private:
  /// The latest dispatch, for wouldHaveRun: the popped event's time and
  /// order, and how many sequences had been reserved when it was popped.
  /// run() advancing the clock to its horizon records a dispatch that
  /// sorts after every event reserved at that instant.
  struct DispatchMark {
    Time time = -kTimeNever;
    EventOrder order;
    std::uint64_t reservedSequences = 0;
  };

  Time now_ = kTimeZero;
  DispatchMark lastDispatch_;
  bool stopRequested_ = false;
  std::uint64_t eventsExecuted_ = 0;
  std::uint64_t hookEvery_ = 0;
  std::function<void()> hook_;
  EventQueue queue_;
  RngFactory rngFactory_;
  obs::Observability* observability_ = nullptr;
  ExecutionProbe* probe_ = nullptr;
  /// While this simulator exists, log lines on its thread are prefixed
  /// with the current sim time (declared after now_; reads &now_).
  util::LogSimClock logClock_{&now_};
};

}  // namespace ecgrid::sim
