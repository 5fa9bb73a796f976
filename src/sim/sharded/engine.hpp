// ShardedEngine — spatially sharded event execution for one scenario.
//
// The plane is striped into column shards (ShardMap); each shard owns a
// slab ShardQueue of the events targeting its hosts, and boundary events
// cross through per-edge EdgeMailboxes. The engine runs in one of two
// modes, chosen by how it is driven:
//
// SEQUENCED (the scenario mode, behind Simulator::enableSharding).
//   Events carry keys from ONE global (time, tieKey, sequence) space and
//   commit one at a time via a K-way minimum over the shard-queue heads.
//   That makes the executed event order — and therefore every digest
//   sample, metric, and RNG draw — byte-identical to the serial
//   EventQueue oracle at ANY shard count, by construction. What shards
//   buy here is mechanical: inline task storage (no per-event heap
//   traffic for bounded closures), smaller per-shard heaps, and the
//   ownership/attribution fabric (per-shard wall-time in the profiler,
//   cross-shard and migration accounting).
//
// WINDOWED (engine-level workloads: benches, stress tests).
//   Classic conservative synchronisation: all shards execute one LBTS
//   window [floor, floor + lookahead] at a time — in parallel across a
//   worker pool when workers > 1 — with cross-shard posts restricted to
//   delays >= lookahead and drained at the window barrier. Sequence
//   numbers are striped (counter * shards + shard) so keys stay globally
//   unique without cross-thread coordination. Full scenarios do NOT run
//   windowed: carrier sense couples shards at bare propagation delay
//   (~µs) and phy::Channel holds shared per-scenario state, so the
//   honest scenario path is sequenced (DESIGN.md §14 quantifies this).
//
// An engine instance is driven in exactly one of the two modes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/event.hpp"
#include "sim/rng.hpp"
#include "sim/sharded/mailbox.hpp"
#include "sim/sharded/shard_map.hpp"
#include "sim/sharded/shard_queue.hpp"
#include "sim/sharded/task.hpp"
#include "sim/time.hpp"
#include "util/ownership.hpp"

namespace ecgrid::sim::sharded {

struct ShardedEngineConfig {
  int shards = 1;
  /// Extent of the x-axis being striped (ScenarioConfig::fieldSize).
  double fieldWidth = 1000.0;
  /// Conservative window width for windowed mode (lookahead.hpp);
  /// unused in sequenced mode.
  double lookaheadSeconds = 0.0;
};

/// Outcome of a runWindowed call.
struct WindowedStats {
  std::uint64_t eventsExecuted = 0;
  std::uint64_t remotePosted = 0;
  std::uint64_t windows = 0;
  /// (shard, window) pairs where the shard committed zero events — the
  /// load-imbalance signal for windowed workloads: a stalled shard sat at
  /// the window barrier doing nothing while its peers worked.
  std::uint64_t stalledShardWindows = 0;
};

class ECGRID_DOMAIN_PER_SCENARIO ShardedEngine {
 public:
  explicit ShardedEngine(const ShardedEngineConfig& config);

  [[nodiscard]] int shardCount() const { return map_.shardCount(); }
  [[nodiscard]] double lookaheadSeconds() const {
    return config_.lookaheadSeconds;
  }

  // ---- Host registry & execution-context attribution -------------------

  /// Register host `key` (sim::hostEventKey of its node id) with a live
  /// x-position provider; ownership follows the host across stripe
  /// boundaries (ShardMap). Unregistered keys belong to the hub shard.
  void registerHost(std::uint64_t key, std::function<double()> xProvider);

  /// Shard whose context is currently executing; events pushed without
  /// an owner key land here. Starts at the hub shard.
  [[nodiscard]] int currentShard() const { return currentShard_; }

  /// Enter/leave host `key`'s shard context (Simulator::HostScope drives
  /// this from the per-host entry points). Returns the previous shard.
  int enterHost(std::uint64_t key);
  void exitHost(int previousShard);

  // ---- Sequenced mode (Simulator facade) -------------------------------

  /// Queue `task` on the current context's shard with the next global
  /// key. Returns a live handle.
  EventHandle pushLocal(Time time, InlineTask task, const char* label);

  /// Queue `task` for host `ownerKey`'s shard. Same-shard pushes return
  /// a live handle; cross-shard pushes travel through the edge mailbox
  /// and return an inert handle — boundary deliveries are fire-and-
  /// forget (every call site is a phy/paging delivery that discards it).
  EventHandle pushFor(std::uint64_t ownerKey, Time time, InlineTask task,
                      const char* label) {
    return pushFor(ownerKey, time, reserveOrder(), std::move(task), label);
  }
  /// As above, into a place taken earlier with reserveOrder().
  EventHandle pushFor(std::uint64_t ownerKey, Time time, EventOrder order,
                      InlineTask task, const char* label);

  /// Mirror of EventQueue::reserveOrder / reservedSequences for the global
  /// key space: a reservation consumes exactly what a push would.
  EventOrder reserveOrder() {
    const std::uint64_t sequence = nextSequence_++;
    return {tieBreakRng_ ? tieBreakRng_->raw() : sequence, sequence};
  }
  [[nodiscard]] std::uint64_t reservedSequences() const {
    return nextSequence_;
  }

  /// Commit the globally next event: drain dirty mailboxes, take the
  /// K-way minimum over shard heads, pop it, and make its shard the
  /// current context. Caller runs the task, then calls finishCurrent().
  /// `order` receives the event's place in the same-time order.
  bool popNext(Time& time, InlineTask& task, const char*& label, int& shard,
               EventOrder& order);

  /// Recycle the committed event's slot (after its callback returned).
  void finishCurrent();

  /// Time of the globally next live event, or kTimeNever.
  Time nextEventTime();

  /// Heap entries across all shards, not-yet-discarded cancellations
  /// included, plus mailbox-buffered events (the sharded analogue of
  /// EventQueue::size).
  [[nodiscard]] std::size_t queueDepthTotal() const;

  /// Mirror of EventQueue::perturbTieBreak for the sequenced key space:
  /// same stream, same one-draw-per-push discipline, so a perturbed
  /// sharded run reproduces the perturbed serial run exactly.
  void perturbTieBreak(RngStream stream) { tieBreakRng_ = stream; }
  [[nodiscard]] bool tieBreakPerturbed() const {
    return tieBreakRng_.has_value();
  }

  /// Boundary events that crossed a shard edge (sequenced mode).
  [[nodiscard]] std::uint64_t crossShardEvents() const {
    return crossShardEvents_;
  }
  /// Host ownership changes observed (mobility across stripe edges).
  [[nodiscard]] std::uint64_t hostMigrations() const {
    return map_.migrations();
  }

  // ---- Telemetry surface (both modes) ----------------------------------

  /// Events committed per shard: sequenced-mode popNext commits plus
  /// windowed-mode per-context executions. Deterministic — a pure
  /// function of the event schedule, never of wall time.
  [[nodiscard]] std::vector<std::uint64_t> committedPerShard() const;

  /// High-water mark of queueDepthTotal(), sampled at commit granularity
  /// (sequenced: before each popNext; windowed: at each window barrier).
  /// Commit-granularity sampling can miss intra-event spikes but is
  /// deterministic and costs one O(shards) sum per commit — the same
  /// order as the K-way minimum popNext already pays.
  [[nodiscard]] std::size_t peakQueueDepth() const { return peakQueueDepth_; }

  /// Pooled slot records ever allocated across all shard queues (slab
  /// high-water; slabs recycle slots but never shrink).
  [[nodiscard]] std::size_t slabSlotsTotal() const;

  /// Cumulative stalled (shard, window) pairs over all runWindowed calls.
  /// Always 0 in sequenced mode, where there are no window barriers.
  [[nodiscard]] std::uint64_t windowStalls() const { return windowStalls_; }

  // ---- Windowed mode (engine-level workloads) --------------------------

  /// Per-shard execution context handed to windowed tasks (tasks capture
  /// the pointer from shardContext()). Stable for the engine's lifetime.
  class ShardContext {
   public:
    [[nodiscard]] int shard() const { return shard_; }
    /// Simulation time of the event being executed on this shard.
    [[nodiscard]] Time now() const { return now_; }

    /// Queue a follow-up on this shard, `delay >= 0` from now().
    void postLocal(Time delay, InlineTask task, const char* label = nullptr);

    /// Queue a follow-up on another shard through the edge mailbox.
    /// `delay` must be >= the engine lookahead — the conservative
    /// guarantee that the target cannot have executed past the arrival
    /// time yet.
    void postRemote(int targetShard, Time delay, InlineTask task,
                    const char* label = nullptr);

   private:
    friend class ShardedEngine;
    ShardedEngine* engine_ = nullptr;
    int shard_ = 0;
    Time now_ = kTimeZero;
    std::uint64_t nextLocalSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t remotePosted_ = 0;
  };

  [[nodiscard]] ShardContext& shardContext(int shard);

  /// Seed a windowed workload before runWindowed (single-threaded
  /// set-up phase).
  void seedWindowed(int shard, Time time, InlineTask task,
                    const char* label = nullptr);

  /// Run windows until all queues drain past `until`. `workers <= 1`
  /// executes every shard inline on the calling thread (same schedule,
  /// no thread pool — the 1-core bench path); `workers > 1` fans each
  /// window's shards over that many threads with a barrier at the window
  /// edge. Requires lookaheadSeconds > 0.
  WindowedStats runWindowed(int workers, Time until);

 private:
  [[nodiscard]] std::size_t edgeIndex(int from, int to) const {
    return static_cast<std::size_t>(from) *
               static_cast<std::size_t>(map_.shardCount()) +
           static_cast<std::size_t>(to);
  }
  EventKey nextSequencedKey(Time time);
  void drainDirtyEdges();
  std::size_t drainAllEdges();
  void runShardWindow(int shard, Time horizon);

  ShardedEngineConfig config_;
  ShardMap map_;
  std::vector<std::unique_ptr<ShardQueue>> queues_;
  std::vector<std::unique_ptr<EdgeMailbox>> mailboxes_;
  std::vector<ShardContext> contexts_;
  /// Sequenced-mode dirty-edge set (single-threaded): avoids probing
  /// every mailbox mutex per committed event.
  std::vector<std::size_t> dirtyEdges_;
  std::vector<char> edgeDirty_;
  std::optional<RngStream> tieBreakRng_;
  /// Sequenced-mode commits attributed to each shard (telemetry).
  std::vector<std::uint64_t> committedSequenced_;
  std::uint64_t nextSequence_ = 0;
  std::uint64_t crossShardEvents_ = 0;
  std::uint64_t windowStalls_ = 0;
  std::size_t mailboxBuffered_ = 0;
  std::size_t peakQueueDepth_ = 0;
  int currentShard_ = ShardMap::kHubShard;
  int executingShard_ = -1;
  /// Current window horizon — the causality floor for windowed posts.
  Time windowHorizon_ = kTimeZero;
};

}  // namespace ecgrid::sim::sharded
