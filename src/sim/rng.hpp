// Deterministic random-number streams.
//
// Every source of randomness in a run draws from a named RngStream split
// off a single master seed, so (a) runs are exactly reproducible given a
// ScenarioConfig, and (b) changing how one component consumes randomness
// (say, the MAC backoff) does not perturb another component's draws (say,
// waypoint selection) — essential for apples-to-apples protocol
// comparisons on the same mobility trace.
//
// A std::mt19937_64 carries 2.5 KB of state. Held inline, four of them
// (MAC, grid protocol, routing engine, mobility) made up most of a host's
// footprint although no reception touches them, so every frame's fan-out
// walked past them in cache. The factory therefore keeps its streams'
// engines in a per-scenario pool of contiguous blocks, apart from the
// per-host objects, and an RngStream is a pointer-sized handle to its
// engine (DESIGN.md §9 "Per-host state stays in cache").
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "util/hot_path.hpp"
#include "util/ownership.hpp"

namespace ecgrid::sim {

class RngFactory;

/// One independent random stream: a handle to a std::mt19937_64 with the
/// distributions the simulator needs. A stream from RngFactory::stream
/// draws from an engine in that factory's pool and must not outlive the
/// factory (checked when the factory is destroyed). A stream built from
/// a bare seed, and every copy, owns a heap engine instead; a copy
/// continues its source's sequence from the point of the copy and then
/// draws independently of it. Moving hands the engine over; a moved-from
/// stream may only be destroyed or assigned to.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed);
  RngStream(const RngStream& other);
  RngStream& operator=(const RngStream& other);
  RngStream(RngStream&& other) noexcept : slot_(other.slot_) {
    other.slot_ = nullptr;
  }
  RngStream& operator=(RngStream&& other) noexcept;
  ~RngStream() { release(); }

  // Every draw advances the stream, so a discarded result silently
  // shifts all later draws — [[nodiscard]] turns that into a warning.

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed with the given mean (> 0).
  [[nodiscard]] double exponential(double mean);

  /// Normally distributed with the given mean and stddev (>= 0).
  [[nodiscard]] double gaussian(double mean, double stddev);

  /// Bernoulli trial.
  [[nodiscard]] bool chance(double probability);

  [[nodiscard]] std::uint64_t raw() { return slot_->engine(); }

 private:
  friend class RngFactory;

  /// An engine and where it came from: `pool` is the factory whose pool
  /// holds the slot, or nullptr for a heap engine the stream owns.
  /// `nextFree` links the pool's free slots.
  struct Slot {
    std::mt19937_64 engine;
    RngFactory* pool;
    Slot* nextFree;
  };

  explicit RngStream(Slot* slot) : slot_(slot) {}
  void release() noexcept;

  Slot* slot_;
};

ECGRID_LAYOUT_BUDGET(RngStream, 16);

/// Factory that derives independent streams from (masterSeed, name).
/// The same (seed, name) pair always yields the same stream. It owns the
/// engine pool its streams draw from: engines come in blocks of
/// kSlotsPerBlock, and a destroyed stream's engine is reused by the next
/// stream created. Destroying the factory while any of its streams is
/// alive is a lifetime bug; the destructor reports it and aborts.
class ECGRID_DOMAIN_PER_SCENARIO RngFactory {
 public:
  static constexpr std::size_t kSlotsPerBlock = 64;

  explicit RngFactory(std::uint64_t masterSeed) : masterSeed_(masterSeed) {}
  RngFactory(const RngFactory&) = delete;
  RngFactory& operator=(const RngFactory&) = delete;
  ~RngFactory();

  [[nodiscard]] RngStream stream(const std::string& name);

  /// Convenience for per-node streams: stream("mac/17") etc.
  [[nodiscard]] RngStream stream(const std::string& component, int index);

  [[nodiscard]] std::uint64_t masterSeed() const { return masterSeed_; }

  /// Streams from this factory alive right now.
  [[nodiscard]] std::size_t liveStreams() const { return live_; }

  /// Engines the pool holds room for (blocks × kSlotsPerBlock).
  [[nodiscard]] std::size_t pooledSlots() const {
    return blocks_.size() * kSlotsPerBlock;
  }

 private:
  friend class RngStream;
  using Slot = RngStream::Slot;

  /// Raw room for one Slot; constructed in place when first handed out.
  struct alignas(Slot) SlotStorage {
    std::byte bytes[sizeof(Slot)];
  };

  Slot* acquire(std::uint64_t seed);
  void recycle(Slot* slot) noexcept;

  std::uint64_t masterSeed_;
  std::vector<std::unique_ptr<SlotStorage[]>> blocks_;
  std::size_t usedInLastBlock_ = kSlotsPerBlock;
  Slot* freeList_ = nullptr;
  std::size_t live_ = 0;
};

}  // namespace ecgrid::sim
