// One immutable frame per transmission, shared by every reception of it.
//
// A broadcast reaches every radio in range. The channel stamps the packet
// once into a pooled Frame and hands out FrameRefs: a pointer with an
// intrusive, non-atomic reference count (a channel and everything holding
// its frames belong to one scenario, run on one thread).
//
// FramePool recycles frames through a free list and grows only at its
// high-water mark, in fixed-size chunks whose addresses never move — a
// FrameRef stays valid while the pool grows under it. A pool whose owner
// (the Channel) goes away while frames are still referenced — closures
// left in the event queue when a scenario is torn down before its
// simulator — lives on until the last of them is released.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"
#include "util/ownership.hpp"

namespace ecgrid::phy {

class FramePool;

struct Frame {
  net::Packet packet;  ///< as stamped by the channel (uid assigned)
  sim::Time airtime = 0.0;

 private:
  friend class FrameRef;
  friend class FramePool;
  /// Drop one reference; the last returns the frame to its pool.
  void release();
  std::uint32_t refs_ = 0;
  Frame* nextFree_ = nullptr;
  FramePool* pool_ = nullptr;
};

/// Counted reference to a pooled Frame. Null when default-constructed.
class FrameRef {
 public:
  FrameRef() = default;
  FrameRef(const FrameRef& other) noexcept : frame_(other.frame_) {
    if (frame_ != nullptr) ++frame_->refs_;
  }
  FrameRef(FrameRef&& other) noexcept
      : frame_(std::exchange(other.frame_, nullptr)) {}
  FrameRef& operator=(FrameRef other) noexcept {
    std::swap(frame_, other.frame_);
    return *this;
  }
  ~FrameRef() { reset(); }

  void reset();

  const Frame& operator*() const { return *frame_; }
  const Frame* operator->() const { return frame_; }
  [[nodiscard]] explicit operator bool() const { return frame_ != nullptr; }

 private:
  friend class FramePool;
  explicit FrameRef(Frame* frame) : frame_(frame) { ++frame_->refs_; }
  Frame* frame_ = nullptr;
};

class ECGRID_DOMAIN_PER_SCENARIO FramePool {
 public:
  /// Create a pool owned by the returned handle. Destroying the handle
  /// frees the pool now, or once its last outstanding frame is released.
  struct Closer {
    void operator()(FramePool* pool) const;
  };
  using Handle = std::unique_ptr<FramePool, Closer>;
  static Handle create();

  // Frames point back at their pool.
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// A frame holding `packet` stamped with `uid`, referenced once.
  FrameRef acquire(const net::Packet& packet, std::uint64_t uid,
                   sim::Time airtime);

  /// Frames currently referenced.
  [[nodiscard]] std::size_t outstanding() const { return outstanding_; }
  /// Frames ever allocated (the pool's high-water mark).
  [[nodiscard]] std::size_t capacity() const {
    return chunks_.size() * kChunkFrames;
  }

 private:
  friend struct Frame;
  static constexpr std::size_t kChunkFrames = 64;

  FramePool() = default;
  void grow();
  void release(Frame* frame);

  std::vector<std::unique_ptr<Frame[]>> chunks_;
  Frame* freeHead_ = nullptr;
  std::size_t outstanding_ = 0;
  bool orphaned_ = false;  ///< owner gone; delete at the last release
};

inline void Frame::release() {
  if (--refs_ == 0) pool_->release(this);
}

inline void FrameRef::reset() {
  if (frame_ != nullptr) frame_->release();
  frame_ = nullptr;
}

}  // namespace ecgrid::phy
