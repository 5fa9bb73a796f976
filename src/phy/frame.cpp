#include "phy/frame.hpp"

#include "util/hot_path.hpp"

namespace ecgrid::phy {

FramePool::Handle FramePool::create() { return Handle(new FramePool()); }

void FramePool::Closer::operator()(FramePool* pool) const {
  if (pool->outstanding_ == 0) {
    delete pool;
  } else {
    pool->orphaned_ = true;
  }
}

void FramePool::grow() {
  // High-water growth, never steady-state churn: a frame is back on the
  // free list as soon as its last reception ends, so the pool tops out at
  // the most frames ever in flight at once.
  ECGRID_ALLOC_EXEMPT();
  chunks_.push_back(std::make_unique<Frame[]>(kChunkFrames));
  Frame* chunk = chunks_.back().get();
  for (std::size_t i = kChunkFrames; i-- > 0;) {
    chunk[i].pool_ = this;
    chunk[i].nextFree_ = freeHead_;
    freeHead_ = &chunk[i];
  }
}

ECGRID_HOT_PATH FrameRef FramePool::acquire(const net::Packet& packet,
                                            std::uint64_t uid,
                                            sim::Time airtime) {
  ECGRID_HOT_SCOPE();
  if (freeHead_ == nullptr) grow();
  Frame* frame = freeHead_;
  freeHead_ = frame->nextFree_;
  frame->nextFree_ = nullptr;
  frame->packet = packet;
  frame->packet.uid = uid;
  frame->airtime = airtime;
  ++outstanding_;
  return FrameRef(frame);
}

void FramePool::release(Frame* frame) {
  // Drop the header now rather than when the frame is next reused.
  frame->packet.header.reset();
  frame->nextFree_ = freeHead_;
  freeHead_ = frame;
  --outstanding_;
  if (orphaned_ && outstanding_ == 0) delete this;
}

}  // namespace ecgrid::phy
