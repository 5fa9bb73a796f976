#include "phy/channel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "obs/observability.hpp"
#include "phy/radio.hpp"
#include "util/error.hpp"
#include "util/hot_path.hpp"

namespace ecgrid::phy {

namespace {
// Index buckets must be strictly wider than the effective reach so that a
// receiver whose bucket is stale by one boundary crossing (GridTracker
// events at the same timestamp may not have fired yet) still falls inside
// the sender's 3x3 neighbourhood. Any factor > 1 works; 1/16 extra keeps
// the candidate blocks tight.
constexpr double kIndexCellMargin = 1.0625;

// Candidate scratch capacity: a 3x3 bucket neighbourhood at paper-baseline
// densities holds a few dozen radios; 256 covers city-scale hotspots so
// steady-state transmissions never grow the buffer. Awake and deferred
// arrivals are about one transmission's receivers at a time, so the same
// bound serves.
constexpr std::size_t kInitialScratch = 256;

// Run actions of an arrival (sim::RunItem): the receiver is the item's
// object, the frame the run's payload.
void deliverArrival(void* receiver, std::uint64_t /*arg*/,
                    sim::RunPayload* frame) {
  static_cast<Radio*>(receiver)->beginReceive(
      FrameRef::share(*static_cast<Frame*>(frame)));
}

void interfereArrival(void* receiver, std::uint64_t /*arg*/,
                      sim::RunPayload* frame) {
  static_cast<Radio*>(receiver)->beginInterference(
      static_cast<Frame*>(frame)->airtime);
}

// Arrival sets smaller than this are ordered by the insertion pass alone:
// below it the radix passes' 256-bucket histograms cost more than they
// save.
constexpr std::size_t kRadixMinItems = 16;
// Radix passes cover only this many of the highest bits in which the
// arrival times differ (two 8-bit passes): ~160 arrivals spread over 2^16
// buckets leave the insertion pass almost nothing to move, for half the
// passes of the full span.
constexpr int kRadixBits = 16;
}  // namespace

ECGRID_HOT_PATH void orderArrivals(std::vector<sim::RunItem>& items,
                                   std::vector<sim::RunItem>& buffer) {
  const std::size_t n = items.size();
  if (n >= kRadixMinItems) {
    // Times are non-negative, so their bit patterns order as they do, and
    // bits in which every time agrees cannot reorder anything. LSD passes
    // of 8-bit digits over the top of the span in which they differ order
    // the items up to ties in the bits below it.
    const auto bits = [](const sim::RunItem& item) {
      return std::bit_cast<std::uint64_t>(item.time);
    };
    const std::uint64_t first = bits(items.front());
    std::uint64_t differ = 0;
    for (const sim::RunItem& item : items) differ |= bits(item) ^ first;
    if (differ != 0) {
      const int high = 64 - std::countl_zero(differ);
      const int low = std::max(std::countr_zero(differ), high - kRadixBits);
      buffer.resize(n);
      for (int shift = low; shift < high; shift += 8) {
        std::array<std::uint32_t, 257> start{};
        for (const sim::RunItem& item : items) {
          ++start[((bits(item) >> shift) & 0xffu) + 1];
        }
        for (std::size_t digit = 0; digit < 256; ++digit) {
          start[digit + 1] += start[digit];
        }
        for (const sim::RunItem& item : items) {
          buffer[start[(bits(item) >> shift) & 0xffu]++] = item;
        }
        items.swap(buffer);
      }
    }
  }
  // Insertion pass: finishes what the radix passes left (items sharing
  // their window, and equal times, which it settles by place) and sorts a
  // small set outright. It compares whole keys, so the result is exact
  // whatever the passes did.
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t k = i; k > 0 && sim::itemBefore(items[k], items[k - 1]);
         --k) {
      std::swap(items[k], items[k - 1]);
    }
  }
}

Channel::Channel(sim::Simulator& sim, const ChannelConfig& config)
    : sim_(sim),
      config_(config),
      mFramesTransmitted_(obs::counter(sim, "phy.frames_transmitted")),
      mDeliveriesScheduled_(obs::counter(sim, "phy.deliveries_scheduled")),
      mDeliveriesCorrupted_(obs::counter(sim, "phy.deliveries_corrupted")) {
  ECGRID_REQUIRE(config.rangeMeters > 0.0, "range must be positive");
  ECGRID_REQUIRE(config.bitrateBps > 0.0, "bitrate must be positive");
  if (config_.useSpatialIndex) {
    double reach =
        std::max(config_.rangeMeters, config_.interferenceRangeMeters);
    index_.emplace(reach * kIndexCellMargin);
  }
  scratch_.reserve(kInitialScratch);
  radixBuffer_.reserve(kInitialScratch);
  awake_.reserve(kInitialScratch);
  inFlight_.reserve(kInitialScratch);
  parked_.reserve(kInitialScratch);
}

sim::Time Channel::frameAirtime(int bytes) const {
  ECGRID_REQUIRE(bytes > 0, "frame must have positive size");
  return config_.preambleSeconds + bytes * 8.0 / config_.bitrateBps;
}

std::size_t Channel::attach(Radio* radio, LegProvider legs) {
  ECGRID_REQUIRE(radio != nullptr, "radio required");
  ECGRID_REQUIRE(legs != nullptr, "leg provider required");
  std::size_t id;
  if (!freeSlots_.empty()) {
    id = freeSlots_.back();
    freeSlots_.pop_back();
    attachments_[id] = Attachment{radio, std::move(legs)};
  } else {
    id = attachments_.size();
    attachments_.push_back(Attachment{radio, std::move(legs)});
    legs_.emplace_back();
    asleep_.push_back(0);
  }
  // A default leg has already ended: the first query reads a fresh one.
  legs_[id] = geo::Segment{};
  // The radio keeps the sleep byte current from here on.
  radio->attachChannel(this);
  radio->setChannelAttachmentId(id);
  setAsleep(id, radio->sleeping());
  if (index_) index_->insert(id, positionOf(id, sim_.now()));
  ++liveAttachments_;
  return id;
}

std::size_t Channel::attach(Radio* radio, std::function<geo::Vec2()> position) {
  ECGRID_REQUIRE(position != nullptr, "position provider required");
  // A leg that ends where it starts is stale at once, so every query asks
  // the provider again.
  return attach(radio, [position = std::move(position)](sim::Time now) {
    return geo::Segment{now, now, position(), {}};
  });
}

void Channel::detach(std::size_t attachmentId) {
  ECGRID_REQUIRE(attachmentId < attachments_.size(), "bad attachment id");
  Attachment& slot = attachments_[attachmentId];
  ECGRID_REQUIRE(slot.radio != nullptr, "attachment already detached");
  if (index_) index_->remove(attachmentId);
  slot.radio->setChannelAttachmentId(Radio::kNoAttachment);
  slot.radio = nullptr;
  slot.legs = nullptr;
  asleep_[attachmentId] = 0;
  freeSlots_.push_back(attachmentId);
  --liveAttachments_;
}

void Channel::notifyMoved(std::size_t attachmentId) {
  ECGRID_REQUIRE(attachmentId < attachments_.size(), "bad attachment id");
  if (!index_) return;
  ECGRID_REQUIRE(attachments_[attachmentId].radio != nullptr,
                 "attachment is detached");
  index_->update(attachmentId, positionOf(attachmentId, sim_.now()));
}

const geo::GridMap* Channel::indexGrid() const {
  return index_ ? &index_->grid() : nullptr;
}

ECGRID_HOT_PATH geo::Vec2 Channel::positionOf(std::size_t id,
                                              sim::Time now) {
  geo::Segment& leg = legs_[id];
  if (now >= leg.end) leg = attachments_[id].legs(now);
  return leg.at(now);
}

ECGRID_HOT_PATH void Channel::deliverTo(std::size_t id, net::NodeId senderId,
                                        const geo::Vec2& senderPos,
                                        sim::Time now, const FrameRef& frame,
                                        const sim::OrderBlock& places) {
  ECGRID_HOT_SCOPE();
  const double rangeSq = config_.rangeMeters * config_.rangeMeters;
  const double interfSq =
      config_.interferenceRangeMeters * config_.interferenceRangeMeters;
  double distSq = senderPos.distanceSquaredTo(positionOf(id, now));
  if (distSq > rangeSq && distSq > interfSq) return;
  double delay = std::sqrt(distSq) / config_.propagationSpeed;
  // Outside decode range (the interference ring) energy arrives but
  // cannot decode.
  bool decodable = distSq <= rangeSq;
  if (decodable) {
    ++deliveriesScheduled_;
    mDeliveriesScheduled_.add();
    if (config_.deliveryFault &&
        config_.deliveryFault(senderId, attachments_[id].radio->id())) {
      // Channel error: the frame arrives as undecodable energy — carrier
      // sense stays busy and concurrent receptions are ruined, but the
      // frame itself is lost (the MAC's ARQ sees a missing ACK).
      ++deliveriesCorrupted_;
      mDeliveriesCorrupted_.add();
      decodable = false;
    }
  }
  const sim::Time at = now + delay;
  if (asleep_[id] != 0) {
    // Park it against its block place; replayDeferred schedules it there
    // if the receiver wakes before it lands.
    if (currentInFlight_ == kNoInFlight) {
      currentInFlight_ = static_cast<std::uint32_t>(inFlight_.size());
      inFlight_.push_back(InFlight{frame, places});
    }
    parked_.push_back(Parked{attachments_[id].radio, at,
                             static_cast<std::uint32_t>(id), currentInFlight_,
                             decodable});
    if (at > latestParked_) latestParked_ = at;
    return;
  }
  Radio* receiver = attachments_[id].radio;
  awake_.push_back(
      decodable ? sim::RunItem{at, places[id], "phy/deliver", &deliverArrival,
                               receiver}
                : sim::RunItem{at, places[id], "phy/interference",
                               &interfereArrival, receiver});
}

ECGRID_HOT_PATH void Channel::scheduleArrival(const Parked& arrival) {
  // A replayed arrival is the only one scheduled as a single event.
  Radio* receiver = arrival.radio;
  const InFlight& tx = inFlight_[arrival.tx];
  const sim::EventOrder place = tx.places[arrival.id];
  if (arrival.decodable) {
    sim_.scheduleReserved(
        arrival.at, place,
        [receiver, frame = tx.frame]() mutable {
          receiver->beginReceive(std::move(frame));
        },
        "phy/deliver");
  } else {
    const sim::Time airtime = tx.frame->airtime;
    sim_.scheduleReserved(
        arrival.at, place,
        [receiver, airtime] { receiver->beginInterference(airtime); },
        "phy/interference");
  }
}

ECGRID_HOT_PATH void Channel::replayDeferred(Radio& radio) {
  ECGRID_HOT_SCOPE();
  for (Parked& arrival : parked_) {
    if (arrival.radio != &radio) continue;
    if (!sim_.wouldHaveRun(arrival.at,
                           inFlight_[arrival.tx].places[arrival.id])) {
      scheduleArrival(arrival);
    }
    arrival.radio = nullptr;  // replayed, or landed while it slept
  }
}

std::size_t Channel::deferredArrivals() const {
  return static_cast<std::size_t>(
      std::count_if(parked_.begin(), parked_.end(),
                    [](const Parked& p) { return p.radio != nullptr; }));
}

ECGRID_HOT_PATH void Channel::transmitFrom(Radio& sender,
                                           const net::Packet& packet,
                                           sim::Time duration) {
  ECGRID_HOT_SCOPE();
  ++framesTransmitted_;
  mFramesTransmitted_.add();
  const FrameRef frame = frames_->acquire(packet, nextUid_++, duration);

  const std::size_t senderId = sender.channelAttachmentId();
  ECGRID_CHECK(senderId < attachments_.size() &&
                   attachments_[senderId].radio == &sender,
               "transmitting radio is not attached to this channel");
  const sim::Time now = sim_.now();
  const geo::Vec2 senderPos = positionOf(senderId, now);

  if (!parked_.empty() && latestParked_ < now) {
    // Every parked arrival has landed while its receiver slept: none can
    // matter to a wake any more.
    parked_.clear();
    inFlight_.clear();
  }
  currentInFlight_ = kNoInFlight;

  // One queue place per attachment slot, taken at once: receiver `id`
  // gets place `id`, so same-instant arrivals run in ascending attachment
  // order whatever order the candidates are visited in.
  const sim::OrderBlock places = sim_.reserveBlock(attachments_.size());
  awake_.clear();
  if (index_) {
    scratch_.clear();
    index_->collectNear(senderPos, scratch_);
    // Bucket iteration order is hash-dependent. Only the fault slot sees
    // visiting order (it may draw from a stateful stream), so only then
    // are candidates sorted into the brute-force scan's slot order.
    if (config_.deliveryFault) std::sort(scratch_.begin(), scratch_.end());
    for (std::size_t id : scratch_) {
      if (id == senderId) continue;
      deliverTo(id, sender.id(), senderPos, now, frame, places);
    }
  } else {
    for (std::size_t id = 0; id < attachments_.size(); ++id) {
      if (attachments_[id].radio == nullptr || id == senderId) continue;
      deliverTo(id, sender.id(), senderPos, now, frame, places);
    }
  }

  // Queue the awake arrivals in key order as one run, sharing the frame.
  orderArrivals(awake_, radixBuffer_);
  sim::RunCursor run;
  for (const sim::RunItem& item : awake_) {
    sim_.scheduleReservedInRun(run, item, frame.payload());
  }
}

}  // namespace ecgrid::phy
