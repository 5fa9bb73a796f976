#include "phy/channel.hpp"

#include <algorithm>
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
}  // namespace

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
  awake_.reserve(kInitialScratch);
  deferred_.reserve(kInitialScratch);
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
  }
  // A default leg has already ended: the first query reads a fresh one.
  legs_[id] = geo::Segment{};
  radio->setChannelAttachmentId(id);
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

ECGRID_HOT_PATH void Channel::deliverTo(std::size_t id,
                                        const sim::EventOrder& place,
                                        net::NodeId senderId,
                                        const geo::Vec2& senderPos,
                                        sim::Time now,
                                        const FrameRef& frame) {
  ECGRID_HOT_SCOPE();
  const double rangeSq = config_.rangeMeters * config_.rangeMeters;
  const double interfSq =
      config_.interferenceRangeMeters * config_.interferenceRangeMeters;
  double distSq = senderPos.distanceSquaredTo(positionOf(id, now));
  if (distSq > rangeSq && distSq > interfSq) return;
  double delay = std::sqrt(distSq) / config_.propagationSpeed;
  Radio* receiver = attachments_[id].radio;
  // Outside decode range (the interference ring) energy arrives but
  // cannot decode.
  bool decodable = distSq <= rangeSq;
  if (decodable) {
    ++deliveriesScheduled_;
    mDeliveriesScheduled_.add();
    if (config_.deliveryFault &&
        config_.deliveryFault(senderId, receiver->id())) {
      // Channel error: the frame arrives as undecodable energy — carrier
      // sense stays busy and concurrent receptions are ruined, but the
      // frame itself is lost (the MAC's ARQ sees a missing ACK).
      ++deliveriesCorrupted_;
      mDeliveriesCorrupted_.add();
      decodable = false;
    }
  }
  const sim::Time at = now + delay;
  if (receiver->sleeping()) {
    // Park it in the place the event would take; replayDeferred schedules
    // it there if the receiver wakes before it lands.
    deferred_.push_back(Arrival{receiver, at, place, frame, decodable});
    return;
  }
  awake_.push_back(
      decodable
          ? sim::RunItem{at, place, "phy/deliver", &deliverArrival, receiver}
          : sim::RunItem{at, place, "phy/interference", &interfereArrival,
                         receiver});
}

ECGRID_HOT_PATH void Channel::scheduleArrival(Arrival& arrival) {
  // A replayed arrival is the only one scheduled as a single event.
  Radio* receiver = arrival.radio;
  if (arrival.decodable) {
    sim_.scheduleReserved(
        arrival.at, arrival.order,
        [receiver, frame = std::move(arrival.frame)]() mutable {
          receiver->beginReceive(std::move(frame));
        },
        "phy/deliver");
  } else {
    const sim::Time airtime = arrival.frame->airtime;
    sim_.scheduleReserved(
        arrival.at, arrival.order,
        [receiver, airtime] { receiver->beginInterference(airtime); },
        "phy/interference");
  }
}

ECGRID_HOT_PATH void Channel::replayDeferred(Radio& radio) {
  ECGRID_HOT_SCOPE();
  const sim::Time now = sim_.now();
  std::size_t kept = 0;
  for (Arrival& arrival : deferred_) {
    if (arrival.radio == &radio) {
      if (!sim_.wouldHaveRun(arrival.at, arrival.order)) {
        scheduleArrival(arrival);
      }
      continue;
    }
    if (arrival.at < now) continue;  // landed on a sleeper: nothing to do
    if (&deferred_[kept] != &arrival) deferred_[kept] = std::move(arrival);
    ++kept;
  }
  deferred_.erase(deferred_.begin() + static_cast<std::ptrdiff_t>(kept),
                  deferred_.end());
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

  if (!deferred_.empty()) {
    // Arrivals that have landed while their receiver slept can no longer
    // matter to a wake.
    std::erase_if(deferred_,
                  [now](const Arrival& a) { return a.at < now; });
  }

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
      deliverTo(id, places[id], sender.id(), senderPos, now, frame);
    }
  } else {
    for (std::size_t id = 0; id < attachments_.size(); ++id) {
      if (attachments_[id].radio == nullptr || id == senderId) continue;
      deliverTo(id, places[id], sender.id(), senderPos, now, frame);
    }
  }

  // Queue the awake arrivals in key order as one run, sharing the frame.
  std::sort(awake_.begin(), awake_.end(), sim::itemBefore);
  sim::RunCursor run;
  for (const sim::RunItem& item : awake_) {
    sim_.scheduleReservedInRun(run, item, frame.payload());
  }
}

}  // namespace ecgrid::phy
