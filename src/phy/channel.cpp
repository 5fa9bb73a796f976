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
// Fan-out grid cells are half the effective reach wide: a reach disc meets
// about five rows of about five cells. Finer cells fit the disc closer but
// cost more per query, which sparse fields do not win back.
constexpr double kCellsPerReach = 2.0;
// How far (metres) an attachment may stray outside its bucket before it
// must be re-bucketed: far above the rounding of one leg evaluation.
constexpr double kGridMargin = 1.0;
constexpr std::uint32_t kNoBucket = 0xffffffffu;

// Arrival scratch capacity: awake and deferred arrivals are about one
// transmission's receivers at a time, a few dozen at paper-baseline
// densities; 256 covers city-scale hotspots so steady-state transmissions
// never grow the buffers.
constexpr std::size_t kInitialScratch = 256;

// Arrival sets smaller than this are ordered by the insertion pass alone:
// below it the radix passes' 256-bucket histograms cost more than they
// save.
constexpr std::size_t kRadixMinItems = 16;
// Radix passes cover only this many of the highest bits in which the
// arrival times differ (two 8-bit passes): ~160 arrivals spread over 2^16
// buckets leave the insertion pass almost nothing to move, for half the
// passes of the full span.
constexpr int kRadixBits = 16;

// The leg `legs` gives for `now`, checked to be still running.
geo::Segment liveLeg(const Channel::LegProvider& legs, sim::Time now) {
  const geo::Segment leg = legs(now);
  ECGRID_CHECK(now < leg.end,
               "leg provider returned a leg that has already ended");
  return leg;
}

/// Insertion pass: sorts a set that is in order but for a few items close
/// to their place in O(n) comparisons, and a small set outright.
template <class Item, class Before>
ECGRID_HOT_PATH void insertionPass(std::vector<Item>& items, Before before) {
  for (std::size_t i = 1; i < items.size(); ++i) {
    for (std::size_t k = i; k > 0 && before(items[k], items[k - 1]); --k) {
      std::swap(items[k], items[k - 1]);
    }
  }
}
}  // namespace

ECGRID_HOT_PATH void orderArrivals(std::vector<ArrivalStart>& starts,
                                   const sim::OrderBlock& places,
                                   std::vector<ArrivalStart>& buffer) {
  const std::size_t n = starts.size();
  if (n >= kRadixMinItems) {
    // Times are non-negative, so their bit patterns order as they do, and
    // bits in which every time agrees cannot reorder anything. LSD passes
    // of 8-bit digits over the top of the span in which they differ order
    // the starts up to ties in the bits below it.
    const auto bits = [](const ArrivalStart& start) {
      return std::bit_cast<std::uint64_t>(start.at);
    };
    const std::uint64_t first = bits(starts.front());
    std::uint64_t differ = 0;
    for (const ArrivalStart& start : starts) differ |= bits(start) ^ first;
    if (differ != 0) {
      const int high = 64 - std::countl_zero(differ);
      const int low = std::max(std::countr_zero(differ), high - kRadixBits);
      buffer.resize(n);
      for (int shift = low; shift < high; shift += 8) {
        std::array<std::uint32_t, 257> start{};
        for (const ArrivalStart& arrival : starts) {
          ++start[((bits(arrival) >> shift) & 0xffu) + 1];
        }
        for (std::size_t digit = 0; digit < 256; ++digit) {
          start[digit + 1] += start[digit];
        }
        for (const ArrivalStart& arrival : starts) {
          buffer[start[(bits(arrival) >> shift) & 0xffu]++] = arrival;
        }
        starts.swap(buffer);
      }
    }
  }
  // Finishes what the radix passes left (starts sharing their window, and
  // equal times, which it settles by place). It compares whole keys, so
  // the result is exact whatever the passes did.
  insertionPass(starts, [&places](const ArrivalStart& a,
                                  const ArrivalStart& b) {
    if (a.at != b.at) return a.at < b.at;
    return sim::orderedBefore(places[a.id], places[b.id]);
  });
}

Channel::Channel(sim::Simulator& sim, const ChannelConfig& config)
    : sim_(sim),
      config_(config),
      mFramesTransmitted_(obs::counter(sim, "phy.frames_transmitted")),
      mDeliveriesScheduled_(obs::counter(sim, "phy.deliveries_scheduled")),
      mDeliveriesCorrupted_(obs::counter(sim, "phy.deliveries_corrupted")) {
  ECGRID_REQUIRE(config.rangeMeters > 0.0, "range must be positive");
  ECGRID_REQUIRE(config.bitrateBps > 0.0, "bitrate must be positive");
  reach_ = std::max(config_.rangeMeters, config_.interferenceRangeMeters);
  columns_.side = rows_.side = reach_ / kCellsPerReach;
  radixBuffer_.reserve(kInitialScratch);
  awake_.reserve(kInitialScratch);
  ends_.reserve(kInitialScratch);
  inFlight_.reserve(kInitialScratch);
  parked_.reserve(kInitialScratch);
  replay_.reserve(kInitialScratch);
}

sim::Time Channel::frameAirtime(int bytes) const {
  ECGRID_REQUIRE(bytes > 0, "frame must have positive size");
  return config_.preambleSeconds + bytes * 8.0 / config_.bitrateBps;
}

std::size_t Channel::attach(Radio* radio, LegProvider legs) {
  ECGRID_REQUIRE(radio != nullptr, "radio required");
  ECGRID_REQUIRE(legs != nullptr, "leg provider required");
  // Read the first leg before the slot is committed, so a provider that
  // fails the check leaves no trace.
  const geo::Segment first = liveLeg(legs, sim_.now());
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
    sleepFrom_.push_back(0);
  }
  legs_[id] = first;
  // The radio keeps the sleep byte current from here on.
  radio->attachChannel(this);
  radio->setChannelAttachmentId(id);
  setAsleep(id, radio->sleeping());
  // Every grid array is sized here, so refreshes and queries never grow
  // one. The attachment is bucketed on the next refresh.
  bucketOf_.resize(attachments_.size(), kNoBucket);
  bucketUntil_.resize(attachments_.size());
  members_.resize(attachments_.size());
  for (std::vector<double>* column :
       {&legStart_, &originX_, &originY_, &velocityX_, &velocityY_}) {
    column->resize(attachments_.size());
  }
  bucketUntil_[id] = -kInfinity;
  refreshAt_ = -kInfinity;
  fitGrid(first.at(sim_.now()));
  ++liveAttachments_;
  return id;
}

std::size_t Channel::attach(Radio* radio, std::function<geo::Vec2()> position) {
  ECGRID_REQUIRE(position != nullptr, "position provider required");
  // Read once: the radio rests there on one endless leg.
  const geo::Segment leg{sim_.now(), kInfinity, position(), {}};
  return attach(radio, [leg](sim::Time) { return leg; });
}

void Channel::detach(std::size_t attachmentId) {
  ECGRID_REQUIRE(attachmentId < attachments_.size(), "bad attachment id");
  Attachment& slot = attachments_[attachmentId];
  ECGRID_REQUIRE(slot.radio != nullptr, "attachment already detached");
  // Its counted arrivals can still replay if the radio wakes; they need
  // its leg, which the slot's next owner replaces.
  if (hasCountedArrivals(attachmentId)) parkCounted(attachmentId);
  bucketOf_[attachmentId] = kNoBucket;
  bucketUntil_[attachmentId] = kInfinity;
  refreshAt_ = -kInfinity;  // rebuild the offsets without it
  slot.radio->setChannelAttachmentId(Radio::kNoAttachment);
  slot.radio = nullptr;
  slot.legs = nullptr;
  asleep_[attachmentId] = 0;
  freeSlots_.push_back(attachmentId);
  --liveAttachments_;
}

void Channel::fitGrid(const geo::Vec2& position) {
  boxHigh_ = {std::max(boxHigh_.x, position.x),
              std::max(boxHigh_.y, position.y)};
  // At most 2 sqrt(N) + 8 cells a side, however far apart the positions.
  const double limit =
      std::sqrt(4.0 * static_cast<double>(attachments_.size())) + 8.0;
  const auto fit = [limit](GridAxis& axis, double low, double high) {
    const GridAxis was = axis;
    axis.origin = std::min(axis.origin, low);
    axis.cells = static_cast<std::uint32_t>(
        std::min(std::floor((high - axis.origin) / axis.side) + 1.0, limit));
    return axis.origin != was.origin || axis.cells != was.cells;
  };
  bool reshaped = fit(columns_, position.x, boxHigh_.x);
  reshaped = fit(rows_, position.y, boxHigh_.y) || reshaped;
  if (!reshaped) return;
  bucketStart_.assign(std::size_t{columns_.cells} * rows_.cells + 1, 0);
  for (std::size_t id = 0; id < bucketOf_.size(); ++id) {
    if (bucketOf_[id] != kNoBucket) bucketUntil_[id] = -kInfinity;
  }
}

ECGRID_HOT_PATH void Channel::placeInGrid(std::size_t id, sim::Time now) {
  const geo::Vec2 p = positionOf(id, now);
  const geo::Segment& leg = legs_[id];
  const std::uint32_t column = columns_.cellOf(p.x);
  const std::uint32_t row = rows_.cellOf(p.y);
  bucketOf_[id] = row * columns_.cells + column;
  // Each coordinate of leg.at(t) is monotone in t, so the position stays
  // in the grown bucket until it reaches a grown wall or the leg ends.
  bucketUntil_[id] = std::min(
      {leg.end,
       now + columns_.timeToLeave(column, p.x, leg.velocity.x, kGridMargin),
       now + rows_.timeToLeave(row, p.y, leg.velocity.y, kGridMargin)});
}

ECGRID_HOT_PATH void Channel::refreshGrid(sim::Time now) {
  sim::Time earliest = kInfinity;
  for (std::size_t id = 0; id < attachments_.size(); ++id) {
    if (bucketUntil_[id] <= now) placeInGrid(id, now);
    earliest = std::min(earliest, bucketUntil_[id]);
  }
  refreshAt_ = earliest;
  // Counting sort into the flat buckets: count each bucket's members one
  // slot ahead, sum, then place ids in ascending order; placing advances
  // every start to the next bucket's, and the shift restores them.
  std::fill(bucketStart_.begin(), bucketStart_.end(), 0u);
  for (std::uint32_t bucket : bucketOf_) {
    if (bucket != kNoBucket) ++bucketStart_[bucket + 1];
  }
  for (std::size_t b = 1; b < bucketStart_.size(); ++b) {
    bucketStart_[b] += bucketStart_[b - 1];
  }
  for (std::size_t id = 0; id < bucketOf_.size(); ++id) {
    if (bucketOf_[id] != kNoBucket) {
      members_[bucketStart_[bucketOf_[id]]++] = static_cast<std::uint32_t>(id);
    }
  }
  for (std::size_t b = bucketStart_.size() - 1; b > 0; --b) {
    bucketStart_[b] = bucketStart_[b - 1];
  }
  bucketStart_[0] = 0;
  // The scan reads the legs in member order, a row's span at a time.
  const std::size_t count = bucketStart_.back();
  for (std::size_t k = 0; k < count; ++k) {
    const geo::Segment& leg = legs_[members_[k]];
    legStart_[k] = leg.start;
    originX_[k] = leg.origin.x;
    originY_[k] = leg.origin.y;
    velocityX_[k] = leg.velocity.x;
    velocityY_[k] = leg.velocity.y;
  }
}

// Out of line: inlined into transmitFrom, the scan ran 5-7% slower end to
// end on the awake-heavy perfbench workloads (dense_grid, paper_lifetime).
template <bool kFaultArmed>
[[gnu::noinline]] ECGRID_HOT_PATH void Channel::scanNear(
    std::size_t senderId, net::NodeId sender, const InFlight& tx) {
  const sim::Time now = tx.sentAt;
  const geo::Vec2& senderPos = tx.senderPos;
  const double rangeSq = config_.rangeMeters * config_.rangeMeters;
  const double interfSq =
      config_.interferenceRangeMeters * config_.interferenceRangeMeters;
  std::uint64_t scheduled = 0;
  double farthestSleeperSq = -1.0;
  // An attachment lies within kGridMargin of its bucket on either axis, so
  // within kGridMargin * sqrt(2) of it: a radio in reach of the sender sits
  // in a bucket that meets this disc, with room to spare for rounding.
  const double radius = reach_ + 2.0 * kGridMargin;
  const std::uint32_t lastRow = rows_.cellOf(senderPos.y + radius);
  for (std::uint32_t row = rows_.cellOf(senderPos.y - radius); row <= lastRow;
       ++row) {
    // The disc's widest chord over the row; its cells are one span.
    const double chordDy = std::max(
        {0.0, rows_.low(row) - senderPos.y, senderPos.y - rows_.high(row)});
    const double half =
        std::sqrt(std::max(0.0, radius * radius - chordDy * chordDy));
    const std::size_t rowStart = std::size_t{row} * columns_.cells;
    const std::uint32_t last =
        bucketStart_[rowStart + columns_.cellOf(senderPos.x + half) + 1];
    for (std::uint32_t k =
             bucketStart_[rowStart + columns_.cellOf(senderPos.x - half)];
         k < last; ++k) {
      // Segment::at and Vec2::distanceSquaredTo, term for term:
      // forEachCountedArrival rebuilds a counted arrival with those, and
      // the tests' geometric oracle judges reach with them, so both must
      // get this very distance.
      const double dt = now - legStart_[k];
      const double dx = senderPos.x - (originX_[k] + velocityX_[k] * dt);
      const double dy = senderPos.y - (originY_[k] + velocityY_[k] * dt);
      const double distSq = dx * dx + dy * dy;
      if (distSq > rangeSq && distSq > interfSq) continue;
      const std::uint32_t id = members_[k];
      if (id == senderId) continue;
      bool decodable = distSq <= rangeSq;
      if (decodable) {
        ++scheduled;
        if constexpr (kFaultArmed) decodable = !faultCorrupts(sender, id);
      }
      if (asleep_[id] != 0) {
        if constexpr (kFaultArmed) {
          // Its verdict is drawn now, so its arrival is parked with it.
          park(id, now + std::sqrt(distSq) / config_.propagationSpeed,
               decodable, tx);
        } else {
          // Counted only: a wake rebuilds the arrival from this
          // transmission's record and the sleeper's leg.
          farthestSleeperSq = std::max(farthestSleeperSq, distSq);
        }
        continue;
      }
      awake_.push_back(ArrivalStart{
          now + std::sqrt(distSq) / config_.propagationSpeed,
          attachments_[id].radio, id, decodable});
    }
  }
  deliveriesScheduled_ += scheduled;
  mDeliveriesScheduled_.add(scheduled);
  if (farthestSleeperSq < 0.0) return;
  inFlight_[currentRecord(tx)].counted = true;
  // The farthest sleeper's arrival is the latest: the expression is
  // monotone in the distance.
  latestParked_ = std::max(
      latestParked_,
      now + std::sqrt(farthestSleeperSq) / config_.propagationSpeed);
}

ECGRID_HOT_PATH geo::Vec2 Channel::positionOf(std::size_t id,
                                              sim::Time now) {
  geo::Segment& leg = legs_[id];
  if (now >= leg.end) {
    // A counted arrival is rebuilt from the leg that covered its sending:
    // park it before that leg goes.
    if (hasCountedArrivals(id)) parkCounted(id);
    leg = liveLeg(attachments_[id].legs, now);
  }
  return leg.at(now);
}

void Channel::setAsleep(std::size_t attachmentId, bool asleep) {
  if (asleep) {
    sleepFrom_[attachmentId] = framesTransmitted_;
  } else if (hasCountedArrivals(attachmentId)) {
    // Leaving sleep (awake, or Off until powerUp): replayDeferred reads
    // only parked arrivals.
    parkCounted(attachmentId);
  }
  asleep_[attachmentId] = asleep ? 1 : 0;
}

ECGRID_HOT_PATH std::uint32_t Channel::currentRecord(const InFlight& tx) {
  if (currentInFlight_ == kNoInFlight) {
    currentInFlight_ = static_cast<std::uint32_t>(inFlight_.size());
    inFlight_.push_back(tx);
  }
  return currentInFlight_;
}

template <class Visit>
void Channel::forEachCountedArrival(std::size_t id, Visit visit) const {
  const geo::Segment& leg = legs_[id];
  const double rangeSq = config_.rangeMeters * config_.rangeMeters;
  const double interfSq =
      config_.interferenceRangeMeters * config_.interferenceRangeMeters;
  for (std::uint32_t tx = 0; tx < inFlight_.size(); ++tx) {
    const InFlight& record = inFlight_[tx];
    if (!record.counted || record.index < sleepFrom_[id]) continue;
    // The leg still covers sentAt: it is replaced only after parkCounted.
    const double distSq =
        record.senderPos.distanceSquaredTo(leg.at(record.sentAt));
    if (distSq > rangeSq && distSq > interfSq) continue;
    visit(tx, record.sentAt + std::sqrt(distSq) / config_.propagationSpeed,
          distSq <= rangeSq);
  }
}

ECGRID_HOT_PATH void Channel::parkCounted(std::size_t id) {
  Radio* radio = attachments_[id].radio;
  forEachCountedArrival(id, [&](std::uint32_t tx, sim::Time at,
                                bool decodable) {
    parked_.push_back(
        Parked{radio, at, static_cast<std::uint32_t>(id), tx, decodable});
  });
  sleepFrom_[id] = framesTransmitted_;
}

ECGRID_HOT_PATH bool Channel::faultCorrupts(net::NodeId sender,
                                            std::size_t id) {
  if (!config_.deliveryFault(framesTransmitted_, sender,
                             attachments_[id].radio->id())) {
    return false;
  }
  // Channel error: the frame arrives as undecodable energy — carrier sense
  // stays busy and concurrent receptions are ruined, but the frame itself
  // is lost (the MAC's ARQ sees a missing ACK).
  ++deliveriesCorrupted_;
  mDeliveriesCorrupted_.add();
  return true;
}

ECGRID_HOT_PATH void Channel::park(std::size_t id, sim::Time at,
                                   bool decodable, const InFlight& tx) {
  // Parked against its block place; replayDeferred schedules it there if
  // the receiver wakes before it lands.
  parked_.push_back(Parked{attachments_[id].radio, at,
                           static_cast<std::uint32_t>(id), currentRecord(tx),
                           decodable});
  if (at > latestParked_) latestParked_ = at;
}

ECGRID_HOT_PATH void Channel::replayDeferred(Radio& radio) {
  ECGRID_HOT_SCOPE();
  // Leaving sleep parked its counted arrivals after the ones parked at
  // transmit time: replay them all in transmission order.
  replay_.clear();
  for (Parked& arrival : parked_) {
    if (arrival.radio != &radio) continue;
    replay_.push_back(arrival);
    arrival.radio = nullptr;  // replayed, or landed while it slept
  }
  insertionPass(replay_, [](const Parked& a, const Parked& b) {
    return a.tx < b.tx;
  });
  for (const Parked& arrival : replay_) {
    const InFlight& tx = inFlight_[arrival.tx];
    const sim::EventOrder place = tx.places[arrival.id];
    if (!sim_.wouldHaveRun(arrival.at, place)) {
      // Recorded with the start key it had at transmit time. Its end's
      // place is taken now, not when the start lands (DESIGN §9).
      const sim::EventOrder endPlace =
          arrival.decodable ? sim_.reserveOrder() : sim::EventOrder{};
      const std::uint64_t token = endPlace.sequence;
      if (radio.noteArrival(arrival.at, place, tx.frame, arrival.decodable,
                            token) &&
          arrival.decodable) {
        sim_.scheduleReserved(
            arrival.at + tx.frame->airtime, endPlace,
            [receiver = &radio, token] {
              Radio::endReception(receiver, token);
            },
            "phy/rx_end");
      }
    }
  }
}

std::size_t Channel::deferredArrivals() const {
  auto count = static_cast<std::size_t>(
      std::count_if(parked_.begin(), parked_.end(),
                    [](const Parked& p) { return p.radio != nullptr; }));
  for (std::size_t id = 0; id < attachments_.size(); ++id) {
    if (!hasCountedArrivals(id)) continue;
    forEachCountedArrival(id, [&count](std::uint32_t, sim::Time, bool) {
      ++count;
    });
  }
  return count;
}

ECGRID_HOT_PATH sim::EventOrder Channel::transmitFrom(
    Radio& sender, const net::Packet& packet, sim::Time duration) {
  ECGRID_HOT_SCOPE();
  const FrameRef frame = frames_->acquire(packet, nextUid_++, duration);

  const std::size_t senderId = sender.channelAttachmentId();
  ECGRID_CHECK(senderId < attachments_.size() &&
                   attachments_[senderId].radio == &sender,
               "transmitting radio is not attached to this channel");
  const sim::Time now = sim_.now();
  const geo::Vec2 senderPos = positionOf(senderId, now);

  if (!inFlight_.empty() && latestParked_ < now) {
    // Every arrival at a sleeper has landed while it slept: none can
    // matter to a wake any more.
    parked_.clear();
    inFlight_.clear();
  }
  currentInFlight_ = kNoInFlight;

  // One queue place per attachment slot, taken at once: receiver `id`
  // gets place `id`, so same-instant starts sort in ascending attachment
  // order whatever order the candidates are visited in.
  const sim::OrderBlock places = sim_.reserveBlock(attachments_.size());
  // The record sleepers' arrivals refer to, kept if any is heard asleep.
  const InFlight tx{frame, places, now, senderPos, framesTransmitted_};
  awake_.clear();
  if (now >= refreshAt_) refreshGrid(now);
  if (config_.deliveryFault) {
    scanNear<true>(senderId, sender.id(), tx);
  } else {
    scanNear<false>(senderId, sender.id(), tx);
  }

  // This transmission's number was framesTransmitted_ until here: a sleeper
  // whose counted arrivals were parked during the scan (its leg ended)
  // still has this one counted.
  ++framesTransmitted_;
  mFramesTransmitted_.add();

  // The sender's tx end takes the next place, then the reception ends one
  // each, in start order: a start's own event, dispatched after this one,
  // took its end's place after the tx end and after every earlier start's.
  const sim::EventOrder txEndPlace = sim_.reserveOrder();
  orderArrivals(awake_, places, radixBuffer_);
  std::size_t decodable = 0;
  for (const ArrivalStart& start : awake_) {
    if (start.decodable) ++decodable;
  }
  const sim::OrderBlock endPlaces = sim_.reserveBlock(decodable);
  // Record each start on its receiver, and gather the ends of the
  // decodable ones it can hear; they are queued at once as one run.
  ends_.clear();
  std::uint64_t next = 0;
  constexpr std::size_t kPrefetchAhead = 4;
  for (std::size_t i = 0; i < awake_.size(); ++i) {
    // Each receiver is a cold object of its own: fetch a few ahead so
    // the misses overlap.
    if (i + kPrefetchAhead < awake_.size()) {
      Radio::prefetch(awake_[i + kPrefetchAhead].receiver);
    }
    const ArrivalStart& start = awake_[i];
    const sim::EventOrder place =
        start.decodable ? endPlaces[next++] : sim::EventOrder{};
    if (!start.receiver->noteArrival(start.at, places[start.id], frame,
                                     start.decodable, place.sequence) ||
        !start.decodable) {
      continue;
    }
    ends_.push_back(sim::RunItem{start.at + duration, place, "phy/rx_end",
                                 &Radio::endReception, start.receiver,
                                 place.sequence});
  }
  // End = start + airtime keeps the starts' order, and end places follow
  // it too, except that perturbed tie keys can invert two ends at one
  // instant: the pass settles those.
  insertionPass(ends_, sim::itemBefore);
  sim_.scheduleReservedRun(ends_);
  return txEndPlace;
}

}  // namespace ecgrid::phy
