// Shared wireless medium: unit-disk propagation at 2 Mbps.
//
// Every attached radio within `range` metres of a transmitter receives the
// frame after the speed-of-light propagation delay; radios outside hear
// nothing (unit-disk model, the same abstraction the paper's d = √2·r/3
// grid dimensioning assumes). Airtime = PLCP preamble + bytes·8/bitrate.
// Collisions are decided per-receiver by the Radio (any temporal overlap
// corrupts), so hidden-terminal losses emerge naturally.
//
// Fan-out uses a bucket grid by default: attachments are bucketed on a
// dense grid of squares half the effective reach wide, and a broadcast
// visits only the buckets that meet its sender's reach disc. The buckets
// are refreshed lazily from the cached motion legs, with no events
// (DESIGN.md §9 argues they always hold a superset of the radios in
// reach). The brute-force O(N) scan is kept behind
// `ChannelConfig::useSpatialIndex = false` for differential testing; both
// modes produce bit-identical simulations.
//
// PHY work scales with the radios that can hear a frame, not with every
// radio in range:
//
//   * One block of queue places per transmission. The transmission takes
//     as many consecutive places as there are attachment slots, at once
//     (Simulator::reserveBlock), and receiver `id`'s start gets place `id`
//     of the block. No other event's sequence falls inside the block, so
//     same-instant starts sort in ascending attachment order however the
//     candidates were visited: the bucket-ordered scan needs no sort.
//     Nor does the fault slot: its draws are keyed on (transmission,
//     sender, receiver), not on the order it is asked in (src/fault).
//   * One cached motion leg per radio. Positions come from a dense vector
//     of geo::Segments, one per attachment; a radio's leg is re-read
//     through its provider only once the clock reaches the leg's end.
//     Every mobility model is piecewise-linear and its positionAt is the
//     leg's own formula, so the cached position is bit-identical. A radio
//     attached at a fixed position rests on one endless leg.
//   * One frame per transmission. The stamped packet and its airtime go
//     into one pooled, immutable Frame (phy/frame.hpp); every reception
//     holds a FrameRef to it instead of its own packet copy.
//   * One queue item per reception, and one queue entry per transmission.
//     A start is no event: each listening receiver records its arrival —
//     start key, frame, decodable or not — and applies it when next read
//     (Radio::noteArrival; phy/radio.hpp). Only the decodable ones' ends,
//     phy/rx_end, are queued: gathered in a reused scratch vector and
//     handed over at once, in key order, as one event-queue run
//     (sim/event.hpp). Each is still its own event with its own key, for
//     a 56-byte run item instead of a slot, a closure and a heap push.
//     Their places are a second block taken after the sender's tx end,
//     one per end in start order — where the start's own event would have
//     taken them. The run holds no frame and no item is ever cancelled:
//     the radio's recorded arrival holds the frame, and an aborted
//     reception's end finds nothing under its token. An arrival from the
//     interference ring queues nothing at all.
//   * Starts ordered by radix, not by comparison sort. Each listener's
//     start is a 24-byte ArrivalStart (time, receiver, attachment id,
//     decodable). A non-negative double orders as its bit pattern, and
//     one transmission's arrival times differ only in their low bits
//     (they lie within reach / propagationSpeed of each other), so an LSD
//     radix sort over the top 16 of the bits in which they differ orders
//     them by time, up to the rare starts that share those 16 bits. An
//     insertion pass then finishes the order and settles equal times by
//     the attachment id's place in the block, in either tie-break mode
//     (and alone sorts a set too small for the radix passes to pay).
//     Keys are unique (places are), so the result is exactly a comparison
//     sort's.
//   * Sleepers cost a count. A sleeping transceiver discards whatever
//     arrives, so an arrival at it matters only if the radio wakes within
//     the frame's flight — at most reach / propagationSpeed (≈0.83 µs at
//     250 m). The channel keeps a dense sleep byte per attachment
//     (Radio::setState sets and clears it; attach seeds it), so a
//     candidate's sleep is read without touching its Radio. The grid scan
//     reads each member's leg from copies made at refresh, in bucket
//     order, and a sleeper in reach only adds to
//     phy.deliveries_scheduled: no square root, no record. A transmission
//     that sleepers heard keeps one in-flight record — frame, block of
//     places, sent-at, sender position, transmission number — until its
//     latest arrival at a sleeper has passed. Each attachment also keeps
//     the number of the first transmission since it fell asleep whose
//     arrival there is not yet parked. When the radio leaves sleep, its
//     arrivals from those records are rebuilt from its cached leg at
//     sent-at and parked: a compact record of receiver, attachment id,
//     arrival time, decodable or not, and the in-flight record's index.
//     Sleep has only two exits back to hearing — Radio::wake and, after a
//     crash, Radio::powerUp — and both ask the channel to replay the
//     receiver's parked arrivals in transmission order. Each one whose
//     start would not yet have run (Simulator::wouldHaveRun) is recorded
//     on the radio with the start key it had at transmit time, and a
//     decodable one's end queued as a single event; the rest would have
//     been discarded and are dropped.
//   * The leg that covered sent-at. A cached leg is replaced only once it
//     has ended, and the channel parks a sleeper's pending arrivals from
//     the old leg before replacing it (and before a detach frees the
//     slot), so a rebuilt arrival is the one a record parked at transmit
//     time would have held, bit for bit. Two cases still park each
//     sleeper at transmit time: an armed fault slot (its verdict for the
//     sleeper is drawn then, and a rebuilt arrival could not carry it)
//     and the brute-force scan, the reference the differential tests
//     compare against.
//
// Skipping sleepers is exact, not approximate: every other event keeps its
// (time, tie key, sequence) key, deliveryFault is still consulted once
// for every sleeper in decode range, and phy.deliveries_scheduled keeps
// counting every in-range potential receiver. What changes is only
// how many events the run executes: profile counts of phy/rx_end count
// decodable arrivals at listening radios.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "geo/segment.hpp"
#include "geo/vec2.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "phy/frame.hpp"
#include "sim/simulator.hpp"
#include "util/hot_path.hpp"
#include "util/ownership.hpp"

namespace ecgrid::phy {

class Radio;

/// A listening receiver's arrival, as transmitFrom orders them: its time,
/// its receiver, its attachment id (its place in the transmission's block
/// of starts) and whether it can decode. A dense transmission has a few
/// hundred.
struct ArrivalStart {
  sim::Time at = 0.0;
  Radio* receiver = nullptr;
  std::uint32_t id = 0;
  bool decodable = false;
};
ECGRID_LAYOUT_BUDGET(ArrivalStart, 24);

/// Order one transmission's arrivals — times non-negative, ids unique — by
/// time, then by place `places[id]`, exactly as a comparison sort would
/// (see the header comment). `buffer` is scratch; the two vectors may
/// trade storage.
void orderArrivals(std::vector<ArrivalStart>& starts,
                   const sim::OrderBlock& places,
                   std::vector<ArrivalStart>& buffer);

/// The fault slot's verdict on one delivery: corrupt it?
using DeliveryFault = std::function<bool(
    std::uint64_t transmission, net::NodeId sender, net::NodeId receiver)>;

struct ChannelConfig {
  double rangeMeters = 250.0;     ///< paper §4 transmission range
  double bitrateBps = 2e6;        ///< paper §4 bandwidth
  double preambleSeconds = 192e-6;  ///< 802.11 DSSS long PLCP preamble
  double propagationSpeed = 3e8;  ///< m/s
  /// Interference radius: transmissions reach radios out to this distance
  /// as *undecodable energy* that corrupts concurrent receptions and
  /// holds carrier sense busy. Values <= rangeMeters (the default 0)
  /// disable the extra ring — the pure unit-disk model the paper's
  /// d = √2·r/3 dimensioning assumes. Real 802.11 cards hear roughly
  /// 1.8–2.2× their decode range; the `interference` rows of
  /// `bench/ablations` sweep this.
  double interferenceRangeMeters = 0.0;
  /// Bucket attachments spatially so broadcasts visit O(density) radios
  /// instead of all N. Off = the brute-force full scan (identical event
  /// schedule; kept for differential tests and as a paranoia escape hatch).
  bool useSpatialIndex = true;
  /// Fault-injection slot (src/fault): when set, asked exactly once per
  /// (transmission, receiver in decode range), asleep or not, with the
  /// transmission's number. The fan-out modes ask in different orders, so
  /// a slot decides from its arguments alone. Returning true corrupts that
  /// delivery: the energy still arrives (carrier sense, collisions) but the
  /// frame cannot decode. Null (the default) costs nothing. Also armable
  /// post-construction via Channel::setDeliveryFault.
  DeliveryFault deliveryFault;
};

class ECGRID_DOMAIN_PER_SCENARIO Channel {
 public:
  Channel(sim::Simulator& sim, const ChannelConfig& config);

  const ChannelConfig& config() const { return config_; }

  /// Airtime of a frame of `bytes` (MAC framing already included by
  /// Packet::bytes()).
  sim::Time frameAirtime(int bytes) const;

  /// A radio's motion, one leg at a time: the leg containing the given
  /// time (mobility::MobilityModel::legAt).
  using LegProvider = std::function<geo::Segment(sim::Time)>;

  /// Register a radio with a provider for its motion legs. The channel
  /// caches each radio's current leg and asks again only once the clock
  /// reaches the leg's end. Returns an attachment id; ids of detached
  /// radios are recycled. The id and the channel are also stored on the
  /// radio, so transmitFrom can find the sender without scanning and the
  /// radio can keep its sleep byte current.
  std::size_t attach(Radio* radio, LegProvider legs);

  /// As above, for a radio that stays put: `position` is read once, now,
  /// and the radio rests there on one endless leg.
  std::size_t attach(Radio* radio, std::function<geo::Vec2()> position);

  /// Detach (host death). The radio receives nothing afterwards and the
  /// attachment id becomes free for reuse.
  void detach(std::size_t attachmentId);

  /// Called by a transmitting radio. Records the arrival on every other
  /// attached radio within range (undecodable energy inside the
  /// interference ring) and queues the decodable ones' reception ends at
  /// once, as one run; arrivals at sleeping radios are counted or parked
  /// instead (see the header comment). Returns the place right after the
  /// starts' block, taken for the sender's tx end.
  sim::EventOrder transmitFrom(Radio& sender, const net::Packet& packet,
                               sim::Time duration);

  /// Called by a radio leaving sleep (or powering back up): record its
  /// parked arrivals whose starts would not yet have run, with their
  /// reserved start keys, and forget the rest.
  void replayDeferred(Radio& radio);

  /// Called by the radio behind `attachmentId` on entering or leaving
  /// sleep: the sleep byte transmitFrom reads. Leaving sleep parks the
  /// arrivals counted for it while it slept, for replayDeferred.
  void setAsleep(std::size_t attachmentId, bool asleep);

  /// Arm (or, with nullptr, disarm) the fault-injection slot after
  /// construction — the FaultInjector's hook point.
  void setDeliveryFault(DeliveryFault fault) {
    config_.deliveryFault = std::move(fault);
  }

  /// Frames ever transmitted (for stats / broadcast-storm accounting).
  std::uint64_t framesTransmitted() const { return framesTransmitted_; }
  /// Sum over transmissions of in-range potential receivers.
  std::uint64_t deliveriesScheduled() const { return deliveriesScheduled_; }
  /// In-range deliveries corrupted by the fault-injection slot.
  std::uint64_t deliveriesCorrupted() const { return deliveriesCorrupted_; }
  /// Attachments currently live (attached and not yet detached).
  std::size_t liveAttachmentCount() const { return liveAttachments_; }
  /// Arrivals at sleeping receivers, parked or counted, that a wake could
  /// still replay: neither replayed nor dropped yet.
  std::size_t deferredArrivals() const;

 private:
  struct Attachment {
    Radio* radio = nullptr;  // nullptr = detached slot
    LegProvider legs;
  };

  static constexpr std::uint32_t kNoInFlight = 0xffffffffu;
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  /// One axis of the fan-out grid: `cells` cells of side `side` from
  /// `origin`, the first and last open outwards, so every coordinate has
  /// a cell.
  struct GridAxis {
    double origin = kInfinity;
    double side = 0.0;
    std::uint32_t cells = 0;
    std::uint32_t cellOf(double v) const {
      return static_cast<std::uint32_t>(
          std::clamp((v - origin) / side, 0.0, cells - 1.0));
    }
    double low(std::uint32_t cell) const {
      return cell == 0 ? -kInfinity : origin + cell * side;
    }
    double high(std::uint32_t cell) const {
      return cell + 1 == cells ? kInfinity : origin + (cell + 1) * side;
    }
    /// Time until a coordinate at `p` moving at `v` leaves `cell` grown by
    /// `margin`: infinite when it does not move or heads out of the grid.
    double timeToLeave(std::uint32_t cell, double p, double v,
                       double margin) const {
      if (v > 0.0) return (high(cell) + margin - p) / v;
      if (v < 0.0) return (low(cell) - margin - p) / v;
      return kInfinity;
    }
  };

  /// A transmission, as the fan-out reads it. One some sleeper heard is
  /// kept while any of its arrivals may still land: what a parked arrival
  /// refers to, and what a counted sleeper's arrival is rebuilt from.
  struct InFlight {
    FrameRef frame;
    sim::OrderBlock places;
    sim::Time sentAt = 0.0;
    geo::Vec2 senderPos;
    std::uint64_t index = 0;  ///< its number among framesTransmitted_
    bool counted = false;     ///< its sleepers on legs were only counted
  };
  ECGRID_LAYOUT_BUDGET(InFlight, 72);

  /// One sleeping receiver's arrival, parked until it wakes.
  struct Parked {
    Radio* radio = nullptr;  ///< nullptr once replayed or dropped
    sim::Time at = 0.0;      ///< absolute arrival time
    std::uint32_t id = 0;    ///< attachment id: its place in the block
    std::uint32_t tx = 0;    ///< the transmission, in inFlight_
    bool decodable = false;  ///< else interference-ring energy
  };
  ECGRID_LAYOUT_BUDGET(Parked, 32);

  /// Attachment `id`'s position now, from its cached leg (refreshed
  /// through its provider once the leg has ended; a sleeper's counted
  /// arrivals are parked first, from the leg that covered them).
  geo::Vec2 positionOf(std::size_t id, sim::Time now);
  /// Whether attachment `id` sleeps through a transmission that still has
  /// its in-flight record: only then can it have counted arrivals.
  bool hasCountedArrivals(std::size_t id) const {
    return asleep_[id] != 0 && !inFlight_.empty() &&
           sleepFrom_[id] <= inFlight_.back().index;
  }
  /// Call `visit(tx, at, decodable)` for each counted arrival at sleeping
  /// attachment `id`: tx in inFlight_, rebuilt from its cached leg.
  template <class Visit>
  void forEachCountedArrival(std::size_t id, Visit visit) const;
  /// Park attachment `id`'s counted arrivals; later ones are counted anew.
  void parkCounted(std::size_t id);
  /// inFlight_ index of transmission `tx`'s record, opened on first use.
  std::uint32_t currentRecord(const InFlight& tx);
  /// Grow the grid's box to hold `position` (seen at attach); a box that
  /// changes shape re-buckets every attachment on the next refresh.
  void fitGrid(const geo::Vec2& position);
  /// Put attachment `id` in its bucket at `now` and date the bucket.
  void placeInGrid(std::size_t id, sim::Time now);
  /// Re-bucket every expired attachment and rebuild the buckets.
  void refreshGrid(sim::Time now);
  /// The grid fan-out of `tx`: scan the legs in the buckets that meet the
  /// sender's reach disc, a row's span at a time, and record listeners'
  /// starts in awake_; count sleepers, or, while armed, ask and park them.
  template <bool kFaultArmed>
  void scanNear(std::size_t senderId, net::NodeId sender, const InFlight& tx);
  /// The brute-force fan-out's step: the same for attachment `id` alone,
  /// parking it if it sleeps.
  void deliverTo(std::size_t id, net::NodeId sender, const InFlight& tx);
  /// Ask the armed fault slot about this transmission's delivery to
  /// attachment `id`, counting a corruption.
  bool faultCorrupts(net::NodeId sender, std::size_t id);
  /// Park sleeping attachment `id`'s arrival of transmission `tx`.
  void park(std::size_t id, sim::Time at, bool decodable, const InFlight& tx);

  sim::Simulator& sim_;
  ChannelConfig config_;
  std::vector<Attachment> attachments_;
  /// Each attachment's current motion leg, by id; a stale one (end <= now)
  /// is re-read on its next query.
  std::vector<geo::Segment> legs_;
  std::vector<std::size_t> freeSlots_;
  // The fan-out grid: columns_ x rows_ cells, row-major. Bucket b holds
  // members_[bucketStart_[b] .. bucketStart_[b + 1]), ids ascending.
  // Empty while useSpatialIndex is off.
  double reach_ = 0.0;
  GridAxis columns_;
  GridAxis rows_;
  geo::Vec2 boxHigh_{-kInfinity, -kInfinity};  ///< of attach positions
  std::vector<std::uint32_t> bucketOf_;  ///< by id; kNoBucket if detached
  /// By id: until when the attachment stays within its bucket grown by
  /// kGridMargin; -inf = not yet placed, +inf = never leaves.
  std::vector<sim::Time> bucketUntil_;
  std::vector<std::uint32_t> bucketStart_;
  std::vector<std::uint32_t> members_;
  // Each member's leg, copied at refresh, in members_ order: what the scan
  // reads. Valid until refreshAt_, before which no member's leg ends.
  std::vector<double> legStart_;
  std::vector<double> originX_;
  std::vector<double> originY_;
  std::vector<double> velocityX_;
  std::vector<double> velocityY_;
  sim::Time refreshAt_ = 0.0;  ///< earliest bucketUntil_, or sooner
  /// Each attachment's sleep byte, by id: 1 while its radio sleeps.
  std::vector<std::uint8_t> asleep_;
  /// By id, while asleep: the number of the first transmission whose
  /// arrival there has not yet been parked.
  std::vector<std::uint64_t> sleepFrom_;
  std::vector<ArrivalStart> awake_;  ///< listeners' starts, reused per tx
  std::vector<ArrivalStart> radixBuffer_;  ///< orderArrivals' scratch
  /// Listeners' reception ends, queued as one run; reused per tx.
  std::vector<sim::RunItem> ends_;
  FramePool::Handle frames_ = FramePool::create();
  std::vector<InFlight> inFlight_;
  std::vector<Parked> parked_;
  std::vector<Parked> replay_;  ///< one radio's parked arrivals, per wake
  /// Latest arrival time at any sleeper, parked or counted; once it has
  /// passed, every record can go.
  sim::Time latestParked_ = 0.0;
  /// inFlight_ index of the current transmission (kNoInFlight until its
  /// first sleeper is parked).
  std::uint32_t currentInFlight_ = kNoInFlight;
  std::size_t liveAttachments_ = 0;
  std::uint64_t framesTransmitted_ = 0;
  std::uint64_t deliveriesScheduled_ = 0;
  std::uint64_t deliveriesCorrupted_ = 0;
  std::uint64_t nextUid_ = 1;
  // Registry mirrors of the counters above (inert without an
  // Observability hub; see obs/observability.hpp).
  obs::Counter mFramesTransmitted_;
  obs::Counter mDeliveriesScheduled_;
  obs::Counter mDeliveriesCorrupted_;
};

}  // namespace ecgrid::phy
