// Shared wireless medium: unit-disk propagation at 2 Mbps.
//
// Every attached radio within `range` metres of a transmitter receives the
// frame after the speed-of-light propagation delay; radios outside hear
// nothing (unit-disk model, the same abstraction the paper's d = √2·r/3
// grid dimensioning assumes). Airtime = PLCP preamble + bytes·8/bitrate.
// Collisions are decided per-receiver by the Radio (any temporal overlap
// corrupts), so hidden-terminal losses emerge naturally.
//
// Fan-out uses a SpatialIndex by default: attachments are bucketed by a
// grid of side strictly greater than the effective reach, and a broadcast
// scans only the 3x3 buckets around the sender. The brute-force O(N) scan
// is kept behind `ChannelConfig::useSpatialIndex = false` for differential
// testing; both modes produce bit-identical simulations.
//
// PHY work scales with the radios that can hear a frame, not with every
// radio in range:
//
//   * One block of queue places per transmission. The transmission takes
//     as many consecutive places as there are attachment slots, at once
//     (Simulator::reserveBlock), and receiver `id` gets place `id` of the
//     block. No other event's sequence falls inside the block, so same-
//     instant arrivals run in ascending attachment order however the
//     candidates were visited: the hash-ordered bucket scan needs no sort.
//     The one exception is the fault slot, which may draw from a stateful
//     stream; while it is armed the candidates are sorted so it is
//     consulted in ascending attachment order in both modes.
//   * One cached motion leg per radio. Positions come from a dense vector
//     of geo::Segments, one per attachment; a radio's leg is re-read
//     through its provider only once the clock reaches the leg's end.
//     Every mobility model is piecewise-linear and its positionAt is the
//     leg's own formula, so the cached position is bit-identical.
//   * One frame per transmission. The stamped packet and its airtime go
//     into one pooled, immutable Frame (phy/frame.hpp); every reception
//     holds a FrameRef to it instead of its own packet copy.
//   * One queue entry per transmission. The listening receivers' arrivals
//     (phy/deliver, or phy/interference from the outer ring) are queued in
//     key order as one event-queue run (sim/event.hpp) holding the frame.
//     Each arrival is still its own event with its own key — it just costs
//     a 56-byte run item instead of a slot, a closure and a heap push.
//   * Arrivals ordered by radix, not by comparison sort. A non-negative
//     double orders as its bit pattern, and one transmission's arrival
//     times differ only in their low bits (they lie within reach /
//     propagationSpeed of each other), so an LSD radix sort over the top
//     16 of the bits in which they differ orders them by time, up to the
//     rare items that share those 16 bits. An insertion pass with
//     sim::itemBefore then finishes the order and settles equal times by
//     place, in either tie-break mode (and alone sorts a set too small
//     for the radix passes to pay). Keys are unique (places are), so the
//     result is exactly a comparison sort's.
//   * Sleepers cost no events. A sleeping transceiver discards whatever
//     arrives, so scheduling its phy/deliver (or phy/interference) would
//     only make an event that does nothing. The channel keeps a dense
//     sleep byte per attachment (Radio::setState sets and clears it; attach
//     seeds it), so a candidate's sleep is read without touching its Radio.
//     For a receiver asleep at transmit time the channel parks a compact
//     record instead — receiver, attachment id, arrival time, decodable or
//     not, and the index of the transmission's one in-flight record, which
//     holds the frame and the block of places. Sleep has only two exits
//     back to hearing — Radio::wake and, after a crash, Radio::powerUp —
//     and both ask the channel to replay the receiver's parked arrivals.
//     Each one that would not yet have run (Simulator::wouldHaveRun) is
//     scheduled as a single event — the only arrivals that are one — with
//     the label, host key, absolute time and block place it would have had
//     at transmit time, so it runs exactly where the skipped event would
//     have; the rest would have been discarded and are dropped. Frames are
//     in flight for at most reach / propagationSpeed (≈0.83 µs at 250 m),
//     so once the latest parked arrival has passed, a transmission drops
//     every record at once.
//
// The skip is exact, not approximate: every other event keeps its
// (time, tie key, sequence) key, deliveryFault is still consulted for
// sleepers in ascending attachment order, and phy.deliveries_scheduled
// keeps counting every in-range potential receiver. What changes is only
// how many events the run executes: profile counts of phy/deliver and
// phy/interference now count arrivals at listening radios, so the
// profiler's rx_end-per-deliver ratio tracks useful deliveries.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "geo/segment.hpp"
#include "geo/vec2.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "phy/frame.hpp"
#include "phy/spatial_index.hpp"
#include "sim/simulator.hpp"
#include "util/ownership.hpp"

namespace ecgrid::phy {

class Radio;

/// Order one transmission's arrivals — times non-negative, keys unique —
/// exactly as std::sort with sim::itemBefore would (see the header
/// comment). `buffer` is scratch; the two vectors may trade storage.
void orderArrivals(std::vector<sim::RunItem>& items,
                   std::vector<sim::RunItem>& buffer);

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
  /// 1.8–2.2× their decode range; `ablation_interference` sweeps this.
  double interferenceRangeMeters = 0.0;
  /// Bucket attachments spatially so broadcasts scan O(density) radios
  /// instead of all N. Off = the brute-force full scan (identical event
  /// schedule; kept for differential tests and as a paranoia escape hatch).
  bool useSpatialIndex = true;
  /// Fault-injection slot (src/fault): when set, consulted once per
  /// (transmission, in-range receiver) pair, in ascending attachment order
  /// — identical in both fan-out modes, so the spatial-index fast path is
  /// unaffected. Returning true corrupts that delivery: the energy still
  /// arrives (carrier sense, collisions) but the frame cannot decode.
  /// Null (the default) costs nothing. Also armable post-construction via
  /// Channel::setDeliveryFault.
  std::function<bool(net::NodeId sender, net::NodeId receiver)> deliveryFault;
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

  /// As above, for a provider of the radio's *current* position only: it
  /// is asked again at every query (a zero-length leg).
  std::size_t attach(Radio* radio, std::function<geo::Vec2()> position);

  /// Detach (host death). The radio receives nothing afterwards and the
  /// attachment id becomes free for reuse.
  void detach(std::size_t attachmentId);

  /// Spatial-index maintenance: the radio behind `attachmentId` may have
  /// crossed an index-bucket boundary; re-bucket it from its current
  /// position. Callers whose radios move MUST call this at least once per
  /// bucket crossing (Node arms a GridTracker on indexGrid() for exactly
  /// this). No-op in brute-force mode.
  void notifyMoved(std::size_t attachmentId);

  /// The spatial index's bucket grid, or nullptr in brute-force mode.
  /// Stable for the channel's lifetime.
  const geo::GridMap* indexGrid() const;

  /// Called by a transmitting radio. Schedules beginReceive on every other
  /// attached radio within range (beginInterference inside the
  /// interference ring) as one run; arrivals at sleeping radios are
  /// deferred instead (see the header comment).
  void transmitFrom(Radio& sender, const net::Packet& packet,
                    sim::Time duration);

  /// Called by a radio leaving sleep (or powering back up): schedule its
  /// parked arrivals that would not yet have run, in their reserved
  /// places, and forget the rest.
  void replayDeferred(Radio& radio);

  /// Called by the radio behind `attachmentId` on entering or leaving
  /// sleep: the sleep byte transmitFrom reads.
  void setAsleep(std::size_t attachmentId, bool asleep) {
    asleep_[attachmentId] = asleep ? 1 : 0;
  }

  /// Arm (or, with nullptr, disarm) the fault-injection slot after
  /// construction — the FaultInjector's hook point.
  void setDeliveryFault(
      std::function<bool(net::NodeId sender, net::NodeId receiver)> fault) {
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
  /// Arrivals parked for sleeping receivers and neither replayed nor
  /// dropped yet.
  std::size_t deferredArrivals() const;

 private:
  struct Attachment {
    Radio* radio = nullptr;  // nullptr = detached slot
    LegProvider legs;
  };

  static constexpr std::uint32_t kNoInFlight = 0xffffffffu;

  /// A transmission some sleeper heard: what its parked arrivals share.
  struct InFlight {
    FrameRef frame;
    sim::OrderBlock places;
  };

  /// One sleeping receiver's arrival, parked until it wakes.
  struct Parked {
    Radio* radio = nullptr;  ///< nullptr once replayed or dropped
    sim::Time at = 0.0;      ///< absolute arrival time
    std::uint32_t id = 0;    ///< attachment id: its place in the block
    std::uint32_t tx = 0;    ///< the transmission, in inFlight_
    bool decodable = false;  ///< phy/deliver; else phy/interference
  };

  /// Attachment `id`'s position now, from its cached leg (refreshed
  /// through its provider once the leg has ended).
  geo::Vec2 positionOf(std::size_t id, sim::Time now);
  void deliverTo(std::size_t id, net::NodeId senderId,
                 const geo::Vec2& senderPos, sim::Time now,
                 const FrameRef& frame, const sim::OrderBlock& places);
  void scheduleArrival(const Parked& arrival);

  sim::Simulator& sim_;
  ChannelConfig config_;
  std::vector<Attachment> attachments_;
  /// Each attachment's current motion leg, by id; a stale one (end <= now)
  /// is re-read on its next query.
  std::vector<geo::Segment> legs_;
  std::vector<std::size_t> freeSlots_;
  std::optional<SpatialIndex> index_;
  /// Each attachment's sleep byte, by id: 1 while its radio sleeps.
  std::vector<std::uint8_t> asleep_;
  std::vector<std::size_t> scratch_;  ///< candidate buffer, reused per tx
  std::vector<sim::RunItem> awake_;  ///< listeners' arrivals, reused per tx
  std::vector<sim::RunItem> radixBuffer_;  ///< orderArrivals' scratch
  FramePool::Handle frames_ = FramePool::create();
  std::vector<InFlight> inFlight_;
  std::vector<Parked> parked_;  ///< sleepers', in transmission order
  /// Latest arrival time among parked_; once it has passed, every record
  /// can go.
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
