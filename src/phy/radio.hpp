// Radio transceiver state machine with integrated energy accounting.
//
// States: Idle (listening), Tx, Rx, Sleep (transceiver off, RAS pager
// still alive), Off (host dead). Every state change re-prices the battery
// draw using the paper's power table and re-arms the depletion deadline, so
// hosts die at the exact instant their integral of power hits capacity.
// The radio keeps the deadline itself: its due key is the time the battery
// empties and the place one reserveOrder() per re-arm takes, exactly the
// key cancel + schedule at that re-arm would give the death. Its one queue
// entry waits no later than that key: at the due key itself (phy/battery,
// the death), or earlier, where the battery would empty at the profile's
// maximum draw, which no state can beat (phy/battery_wake). A re-arm while
// a wake-up waits before the new due time only writes the radio's fields;
// a wake-up that finds the due key elsewhere re-queues the entry there.
// Only an outside Battery::drain, a due time at or before the wait, or a
// re-arm of the death entry itself moves the entry.
//
// Reception models collisions: any two transmissions overlapping in time
// at a receiver corrupt each other (no capture). Frames are decoded and
// handed up only when their reception completes uncorrupted and the frame
// is addressed to this host or broadcast. A reception holds a reference to
// the channel's one shared Frame for the transmission (phy/frame.hpp),
// never a copy of the packet.
//
// One queue item per reception. A reception's start is not an event. At
// transmit time the channel records each arrival on its receiver
// (noteArrival) — its start key (arrival time, place in the
// transmission's block), frame and whether it can decode — and queues
// only the reception's end, phy/rx_end, in the transmission's run of ends
// (phy/channel.hpp). The radio applies its recorded starts when it is next
// read or changed (settle): in key order, each at its own time, exactly
// those whose key sorts before the event running now
// (Simulator::wouldHaveRun, in either tie-break mode). Applying a start
// does what an event at its key would: the deaf check (off, asleep, sending),
// the collision flag, the NAV and the flip to Rx, which charges the
// battery up to the start's own time. Everything a start touches is this
// radio's own state, and every way to read or change that state settles
// first — state(), mediumBusy(), mediumIdleAt(), battery(), transmit,
// sleep, wake, powerDown, powerUp, setNavGuard, the tx end, the depletion
// callback and the end item itself — so no observer can tell a settled
// start from one that ran at its key. (sleeping() and dead() need no
// settle: a start never changes either.)
//
// A flip re-arms the depletion deadline from the flip's time. When the
// flip is settled by the reception's own end item and that end flips the
// radio back to Idle, the start's re-arm is skipped: the end's rewrites the
// due key anyway. A start whose reception could outlast the battery's
// charge (Battery::chargeLastsUntil, at the profile's maximum draw) is
// settled by an event at its own key instead (phy/rx_settle), so death
// is never noticed late. Aborting a reception (transmit, sleep,
// powerDown, death) drops it; its end item finds nothing and does nothing.
// DESIGN §9 argues why all this is exact.
//
// A sleeping radio hears nothing, so the channel records no arrivals at
// it at all; it parks them instead (phy/channel.hpp). The channel reads
// sleep from its own per-attachment byte, which setState keeps current on
// every transition into or out of sleep. Leaving sleep — wake(), or
// powerUp() after a crash — hands the radio back to the channel, which
// records the arrivals still in flight as if it had been listening all
// along.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "energy/battery.hpp"
#include "energy/power_profile.hpp"
#include "net/packet.hpp"
#include "phy/frame.hpp"
#include "sim/simulator.hpp"
#include "util/hot_path.hpp"
#include "util/ownership.hpp"

namespace ecgrid::phy {

class Channel;

enum class RadioState : std::uint8_t {
  kIdle,
  kTx,
  kRx,
  kSleep,
  kOff,
};

const char* toString(RadioState s);

class ECGRID_DOMAIN_PER_HOST Radio {
 public:
  /// `battery` and `sim` must outlive the radio. The radio starts Idle.
  Radio(sim::Simulator& sim, energy::Battery& battery,
        const energy::PowerProfile& profile, net::NodeId id);

  ~Radio();
  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  net::NodeId id() const { return id_; }
  RadioState state() {
    settle();
    return state_;
  }
  bool sleeping() const { return state_ == RadioState::kSleep; }
  bool dead() const { return state_ == RadioState::kOff; }
  /// True while a sleep() is deferred behind an in-flight transmission.
  bool sleepPending() const { return sleepPending_; }

  /// Wired by Channel::attach; callers may also wire it directly.
  void attachChannel(Channel* channel) { channel_ = channel; }

  /// Sentinel for "not attached to a channel".
  static constexpr std::size_t kNoAttachment = static_cast<std::size_t>(-1);

  /// Channel bookkeeping: the attachment slot this radio occupies, set by
  /// Channel::attach and cleared by Channel::detach. Lets transmitFrom
  /// find the sender in O(1) instead of scanning all attachments.
  void setChannelAttachmentId(std::size_t id) { channelAttachmentId_ = id; }
  std::size_t channelAttachmentId() const { return channelAttachmentId_; }

  /// Frame fully received, uncorrupted, addressed to us (or broadcast).
  void setFrameCallback(std::function<void(const net::Packet&)> cb);
  /// Transmission finished (MAC may start its next access cycle).
  void setTxCompleteCallback(std::function<void()> cb);
  /// Battery hit zero; the radio is already Off.
  void setDeathCallback(std::function<void()> cb);

  /// True when the medium is sensed busy at this radio (we are
  /// transmitting or at least one transmission is arriving).
  bool mediumBusy() {
    settle();
    return state_ == RadioState::kTx || state_ == RadioState::kRx;
  }

  /// Earliest time the currently sensed activity ends (own transmission,
  /// arriving frames, or the NAV reservation below). Returns the current
  /// time when the medium is idle. The MAC defers its backoff to this
  /// instant, as 802.11 DCF freezes backoff counters while busy.
  sim::Time mediumIdleAt();

  /// Virtual carrier sense: overhearing a unicast addressed to another
  /// host reserves the medium for `guard` seconds past the frame end, so
  /// the receiver's SIFS + ACK go uncontested (802.11's NAV).
  void setNavGuard(sim::Time guard) {
    settle();
    navGuard_ = guard;
  }

  /// Begin transmitting; the radio holds Tx for `duration` then reverts to
  /// Idle and fires the tx-complete callback. Requires Idle state (the MAC
  /// enforces carrier sense; transmitting over an in-progress reception
  /// aborts that reception, as real half-duplex hardware does).
  void transmit(const net::Packet& packet, sim::Time duration);

  /// Enter sleep mode. If a transmission is in flight the sleep is
  /// deferred until it completes. Any in-progress receptions are lost.
  void sleep();

  /// Leave sleep mode (RAS wake or protocol decision). No-op unless
  /// sleeping. Frames already on the air towards this radio are replayed
  /// by the channel and received as if it had been listening all along.
  void wake();

  /// Fault-injection (host crash): force the transceiver Off WITHOUT
  /// firing the death callback — the host is failed, not battery-dead.
  /// Off draws zero power, so the battery freezes for the downtime.
  /// No-op if already Off.
  void powerDown();

  /// Fault-injection (host restart): bring a powered-down radio back to
  /// Idle. Requires Off state. Carrier-sense residue (NAV, interference)
  /// from before the crash is discarded; frames still in flight towards
  /// the radio are replayed as on wake().
  void powerUp();

  /// Channel-facing: a transmission starts arriving at this radio at
  /// `at`, in the place `order` of its transmission's block; it lasts the
  /// frame's airtime. Records the start for the next settle; `token` names
  /// the reception to its end item (endReception) and must be unique among
  /// this radio's receptions — the end item's sequence is. Returns false,
  /// recording nothing, when the radio is surely deaf to the start
  /// (sending until past it): its end item would do nothing.
  bool noteArrival(sim::Time at, sim::EventOrder order, const FrameRef& frame,
                   bool decodable, std::uint64_t token);

  /// Channel-facing: start loading what noteArrival reads of the radio at
  /// `radio` into the cache.
  static void prefetch(const void* radio) {
    // Those fields lie within the first 64 bytes: at most two lines.
    const auto* front = static_cast<const char*>(radio);
    __builtin_prefetch(front);
    __builtin_prefetch(front + 63);
  }

  /// Channel-facing: the phy/rx_end run action (sim::RunAction); `token`
  /// is noteArrival's. An aborted reception's end still runs, finds no
  /// reception under its token and does nothing, so the item is never
  /// cancelled.
  static void endReception(void* radio, std::uint64_t token);

  /// The battery, with every start that has landed applied, for committed
  /// reads. Drain it only through here, and never inside an arrival's
  /// flight (noteArrival judges a start's risk of death by the charge it
  /// sees at transmit time).
  energy::Battery& battery() {
    settle();
    chargeLastsUntil_ = -sim::kTimeNever;  // the caller may drain it
    return battery_;
  }

 private:
  /// A frame arriving at this radio, in one of two phases: recorded by
  /// noteArrival and not yet applied (a start), then, once settled and
  /// heard, a reception in progress until its end item or an abort.
  struct Arrival {
    sim::Time at = 0.0;     ///< start time
    sim::Time end = 0.0;    ///< at + airtime
    sim::EventOrder order;  ///< start place
    FrameRef frame;
    std::uint64_t token = 0;  ///< its end item's; decodable arrivals only
    bool decodable = false;
    bool started = false;  ///< applied and heard: a reception in progress
    bool corrupted = false;
  };

  /// Apply every recorded start that would have run by now.
  void settle() {
    if (!arrivals_.empty()) settleStarts(true);
  }
  /// settle(), returning the time a start flipped the radio to Rx, or a
  /// negative time when none did; with `rearm` false that flip's depletion
  /// re-arm is left to the caller.
  sim::Time settleStarts(bool rearm);
  /// Queue an event at the start's key when the battery may run out
  /// before the reception it starts would end.
  void guardStart(sim::Time at, sim::EventOrder order, sim::Time end);
  /// What the start's own event did. Returns false when the arrival
  /// leaves nothing behind (deaf, or undecodable energy), true when it is
  /// now a reception in progress; `flippedAt` gets `at` when it flipped
  /// the radio to Rx.
  bool applyStart(Arrival& start, bool rearm, sim::Time& flippedAt);
  /// Undecodable energy lasting until `until`: it corrupts any reception
  /// in progress or starting while it lasts, and holds carrier sense busy.
  void applyInterference(sim::Time until);
  bool receiving() const;
  void setState(RadioState next) { setStateAt(next, sim_.now(), true); }
  /// setState as of `at` (<= now): the battery is charged up to `at`, and
  /// with `rearm` the depletion deadline re-armed from there.
  void setStateAt(RadioState next, sim::Time at, bool rearm);
  void rearmDepletion(sim::Time at);
  /// The depletion entry's action: the death at the due key, a wake-up
  /// that re-queues the entry there anywhere else.
  void onDepletionEntry();
  void die();
  void onReceptionEnd(std::uint64_t token);
  void abortAllReceptions();

  sim::Simulator& sim_;
  energy::Battery& battery_;
  // What noteArrival reads for every frame arriving here, together near
  // the front: prefetch() brings them in with one or two cache lines.
  net::NodeId id_;  // beside the state bytes: they share one word
  RadioState state_ = RadioState::kIdle;
  bool sleepPending_ = false;
  sim::Time txEndsAt_ = 0.0;
  /// The battery surely keeps charge through this time whatever the radio
  /// draws (Battery::chargeLastsUntil); re-derived when a reception would
  /// outlast it, forgotten when battery() hands the battery out.
  sim::Time chargeLastsUntil_ = -sim::kTimeNever;
  /// Recorded starts and receptions in progress, in start key order
  /// (time, then place).
  std::vector<Arrival> arrivals_;

  energy::PowerProfile profile_;
  Channel* channel_ = nullptr;
  std::size_t channelAttachmentId_ = kNoAttachment;
  sim::Time navGuard_ = 0.0;
  sim::Time navUntil_ = 0.0;
  sim::Time interferenceUntil_ = 0.0;

  /// The depletion deadline: the due key of the last re-arm, and where
  /// its one queue entry waits (kTimeNever while none is queued). A
  /// waiting time before dueTime_ marks a wake-up; a death entry waits at
  /// exactly the due key.
  sim::Time dueTime_ = sim::kTimeNever;
  sim::EventOrder dueOrder_;
  sim::Time waitTime_ = sim::kTimeNever;

  sim::EventHandle txEnd_;
  sim::EventHandle depletion_;

  std::function<void(const net::Packet&)> onFrame_;
  std::function<void()> onTxComplete_;
  std::function<void()> onDeath_;
};

/// One Radio per host at city scale: three std::function callbacks
/// (96 B) plus the power profile dominate; the budget keeps incidental
/// state from creeping in. It includes the depletion deadline (due key and
/// wait time, 32 B), which the event queue does not hold.
ECGRID_LAYOUT_BUDGET(Radio, 304);

}  // namespace ecgrid::phy
