// Radio transceiver state machine with integrated energy accounting.
//
// States: Idle (listening), Tx, Rx, Sleep (transceiver off, RAS pager
// still alive), Off (host dead). Every state change re-prices the battery
// draw using the paper's power table and re-arms the depletion timer, so
// hosts die at the exact instant their integral of power hits capacity.
// The timer is a parked queue entry (Simulator::rearm): it waits where the
// battery would empty at the profile's maximum draw, which no state can
// beat, so a flip of a busy radio only rewrites the timer's due record —
// it touches neither the queue's slot nor its heap, and the floor is not
// even computed — unless an outside Battery::drain or a surfaced entry
// puts the new due key before where the entry waits.
//
// Reception models collisions: any two transmissions overlapping in time
// at a receiver corrupt each other (no capture). Frames are decoded and
// handed up only when their reception completes uncorrupted and the frame
// is addressed to this host or broadcast. A reception holds a reference to
// the channel's one shared Frame for the transmission (phy/frame.hpp),
// never a copy of the packet. Its phy/rx_end joins the frame's end run
// (Frame::endRun, sim/event.hpp): receptions of one frame begin in event
// order and last the same airtime, so their ends are appended in key
// order and share one queue entry. Aborting a reception (transmit,
// sleep, powerDown, death) cancels its item like any event.
//
// A sleeping radio hears nothing, so the channel does not schedule
// arrivals at it at all; it parks them instead (phy/channel.hpp). The
// channel reads sleep from its own per-attachment byte, which setState
// keeps current on every transition into or out of sleep. Leaving
// sleep — wake(), or powerUp() after a crash — hands the radio back to
// the channel to replay the arrivals still in flight, so a radio that
// wakes while a frame is on the air receives it exactly as it did when
// every sleeper got its own discarded delivery event.
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
  RadioState state() const { return state_; }
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
  bool mediumBusy() const {
    return state_ == RadioState::kTx || state_ == RadioState::kRx;
  }

  /// Earliest time the currently sensed activity ends (own transmission,
  /// arriving frames, or the NAV reservation below). Returns the current
  /// time when the medium is idle. The MAC defers its backoff to this
  /// instant, as 802.11 DCF freezes backoff counters while busy.
  sim::Time mediumIdleAt() const;

  /// Virtual carrier sense: overhearing a unicast addressed to another
  /// host reserves the medium for `guard` seconds past the frame end, so
  /// the receiver's SIFS + ACK go uncontested (802.11's NAV).
  void setNavGuard(sim::Time guard) { navGuard_ = guard; }

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

  /// Channel-facing: a transmission starts arriving at this radio; it
  /// lasts the frame's airtime.
  void beginReceive(FrameRef frame);

  /// Channel-facing: undecodable energy arrives (a transmitter inside the
  /// interference ring but outside decode range). Corrupts any reception
  /// in progress or starting while it lasts, and holds carrier sense
  /// busy, but is never delivered.
  void beginInterference(sim::Time duration);

  /// Consumed/remaining energy passthroughs for stats.
  energy::Battery& battery() { return battery_; }

 private:
  struct Reception {
    FrameRef frame;
    sim::Time end = 0.0;
    bool corrupted = false;
    sim::EventHandle endEvent;
  };

  void setState(RadioState next);
  void rearmDepletion();
  void die();
  /// The phy/rx_end run action (sim::RunAction): `token` names the
  /// reception.
  static void endReception(void* radio, std::uint64_t token,
                           sim::RunPayload* payload);
  void onReceptionEnd(std::size_t token);
  void abortAllReceptions();

  sim::Simulator& sim_;
  energy::Battery& battery_;
  energy::PowerProfile profile_;
  net::NodeId id_;
  Channel* channel_ = nullptr;
  std::size_t channelAttachmentId_ = kNoAttachment;

  RadioState state_ = RadioState::kIdle;
  bool sleepPending_ = false;
  sim::Time txEndsAt_ = 0.0;
  sim::Time navGuard_ = 0.0;
  sim::Time navUntil_ = 0.0;
  sim::Time interferenceUntil_ = 0.0;

  std::vector<std::pair<std::size_t, Reception>> receptions_;
  std::size_t nextReceptionToken_ = 0;

  sim::EventHandle txEnd_;
  sim::EventHandle depletion_;

  std::function<void(const net::Packet&)> onFrame_;
  std::function<void()> onTxComplete_;
  std::function<void()> onDeath_;
};

/// One Radio per host at city scale: three std::function callbacks
/// (96 B) plus the power profile dominate; the budget keeps incidental
/// state from creeping in.
ECGRID_LAYOUT_BUDGET(Radio, 280);

}  // namespace ecgrid::phy
