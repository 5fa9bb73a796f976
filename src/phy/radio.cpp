#include "phy/radio.hpp"

#include <algorithm>
#include <limits>

#include "obs/observability.hpp"
#include "phy/channel.hpp"
#include "util/error.hpp"
#include "util/hot_path.hpp"

namespace ecgrid::phy {

namespace {
// Concurrent arrivals at one receiver (decodable + interference energy),
// recorded or in progress. CSMA keeps real overlap to a handful; 16
// covers collision bursts so steady-state receptions never grow the
// vector.
constexpr std::size_t kInitialArrivals = 16;
}

const char* toString(RadioState s) {
  switch (s) {
    case RadioState::kIdle:
      return "idle";
    case RadioState::kTx:
      return "tx";
    case RadioState::kRx:
      return "rx";
    case RadioState::kSleep:
      return "sleep";
    case RadioState::kOff:
      return "off";
  }
  return "?";
}

namespace {

energy::PowerState toPowerState(RadioState s) {
  switch (s) {
    case RadioState::kIdle:
      return energy::PowerState::kIdle;
    case RadioState::kTx:
      return energy::PowerState::kTx;
    case RadioState::kRx:
      return energy::PowerState::kRx;
    case RadioState::kSleep:
      return energy::PowerState::kSleep;
    case RadioState::kOff:
      return energy::PowerState::kOff;
  }
  return energy::PowerState::kOff;
}

}  // namespace

Radio::Radio(sim::Simulator& sim, energy::Battery& battery,
             const energy::PowerProfile& profile, net::NodeId id)
    : sim_(sim), battery_(battery), id_(id), profile_(profile) {
  arrivals_.reserve(kInitialArrivals);
  battery_.setPowerW(profile_.totalPowerW(energy::PowerState::kIdle),
                     sim_.now());
  rearmDepletion(sim_.now());
}

Radio::~Radio() {
  txEnd_.cancel();
  depletion_.cancel();
}

void Radio::setFrameCallback(std::function<void(const net::Packet&)> cb) {
  onFrame_ = std::move(cb);
}

void Radio::setTxCompleteCallback(std::function<void()> cb) {
  onTxComplete_ = std::move(cb);
}

void Radio::setDeathCallback(std::function<void()> cb) {
  onDeath_ = std::move(cb);
}

void Radio::setStateAt(RadioState next, sim::Time at, bool rearm) {
  if (state_ == next) return;
  if ((next == RadioState::kSleep || state_ == RadioState::kSleep) &&
      channelAttachmentId_ != kNoAttachment) {
    channel_->setAsleep(channelAttachmentId_, next == RadioState::kSleep);
  }
  state_ = next;
  battery_.setPowerW(profile_.totalPowerW(toPowerState(next)), at);
  if (rearm) rearmDepletion(at);
}

void Radio::rearmDepletion(sim::Time at) {
  // The battery was just integrated to `at`, so timeToEmpty commits
  // nothing new.
  const double horizon = state_ == RadioState::kOff
                             ? std::numeric_limits<double>::infinity()
                             : battery_.timeToEmpty(at);
  if (horizon == std::numeric_limits<double>::infinity()) {
    depletion_.cancel();
    waitTime_ = sim::kTimeNever;
    return;
  }
  // Times are absolute, so a re-arm computed at an instant already past —
  // a reception start settled after the fact — gets the very sum that
  // instant would have.
  const sim::Time due = at + horizon;
  ECGRID_REQUIRE(due >= sim_.now(), "cannot schedule into the past");
  // The death's key is the one cancel + schedule would give it now: the
  // next place in the order, taken whether or not the entry moves.
  const bool wakeUpQueued = waitTime_ < dueTime_;
  dueTime_ = due;
  dueOrder_ = sim_.reserveOrder();
  // Re-armed on every state change: a wake-up still due before the new
  // due time stays where it is.
  if (wakeUpQueued && waitTime_ < due) return;
  // No state draws more than the profile's maximum, so short of an outside
  // drain no later re-arm is due before the battery would empty at that
  // draw; the entry waits there, or at the due key when that is no later.
  const double maxDrawW = profile_.maxPowerW();
  const sim::Time floor =
      maxDrawW > 0.0 ? at + battery_.peekRemainingJ(at) / maxDrawW : at;
  waitTime_ = std::clamp(floor, sim_.now(), due);
  depletion_.cancel();
  depletion_ = sim_.scheduleReserved(
      waitTime_, dueOrder_, [this] { onDepletionEntry(); },
      waitTime_ < due ? "phy/battery_wake" : "phy/battery");
}

void Radio::onDepletionEntry() {
  if (waitTime_ == dueTime_) {
    // A death entry sits at the due key itself.
    waitTime_ = sim::kTimeNever;
    die();
    return;
  }
  // A wake-up: the due key, taken at the last re-arm, lies later still.
  waitTime_ = dueTime_;
  depletion_ = sim_.scheduleReserved(
      dueTime_, dueOrder_, [this] { onDepletionEntry(); }, "phy/battery");
}

void Radio::die() {
  settle();
  if (state_ == RadioState::kOff) return;
  txEnd_.cancel();
  abortAllReceptions();
  setState(RadioState::kOff);
  if (onDeath_) onDeath_();
}

void Radio::powerDown() {
  settle();
  if (state_ == RadioState::kOff) return;
  txEnd_.cancel();
  abortAllReceptions();
  sleepPending_ = false;
  setState(RadioState::kOff);
}

void Radio::powerUp() {
  settle();
  ECGRID_REQUIRE(state_ == RadioState::kOff,
                 "powerUp requires a powered-down radio");
  navUntil_ = 0.0;
  interferenceUntil_ = 0.0;
  txEndsAt_ = 0.0;
  setState(RadioState::kIdle);
  for (const Arrival& start : arrivals_) {
    if (start.decodable) guardStart(start.at, start.order, start.end);
  }
  if (channel_ != nullptr) channel_->replayDeferred(*this);
}

ECGRID_HOT_PATH void Radio::transmit(const net::Packet& packet,
                                     sim::Time duration) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(duration > 0.0, "transmit duration must be positive");
  ECGRID_CHECK(channel_ != nullptr, "radio not attached to a channel");
  settle();
  if (state_ == RadioState::kOff || state_ == RadioState::kSleep) return;
  ECGRID_CHECK(state_ != RadioState::kTx, "MAC started tx over tx");
  // Half-duplex: transmitting stomps any reception in progress.
  if (state_ == RadioState::kRx) abortAllReceptions();
  txEndsAt_ = sim_.now() + duration;
  setState(RadioState::kTx);
  // The tx end takes the place right after the arrivals' block, which the
  // channel hands back; the reception ends come after it.
  const sim::EventOrder txEndPlace =
      channel_->transmitFrom(*this, packet, duration);
  txEnd_ = sim_.scheduleReserved(
      txEndsAt_, txEndPlace,
      [this] {
        settle();  // starts that landed while sending were not heard
        if (state_ != RadioState::kTx) return;  // died mid-transmission
        setState(sleepPending_ ? RadioState::kSleep : RadioState::kIdle);
        sleepPending_ = false;
        // Fire even when the radio fell asleep so the MAC can reset its
        // transmit latch and drain its queue.
        if (onTxComplete_) onTxComplete_();
      },
      "phy/tx_end");
}

void Radio::sleep() {
  settle();
  if (state_ == RadioState::kOff || state_ == RadioState::kSleep) return;
  if (state_ == RadioState::kTx) {
    sleepPending_ = true;
    return;
  }
  if (state_ == RadioState::kRx) abortAllReceptions();
  setState(RadioState::kSleep);
}

void Radio::wake() {
  settle();
  sleepPending_ = false;
  if (state_ != RadioState::kSleep) return;
  setState(RadioState::kIdle);
  if (channel_ != nullptr) channel_->replayDeferred(*this);
}

ECGRID_HOT_PATH bool Radio::noteArrival(sim::Time at, sim::EventOrder order,
                                        const FrameRef& frame, bool decodable,
                                        std::uint64_t token) {
  ECGRID_HOT_SCOPE();
  // Sending until past the start: deaf to it, whatever happens meanwhile
  // (the send ends only at its tx end, or in Off).
  if (state_ == RadioState::kTx && txEndsAt_ > at) return false;
  const sim::Time end = at + frame->airtime;
  if (decodable) {
    // An Off radio is deaf; powerUp() re-judges what it still has
    // recorded.
    if (state_ != RadioState::kOff) guardStart(at, order, end);
  } else {
    // Undecodable energy has no end item to settle it: settle here, so
    // a radio that hears only the interference ring keeps a short list.
    settle();
  }
  // Starts arrive nearly in key order (one transmission's receivers are
  // apart in place, not at one radio); keep the list sorted from the back.
  auto it = arrivals_.end();
  while (it != arrivals_.begin()) {
    const Arrival& before = *std::prev(it);
    if (before.at < at ||
        (before.at == at && sim::orderedBefore(before.order, order))) {
      break;
    }
    --it;
  }
  arrivals_.insert(it, Arrival{at, end, order, frame, token, decodable});
  return true;
}

ECGRID_HOT_PATH void Radio::guardStart(sim::Time at, sim::EventOrder order,
                                       sim::Time end) {
  if (end < chargeLastsUntil_) return;
  // Re-derive the bound from the battery as committed: since then the radio
  // drew its current power, or the receive draw from a recorded start on;
  // from now on at most the profile's maximum.
  double pastW = battery_.currentPowerW();
  if (!arrivals_.empty()) {
    pastW = std::max(pastW, profile_.totalPowerW(energy::PowerState::kRx));
  }
  chargeLastsUntil_ =
      battery_.chargeLastsUntil(sim_.now(), pastW, profile_.maxPowerW());
  if (end < chargeLastsUntil_) return;
  // The battery may run out inside this reception: an event at the start's
  // own key applies it, and re-arms the depletion deadline, on time.
  sim_.scheduleReserved(at, order, [this] { settle(); }, "phy/rx_settle");
}

ECGRID_HOT_PATH sim::Time Radio::settleStarts(bool rearm) {
  // Due starts are applied in key order, in place; those that leave
  // nothing behind are dropped after. (Which start is due is decided
  // start by start: under perturbed tie-breaks a start recorded by the
  // event running at its own instant can sort before one that has run.)
  sim::Time flippedAt = -1.0;
  bool dropped = false;
  for (Arrival& start : arrivals_) {
    if (start.started || !sim_.wouldHaveRun(start.at, start.order)) continue;
    if (!applyStart(start, rearm, flippedAt)) {
      start.frame.reset();
      dropped = true;
    }
  }
  if (dropped) {
    std::erase_if(arrivals_, [](const Arrival& a) { return !a.frame; });
  }
  return flippedAt;
}

bool Radio::receiving() const {
  return std::any_of(arrivals_.begin(), arrivals_.end(),
                     [](const Arrival& a) { return a.started; });
}

ECGRID_HOT_PATH bool Radio::applyStart(Arrival& start, bool rearm,
                                       sim::Time& flippedAt) {
  ECGRID_HOT_SCOPE();
  const net::Packet& packet = start.frame->packet;
  const sim::Time at = start.at;
  if (state_ == RadioState::kOff || state_ == RadioState::kSleep ||
      state_ == RadioState::kTx) {
    if (start.decodable && packet.macDst == id_) {
      if (auto* tracer = obs::tracer(sim_)) {
        tracer->instant("phy", "deaf", id_,
                        {{"src", packet.macSrc},
                         {"hdr", packet.header->name()},
                         {"state", toString(state_)},
                         {"at", at}});
      }
    }
    return false;  // transceiver cannot hear this arrival
  }
  if (!start.decodable) {
    applyInterference(start.end);
    return false;
  }
  const bool collision = receiving() || at < interferenceUntil_;
  if (collision && packet.macDst == id_) {
    if (auto* tracer = obs::tracer(sim_)) {
      tracer->instant("phy", "collision", id_,
                      {{"src", packet.macSrc},
                       {"hdr", packet.header->name()},
                       {"at", at}});
    }
  }
  if (!net::isBroadcast(packet.macDst) && packet.macDst != id_ &&
      navGuard_ > 0.0) {
    sim::Time reserve = start.end + navGuard_;
    if (reserve > navUntil_) navUntil_ = reserve;
  }
  if (collision) {
    for (Arrival& other : arrivals_) {
      if (other.started) other.corrupted = true;
    }
  }
  start.started = true;
  start.corrupted = collision;
  if (state_ != RadioState::kRx) {
    setStateAt(RadioState::kRx, at, rearm);
    flippedAt = at;
  }
  return true;
}

void Radio::endReception(void* radio, std::uint64_t token) {
  static_cast<Radio*>(radio)->onReceptionEnd(token);
}

ECGRID_HOT_PATH void Radio::onReceptionEnd(std::uint64_t token) {
  // A flip settled here is undone below unless other receptions go on, so
  // its re-arm waits to see which.
  const sim::Time flippedAt = settleStarts(false);
  auto it = std::find_if(
      arrivals_.begin(), arrivals_.end(),
      [&](const Arrival& a) { return a.started && a.token == token; });
  if (it == arrivals_.end()) {
    // Deaf at its start, or aborted since.
    if (flippedAt >= 0.0) rearmDepletion(flippedAt);
    return;
  }
  const FrameRef frame = std::move(it->frame);
  const bool corrupted = it->corrupted;
  arrivals_.erase(it);
  if (state_ == RadioState::kRx && !receiving()) {
    setState(RadioState::kIdle);
  } else if (flippedAt >= 0.0) {
    rearmDepletion(flippedAt);
  }
  if (corrupted) return;
  // No runtime hot scope past this point: onFrame_ climbs into the MAC
  // and routing layers, whose event bodies may allocate legitimately
  // (ACK headers, dedup entries, route-table updates).
  const net::Packet& pkt = frame->packet;
  bool forUs = net::isBroadcast(pkt.macDst) || pkt.macDst == id_;
  if (forUs && onFrame_) onFrame_(pkt);
}

ECGRID_HOT_PATH void Radio::applyInterference(sim::Time until) {
  if (until > interferenceUntil_) interferenceUntil_ = until;
  // Any frame currently being decoded is ruined by the extra energy.
  for (Arrival& rx : arrivals_) {
    if (rx.started) rx.corrupted = true;
  }
}

ECGRID_HOT_PATH sim::Time Radio::mediumIdleAt() {
  settle();
  sim::Time now = sim_.now();
  sim::Time idleAt = now;
  if (state_ == RadioState::kTx && txEndsAt_ > idleAt) idleAt = txEndsAt_;
  for (const Arrival& rx : arrivals_) {
    if (rx.started && rx.end > idleAt) idleAt = rx.end;
  }
  if (navUntil_ > idleAt) idleAt = navUntil_;
  if (interferenceUntil_ > idleAt) idleAt = interferenceUntil_;
  return idleAt;
}

void Radio::abortAllReceptions() {
  std::erase_if(arrivals_, [](const Arrival& a) { return a.started; });
  if (state_ == RadioState::kRx) setState(RadioState::kIdle);
}

}  // namespace ecgrid::phy
