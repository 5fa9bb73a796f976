#include "mac/csma.hpp"

#include <algorithm>

#include "obs/observability.hpp"
#include "util/error.hpp"

namespace ecgrid::mac {

CsmaMac::CsmaMac(sim::Simulator& sim, phy::Radio& radio, phy::Channel& channel,
                 const CsmaConfig& config, sim::RngStream rng)
    : sim_(sim),
      radio_(radio),
      channel_(channel),
      config_(config),
      rng_(std::move(rng)),
      mFramesSent_(obs::counter(sim, "mac.frames_sent")),
      mFramesDropped_(obs::counter(sim, "mac.frames_dropped")),
      mAcksSent_(obs::counter(sim, "mac.acks_sent")),
      mAcksSkipped_(obs::counter(sim, "mac.acks_skipped")),
      mRetransmissions_(obs::counter(sim, "mac.retransmissions")) {
  ECGRID_REQUIRE(config.contentionWindowMin >= 1, "contention window >= 1");
  ECGRID_REQUIRE(config.maxAccessAttempts >= 1, "need at least one attempt");
  ECGRID_REQUIRE(config.retryLimit >= 0, "retry limit cannot be negative");
  // Steady-depth floors; both rings grow geometrically toward their
  // config bounds only under congestion, so an idle host stays small.
  queue_.reserve(16);
  seenOrder_.reserve(64);
  radio_.setTxCompleteCallback([this] { onTxComplete(); });
  radio_.setFrameCallback(
      [this](const net::Packet& frame) { onRadioFrame(frame); });
  // NAV reservation: overheard unicasts keep neighbours quiet through the
  // receiver's SIFS + ACK.
  net::Packet ackSize;
  ackSize.header = std::make_shared<AckHeader>(0);
  radio_.setNavGuard(config_.sifsSeconds +
                     channel_.frameAirtime(ackSize.bytes()) + 20e-6);
}

void CsmaMac::setReceiveCallback(std::function<void(const net::Packet&)> cb) {
  upperReceive_ = std::move(cb);
}

void CsmaMac::setSendFailureCallback(
    std::function<void(const net::Packet&)> cb) {
  sendFailure_ = std::move(cb);
}

// --------------------------------------------------------------------------
// receive path

ECGRID_HOT_PATH void CsmaMac::onRadioFrame(const net::Packet& frame) {
  if (const auto* ack = frame.headerAs<AckHeader>()) {
    if (awaitingAck_ && !queue_.empty() &&
        queue_.front().packet.macSeq == ack->ackedSeq() &&
        queue_.front().packet.macDst == frame.macSrc) {
      awaitingAck_ = false;
      ackTimer_.cancel();
      finishFront(/*delivered=*/true);
    }
    return;
  }

  if (!net::isBroadcast(frame.macDst)) {
    // Unicast for us: acknowledge, and deliver only the first copy.
    sendAck(frame.macSrc, frame.macSeq);
    auto key = std::make_pair(frame.macSrc, frame.macSeq);
    // Node churn bounded at dedupWindow entries; the ring evicts FIFO.
    if (!seen_.insert(key).second) return;  // ARQ duplicate  // ecgrid-lint: allow(hot-path-container-growth)
    seenOrder_.push_back(key);
    if (seenOrder_.size() > config_.dedupWindow) {
      seen_.erase(seenOrder_.front());
      seenOrder_.pop_front();
    }
  }
  if (upperReceive_) upperReceive_(frame);
}

ECGRID_HOT_PATH void CsmaMac::sendAck(net::NodeId to, std::uint64_t seq) {
  net::Packet ack;
  ack.macSrc = radio_.id();
  ack.macDst = to;
  // The ACK header is the protocol's wire object — one allocation per
  // acknowledged frame, shared by every copy the channel fans out.
  ack.header = std::make_shared<AckHeader>(seq);  // ecgrid-lint: allow(hot-path-allocation)
  sim_.schedule(
      config_.sifsSeconds,
      [this, ack] {
        // The ACK pre-empts normal traffic (SIFS < DIFS) but cannot
        // interrupt a transmission already in progress — the data sender
        // will simply retransmit in that (rare) case.
        if (radio_.dead() || radio_.sleeping() ||
            radio_.state() == phy::RadioState::kTx) {
          ++acksSkipped_;
          mAcksSkipped_.add();
          return;
        }
        ++acksSent_;
        mAcksSent_.add();
        radio_.transmit(ack, channel_.frameAirtime(ack.bytes()));
      },
      "mac/ack");
}

// --------------------------------------------------------------------------
// send path

ECGRID_HOT_PATH void CsmaMac::send(net::Packet packet) {
  ECGRID_REQUIRE(packet.header != nullptr, "packet must carry a header");
  if (radio_.dead() || radio_.sleeping()) {
    ++framesDropped_;
    mFramesDropped_.add();
    if (auto* tracer = obs::tracer(sim_)) {
      tracer->instant("mac", "drop", radio_.id(),
                      {{"reason", "radio_down"},
                       {"hdr", packet.header->name()}});
    }
    return;
  }
  if (queue_.size() >= config_.queueLimit) {
    ++framesDropped_;
    mFramesDropped_.add();
    if (auto* tracer = obs::tracer(sim_)) {
      tracer->instant("mac", "drop", radio_.id(),
                      {{"reason", "queue_overflow"},
                       {"hdr", packet.header->name()}});
    }
    return;
  }
  packet.macSeq = nextMacSeq_++;
  if (auto* tracer = obs::tracer(sim_)) {
    tracer->instant("mac", "enqueue", radio_.id(),
                    {{"seq", packet.macSeq},
                     {"dst", packet.macDst},
                     {"hdr", packet.header->name()}});
  }
  Pending pending;
  pending.packet = std::move(packet);
  pending.cw = config_.contentionWindowMin;
  queue_.push_back(std::move(pending));
  scheduleAccess();
}

void CsmaMac::clearQueue() {
  framesDropped_ += queue_.size();
  mFramesDropped_.add(queue_.size());
  queue_.clear();
  accessTimer_.cancel();
  ackTimer_.cancel();
  accessPending_ = false;
  awaitingAck_ = false;
  // Also drop the transmit latch: a crash mid-transmission cancels the
  // radio's tx-end event, so onTxComplete would never clear it and the
  // MAC would be wedged forever after restart.
  transmitting_ = false;
}

ECGRID_HOT_PATH void CsmaMac::scheduleAccess() {
  if (accessPending_ || transmitting_ || awaitingAck_ || queue_.empty()) {
    return;
  }
  accessPending_ = true;
  Pending& front = queue_.front();
  double backoffSlots = static_cast<double>(rng_.uniformInt(0, front.cw - 1));
  double delay = config_.difsSeconds + backoffSlots * config_.slotSeconds;
  if (net::isBroadcast(front.packet.macDst) &&
      config_.broadcastJitterSeconds > 0.0 && front.txAttempts == 0 &&
      front.busyRetries == 0) {
    delay += rng_.uniform(0.0, config_.broadcastJitterSeconds);
  }
  accessTimer_ =
      sim_.schedule(delay, [this] { tryTransmit(); }, "mac/access");
}

ECGRID_HOT_PATH void CsmaMac::tryTransmit() {
  accessPending_ = false;
  if (queue_.empty() || transmitting_ || awaitingAck_) return;
  if (radio_.dead() || radio_.sleeping()) {
    clearQueue();
    return;
  }
  Pending& front = queue_.front();
  if (radio_.mediumBusy() || radio_.mediumIdleAt() > sim_.now()) {
    if (++front.busyRetries >= config_.maxAccessAttempts) {
      if (auto* tracer = obs::tracer(sim_)) {
        tracer->instant("mac", "drop", radio_.id(),
                        {{"reason", "access_exhausted"},
                         {"seq", front.packet.macSeq},
                         {"hdr", front.packet.header->name()}});
      }
      finishFront(/*delivered=*/false);
      return;
    }
    // DCF-style deferral: wait out the sensed activity, then contend with
    // a fresh DIFS + backoff (802.11 freezes backoff while busy; deferring
    // to the estimated idle point is the event-driven equivalent).
    accessPending_ = true;
    double wait = radio_.mediumIdleAt() - sim_.now();
    if (wait < 0.0) wait = 0.0;
    double backoffSlots =
        static_cast<double>(rng_.uniformInt(0, front.cw - 1));
    accessTimer_ = sim_.schedule(
        wait + config_.difsSeconds + backoffSlots * config_.slotSeconds,
        [this] { tryTransmit(); }, "mac/access");
    return;
  }
  transmitting_ = true;
  ++front.txAttempts;
  if (front.txAttempts > 1) {
    ++retransmissions_;
    mRetransmissions_.add();
  }
  if (auto* tracer = obs::tracer(sim_)) {
    tracer->instant("mac", "tx", radio_.id(),
                    {{"seq", front.packet.macSeq},
                     {"attempt", front.txAttempts},
                     {"hdr", front.packet.header->name()}});
  }
  radio_.transmit(front.packet, channel_.frameAirtime(front.packet.bytes()));
}

ECGRID_HOT_PATH void CsmaMac::onTxComplete() {
  if (!transmitting_) {
    // An ACK we sent finished; resume normal access if work is queued.
    if (!radio_.sleeping() && !radio_.dead()) scheduleAccess();
    return;
  }
  transmitting_ = false;
  if (radio_.sleeping() || radio_.dead()) {
    clearQueue();
    return;
  }
  ECGRID_CHECK(!queue_.empty(), "tx completed with empty queue");
  Pending& front = queue_.front();
  if (net::isBroadcast(front.packet.macDst)) {
    finishFront(/*delivered=*/true);
    return;
  }
  awaitingAck_ = true;
  ackTimer_ = sim_.schedule(
      config_.ackTimeoutSeconds, [this] { onAckTimeout(); },
      "mac/ack_timeout");
}

ECGRID_HOT_PATH void CsmaMac::onAckTimeout() {
  if (!awaitingAck_) return;
  awaitingAck_ = false;
  ECGRID_CHECK(!queue_.empty(), "ack timeout with empty queue");
  Pending& front = queue_.front();
  if (front.txAttempts > config_.retryLimit) {
    if (auto* tracer = obs::tracer(sim_)) {
      tracer->instant("mac", "drop", radio_.id(),
                      {{"reason", "retry_limit"},
                       {"seq", front.packet.macSeq},
                       {"dst", front.packet.macDst},
                       {"hdr", front.packet.header->name()}});
    }
    finishFront(/*delivered=*/false);
    return;
  }
  front.cw = std::min(front.cw * 2, config_.contentionWindowMax);
  scheduleAccess();
}

ECGRID_HOT_PATH void CsmaMac::finishFront(bool delivered) {
  ECGRID_CHECK(!queue_.empty(), "finishing with empty queue");
  net::Packet failed;
  bool notify = false;
  if (delivered) {
    ++framesSent_;
    mFramesSent_.add();
    if (auto* tracer = obs::tracer(sim_)) {
      tracer->instant("mac", "sent", radio_.id(),
                      {{"seq", queue_.front().packet.macSeq},
                       {"hdr", queue_.front().packet.header->name()}});
    }
  } else {
    ++framesDropped_;
    mFramesDropped_.add();
    if (sendFailure_ && !net::isBroadcast(queue_.front().packet.macDst)) {
      failed = queue_.front().packet;
      notify = true;
    }
  }
  queue_.pop_front();
  // Notify after popping: the callback may re-route and re-enqueue.
  if (notify) sendFailure_(failed);
  scheduleAccess();
}

}  // namespace ecgrid::mac
