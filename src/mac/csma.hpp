// Simplified 802.11-DCF-style CSMA MAC over the unit-disk channel.
//
// Access procedure per frame:
//   1. wait DIFS + a uniformly random number of 20 µs slots,
//   2. if the medium is sensed idle, transmit; otherwise draw a fresh
//      backoff and retry (bounded).
//
// Unicast frames are acknowledged: the receiver returns a MAC-level ACK
// after SIFS, and the sender retransmits (fresh backoff, doubled
// contention window) up to `retryLimit` times before dropping — the same
// stop-and-wait ARQ the paper's ns-2 802.11 MAC provides, which is what
// pushes per-hop reliability high enough for the >99 % end-to-end
// delivery the paper reports. Receivers suppress duplicate deliveries of
// retransmitted frames by (source, MAC sequence number).
//
// Broadcast frames are fire-and-forget but get a random jitter so the
// synchronized rebroadcasts of flooding protocols de-correlate — the
// standard broadcast-storm mitigation.
#pragma once

#include <functional>
#include <set>
#include <utility>

#include "net/link_layer.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "util/bounded_ring.hpp"
#include "util/hot_path.hpp"
#include "util/ownership.hpp"

namespace ecgrid::mac {

/// MAC-level acknowledgement. Never reaches the routing layer.
class AckHeader final : public net::HeaderOf<AckHeader> {
 public:
  explicit AckHeader(std::uint64_t ackedSeq) : ackedSeq_(ackedSeq) {}
  std::uint64_t ackedSeq() const { return ackedSeq_; }
  int bytes() const override { return 2; }  // + MAC framing = 36 B on air
  const char* name() const override { return "ACK"; }

 private:
  std::uint64_t ackedSeq_;
};

struct CsmaConfig {
  double difsSeconds = 50e-6;
  double sifsSeconds = 10e-6;
  double slotSeconds = 20e-6;
  int contentionWindowMin = 16;   ///< backoff drawn from [0, cw-1] slots
  int contentionWindowMax = 256;  ///< cw doubles per retry up to this
  int maxAccessAttempts = 12;     ///< medium-busy re-draws before dropping
  int retryLimit = 6;             ///< unicast retransmissions before dropping
  double ackTimeoutSeconds = 1.2e-3;  ///< from end of data tx
  double broadcastJitterSeconds = 25e-3;
  std::size_t queueLimit = 128;   ///< tail-drop beyond this
  std::size_t dedupWindow = 512;  ///< remembered (src, seq) pairs
};

class ECGRID_DOMAIN_PER_HOST CsmaMac final : public net::LinkLayer {
 public:
  CsmaMac(sim::Simulator& sim, phy::Radio& radio, phy::Channel& channel,
          const CsmaConfig& config, sim::RngStream rng);

  CsmaMac(const CsmaMac&) = delete;
  CsmaMac& operator=(const CsmaMac&) = delete;

  // LinkLayer
  void send(net::Packet packet) override;
  void setReceiveCallback(std::function<void(const net::Packet&)> cb) override;
  void setSendFailureCallback(
      std::function<void(const net::Packet&)> cb) override;
  std::size_t queueDepth() const override { return queue_.size(); }
  void clearQueue() override;

  std::uint64_t framesSent() const { return framesSent_; }
  std::uint64_t framesDropped() const { return framesDropped_; }
  std::uint64_t acksSent() const { return acksSent_; }
  std::uint64_t acksSkipped() const { return acksSkipped_; }
  std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  struct Pending {
    net::Packet packet;
    int busyRetries = 0;  ///< access attempts foiled by a busy medium
    int txAttempts = 0;   ///< actual transmissions (ARQ)
    int cw = 0;           ///< current contention window
  };
  /// One per queued frame, ring-resident up to queueLimit deep per host.
  ECGRID_LAYOUT_BUDGET(Pending, 64);

  void onRadioFrame(const net::Packet& frame);
  void scheduleAccess();
  void tryTransmit();
  void onTxComplete();
  void onAckTimeout();
  void finishFront(bool delivered);
  void sendAck(net::NodeId to, std::uint64_t seq);

  sim::Simulator& sim_;
  phy::Radio& radio_;
  phy::Channel& channel_;
  CsmaConfig config_;
  sim::RngStream rng_;

  /// FIFO of frames awaiting channel access, bounded by queueLimit.
  /// A ring, not a deque: deque block churn on pop/push is steady-state
  /// allocation the hot-path lint and alloc-audit gate both flag.
  util::BoundedRing<Pending> queue_;
  bool accessPending_ = false;
  bool transmitting_ = false;
  bool awaitingAck_ = false;
  sim::EventHandle accessTimer_;
  sim::EventHandle ackTimer_;

  std::uint64_t nextMacSeq_ = 1;
  std::function<void(const net::Packet&)> upperReceive_;
  std::function<void(const net::Packet&)> sendFailure_;

  // Duplicate suppression for retransmitted unicasts. The set carries a
  // lint allow where it grows: node-based churn, but bounded at
  // dedupWindow entries and evicted in FIFO order by the ring below.
  std::set<std::pair<net::NodeId, std::uint64_t>> seen_;
  util::BoundedRing<std::pair<net::NodeId, std::uint64_t>> seenOrder_;

  std::uint64_t framesSent_ = 0;
  std::uint64_t framesDropped_ = 0;
  std::uint64_t acksSent_ = 0;
  std::uint64_t acksSkipped_ = 0;
  std::uint64_t retransmissions_ = 0;
  // Registry mirrors of the counters above (inert without an
  // Observability hub; see obs/observability.hpp). Shared across all MACs
  // on the simulator: re-registering a name returns the same cell.
  obs::Counter mFramesSent_;
  obs::Counter mFramesDropped_;
  obs::Counter mAcksSent_;
  obs::Counter mAcksSkipped_;
  obs::Counter mRetransmissions_;
};

ECGRID_LAYOUT_BUDGET(CsmaMac, 432);

}  // namespace ecgrid::mac
