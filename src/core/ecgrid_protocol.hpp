// ECGRID — Energy-Conserving GRID routing (the paper's contribution, §3).
//
// ECGRID keeps GRID's partition and grid-by-grid routing and adds the
// energy dimension:
//   * battery-level-first gateway election (upper > boundary > lower,
//     then distance-to-centre, then smallest ID);
//   * every non-gateway host turns its transceiver off. Sleepers never
//     poll: the gateway wakes them through the RAS paging channel, either
//     individually (data arrived; unique paging sequence = host ID) or
//     grid-wide (election/RETIRE; broadcast sequence = grid coordinate);
//   * sleepers arm a GPS-derived dwell timer and wake exactly when they
//     could be leaving the grid (implemented event-exactly by
//     mobility::GridTracker), LEAVE-notify the old gateway and run the
//     newcomer handshake in the new grid;
//   * a sleeping host with data to send wakes and sends ACQ(gid, D); the
//     gateway answers with a HELLO, re-establishing who is in charge;
//   * the gateway buffers data for sleeping destinations, pages them, and
//     forwards once the destination's HELLO proves it awake;
//   * load balancing: a gateway retires when its battery level drops a
//     class (upper→boundary, boundary→lower) and shortly before
//     exhaustion, handing the routing table over via wake-all + RETIRE.
#pragma once

#include <deque>
#include <map>

#include "protocols/common/grid_protocol_base.hpp"
#include "util/ownership.hpp"

namespace ecgrid::core {

struct EcgridConfig {
  protocols::GridProtocolConfig base;

  /// An active non-gateway host returns to sleep after this long without
  /// application traffic in either direction. Deliberately shorter than
  /// the paper's CBR packet interval: ECGRID sources/destinations sleep
  /// *between* packets, waking per packet via ACQ (source side, §3.3) and
  /// RAS paging (destination side) — that is the whole point of the RAS.
  sim::Time idleBeforeSleep = 0.35;
  /// How long a gateway waits for a paged host's HELLO before re-paging.
  sim::Time pageResponseTimeout = 0.25;
  int pageRetries = 3;
  /// Buffered frames per sleeping destination.
  std::size_t wakeBufferLimit = 32;
  /// A sleeping source waits this long for the gateway's HELLO after its
  /// ACQ before declaring a no-gateway event.
  sim::Time acqResponseTimeout = 0.3;
  /// Retire (hand over gatewaying) when the battery ratio falls below
  /// this, so the RETIRE still gets out before the host dies.
  double retireBatteryRatio = 0.02;
  /// Master switch for transceiver sleeping — disabling it turns ECGRID
  /// into "GRID with battery-aware election" (used by the ablation bench).
  bool enableSleep = true;
  /// Master switch for load-balance retirement (ablation).
  bool enableLoadBalance = true;

  EcgridConfig() { base.election.useBatteryLevel = true; }
};

class ECGRID_DOMAIN_PER_HOST EcgridProtocol final : public protocols::GridProtocolBase {
 public:
  EcgridProtocol(net::HostEnv& env, const EcgridConfig& config);

  const char* name() const override { return "ECGRID"; }

  void sendData(net::NodeId destination, int payloadBytes,
                const net::DataTag& tag) override;
  void onPaged(const net::PageSignal& signal) override;
  void onCellChanged(const geo::GridCoord& from,
                     const geo::GridCoord& to) override;
  void onFrame(const net::Packet& packet) override;
  void onShutdown() override;

  bool sleeping() const { return role() == Role::kSleeping; }
  const EcgridConfig& ecgridConfig() const { return ecgridConfig_; }

  void onSendFailed(const net::Packet& packet) override;

 protected:
  void maybeSleep() override;
  bool assumeSeededHostsSleep() const override {
    return ecgridConfig_.enableSleep;
  }
  void deliverToLocalHost(net::NodeId dst, const net::Packet& frame) override;
  void beginRetire(const geo::GridCoord& forGrid, const char* cause) override;
  void onNoGateway() override;
  void onLocalHostActive(net::NodeId host) override;
  void onRoleChanged(Role from, Role to) override;
  void gatewayPeriodic() override;

 private:
  struct WakeState {
    std::deque<net::Packet> buffered;
    int pagesSent = 0;
    sim::Time firstPageAt = -1.0;  ///< when the first RAS page went out
    sim::EventHandle retryTimer;
  };

  void goToSleep();
  void wakeAsMember();
  void noteAppActivity();
  void scheduleSleepCheck();
  void pageAndBuffer(net::NodeId dst, const net::Packet& frame);
  void onPageTimeout(net::NodeId dst);
  void flushWakeBuffer(net::NodeId dst);
  void sendAcq(net::NodeId destination);
  void retireForLoadBalance();

  /// Span id correlating one gateway's page→wake→flush chain for `dst`.
  std::uint64_t wakeChainSpanId(net::NodeId dst) const;

  EcgridConfig ecgridConfig_;
  std::map<net::NodeId, WakeState> wakeBuffer_;
  // Observability (inert without a hub; see obs/observability.hpp).
  obs::Counter mSleeps_;
  obs::Counter mWakes_;
  obs::Counter mAcqsSent_;
  obs::Histogram mWakeLatency_;
  sim::Time lastAppActivity_ = -1e9;
  sim::EventHandle sleepTimer_;
  sim::EventHandle acqTimer_;
  energy::BatteryLevel levelWhenElected_ = energy::BatteryLevel::kUpper;
  bool retireIssuedAtLevel_ = false;
  bool finalRetireIssued_ = false;
};

}  // namespace ecgrid::core
