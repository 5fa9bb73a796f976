// Shared machinery of the GRID family (paper §3).
//
// GridProtocolBase implements everything GRID and ECGRID have in common:
//   * periodic HELLO beacons from every active host, carrying the paper's
//     five fields (id, grid, gflag, level, dist);
//   * the distributed gateway election algorithm (HELLO collection window
//     followed by deterministic rule application — see election.hpp);
//   * gateway bookkeeping: host table, neighbour-gateway table, newcomer
//     handshakes, LEAVE notifications, gateway hand-offs (HANDOFF),
//     departure/exhaustion retirement (RETIRE) and no-gateway detection;
//   * the data path: members relay through their gateway, gateways run the
//     shared RoutingEngine (grid-confined AODV).
//
// Derived classes specialise the energy dimension:
//   * GridProtocol (baseline) disables battery-aware election and never
//     sleeps — every host idles awake, exactly the paper's GRID;
//   * EcgridProtocol layers sleeping, RAS paging, ACQ, buffered wakeup
//     delivery, and battery-level load balancing on top.
#pragma once

#include <cstdint>

#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "net/host_env.hpp"
#include "net/routing_protocol.hpp"
#include "obs/metrics.hpp"
#include "protocols/common/election.hpp"
#include "protocols/common/messages.hpp"
#include "protocols/common/routing_engine.hpp"
#include "protocols/common/tables.hpp"
#include "sim/rng.hpp"
#include "util/hot_path.hpp"
#include "util/ownership.hpp"

namespace ecgrid::protocols {

struct GridProtocolConfig {
  sim::Time helloPeriod = 1.0;          ///< paper's "HELLO period"
  double helloJitterFrac = 0.1;         ///< de-synchronise beacons
  double gatewayStaleFactor = 2.5;      ///< ×helloPeriod: no-gateway timeout
  sim::Time electionWindow = 0.5;       ///< HELLO collection after RETIRE
  sim::Time newcomerWait = 2.0;         ///< silence ⇒ empty grid ⇒ self-elect
  sim::Time retireTau = 0.05;           ///< paper's τ between wakeup and RETIRE
  std::size_t appPendingLimit = 32;     ///< app data queued while gateway unknown
  RoutingConfig routing;
  ElectionPolicy election;
  /// Location service used to confine RREQ search areas. The harness
  /// installs a GPS oracle; nullopt answers force global searches.
  std::function<std::optional<geo::GridCoord>(net::NodeId)> locationHint;
};

class ECGRID_DOMAIN_PER_HOST GridProtocolBase : public net::RoutingProtocol {
 public:
  enum class Role : std::uint8_t {
    kUndecided,  ///< collecting HELLOs before the first election
    kMember,     ///< active non-gateway
    kGateway,
    kSleeping,   ///< ECGRID only
    kDead,
  };

  GridProtocolBase(net::HostEnv& env, const GridProtocolConfig& config);

  // net::RoutingProtocol
  void start() override;
  void onFrame(const net::Packet& packet) override;
  void sendData(net::NodeId destination, int payloadBytes,
                const net::DataTag& tag) override;
  void onPaged(const net::PageSignal& signal) override;
  void onSendFailed(const net::Packet& packet) override;
  void onCellChanged(const geo::GridCoord& from,
                     const geo::GridCoord& to) override;
  void onShutdown() override;

  Role role() const { return role_; }
  /// Times this host has entered Role::kSleeping.
  std::uint64_t sleepEntries() const { return sleepEntries_; }
  bool isGateway() const { return role_ == Role::kGateway; }
  std::optional<net::NodeId> currentGateway() const { return currentGateway_; }
  /// Grid this host is currently gateway of (set while Role::kGateway,
  /// including the retire window after the host left the cell). Used by
  /// the invariant auditor's gateway-uniqueness check.
  std::optional<geo::GridCoord> servedGrid() const { return servedGrid_; }
  const RoutingStats& routingStats() const { return engine_.stats(); }
  /// Routing engine introspection for audits and fault-injection tests.
  RoutingEngine& routingEngine() { return engine_; }
  const GridProtocolConfig& config() const { return config_; }

 protected:
  // --- hooks for derived protocols -----------------------------------------
  /// May this host sleep right now? Called whenever a sleep opportunity
  /// appears (gateway known, nothing pending). Base: never.
  virtual void maybeSleep() {}

  /// Final data hop to an in-grid host that is not us. Base/GRID: direct
  /// unicast (everyone is awake). ECGRID: buffer + RAS page.
  virtual void deliverToLocalHost(net::NodeId dst, const net::Packet& frame);

  /// Gateway leaves `forGrid` (or retires for load balance): run the
  /// paper's handover. Base/GRID: immediate RETIRE broadcast. ECGRID:
  /// grid-page, wait τ, then RETIRE. `cause` ("cell_exit" or
  /// "load_balance") is carried to the grid/retire trace record.
  virtual void beginRetire(const geo::GridCoord& forGrid, const char* cause);

  /// No-gateway event detected (paper §3.2 lists the three detectors).
  /// Base: start a re-election among active hosts. ECGRID: page the grid
  /// first so sleepers join.
  virtual void onNoGateway();

  /// A local host we believed sleeping just proved active (HELLO/ACQ).
  virtual void onLocalHostActive(net::NodeId /*host*/) {}

  /// Role transition notification.
  virtual void onRoleChanged(Role /*from*/, Role /*to*/) {}

  /// Runs once per HELLO period while this host is the gateway — ECGRID
  /// hangs its battery-level load-balance check here.
  virtual void gatewayPeriodic() {}

  /// Should hosts seeded into a fresh gateway's table from election-time
  /// HELLOs be presumed asleep? False for GRID (nobody sleeps), true for
  /// ECGRID (members sleep as soon as the gateway declares).
  virtual bool assumeSeededHostsSleep() const { return false; }

  // --- operations shared with derived classes ------------------------------
  Candidate selfCandidate();
  std::shared_ptr<const HelloHeader> makeHelloHeader();
  void sendHello();
  void becomeGateway();
  void stepDownToMember(std::optional<net::NodeId> newGateway);
  void startElection();
  void broadcastRetire(const geo::GridCoord& forGrid,
                       std::vector<RouteRecord> table, const char* cause);
  /// Queue app data while no gateway is reachable; flushed on discovery.
  void queueAppData(std::shared_ptr<const net::Header> header);
  void flushAppQueue();
  void setRole(Role role);
  void noteGatewaySeen(net::NodeId gateway);
  bool gatewayIsStale() const;
  /// Make-before-break: after RETIREing, keep forwarding transit data
  /// until the successor gateway is established, so handovers do not
  /// black-hole in-flight flows ("the new gateway will inherit the
  /// routing table from the original gateway", paper §3).
  void enterGraceRouting();
  void endGraceRouting();
  bool graceRouting() const { return graceRouting_; }
  void unicastFrame(net::NodeId to, std::shared_ptr<const net::Header> header);
  void broadcastFrameRaw(std::shared_ptr<const net::Header> header);

  net::HostEnv& env_;
  GridProtocolConfig config_;
  RoutingEngine engine_;
  HostTable hostTable_;
  NeighbourGatewayTable neighbours_;
  sim::RngStream rng_;

  Role role_ = Role::kUndecided;
  std::uint64_t sleepEntries_ = 0;
  std::optional<geo::GridCoord> servedGrid_;
  std::optional<net::NodeId> currentGateway_;
  sim::Time lastGatewayHello_ = sim::kTimeZero;
  sim::Time lastHelloSent_ = -1.0;

  /// Same-grid HELLO sightings used as the election field.
  struct Sighting {
    Candidate candidate;
    sim::Time lastHeard = sim::kTimeZero;
  };
  std::map<net::NodeId, Sighting> candidates_;

  /// Routing table stored from a RETIRE, adopted if we win the election.
  std::optional<std::vector<RouteRecord>> storedRetireTable_;

  /// Set between entering a new grid and assessing its sitting gateway.
  bool awaitingGatewayAssessment_ = false;

  std::deque<std::shared_ptr<const net::Header>> appPending_;

  sim::EventHandle helloTimer_;
  sim::EventHandle electionTimer_;
  sim::EventHandle newcomerTimer_;
  sim::EventHandle graceTimer_;
  bool graceRouting_ = false;

 private:
  /// Open an election-round trace span (and count the round). Safe to
  /// call with a round already open: no-op until decideElection closes it.
  void beginElectionRound();
  /// Close the open election-round span, if any, recording the outcome.
  void endElectionRound(bool won);

  void helloTick();
  void decideElection();
  void handleHello(const net::Packet& frame, const HelloHeader& hello);
  void handleRetire(const net::Packet& frame, const RetireHeader& retire);
  void handleHandoff(const net::Packet& frame, const HandoffHeader& handoff);
  void handleLeave(const net::Packet& frame, const LeaveHeader& leave);
  void handleAcq(const net::Packet& frame, const AcqHeader& acq);
  void handleData(const net::Packet& frame, const DataHeader& data);
  std::vector<Candidate> freshCandidates(sim::Time window);
  void handOffTo(net::NodeId newGateway);
  RoutingEngine::Hooks makeHooks();

  // Observability (inert without a hub; see obs/observability.hpp).
  obs::Counter mElectionsStarted_;
  obs::Counter mElectionsWon_;
  obs::Counter mRetires_;
  obs::Counter mHandoffs_;
  std::uint32_t electionSeq_ = 0;   ///< per-host round number (span ids)
  std::uint64_t openElectionSpan_ = 0;  ///< 0 = no round in flight
};

ECGRID_LAYOUT_BUDGET(GridProtocolBase, 1336);

}  // namespace ecgrid::protocols
