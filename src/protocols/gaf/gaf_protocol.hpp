// GAF — Geographical Adaptive Fidelity (Xu, Heidemann, Estrin, MobiCom'01),
// re-implemented as the paper's second baseline (§1, §4).
//
// GAF partitions the plane into the same grids and keeps one *leader*
// (active node) per grid, but manages activity with timers instead of a
// gateway protocol:
//   * Discovery: radio on, beacon, listen for Td; an existing leader or a
//     higher-ranked discoverer sends the node to sleep, otherwise it
//     becomes the leader;
//   * Active: lead (route) for Ta — bounded by the GPS dwell estimate —
//     then return to Discovery so the grid load-balances;
//   * Sleep: radio off for Ts, then wake into Discovery. Sleepers wake
//     *periodically*; there is no paging. Consequently GAF cannot wake a
//     sleeping destination — the deficiency ECGRID fixes — so the paper's
//     evaluation grants GAF "Model 1": ten infinite-energy, always-active
//     endpoint hosts that source/sink all traffic and never forward.
//
// Ranking: active beats discovery; ties break by higher remaining battery
// ratio (our stand-in for GAF's expected-node-active-time), then lower id.
#pragma once

#include <cstdint>

#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "net/host_env.hpp"
#include "net/routing_protocol.hpp"
#include "protocols/common/messages.hpp"
#include "protocols/common/routing_engine.hpp"
#include "sim/rng.hpp"
#include "util/ownership.hpp"

namespace ecgrid::protocols {

/// GAF discovery beacon: node id, grid, state, rank, and the announced
/// remaining active time (enat) sleepers base Ts on.
class GafDiscoveryHeader final : public net::HeaderOf<GafDiscoveryHeader> {
 public:
  enum class NodeState : std::uint8_t { kDiscovery, kActive, kEndpoint };

  GafDiscoveryHeader(net::NodeId id, geo::GridCoord grid, NodeState state,
                     double rank, double enatRemaining, geo::Vec2 position)
      : id_(id), grid_(grid), state_(state), rank_(rank),
        enatRemaining_(enatRemaining), position_(position) {}

  net::NodeId id() const { return id_; }
  const geo::GridCoord& grid() const { return grid_; }
  NodeState state() const { return state_; }
  double rank() const { return rank_; }
  double enatRemaining() const { return enatRemaining_; }
  const geo::Vec2& position() const { return position_; }

  int bytes() const override { return 32; }
  const char* name() const override { return "GAF-DISC"; }

 private:
  net::NodeId id_;
  geo::GridCoord grid_;
  NodeState state_;
  double rank_;
  double enatRemaining_;
  geo::Vec2 position_;
};

struct GafConfig {
  sim::Time beaconInterval = 2.0;   ///< discovery-message period when awake
  double beaconJitterFrac = 0.1;
  sim::Time discoveryWindow = 0.6;  ///< Td
  sim::Time maxActiveTime = 60.0;   ///< Ta cap
  sim::Time maxSleepTime = 60.0;    ///< Ts cap
  sim::Time minSleepTime = 1.0;
  sim::Time sightingStale = 5.0;    ///< same-grid/neighbour table freshness
  std::size_t appPendingLimit = 32;
  RoutingConfig routing;
  bool endpointMode = false;        ///< Model-1 endpoint (see header comment)
  std::function<std::optional<geo::GridCoord>(net::NodeId)> locationHint;
};

class ECGRID_DOMAIN_PER_HOST GafProtocol final : public net::RoutingProtocol {
 public:
  enum class State : std::uint8_t { kDiscovery, kActive, kSleep, kDead };

  GafProtocol(net::HostEnv& env, const GafConfig& config);

  const char* name() const override { return "GAF"; }
  void start() override;
  void onFrame(const net::Packet& packet) override;
  void sendData(net::NodeId destination, int payloadBytes,
                const net::DataTag& tag) override;
  void onPaged(const net::PageSignal& signal) override;
  void onSendFailed(const net::Packet& packet) override;
  void onCellChanged(const geo::GridCoord& from,
                     const geo::GridCoord& to) override;
  void onShutdown() override;

  State state() const { return state_; }
  /// Times this host has entered State::kSleep.
  std::uint64_t sleepEntries() const { return sleepEntries_; }
  bool isLeader() const { return state_ == State::kActive; }
  const RoutingStats& routingStats() const { return engine_.stats(); }

 private:
  struct Sighting {
    GafDiscoveryHeader::NodeState state = GafDiscoveryHeader::NodeState::kDiscovery;
    double rank = 0.0;
    double enatRemaining = 0.0;
    sim::Time lastHeard = sim::kTimeZero;
    geo::GridCoord grid;
    geo::Vec2 position;
  };

  void enterDiscovery();
  void becomeActive();
  void sleepFor(sim::Time duration);
  void beacon();
  void beaconTick();
  void endDiscovery();
  double myRank();
  /// Fresh same-grid leader, if any.
  std::optional<net::NodeId> localLeader();
  void flushAppQueue();
  void handleDiscovery(const net::Packet& frame,
                       const GafDiscoveryHeader& disc);
  RoutingEngine::Hooks makeHooks();
  void unicastFrame(net::NodeId to, std::shared_ptr<const net::Header> header);

  net::HostEnv& env_;
  GafConfig config_;
  RoutingEngine engine_;
  sim::RngStream rng_;

  State state_ = State::kDiscovery;
  std::uint64_t sleepEntries_ = 0;
  sim::Time activeUntil_ = sim::kTimeZero;
  /// Instant discovery was last (re-)entered. Ta is bounded by the GPS
  /// dwell estimate, so the active-handover timer and the grid tracker's
  /// cell-crossing event land at the same instant; this timestamp lets
  /// onCellChanged recognise that the co-scheduled timer already ran the
  /// handover, making the pair commute under either execution order.
  sim::Time discoveryStartedAt_ = -1.0;
  std::map<net::NodeId, Sighting> sightings_;  ///< all grids, pruned lazily
  std::deque<std::shared_ptr<const net::Header>> appPending_;

  sim::EventHandle stateTimer_;
  sim::EventHandle beaconTimer_;
};

}  // namespace ecgrid::protocols
