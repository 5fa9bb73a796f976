// Grid-by-grid route discovery and data forwarding (paper §3.3–3.4).
//
// This is the AODV-derived core that GRID introduced and ECGRID inherits:
//   * RREQ flooding among gateways, confined to a search rectangle
//     (smallest rectangle covering source and destination grids, grown by
//     a margin), with (S, id) duplicate suppression and a global re-search
//     when the confined search fails;
//   * reverse pointers laid down by RREQs, RREPs unicast back along them,
//     forward routes laid down by RREPs;
//   * data forwarded gateway-to-gateway along forward routes, with local
//     repair (buffer + re-discover) when the next hop evaporates, and
//     RERR propagation toward the source when repair fails.
//
// The engine is deliberately ignorant of *who* routes: it asks its owner
// through Hooks whether this host is currently the grid's router, who
// routes a neighbouring grid, whether a destination host lives in this
// grid, and how to hand a packet to a local host. That lets one engine
// serve GRID gateways, ECGRID gateways (which wake sleeping destinations
// before the final hop), and GAF leaders.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "geo/rect.hpp"
#include "net/host_env.hpp"
#include "obs/metrics.hpp"
#include "protocols/common/messages.hpp"
#include "protocols/common/routing_table.hpp"
#include "protocols/common/tables.hpp"
#include "sim/rng.hpp"
#include "util/hot_path.hpp"
#include "util/ownership.hpp"

namespace ecgrid::protocols {

struct RoutingConfig {
  sim::Time routeLifetime = 10.0;
  sim::Time rreqCacheHorizon = 5.0;
  /// Hops are only formed/used between routers whose last-known positions
  /// are within this distance — slightly inside radio range so mobility
  /// between beacon and use does not carry the pair out of reach.
  double maxForwardDistance = 230.0;
  /// Re-route attempts per data frame after link-layer failures.
  int maxRouteRetries = 2;
  sim::Time rrepTimeout = 0.3;      ///< per discovery attempt
  int maxDiscoveryAttempts = 3;     ///< first confined, rest global
  int rangeMargin = 1;              ///< cells added around the S–D rectangle
  bool confinedSearch = true;       ///< false = always flood globally
  int maxHops = 64;
  std::size_t pendingLimit = 64;    ///< buffered data per destination
};

struct RoutingStats {
  std::uint64_t dataForwarded = 0;
  std::uint64_t dataDeliveredLocal = 0;
  std::uint64_t dataDropped = 0;
  std::uint64_t rreqsSent = 0;
  std::uint64_t rrepsSent = 0;
  std::uint64_t rerrsSent = 0;
  std::uint64_t discoveriesStarted = 0;
  std::uint64_t discoveriesFailed = 0;
};

class ECGRID_DOMAIN_PER_HOST RoutingEngine {
 public:
  struct Hooks {
    /// Is this host currently the router (gateway/leader) of its grid?
    std::function<bool()> isRouter;
    /// May this host *relay* route requests? Defaults to isRouter when
    /// unset. GAF Model-1 endpoints route for themselves (isRouter true)
    /// but never relay or forward for others.
    std::function<bool()> mayRelayRreq;
    /// Believed router of a (neighbouring) grid, if known.
    std::function<std::optional<net::NodeId>(const geo::GridCoord&)> routerOf;
    /// Does `host` live in this grid (i.e. should we do the final hop)?
    std::function<bool(net::NodeId)> hostIsLocal;
    /// Final hop: get `packet` (a DATA frame) to local host `dst`.
    /// ECGRID buffers + pages sleeping hosts here.
    std::function<void(net::NodeId dst, const net::Packet& packet)>
        deliverLocal;
    /// Best known grid of a destination host (location service / GPS
    /// assumption); nullopt forces a global search.
    std::function<std::optional<geo::GridCoord>(net::NodeId)> locationHint;
    /// A routing message proved that `id` currently routes `grid` from
    /// `position` — warm the owner's router table so the freshly
    /// discovered hops resolve immediately.
    std::function<void(const geo::GridCoord& grid, net::NodeId id,
                       const geo::Vec2& position)>
        observeRouter;
  };

  RoutingEngine(net::HostEnv& env, Hooks hooks, const RoutingConfig& config);

  // --- owner-facing ---------------------------------------------------
  /// Route + forward one data frame. Called both for data this router
  /// originates on behalf of a local host and for transit data.
  void routeData(const net::Packet& frame, const DataHeader& data);

  /// Frame dispatch; returns true when the frame was a routing message
  /// this engine consumed (RREQ/RREP/RERR/DATA).
  bool onFrame(const net::Packet& frame);

  /// This host stopped being its grid's router: cancel discoveries, drop
  /// buffered transit data (the paper hands the routing table over
  /// separately via RETIRE/HANDOFF).
  void stopRouting();

  RoutingTable& routes() { return routes_; }
  RoutingTable& reverseRoutes() { return reverse_; }
  const RoutingStats& stats() const { return stats_; }

 private:
  struct Discovery {
    int attempts = 0;
    sim::EventHandle timeout;
    std::deque<net::Packet> pendingData;
  };

  void onRreq(const net::Packet& frame, const RreqHeader& rreq);
  void onRrep(const net::Packet& frame, const RrepHeader& rrep);
  void onRerr(const net::Packet& frame, const RerrHeader& rerr);

  void startDiscovery(net::NodeId destination, const net::Packet& firstData);
  void sendRreqAttempt(net::NodeId destination, Discovery& discovery);
  void onDiscoveryTimeout(net::NodeId destination);
  void completeDiscovery(net::NodeId destination);
  void failDiscovery(net::NodeId destination);

  void replyAsDestinationSide(const RreqHeader& rreq);
  void forwardRrep(const RrepHeader& rrep);
  void sendRerrTowards(net::NodeId source, net::NodeId destination,
                       SeqNo destSeq);

  /// Unicast `header` to the believed router of `grid`, or — when none is
  /// known — to `fallbackHop` (the node that taught us this route), if
  /// given. False when neither resolves. `routeRetries` is carried on the
  /// frame for link-failure bookkeeping.
  bool unicastToGridRouter(const geo::GridCoord& grid,
                           std::shared_ptr<const net::Header> header,
                           int routeRetries = 0,
                           net::NodeId fallbackHop = net::kBroadcastId);
  void broadcastFrame(std::shared_ptr<const net::Header> header);

  net::HostEnv& env_;
  Hooks hooks_;
  RoutingConfig config_;

  RoutingTable routes_;
  RoutingTable reverse_;
  RreqCache rreqCache_;
  std::map<net::NodeId, Discovery> discoveries_;
  std::map<net::NodeId, SeqNo> ownSeq_;  ///< d_seq we answer for local hosts

  sim::RngStream rng_;
  SeqNo sourceSeq_ = 0;
  RoutingStats stats_;
  // Registry mirrors of stats_ (inert without an Observability hub; see
  // obs/observability.hpp). Shared across engines on the simulator.
  obs::Counter mDataForwarded_;
  obs::Counter mDataDeliveredLocal_;
  obs::Counter mDataDropped_;
  obs::Counter mRreqsSent_;
  obs::Counter mRrepsSent_;
  obs::Counter mRerrsSent_;
  obs::Counter mDiscoveriesStarted_;
  obs::Counter mDiscoveriesFailed_;
};

ECGRID_LAYOUT_BUDGET(RoutingEngine, 712);

}  // namespace ecgrid::protocols
