// Small protocol-state tables: RREQ duplicate cache, neighbour-gateway
// table, and the gateway's host table (paper §3).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "geo/grid.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"
#include "util/hot_path.hpp"
#include "util/ownership.hpp"

namespace ecgrid::protocols {

/// Detects duplicate RREQs by (source, requestId) (paper §3.3: "The pair
/// (S, id) can be used to detect duplicate RREQ packets").
class ECGRID_DOMAIN_PER_HOST RreqCache {
 public:
  explicit RreqCache(sim::Time horizon) : horizon_(horizon) {}

  /// Returns true the first time this (source, id) is seen within the
  /// horizon; later sightings return false.
  bool firstSighting(net::NodeId source, std::uint32_t requestId,
                     sim::Time now);

  std::size_t size() const { return seen_.size(); }

 private:
  void sweep(sim::Time now);

  sim::Time horizon_;
  std::map<std::pair<net::NodeId, std::uint32_t>, sim::Time> seen_;
  sim::Time lastSweep_ = sim::kTimeZero;
};

/// Which host is gatewaying each nearby grid, learned from overheard
/// gateway-flagged HELLOs (which carry the sender's GPS position).
/// Entries age out when the gateway goes quiet; lookups are range-checked
/// so a gateway that has drifted out of radio reach is not offered as a
/// next hop. A host hears the gateways of a handful of grids, so the table
/// is a flat vector searched linearly, in no particular order.
class ECGRID_DOMAIN_PER_HOST NeighbourGatewayTable {
 public:
  explicit NeighbourGatewayTable(sim::Time staleAfter)
      : staleAfter_(staleAfter) {}

  void observe(const geo::GridCoord& grid, net::NodeId gateway,
               const geo::Vec2& position, sim::Time now);

  /// Forget a specific association (e.g. after a RETIRE from that host).
  void forget(const geo::GridCoord& grid, net::NodeId gateway);

  /// Drop every entry pointing at `gateway` (a unicast to it just failed).
  void forgetById(net::NodeId gateway);

  /// Current believed gateway of `grid`, if fresh and — when `from` is
  /// given — last heard within `maxDistance` of `from`.
  std::optional<net::NodeId> gatewayOf(const geo::GridCoord& grid,
                                       sim::Time now) const;
  std::optional<net::NodeId> gatewayOf(const geo::GridCoord& grid,
                                       sim::Time now, const geo::Vec2& from,
                                       double maxDistance) const;

  void clear() { entries_.clear(); }

 private:
  struct Entry {
    geo::GridCoord grid;
    net::NodeId gateway = net::kBroadcastId;
    geo::Vec2 position;
    sim::Time lastHeard = sim::kTimeZero;
  };
  ECGRID_LAYOUT_BUDGET(Entry, 40);
  /// The entry for `grid`, or nullptr.
  const Entry* find(const geo::GridCoord& grid) const;
  sim::Time staleAfter_;
  std::vector<Entry> entries_;
};

/// The gateway's table of hosts in its grid with their mode (paper §3:
/// "host ID and status (transmit/sleep mode)"). Active entries age out
/// when their HELLOs stop; sleeping entries persist until the host leaves,
/// dies visibly (paging timeout), or the table is handed over.
class ECGRID_DOMAIN_PER_HOST HostTable {
 public:
  explicit HostTable(sim::Time activeStaleAfter)
      : activeStaleAfter_(activeStaleAfter) {}

  void markActive(net::NodeId host, sim::Time now);
  void markSleeping(net::NodeId host, sim::Time now);
  void remove(net::NodeId host);
  void clear() { hosts_.clear(); }

  bool contains(net::NodeId host, sim::Time now) const;
  bool isSleeping(net::NodeId host, sim::Time now) const;

  /// Every active host whose HELLO is stale is presumed asleep (the
  /// ECGRID post-election convention: non-gateways stop HELLOing when they
  /// enter sleep mode).
  void demoteStaleActives(sim::Time now);

  std::vector<std::pair<net::NodeId, bool>> exportEntries() const;
  void importEntries(const std::vector<std::pair<net::NodeId, bool>>& entries,
                     sim::Time now);

  std::size_t size() const { return hosts_.size(); }

 private:
  struct Entry {
    bool sleeping = false;
    sim::Time lastSeen = sim::kTimeZero;
  };
  ECGRID_LAYOUT_BUDGET(Entry, 16);
  sim::Time activeStaleAfter_;
  std::map<net::NodeId, Entry> hosts_;
};

}  // namespace ecgrid::protocols
