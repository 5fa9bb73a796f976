#include "protocols/common/tables.hpp"

namespace ecgrid::protocols {

bool RreqCache::firstSighting(net::NodeId source, std::uint32_t requestId,
                              sim::Time now) {
  sweep(now);
  auto key = std::make_pair(source, requestId);
  auto [it, inserted] = seen_.try_emplace(key, now);
  if (!inserted) {
    it->second = now;  // keep suppressing while copies circulate
    return false;
  }
  return true;
}

void RreqCache::sweep(sim::Time now) {
  // Amortised: sweep at most once per horizon.
  if (now - lastSweep_ < horizon_) return;
  lastSweep_ = now;
  for (auto it = seen_.begin(); it != seen_.end();) {
    if (now - it->second > horizon_) {
      it = seen_.erase(it);
    } else {
      ++it;
    }
  }
}

const NeighbourGatewayTable::Entry* NeighbourGatewayTable::find(
    const geo::GridCoord& grid) const {
  for (const Entry& entry : entries_) {
    if (entry.grid == grid) return &entry;
  }
  return nullptr;
}

void NeighbourGatewayTable::observe(const geo::GridCoord& grid,
                                    net::NodeId gateway,
                                    const geo::Vec2& position, sim::Time now) {
  const Entry fresh{grid, gateway, position, now};
  if (const Entry* entry = find(grid)) {
    entries_[static_cast<std::size_t>(entry - entries_.data())] = fresh;
  } else {
    entries_.push_back(fresh);
  }
}

void NeighbourGatewayTable::forget(const geo::GridCoord& grid,
                                   net::NodeId gateway) {
  std::erase_if(entries_, [&](const Entry& entry) {
    return entry.grid == grid && entry.gateway == gateway;
  });
}

void NeighbourGatewayTable::forgetById(net::NodeId gateway) {
  std::erase_if(entries_,
                [&](const Entry& entry) { return entry.gateway == gateway; });
}

std::optional<net::NodeId> NeighbourGatewayTable::gatewayOf(
    const geo::GridCoord& grid, sim::Time now) const {
  const Entry* entry = find(grid);
  if (entry == nullptr) return std::nullopt;
  if (now - entry->lastHeard > staleAfter_) return std::nullopt;
  return entry->gateway;
}

std::optional<net::NodeId> NeighbourGatewayTable::gatewayOf(
    const geo::GridCoord& grid, sim::Time now, const geo::Vec2& from,
    double maxDistance) const {
  const Entry* entry = find(grid);
  if (entry == nullptr) return std::nullopt;
  if (now - entry->lastHeard > staleAfter_) return std::nullopt;
  if (from.distanceTo(entry->position) > maxDistance) return std::nullopt;
  return entry->gateway;
}

void HostTable::markActive(net::NodeId host, sim::Time now) {
  hosts_[host] = Entry{false, now};
}

void HostTable::markSleeping(net::NodeId host, sim::Time now) {
  hosts_[host] = Entry{true, now};
}

void HostTable::remove(net::NodeId host) { hosts_.erase(host); }

bool HostTable::contains(net::NodeId host, sim::Time) const {
  return hosts_.count(host) > 0;
}

bool HostTable::isSleeping(net::NodeId host, sim::Time now) const {
  auto it = hosts_.find(host);
  if (it == hosts_.end()) return false;
  if (it->second.sleeping) return true;
  // An "active" host that stopped HELLOing is presumed to have slept.
  return now - it->second.lastSeen > activeStaleAfter_;
}

void HostTable::demoteStaleActives(sim::Time now) {
  for (auto& [host, entry] : hosts_) {
    if (!entry.sleeping && now - entry.lastSeen > activeStaleAfter_) {
      entry.sleeping = true;
    }
  }
}

std::vector<std::pair<net::NodeId, bool>> HostTable::exportEntries() const {
  std::vector<std::pair<net::NodeId, bool>> out;
  out.reserve(hosts_.size());
  for (const auto& [host, entry] : hosts_) {
    out.emplace_back(host, entry.sleeping);
  }
  return out;
}

void HostTable::importEntries(
    const std::vector<std::pair<net::NodeId, bool>>& entries, sim::Time now) {
  for (const auto& [host, sleeping] : entries) {
    hosts_[host] = Entry{sleeping, now};
  }
}

}  // namespace ecgrid::protocols
