#include "check/audits.hpp"

#include <sstream>

namespace ecgrid::check {

namespace {

/// With a positive conflict range, a multi-claim only counts as a contest
/// when some claimant pair is physically close enough to exchange the
/// HELLOs that would settle it; range 0 = every multi-claim contests.
bool resolvableContest(const std::vector<GatewaySighting>& claimants,
                       double rangeMeters) {
  if (rangeMeters <= 0.0) return true;
  const double rangeSq = rangeMeters * rangeMeters;
  for (std::size_t i = 0; i < claimants.size(); ++i) {
    for (std::size_t j = i + 1; j < claimants.size(); ++j) {
      if (claimants[i].position.distanceSquaredTo(claimants[j].position) <=
          rangeSq) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

void GatewayUniquenessAudit::observe(
    const std::vector<GatewaySighting>& gateways, AuditContext& context) {
  std::map<geo::GridCoord, std::vector<GatewaySighting>> byGrid;
  for (const GatewaySighting& sighting : gateways) {
    byGrid[sighting.grid].push_back(sighting);
  }

  // Contested grids: start/extend their conflict clocks; report the ones
  // whose contest outlived the grace window.
  std::map<geo::GridCoord, sim::Time> stillContested;
  for (const auto& [grid, claimants] : byGrid) {
    if (claimants.size() <= 1) continue;
    if (!resolvableContest(claimants, conflictRangeMeters_)) continue;
    auto it = conflictSince_.find(grid);
    sim::Time since = it != conflictSince_.end() ? it->second : context.now();
    stillContested[grid] = since;
    if (context.now() - since > conflictGrace_) {
      std::ostringstream os;
      os << "grid " << grid << " has " << claimants.size() << " gateways (";
      for (std::size_t i = 0; i < claimants.size(); ++i) {
        os << (i != 0 ? ", " : "") << claimants[i].id;
      }
      os << ") unresolved for " << context.now() - since << " s";
      context.report(os.str());
    }
  }
  conflictSince_ = std::move(stillContested);
}

void SleepTransmitAudit::observe(const std::vector<SleepTxSighting>& hosts,
                                 AuditContext& context) {
  std::map<net::NodeId, Episode> stillInconsistent;
  for (const SleepTxSighting& host : hosts) {
    if (!host.protocolSleeping) continue;
    const bool radioConsistent = host.radioState == phy::RadioState::kSleep ||
                                 host.radioState == phy::RadioState::kOff ||
                                 host.sleepPending;
    if (radioConsistent) continue;
    // The episode seen last continues only if the host has neither
    // re-entered sleep nor slept its radio since.
    auto it = inconsistentSince_.find(host.id);
    const bool continued =
        it != inconsistentSince_.end() &&
        it->second.protocolSleepEntries == host.protocolSleepEntries &&
        it->second.radioSleeps == host.radioSleeps;
    const sim::Time since = continued ? it->second.since : context.now();
    stillInconsistent[host.id] =
        Episode{since, host.protocolSleepEntries, host.radioSleeps};
    if (context.now() - since > settleGrace_) {
      std::ostringstream os;
      os << "host " << host.id << " has been protocol-sleeping for "
         << context.now() - since << " s while its radio is "
         << phy::toString(host.radioState) << " with no sleep pending";
      context.report(os.str());
    }
  }
  inconsistentSince_ = std::move(stillInconsistent);
}

void BatteryMonotonicityAudit::observe(net::NodeId id, double remainingJ,
                                       AuditContext& context) {
  constexpr double kEpsilonJ = 1e-9;
  auto it = lastRemaining_.find(id);
  if (it != lastRemaining_.end() && remainingJ > it->second + kEpsilonJ) {
    std::ostringstream os;
    os << "host " << id << " battery rose from " << it->second << " J to "
       << remainingJ << " J";
    context.report(os.str());
  }
  lastRemaining_[id] = remainingJ;
}

void RouteLivenessAudit::observe(const std::vector<RouteSighting>& routes,
                                 AuditContext& context) {
  for (const RouteSighting& route : routes) {
    if (route.expired) continue;
    if (net::isBroadcast(route.nextHop)) continue;
    if (!route.nextHopExists) {
      std::ostringstream os;
      os << "router " << route.owner << " holds a live route to "
         << route.destination << " via nonexistent host " << route.nextHop;
      context.report(os.str());
      continue;
    }
    if (route.nextHopAlive) continue;
    const sim::Time deadFor = context.now() - route.nextHopDeadSince;
    if (deadFor > deadGrace_) {
      std::ostringstream os;
      os << "router " << route.owner << " holds a live route to "
         << route.destination << " via host " << route.nextHop
         << " which died " << deadFor << " s ago";
      context.report(os.str());
    }
  }
}

void EventTimeMonotonicityAudit::observe(sim::Time now, sim::Time nextEventTime,
                                         AuditContext& context) {
  if (seen_ && now < lastNow_) {
    std::ostringstream os;
    os << "simulation clock regressed from " << lastNow_ << " to " << now;
    context.report(os.str());
  }
  if (nextEventTime < now) {
    std::ostringstream os;
    os << "next pending event at " << nextEventTime
       << " is before the clock at " << now;
    context.report(os.str());
  }
  seen_ = true;
  lastNow_ = now;
}

}  // namespace ecgrid::check
