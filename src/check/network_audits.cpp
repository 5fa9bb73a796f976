#include "check/network_audits.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "check/audits.hpp"
#include "protocols/common/grid_protocol_base.hpp"
#include "protocols/gaf/gaf_protocol.hpp"

namespace ecgrid::check {

namespace {

/// Whether the host's protocol is asleep, and how often it has entered
/// sleep (false and 0 for protocols that never sleep).
std::pair<bool, std::uint64_t> protocolSleep(net::Node& node) {
  if (const auto* grid =
          dynamic_cast<const protocols::GridProtocolBase*>(&node.protocol())) {
    return {grid->role() == protocols::GridProtocolBase::Role::kSleeping,
            grid->sleepEntries()};
  }
  if (const auto* gaf =
          dynamic_cast<const protocols::GafProtocol*>(&node.protocol())) {
    return {gaf->state() == protocols::GafProtocol::State::kSleep,
            gaf->sleepEntries()};
  }
  return {false, 0};
}

/// Date a down host: injected crashes stamp Node::crashedAt(), battery
/// deaths stamp the battery. A down host with neither (it cannot happen
/// today, but the audit should not crash if a future death path forgets)
/// is dated at first sight.
sim::Time deadSince(net::Node& node, sim::Time now) {
  if (node.crashed()) return node.crashedAt();
  sim::Time death = node.batteryRef().deathTime();
  return death == sim::kTimeNever ? now : death;
}

}  // namespace

void installStandardAudits(InvariantAuditor& auditor, net::Network& network,
                           const StandardAuditOptions& options) {
  auto gatewayAudit = std::make_shared<GatewayUniquenessAudit>(
      options.gatewayConflictGrace, options.gatewayConflictRangeMeters);
  auditor.add("gateway-uniqueness", [&network, gatewayAudit](
                                        AuditContext& context) {
    std::vector<GatewaySighting> sightings;
    for (auto& node : network.nodes()) {
      if (!node->alive()) continue;  // crashed/dead hosts serve nothing
      auto* grid =
          dynamic_cast<protocols::GridProtocolBase*>(&node->protocol());
      if (grid == nullptr || !grid->servedGrid().has_value()) continue;
      sightings.push_back(GatewaySighting{*grid->servedGrid(), node->id(),
                                          node->truePosition()});
    }
    gatewayAudit->observe(sightings, context);
  });

  auto sleepAudit =
      std::make_shared<SleepTransmitAudit>(options.sleepSettleGrace);
  auditor.add("no-tx-while-sleeping", [&network,
                                       sleepAudit](AuditContext& context) {
    std::vector<SleepTxSighting> sightings;
    for (auto& node : network.nodes()) {
      SleepTxSighting sighting;
      sighting.id = node->id();
      std::tie(sighting.protocolSleeping, sighting.protocolSleepEntries) =
          protocolSleep(*node);
      sighting.radioSleeps = node->radioSleeps();
      sighting.radioState = node->radio().state();
      sighting.sleepPending = node->radio().sleepPending();
      sightings.push_back(sighting);
    }
    sleepAudit->observe(sightings, context);
  });

  auto batteryAudit = std::make_shared<BatteryMonotonicityAudit>();
  auditor.add("battery-monotonicity", [&network,
                                       batteryAudit](AuditContext& context) {
    for (auto& node : network.nodes()) {
      batteryAudit->observe(node->id(),
                            node->batteryRef().remainingJ(context.now()),
                            context);
    }
  });

  auto routeAudit =
      std::make_shared<RouteLivenessAudit>(options.deadNextHopGrace);
  auditor.add("route-next-hop-liveness", [&network,
                                          routeAudit](AuditContext& context) {
    std::vector<RouteSighting> sightings;
    for (auto& node : network.nodes()) {
      auto* grid =
          dynamic_cast<protocols::GridProtocolBase*>(&node->protocol());
      if (grid == nullptr || !node->alive()) continue;
      for (const auto& [destination, entry] :
           grid->routingEngine().routes().entries()) {
        RouteSighting sighting;
        sighting.owner = node->id();
        sighting.destination = destination;
        sighting.nextHop = entry.nextHop;
        sighting.expired = entry.expiry < context.now();
        net::Node* hop = network.findNode(entry.nextHop);
        sighting.nextHopExists =
            hop != nullptr || net::isBroadcast(entry.nextHop);
        sighting.nextHopAlive = hop != nullptr && hop->alive();
        if (hop != nullptr && !hop->alive()) {
          sighting.nextHopDeadSince = deadSince(*hop, context.now());
        }
        sightings.push_back(sighting);
      }
    }
    routeAudit->observe(sightings, context);
  });

  auto timeAudit = std::make_shared<EventTimeMonotonicityAudit>();
  auditor.add("event-time-monotonicity",
              [&network, timeAudit](AuditContext& context) {
                sim::Simulator& sim = network.simulator();
                timeAudit->observe(sim.now(), sim.nextEventTime(), context);
              });

  // Channel bookkeeping: every alive host holds exactly one live channel
  // attachment — battery deaths detach in onDeath, injected crashes in
  // Node::crash (and restarts re-attach) — so a drifting count means a
  // leaked tombstone slot, a double detach, or a crash path that forgot
  // to release (or a restart that forgot to re-take) its slot.
  auditor.add("channel-attachment-count", [&network](AuditContext& context) {
    std::size_t live = network.channel().liveAttachmentCount();
    std::size_t alive = network.aliveCount();
    std::size_t crashed = 0;
    for (auto& node : network.nodes()) {
      if (node->crashed()) ++crashed;
    }
    if (live != alive) {
      context.report("channel has " + std::to_string(live) +
                     " live attachments but " + std::to_string(alive) +
                     " hosts are alive (" + std::to_string(crashed) +
                     " crashed)");
    }
  });
}

}  // namespace ecgrid::check
