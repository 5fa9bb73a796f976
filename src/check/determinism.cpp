#include "check/determinism.hpp"

#include "net/network.hpp"
#include "net/node.hpp"
#include "protocols/common/grid_protocol_base.hpp"
#include "protocols/gaf/gaf_protocol.hpp"

namespace ecgrid::check {

namespace {

void mixCoord(Fnv1a& h, const geo::GridCoord& c) {
  h.mixI64(c.x);
  h.mixI64(c.y);
}

void mixRoutingTable(Fnv1a& h, const protocols::RoutingTable& table) {
  h.mixU64(table.size());
  for (const auto& [destination, entry] : table.entries()) {
    h.mixI64(destination);
    mixCoord(h, entry.nextGrid);
    mixCoord(h, entry.destGrid);
    h.mixI64(entry.nextHop);
    h.mixU64(entry.destSeq);
    h.mixDouble(entry.expiry);
    h.mixI64(entry.hopCount);
  }
}

void mixRoutingStats(Fnv1a& h, const protocols::RoutingStats& s) {
  h.mixU64(0);  // slot of a removed, never-set counter: keeps digests pinned
  h.mixU64(s.dataForwarded);
  h.mixU64(s.dataDeliveredLocal);
  h.mixU64(s.dataDropped);
  h.mixU64(s.rreqsSent);
  h.mixU64(s.rrepsSent);
  h.mixU64(s.rerrsSent);
  h.mixU64(s.discoveriesStarted);
  h.mixU64(s.discoveriesFailed);
}

void mixProtocol(Fnv1a& h, net::RoutingProtocol& protocol) {
  h.mixString(protocol.name());
  if (auto* base = dynamic_cast<protocols::GridProtocolBase*>(&protocol)) {
    h.mixI64(static_cast<int>(base->role()));
    h.mixBool(base->servedGrid().has_value());
    if (base->servedGrid()) mixCoord(h, *base->servedGrid());
    h.mixBool(base->currentGateway().has_value());
    if (base->currentGateway()) h.mixI64(*base->currentGateway());
    mixRoutingStats(h, base->routingStats());
    mixRoutingTable(h, base->routingEngine().routes());
    mixRoutingTable(h, base->routingEngine().reverseRoutes());
  } else if (auto* gaf = dynamic_cast<protocols::GafProtocol*>(&protocol)) {
    h.mixI64(static_cast<int>(gaf->state()));
    mixRoutingStats(h, gaf->routingStats());
  }
}

}  // namespace

std::uint64_t stateDigest(net::Network& network) {
  Fnv1a h;
  const sim::Time now = network.simulator().now();
  h.mixDouble(now);

  h.mixU64(network.nodes().size());
  for (auto& nodePtr : network.nodes()) {
    net::Node& node = *nodePtr;
    h.mixI64(node.id());
    h.mixBool(node.alive());
    h.mixBool(node.crashed());
    h.mixI64(static_cast<int>(node.radio().state()));

    // Believed position and cell — what the protocol acts on. True
    // position is mobility(now) and thus covered transitively.
    const geo::Vec2 pos = node.position();
    h.mixDouble(pos.x);
    h.mixDouble(pos.y);
    mixCoord(h, node.cell());

    // A crashed host's battery is frozen at the crash instant, so hash
    // the freeze marker instead. Live batteries are peeked, never
    // advanced: a committed read would chunk the drain integral at
    // digest-sample times, and under tie-break perturbation the n-th
    // event lands at a different instant, leaving ulp-level residue in
    // the accumulator that masquerades as real divergence.
    if (node.crashed()) {
      h.mixDouble(node.crashedAt());
    } else {
      h.mixDouble(node.batteryRef().peekRemainingJ(now));
    }

    h.mixU64(node.mac().framesSent());
    h.mixU64(node.mac().framesDropped());
    h.mixU64(node.mac().retransmissions());
    h.mixU64(node.mac().acksSent());
    h.mixU64(node.mac().acksSkipped());
    h.mixU64(node.mac().queueDepth());

    mixProtocol(h, node.protocol());
  }

  h.mixU64(network.channel().framesTransmitted());
  h.mixU64(network.channel().deliveriesCorrupted());
  h.mixU64(network.paging().pagesSent());
  h.mixU64(network.paging().pagesLost());
  return h.value();
}

}  // namespace ecgrid::check
