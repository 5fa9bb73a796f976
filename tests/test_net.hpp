// Shared fixture helpers: tiny deterministic networks with hand-placed
// hosts for protocol-level tests.
#pragma once

#include <memory>
#include <vector>

#include "core/ecgrid_protocol.hpp"
#include "mobility/mobility_model.hpp"
#include "net/network.hpp"
#include "obs/observability.hpp"
#include "protocols/gaf/gaf_protocol.hpp"
#include "protocols/grid/grid_protocol.hpp"
#include "sim/simulator.hpp"

namespace ecgrid::test {

/// A network of hand-placed hosts sharing one simulator. Protocols are
/// installed per node via the install* helpers; positions are static
/// unless a scripted model is supplied.
struct TestNet {
  /// Tag for the constructor that installs an obs::Observability hub.
  struct WithHub {};

  sim::Simulator simulator{12345};
  /// Null unless built WithHub. Declared before the network so every
  /// layer registers its counters on the hub's registry.
  std::unique_ptr<obs::Observability> hub;
  net::Network network;

  explicit TestNet(net::NetworkConfig config = {})
      : network(simulator, config) {}
  explicit TestNet(WithHub, net::NetworkConfig config = {})
      : hub(std::make_unique<obs::Observability>(simulator)),
        network(simulator, config) {}

  net::Node& addStatic(net::NodeId id, geo::Vec2 position,
                       double batteryJ = 500.0) {
    net::NodeConfig config;
    config.id = id;
    config.batteryCapacityJ = batteryJ;
    return network.addNode(std::make_unique<mobility::StaticMobility>(position),
                           config);
  }

  net::Node& addScripted(net::NodeId id,
                         std::vector<mobility::ScriptedMobility::Leg> legs,
                         double batteryJ = 500.0) {
    net::NodeConfig config;
    config.id = id;
    config.batteryCapacityJ = batteryJ;
    return network.addNode(
        std::make_unique<mobility::ScriptedMobility>(std::move(legs)), config);
  }

  void installGrid(net::Node& node,
                   protocols::GridProtocolConfig config = {}) {
    node.setProtocol(
        std::make_unique<protocols::GridProtocol>(node, std::move(config)));
  }

  void installEcgrid(net::Node& node, core::EcgridConfig config = {}) {
    node.setProtocol(std::make_unique<core::EcgridProtocol>(node, config));
  }

  void installGaf(net::Node& node, protocols::GafConfig config = {}) {
    node.setProtocol(std::make_unique<protocols::GafProtocol>(node, config));
  }

  void installGridEverywhere(protocols::GridProtocolConfig config = {}) {
    for (auto& node : network.nodes()) installGrid(*node, config);
  }

  void installEcgridEverywhere(core::EcgridConfig config = {}) {
    for (auto& node : network.nodes()) installEcgrid(*node, config);
  }

  void start(sim::Time warmup = 0.0) {
    network.start();
    if (warmup > 0.0) simulator.run(warmup);
  }

  protocols::GridProtocolBase& gridProtocolOf(net::NodeId id) {
    auto* proto = dynamic_cast<protocols::GridProtocolBase*>(
        &network.findNode(id)->protocol());
    if (proto == nullptr) throw std::logic_error("not a grid-family protocol");
    return *proto;
  }

  core::EcgridProtocol& ecgridOf(net::NodeId id) {
    auto* proto =
        dynamic_cast<core::EcgridProtocol*>(&network.findNode(id)->protocol());
    if (proto == nullptr) throw std::logic_error("not ECGRID");
    return *proto;
  }

  /// Ids of all current gateways (grid-family protocols only).
  std::vector<net::NodeId> gateways() {
    std::vector<net::NodeId> out;
    for (auto& node : network.nodes()) {
      auto* proto =
          dynamic_cast<protocols::GridProtocolBase*>(&node->protocol());
      if (proto != nullptr && proto->isGateway()) out.push_back(node->id());
    }
    return out;
  }
};

}  // namespace ecgrid::test
