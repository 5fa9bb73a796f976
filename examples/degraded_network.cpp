// Degraded network — ECGRID under burst loss and gateway crashes.
//
// The paper evaluates ECGRID on an ideal channel where hosts die only by
// battery depletion. Real deployments are messier: urban multipath fades
// frames in bursts, and the host elected gateway is exactly the one whose
// owner trips over it. This example runs an ECGRID mesh through both at
// once, using the fault layer (src/fault) at its two API levels:
//
//   * a FaultPlan + FaultInjector arm a Gilbert–Elliott channel whose
//     stationary loss is 20 % (bursts of ~20 frames — a deep fade, not
//     i.i.d. sprinkle), and 5 % RAS paging loss on top;
//   * two hosts that are actually serving as gateways at t = 150 s are
//     crashed directly via Node::crash() and rebooted 45 s later with
//     Node::restart() — the protocol stack comes back blank, like a real
//     reboot.
//
// What to watch: delivery sags but does not collapse (the MAC's ARQ eats
// most of the burst losses), and each crashed grid re-elects a gateway
// within a HELLO period or two, so the mesh routes around the hole before
// the crashed hosts even reboot.
#include <cstdio>
#include <exception>
#include <memory>

#include "core/ecgrid_protocol.hpp"
#include "fault/fault_injector.hpp"
#include "mobility/random_waypoint.hpp"
#include "protocols/common/grid_protocol_base.hpp"
#include "stats/packet_accounting.hpp"
#include "util/flags.hpp"

namespace {

using namespace ecgrid;

constexpr double kRunSeconds = 600.0;
constexpr double kCrashAt = 150.0;
constexpr double kRebootAfter = 45.0;

}  // namespace

int main(int argc, char** argv) try {
  const util::Flags flags = util::Flags::parseOrExit(
      argc, argv, {"hosts", "seed"},
      "usage: degraded_network [flags]\n"
      "ECGRID under burst loss and gateway crashes.");
  const int hosts = flags.getInt("hosts", 60);
  const std::uint64_t seed = flags.getUnsigned("seed", 7);

  sim::Simulator simulator(seed);
  net::NetworkConfig netConfig;  // paper radio: 2 Mbps, 250 m, d = 100 m
  net::Network network(simulator, netConfig);

  auto oracle = [&network](net::NodeId id) -> std::optional<geo::GridCoord> {
    net::Node* node = network.findNode(id);
    if (node == nullptr || !node->alive()) return std::nullopt;
    return node->cell();
  };

  mobility::RandomWaypointConfig walk;
  walk.maxSpeed = 1.0;
  for (int i = 0; i < hosts; ++i) {
    net::NodeConfig config;
    config.id = i;
    config.batteryCapacityJ = 500.0;
    net::Node& node = network.addNode(
        std::make_unique<mobility::RandomWaypoint>(
            walk, simulator.rng().stream("walk", i)),
        config);
    // Factory install so restart() can rebuild the stack after a crash.
    node.setProtocolFactory([&node, oracle] {
      core::EcgridConfig config;
      config.base.locationHint = oracle;
      return std::make_unique<core::EcgridProtocol>(node, config);
    });
  }

  // The adverse conditions: a bursty 20 %-loss channel plus flaky paging.
  fault::FaultPlan plan;
  plan.channel.kind = fault::ChannelErrorKind::kGilbertElliott;
  plan.channel.pBadToGood = 0.05;  // mean burst = 20 frames
  plan.channel.pGoodToBad =
      fault::gilbertElliottPGoodToBad(0.20, plan.channel.pBadToGood);
  plan.paging.lossProbability = 0.05;
  fault::FaultInjector injector(simulator, network, plan);

  // Traffic: five hosts each report 200 B to host 0 once per second.
  stats::PacketAccounting accounting;
  for (int i = 1; i <= 5; ++i) {
    auto seq = std::make_shared<std::uint64_t>(0);
    auto send = std::make_shared<std::function<void()>>();
    *send = [&, i, seq, send]() {
      net::Node* src = network.findNode(i);
      net::DataTag tag{static_cast<std::uint64_t>(i), (*seq)++,
                       simulator.now()};
      accounting.onSent(tag.flowId, tag.sequence, src->alive());
      src->sendFromApp(0, 200, tag);
      simulator.schedule(1.0, *send);
    };
    simulator.schedule(1.0 + 0.1 * i, *send);
  }
  network.findNode(0)->setAppReceiveCallback(
      [&](net::NodeId, const net::DataTag& tag, int) {
        accounting.onReceived(tag, simulator.now());
      });

  // At t = 150 s, crash two hosts that are gateways RIGHT NOW — the worst
  // hosts to lose — and reboot them 45 s later.
  auto crashedIds = std::make_shared<std::vector<net::NodeId>>();
  simulator.scheduleAt(kCrashAt, [&network, &simulator, crashedIds] {
    for (auto& node : network.nodes()) {
      if (crashedIds->size() >= 2) break;
      auto* grid =
          dynamic_cast<protocols::GridProtocolBase*>(&node->protocol());
      if (grid == nullptr || !grid->isGateway() || !node->alive()) continue;
      std::printf("  t=%.0f: gateway %d (grid %ld,%ld) crashes\n",
                  simulator.now(), node->id(),
                  static_cast<long>(node->cell().x),
                  static_cast<long>(node->cell().y));
      crashedIds->push_back(node->id());
      net::Node* raw = node.get();
      raw->crash();
      simulator.schedule(kRebootAfter, [raw, &simulator] {
        std::printf("  t=%.0f: host %d reboots with a blank stack\n",
                    simulator.now(), raw->id());
        raw->restart();
      });
    }
  });

  std::printf("Degraded ECGRID mesh: %d hosts, 20%% burst loss, 5%% paging "
              "loss,\ntwo gateway crashes at t=%.0f s (reboot after %.0f "
              "s), %.0f s run\n\n",
              hosts, kCrashAt, kRebootAfter, kRunSeconds);

  network.start();
  simulator.run(kRunSeconds);

  std::printf("\n  delivery rate        %6.2f %%\n",
              100.0 * accounting.deliveryRate());
  std::printf("  mean latency         %6.1f ms\n",
              1e3 * accounting.meanLatency());
  std::printf("  corrupted deliveries %6llu  (channel fault)\n",
              static_cast<unsigned long long>(
                  network.channel().deliveriesCorrupted()));
  std::printf("  pages lost           %6llu  (paging fault)\n",
              static_cast<unsigned long long>(network.paging().pagesLost()));
  std::printf("  alive at end         %zu/%d\n", network.aliveCount(), hosts);
  std::printf("\nThe story: a fifth of all frames corrupt in bursts and two "
              "serving gateways drop\nmid-run, yet delivery stays high — "
              "ARQ rides out the fades and the crashed grids\nre-elect "
              "before the old gateways even finish rebooting.\n");
  return 0;
} catch (const std::exception& e) {
  // A malformed flag value (with usage) or an invalid scenario: a message
  // and exit 2, never std::terminate.
  return ecgrid::util::Flags::exitCodeFor(argv[0], e);
}
