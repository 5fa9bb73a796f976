// Disaster-relief deployment — the paper's motivating scenario family
// ("natural disasters, battle fields": rapidly deployed, no infrastructure,
// batteries are everything).
//
// A search-and-rescue operation covers a 1 km² collapsed-structures zone:
//   * a static command post in one corner;
//   * field teams sweeping the area on foot (slow random waypoint);
//   * every team reports a status packet to the command post every few
//     seconds, and the post periodically pushes tasking to a team.
// The question a mission planner asks: with ECGRID, how much longer does
// the mesh outlive a plain GRID deployment, and is any reporting lost?
#include <cstdio>
#include <exception>
#include <memory>

#include "core/ecgrid_protocol.hpp"
#include "mobility/random_waypoint.hpp"
#include "protocols/grid/grid_protocol.hpp"
#include "stats/energy_recorder.hpp"
#include "stats/packet_accounting.hpp"
#include "util/flags.hpp"

namespace {

using namespace ecgrid;

struct MissionResult {
  double earlyReportPct = 0.0;       ///< delivery during minutes 0–10
  double lateReportPct = 0.0;        ///< delivery during minutes 10–13
  std::uint64_t lateReportCount = 0;  ///< absolute deliveries after min 10
  double taskingDeliveryPct = 0.0;
  double meshAliveAtEnd = 0.0;
  sim::Time firstRadioDeath = sim::kTimeNever;
};

constexpr double kMissionSeconds = 780.0;  // a 13-minute operation
constexpr double kLateWindowStart = 600.0;

MissionResult runMission(bool useEcgrid, int teams, std::uint64_t seed) {
  sim::Simulator simulator(seed);
  net::NetworkConfig netConfig;  // paper radio: 2 Mbps, 250 m, d = 100 m
  net::Network network(simulator, netConfig);

  // Location oracle: rescue teams carry GPS and share coarse positions.
  auto oracle = [&network](net::NodeId id) -> std::optional<geo::GridCoord> {
    net::Node* node = network.findNode(id);
    if (node == nullptr || !node->alive()) return std::nullopt;
    return node->cell();
  };

  auto installProtocol = [&](net::Node& node) {
    if (useEcgrid) {
      core::EcgridConfig config;
      config.base.locationHint = oracle;
      node.setProtocol(std::make_unique<core::EcgridProtocol>(node, config));
    } else {
      protocols::GridProtocolConfig config;
      config.locationHint = oracle;
      node.setProtocol(
          std::make_unique<protocols::GridProtocol>(node, config));
    }
  };

  // Command post: corner of the zone, generator-powered (infinite).
  const net::NodeId kPost = 0;
  {
    net::NodeConfig config;
    config.id = kPost;
    config.infiniteBattery = true;
    net::Node& node = network.addNode(
        std::make_unique<mobility::StaticMobility>(geo::Vec2{60.0, 60.0}),
        config);
    installProtocol(node);
  }
  // Field teams: battery radios, walking pace.
  mobility::RandomWaypointConfig walk;
  walk.maxSpeed = 1.5;  // m/s, on foot through rubble
  walk.pauseTime = 20.0;
  for (int i = 1; i <= teams; ++i) {
    net::NodeConfig config;
    config.id = i;
    config.batteryCapacityJ = 500.0;
    net::Node& node = network.addNode(
        std::make_unique<mobility::RandomWaypoint>(
            walk, simulator.rng().stream("walk", i)),
        config);
    installProtocol(node);
  }

  stats::PacketAccounting earlyReports;  // team -> post, minutes 0–9
  stats::PacketAccounting lateReports;   // team -> post, minutes 10–15
  stats::PacketAccounting tasking;       // post -> team
  for (std::size_t i = 0; i < network.nodeCount(); ++i) {
    net::Node& node = network.node(i);
    if (node.id() == kPost) {
      node.setAppReceiveCallback(
          [&](net::NodeId, const net::DataTag& tag, int) {
            (tag.sentAt < kLateWindowStart ? earlyReports : lateReports)
                .onReceived(tag, simulator.now());
          });
    } else {
      node.setAppReceiveCallback(
          [&](net::NodeId, const net::DataTag& tag, int) {
            tasking.onReceived(tag, simulator.now());
          });
    }
  }
  stats::EnergyRecorder recorder(network, 10.0);

  // Status reports: each team, one 200 B packet every 5 s (staggered).
  // Self-rescheduling closures live on the heap so they outlive this
  // set-up scope.
  for (int i = 1; i <= teams; ++i) {
    double phase = simulator.rng().stream("phase", i).uniform(0.0, 5.0);
    auto seq = std::make_shared<std::uint64_t>(0);
    auto report = std::make_shared<std::function<void()>>();
    *report = [&, i, seq, report]() {
      net::Node* team = network.findNode(i);
      if (team == nullptr) return;
      net::DataTag tag{static_cast<std::uint64_t>(i), (*seq)++,
                       simulator.now()};
      (simulator.now() < kLateWindowStart ? earlyReports : lateReports)
          .onSent(tag.flowId, tag.sequence, team->alive());
      team->sendFromApp(kPost, 200, tag);
      simulator.schedule(5.0, *report);
    };
    simulator.schedule(1.0 + phase, *report);
  }
  // Tasking: the post addresses a rotating team once per second.
  {
    auto seq = std::make_shared<std::uint64_t>(0);
    auto task = std::make_shared<std::function<void()>>();
    *task = [&, seq, task]() {
      net::NodeId target = 1 + static_cast<net::NodeId>(*seq % teams);
      net::DataTag tag{1000, (*seq)++, simulator.now()};
      if (network.findNode(target)->alive()) {
        tasking.onSent(tag.flowId, tag.sequence, true);
        network.findNode(kPost)->sendFromApp(target, 200, tag);
      }
      simulator.schedule(1.0, *task);
    };
    simulator.schedule(1.5, *task);
  }

  network.start();
  simulator.run(kMissionSeconds);
  recorder.sample();

  MissionResult result;
  result.earlyReportPct = 100.0 * earlyReports.deliveryRate();
  result.lateReportPct = 100.0 * lateReports.deliveryRate();
  result.lateReportCount = lateReports.packetsReceived();
  result.taskingDeliveryPct = 100.0 * tasking.deliveryRate();
  result.meshAliveAtEnd = recorder.aliveFraction().valueAt(kMissionSeconds);
  result.firstRadioDeath = recorder.firstDeath();
  return result;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Flags flags = util::Flags::parseOrExit(
      argc, argv, {"teams", "seed"},
      "usage: disaster_relief [flags]\n"
      "Search-and-rescue teams reporting to a command post: ECGRID vs GRID "
      "lifetime.");
  int teams = flags.getInt("teams", 80);
  std::uint64_t seed = flags.getUnsigned("seed", 3);

  std::printf("Disaster-relief mesh: %d field teams + command post, "
              "1 km^2, 13 min mission\n\n", teams);
  std::printf("  %-10s %15s %12s %12s %11s %14s\n", "protocol",
              "reports 0-10m%", "late rcvd", "tasking%", "alive@end",
              "1st death (s)");
  for (bool useEcgrid : {false, true}) {
    MissionResult r = runMission(useEcgrid, teams, seed);
    std::printf("  %-10s %15.2f %12llu %12.2f %11.2f %14.0f\n",
                useEcgrid ? "ECGRID" : "GRID", r.earlyReportPct,
                static_cast<unsigned long long>(r.lateReportCount),
                r.taskingDeliveryPct, r.meshAliveAtEnd,
                r.firstRadioDeath >= sim::kTimeNever ? -1.0
                                                     : r.firstRadioDeath);
  }
  std::printf("\nThe story: both meshes report fine for the first nine "
              "minutes; at ~9.6 min GRID's radios hit\nthe 500 J wall and "
              "deliver nothing afterwards ('late rcvd'), while the ECGRID "
              "mesh keeps\nreporting through the end of the mission.\n");
  return 0;
} catch (const std::exception& e) {
  // A malformed flag value (with usage) or an invalid scenario: a message
  // and exit 2, never std::terminate.
  return ecgrid::util::Flags::exitCodeFor(argv[0], e);
}
