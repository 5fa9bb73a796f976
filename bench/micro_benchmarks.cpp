// Microbenchmarks (google-benchmark) for the simulator's hot paths: the
// event queue, RNG streams, grid math, the unit-disk channel fan-out, and
// the gateway election rules. These bound how fast whole scenarios can
// run; a 2000 s / 100-host ECGRID run executes a few million events.
//
// Unless the caller passes --benchmark_out, results are also written as
// bench_out/BENCH_micro.json (google-benchmark's JSON schema) so the perf
// trajectory has a machine-readable record.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "energy/battery.hpp"
#include "fault/error_model.hpp"
#include "geo/grid.hpp"
#include "mobility/random_waypoint.hpp"
#include "net/network.hpp"
#include "protocols/common/election.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace ecgrid;

void BM_EventQueuePushPop(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    int fired = 0;
    for (int i = 0; i < batch; ++i) {
      queue.push(static_cast<double>((i * 7919) % batch),
                 [&fired] { ++fired; });
    }
    double time = 0.0;
    sim::InlineTask action;
    while (queue.pop(time, action)) {
      action();
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_EventCancellation(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    std::vector<sim::EventHandle> handles;
    handles.reserve(batch);
    for (int i = 0; i < batch; ++i) {
      handles.push_back(queue.push(static_cast<double>(i), [] {}));
    }
    for (int i = 0; i < batch; i += 2) handles[i].cancel();
    int live = 0;
    double time = 0.0;
    sim::InlineTask action;
    while (queue.pop(time, action)) {
      action();
      ++live;
    }
    benchmark::DoNotOptimize(live);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventCancellation)->Arg(4096);

// Steady-state DES load: a standing population of events where every pop
// schedules a successor. This is the regime the pooled slab targets — the
// free-list keeps recycling the same few slots, so steady state allocates
// nothing per event.
void BM_EventQueueChurn(benchmark::State& state) {
  const int standing = static_cast<int>(state.range(0));
  sim::EventQueue queue;
  sim::RngStream rng(13);
  double now = 0.0;
  for (int i = 0; i < standing; ++i) {
    queue.push(rng.uniform(0.0, 10.0), [] {});
  }
  sim::InlineTask action;
  for (auto _ : state) {
    queue.pop(now, action);
    queue.push(now + rng.uniform(0.0, 10.0), [] {});
  }
  benchmark::DoNotOptimize(now);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueChurn)->Arg(64)->Arg(4096);

// One uniform draw. hosts = 0 draws from one bare-seed stream, whose
// engine stays in cache. hosts = N draws round-robin over N hosts' "mac"
// streams from a factory that also pooled each host's "gridproto",
// "routing" and "mobility" engine between them, as a scenario does: each
// draw then loads an engine a few slots away from the last one's.
void BM_RngStream(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  sim::RngFactory factory(42);
  std::vector<sim::RngStream> streams;
  if (hosts == 0) streams.emplace_back(42);
  for (int i = 0; i < hosts; ++i) {
    streams.push_back(factory.stream("mac", i));
    streams.push_back(factory.stream("gridproto", i));
    streams.push_back(factory.stream("routing", i));
    streams.push_back(factory.stream("mobility", i));
  }
  const std::size_t stride = hosts == 0 ? 1 : 4;  // the "mac" streams
  std::size_t next = 0;
  double acc = 0.0;
  for (auto _ : state) {
    acc += streams[next].uniform(0.0, 1.0);
    next += stride;
    if (next >= streams.size()) next = 0;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngStream)->ArgName("hosts")->Arg(0)->Arg(1000);

// One keyed channel-fault verdict (src/fault/error_model.cpp), as the
// channel asks for it: 160 receivers per transmission, the dense fields'
// fan-out. The burst model adds its per-receiver chain lookup.
template <class Model>
void BM_KeyedFaultDraw(benchmark::State& state, Model model) {
  constexpr net::NodeId kReceivers = 160;
  std::uint64_t transmission = 0;
  net::NodeId receiver = 0;
  std::uint64_t drops = 0;
  for (auto _ : state) {
    drops += model.dropDelivery(transmission, kReceivers, receiver) ? 1 : 0;
    if (++receiver == kReceivers) {
      receiver = 0;
      ++transmission;
    }
  }
  benchmark::DoNotOptimize(drops);
}

fault::ChannelFault burstLoss() {
  fault::ChannelFault burst;
  burst.pGoodToBad = 0.01;
  burst.pBadToGood = 0.1;
  return burst;
}
BENCHMARK_CAPTURE(BM_KeyedFaultDraw, iid, fault::IidLossModel(0.05, 42));
BENCHMARK_CAPTURE(BM_KeyedFaultDraw, gilbert_elliott,
                  fault::GilbertElliottModel(burstLoss(), 42));

void BM_GridMapping(benchmark::State& state) {
  geo::GridMap grid(100.0);
  double x = 3.0;
  std::int64_t acc = 0;
  for (auto _ : state) {
    geo::Vec2 p{x, 1000.0 - x};
    geo::GridCoord c = grid.cellOf(p);
    acc += c.x + c.y;
    x += 0.37;
    if (x > 1000.0) x = 0.0;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_GridMapping);

void BM_WaypointAdvance(benchmark::State& state) {
  sim::RngFactory factory(7);
  mobility::RandomWaypointConfig config;
  config.maxSpeed = 10.0;
  mobility::RandomWaypoint waypoint(config, factory.stream("bench"));
  double t = 0.0;
  geo::Vec2 acc{};
  for (auto _ : state) {
    t += 0.5;
    acc += waypoint.positionAt(t);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_WaypointAdvance);

void BM_Election(benchmark::State& state) {
  const int fieldSize = static_cast<int>(state.range(0));
  std::vector<protocols::Candidate> field;
  sim::RngStream rng(3);
  for (int i = 0; i < fieldSize; ++i) {
    protocols::Candidate c;
    c.id = i;
    c.level = static_cast<energy::BatteryLevel>(rng.uniformInt(0, 2));
    c.distToCenter = rng.uniform(0.0, 70.0);
    field.push_back(c);
  }
  protocols::ElectionPolicy policy;
  for (auto _ : state) {
    auto winner = protocols::electGateway(field, policy);
    benchmark::DoNotOptimize(winner);
  }
}
BENCHMARK(BM_Election)->Arg(8)->Arg(64);

void BM_ChannelBroadcastFanout(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  sim::Simulator simulator(11);
  net::NetworkConfig netConfig;
  net::Network network(simulator, netConfig);
  sim::RngStream rng(5);
  for (int i = 0; i < nodes; ++i) {
    net::NodeConfig nodeConfig;
    nodeConfig.id = i;
    nodeConfig.infiniteBattery = true;
    auto mobility = std::make_unique<mobility::StaticMobility>(
        geo::Vec2{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
    network.addNode(std::move(mobility), nodeConfig);
  }
  net::Packet frame;
  frame.macSrc = 0;
  frame.macDst = net::kBroadcastId;
  class Tiny final : public net::Header {
   public:
    int bytes() const override { return 8; }
    const char* name() const override { return "tiny"; }
  };
  frame.header = std::make_shared<Tiny>();
  for (auto _ : state) {
    network.channel().transmitFrom(network.node(0).radio(), frame, 1e-4);
    simulator.run(simulator.now() + 1.0);
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_ChannelBroadcastFanout)->Arg(50)->Arg(200);

// Bucket-grid fan-out at a fixed attachment count. Field side scales with
// the node count to hold the paper's density (100 hosts per 1000 m
// square), so the broadcast's *delivery* work is constant and the scan of
// the buckets that meet the sender's reach disc should cost the same at
// both sizes.
// Manual timing covers transmitFrom only — the scan plus delivery
// scheduling; the scheduled receiver-side events drain untimed between
// iterations because they are not the scan's cost
// (BM_ChannelBroadcastFanout keeps an end-to-end transmit-and-drain
// measurement).
void BM_ChannelFanOut(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const double field = 1000.0 * std::sqrt(nodes / 100.0);
  sim::Simulator simulator(11);
  net::NetworkConfig netConfig;
  net::Network network(simulator, netConfig);
  sim::RngStream rng(5);
  for (int i = 0; i < nodes; ++i) {
    net::NodeConfig nodeConfig;
    nodeConfig.id = i;
    nodeConfig.infiniteBattery = true;
    auto mobility = std::make_unique<mobility::StaticMobility>(
        geo::Vec2{rng.uniform(0.0, field), rng.uniform(0.0, field)});
    network.addNode(std::move(mobility), nodeConfig);
  }
  net::Packet frame;
  frame.macSrc = 0;
  frame.macDst = net::kBroadcastId;
  class Tiny final : public net::Header {
   public:
    int bytes() const override { return 8; }
    const char* name() const override { return "tiny"; }
  };
  frame.header = std::make_shared<Tiny>();
  // Sleeping receivers make the delivery events trivial, isolating the
  // fan-out scan.
  for (int i = 1; i < nodes; ++i) network.node(i).radio().sleep();
  for (auto _ : state) {
    // Manual-time benchmark: wall clock is the measurement itself.
    // ecgrid-lint: allow(banned-random)
    const auto start = std::chrono::steady_clock::now();
    network.channel().transmitFrom(network.node(0).radio(), frame, 1e-4);
    const auto stop = std::chrono::steady_clock::now();  // ecgrid-lint: allow(banned-random)
    simulator.run(simulator.now() + 1.0);
    state.SetIterationTime(
        std::chrono::duration<double>(stop - start).count());
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_ChannelFanOut)
    ->ArgNames({"radios"})
    ->Arg(500)
    ->Arg(100)
    ->UseManualTime();

void BM_BatteryIntegration(benchmark::State& state) {
  energy::Battery battery(1e12);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.01;
    battery.setPowerW(t - std::floor(t) + 0.1, t);
    benchmark::DoNotOptimize(battery.remainingJ(t));
  }
}
BENCHMARK(BM_BatteryIntegration);

}  // namespace

// BENCHMARK_MAIN(), plus a default --benchmark_out=bench_out/BENCH_micro.json
// --benchmark_out_format=json when the caller did not pick an output file.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool callerChoseOutput = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      callerChoseOutput = true;
    }
  }
  std::string outFlag;
  std::string formatFlag;
  if (!callerChoseOutput) {
    outFlag = "--benchmark_out=" + bench::outputDir() + "/BENCH_micro.json";
    formatFlag = "--benchmark_out_format=json";
    args.push_back(outFlag.data());
    args.push_back(formatFlag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  // The context's library_build_type describes the benchmark library, not
  // this binary; record how the simulator code under test was built, as
  // BenchReport's provenance does (num_cpus is the library's own).
  benchmark::AddCustomContext("ecgrid_compiler", bench::kCompiler);
  benchmark::AddCustomContext("ecgrid_optimized",
                              bench::kOptimized ? "true" : "false");
  benchmark::AddCustomContext("ecgrid_ndebug",
                              bench::kNdebug ? "true" : "false");
  benchmark::AddCustomContext("ecgrid_git_sha", bench::sourceGitSha());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
