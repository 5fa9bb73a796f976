// Layer probes: the benchmark times two layers' public entry points at the
// shape a workload gives them, outside any scenario.
//
//   sim  EventQueue pop + push at the workload's peak standing depth, the
//        closure sized like a phy/deliver capture (receiver, packet copy,
//        airtime).
//   phy  Channel::transmitFrom plus draining the receptions it schedules,
//        on a static network with the workload's host count, field and
//        mean awake share.
#include <algorithm>
#include <memory>
#include <vector>

#include "energy/battery.hpp"
#include "energy/power_profile.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "perfbench.hpp"
#include "sim/event.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

using namespace ecgrid;

/// A HELLO-sized broadcast header; the dense workloads' traffic is mostly
/// HELLO broadcasts.
class ProbeHeader final : public net::Header {
 public:
  int bytes() const override { return 40; }
  const char* name() const override { return "PROBE"; }
};

}  // namespace

double probeQueuePushPopNs(std::size_t depth, std::uint64_t seed,
                           SpanLog& spans, int batches) {
  constexpr std::uint64_t kOpsPerBatch = 200'000;
  sim::EventQueue queue;
  sim::RngStream rng(seed);
  std::uint64_t sink = 0;
  net::Packet packet;
  packet.header = std::make_shared<ProbeHeader>();
  void* receiver = &sink;
  const double duration = 0.5e-3;
  auto push = [&](double at) {
    packet.uid = rng.raw();
    queue.push(at, [receiver, packet, duration, &sink] {
      sink += packet.uid + (receiver != nullptr) + (duration > 0.0);
    });
  };
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
    push(rng.uniform(0.0, 1.0));
  }
  double now = 0.0;
  sim::InlineTask action;
  std::vector<double> nsPerOp;
  // Batch 0 warms the slab and caches and is not reported.
  for (int batch = 0; batch <= batches; ++batch) {
    const int span = spans.begin("probe.queue_push_pop", -1,
                                 {{"batch", std::to_string(batch)},
                                  {"depth", std::to_string(depth)},
                                  {"ops", std::to_string(kOpsPerBatch)}});
    const Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0; i < kOpsPerBatch; ++i) {
      queue.pop(now, action);
      action();
      push(now + rng.uniform(0.0, 1.0));
    }
    const double seconds = secondsSince(start);
    spans.end(span);
    if (batch > 0) nsPerOp.push_back(seconds * 1e9 / kOpsPerBatch);
  }
  return median(nsPerOp);
}

double probeTransmitNsPerReceiver(int hosts, double field, double range,
                                  double awakeShare, std::uint64_t seed,
                                  SpanLog& spans, int batches) {
  constexpr int kFramesPerBatch = 400;
  sim::Simulator simulator(seed);
  phy::ChannelConfig channelConfig;
  channelConfig.rangeMeters = range;
  phy::Channel channel(simulator, channelConfig);
  sim::RngStream rng = simulator.rng().stream("perfbench/probe");

  // Declared after the simulator and channel, so radios (which cancel
  // their timers on destruction) go first.
  std::vector<std::unique_ptr<energy::Battery>> batteries;
  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::vector<phy::Radio*> awake;
  std::uint64_t framesDecoded = 0;  // the upcall a MAC would take
  for (int i = 0; i < hosts; ++i) {
    batteries.push_back(std::make_unique<energy::Battery>(1e12));
    radios.push_back(std::make_unique<phy::Radio>(
        simulator, *batteries.back(), energy::PowerProfile{}, i));
    phy::Radio& radio = *radios.back();
    radio.attachChannel(&channel);
    const geo::Vec2 position{rng.uniform(0.0, field), rng.uniform(0.0, field)};
    channel.attach(&radio, [position] { return position; });
    radio.setFrameCallback([&framesDecoded](const net::Packet&) {
      ++framesDecoded;
    });
    if (rng.uniform(0.0, 1.0) < awakeShare) {
      awake.push_back(&radio);
    } else {
      radio.sleep();
    }
  }
  if (awake.empty()) awake.push_back(radios.front().get());

  net::Packet frame;
  frame.macDst = net::kBroadcastId;
  frame.header = std::make_shared<ProbeHeader>();
  const double airtime = channel.frameAirtime(frame.bytes());

  std::vector<double> nsPerReceiver;
  for (int batch = 0; batch <= batches; ++batch) {
    const int span = spans.begin("probe.transmit_drain", -1,
                                 {{"batch", std::to_string(batch)},
                                  {"hosts", std::to_string(hosts)},
                                  {"frames", std::to_string(kFramesPerBatch)}});
    const std::uint64_t scheduledBefore = channel.deliveriesScheduled();
    const Clock::time_point start = Clock::now();
    for (int f = 0; f < kFramesPerBatch; ++f) {
      phy::Radio& sender = *awake[static_cast<std::size_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(awake.size()) - 1))];
      frame.macSrc = sender.id();
      channel.transmitFrom(sender, frame, airtime);
      // Every reception ends within one airtime; the far-future battery
      // depletion timers stay queued, as they do in a scenario.
      simulator.run(simulator.now() + 2.0 * airtime);
    }
    const double seconds = secondsSince(start);
    spans.end(span);
    const std::uint64_t receivers =
        channel.deliveriesScheduled() - scheduledBefore;
    if (batch > 0 && receivers > 0) {
      nsPerReceiver.push_back(seconds * 1e9 / static_cast<double>(receivers));
    }
  }
  return median(nsPerReceiver);
}

}  // namespace perfbench
