// Channel error models: per-delivery corruption decisions.
//
// FaultInjector puts a model in phy::Channel's deliveryFault slot, which
// asks it once per (transmission, receiver in decode range), asleep or
// not, in whatever order the fan-out visits the receivers. Every draw is
// keyed on (seed, transmission, sender, receiver) by a SplitMix64 mix, so
// the verdicts do not depend on that order. Returning true corrupts that
// delivery: the frame's energy still arrives at the receiver (carrier
// sense stays busy, concurrent receptions are ruined) but the frame
// itself can never decode.
//
// Both models are pure over their seed (one raw() of "fault/channel"),
// so the statistical tests can drive them directly against the analytic
// loss rate and burst length without running a simulation.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "fault/fault_plan.hpp"
#include "net/packet.hpp"

namespace ecgrid::fault {

/// Memoryless loss: every delivery is corrupted independently.
class IidLossModel {
 public:
  IidLossModel(double lossProbability, std::uint64_t seed);

  /// Corrupt the frame of transmission number `transmission` travelling
  /// sender → receiver?
  bool dropDelivery(std::uint64_t transmission, net::NodeId sender,
                    net::NodeId receiver);

 private:
  double lossProbability_;
  std::uint64_t seed_;
};

/// Two-state Gilbert–Elliott burst-loss chain, one chain per receiver
/// (each receiver sits in its own fading environment). The chain starts
/// Good and advances once per delivered frame, so in transmission order:
/// the current state picks the loss probability, then the state
/// transitions.
class GilbertElliottModel {
 public:
  GilbertElliottModel(const ChannelFault& params, std::uint64_t seed);

  bool dropDelivery(std::uint64_t transmission, net::NodeId sender,
                    net::NodeId receiver);

  /// πB·lossBad + (1−πB)·lossGood with πB = pGB/(pGB+pBG).
  double stationaryLoss() const;

  /// Mean frames spent in the bad state per visit: 1/pBadToGood.
  double meanBadSojournFrames() const { return 1.0 / params_.pBadToGood; }

 private:
  ChannelFault params_;
  std::uint64_t seed_;
  std::unordered_map<net::NodeId, bool> inBadState_;
};

}  // namespace ecgrid::fault
