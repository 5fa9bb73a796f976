// FaultInjector — arms a FaultPlan on a live network.
//
// Construction wires every enabled fault into the simulation:
//
//   * channel errors  → an error model in phy::Channel's deliveryFault
//                       slot (frames corrupt instead of decode);
//   * paging loss     → phy::PagingChannel's pageLoss slot;
//   * host crashes    → scripted CrashEvents plus a per-host Poisson
//                       failure process, via Node::crash()/restart();
//   * GPS error       → per-host offset draw at t = 0 and a periodic
//                       random-walk drift tick, via Node::setGpsError().
//
// All randomness comes from dedicated named streams ("fault/channel",
// "fault/paging", "fault/crash", "fault/gps") split off the run's master
// seed, so arming a fault never perturbs mobility, MAC backoff, or
// traffic draws, and the same (plan, seed) pair replays exactly. The
// error model's draws are keyed on (transmission, sender, receiver) from
// one raw() of "fault/channel", so they ignore the fan-out's visit order.
//
// The destructor disarms the channel and paging hooks; declare the
// injector after the Network so it is destroyed first. An empty() plan
// arms nothing (runScenario skips construction entirely).
#pragma once

#include <cstdint>
#include <unordered_set>

#include "fault/fault_plan.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "util/ownership.hpp"

namespace ecgrid::fault {

class ECGRID_DOMAIN_PER_SCENARIO FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, net::Network& network,
                const FaultPlan& plan);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }

  /// Host crashes actually applied (scripted + Poisson; crashes aimed at
  /// hosts already down do not count).
  std::uint64_t crashesInjected() const { return crashes_; }
  /// Successful reboots.
  std::uint64_t restartsInjected() const { return restarts_; }

 private:
  void armChannel();
  void armPaging();
  void armCrashes();
  void armGps();
  bool faultEligible(const net::Node& node) const;
  void crashNow(net::Node& node, sim::Time restartAt, bool poisson);
  void restartNow(net::Node& node);
  void schedulePoissonCrash(net::Node& node);
  void gpsDriftTick();

  sim::Simulator& sim_;
  net::Network& network_;
  FaultPlan plan_;

  sim::RngStream pagingRng_;
  sim::RngStream crashRng_;
  sim::RngStream gpsRng_;

  std::uint64_t crashes_ = 0;
  std::uint64_t restarts_ = 0;

  /// Hosts with a Poisson crash event currently in flight. Membership in
  /// the Poisson failure *pool* is (crashRate > 0 && faultEligible);
  /// this set only tracks the pending event so that a restart — whatever
  /// event revived the host — can re-arm the process exactly when no
  /// crash is already scheduled. Without it, a Poisson crash event that
  /// no-ops on an already-down host (or a scripted restart reviving a
  /// host mid-downtime) would silently end that host's failure process.
  std::unordered_set<net::NodeId> poissonPending_;
};

}  // namespace ecgrid::fault
