// A mobile host: battery + radio + MAC + RAS pager + GPS + routing agent.
//
// Node implements HostEnv, the environment its RoutingProtocol plug-in
// runs against, and owns the glue: it forwards decoded frames to the
// protocol, GPS cell crossings to the protocol, RAS pages to the protocol
// (waking the radio first), and battery death to everyone.
//
// Nodes must outlive the simulation run: in-flight channel deliveries
// hold raw pointers to their radios (a dead radio simply ignores them).
#pragma once

#include <functional>
#include <memory>

#include "energy/battery.hpp"
#include "energy/power_profile.hpp"
#include "geo/grid.hpp"
#include "mac/csma.hpp"
#include "mobility/grid_tracker.hpp"
#include "mobility/mobility_model.hpp"
#include "net/host_env.hpp"
#include "net/routing_protocol.hpp"
#include "phy/channel.hpp"
#include "phy/paging.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "util/hot_path.hpp"
#include "util/ownership.hpp"

namespace ecgrid::net {

struct NodeConfig {
  NodeId id = 0;
  double batteryCapacityJ = 500.0;  ///< paper §4 initial energy
  bool infiniteBattery = false;     ///< GAF "Model 1" endpoints
  energy::PowerProfile powerProfile = energy::PowerProfile::paperDefaults();
  mac::CsmaConfig macConfig;
};

class ECGRID_DOMAIN_PER_HOST Node final : public HostEnv {
 public:
  Node(sim::Simulator& sim, const geo::GridMap& grid, phy::Channel& channel,
       phy::PagingChannel& paging,
       std::unique_ptr<mobility::MobilityModel> mobility,
       const NodeConfig& config);

  ~Node() override;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Install the routing agent. Must happen before start().
  void setProtocol(std::unique_ptr<RoutingProtocol> protocol);

  /// Install the routing agent through a factory so restart() can rebuild
  /// it from scratch after a crash. Invokes the factory once immediately —
  /// byte-identical to setProtocol for hosts that never crash.
  void setProtocolFactory(
      std::function<std::unique_ptr<RoutingProtocol>()> factory);

  RoutingProtocol& protocol();

  /// Called once when the simulation begins.
  void start();

  /// Application entry point (traffic sources call this).
  void sendFromApp(NodeId destination, int payloadBytes, const DataTag& tag);

  /// Application exit point: fires when the routing layer delivers data
  /// addressed to this host.
  void setAppReceiveCallback(
      std::function<void(NodeId src, const DataTag&, int bytes)> cb);

  /// Fires once when the battery empties.
  void setDeathCallback(std::function<void(NodeId, sim::Time)> cb);

  // --- fault injection (src/fault) -----------------------------------------
  /// Hard host failure: radio forced Off (the battery freezes — a crash is
  /// not a battery death, so the death callback does NOT fire), channel and
  /// pager detached, cell tracker stopped, protocol shut down. alive() reads
  /// false until restart(). No-op on hosts already down.
  void crash();

  /// Bring a crashed host back: radio powered up, media re-attached,
  /// cell tracker resumed, and a FRESH protocol built from the factory — the
  /// crash wiped all volatile routing state, as a reboot would.
  /// Requires crashed() and a protocol factory.
  void restart();

  bool crashed() const { return crashed_; }
  /// Time of the most recent crash (meaningful only while crashed()).
  sim::Time crashedAt() const { return crashedAt_; }
  /// Times the protocol has asked this host's radio to sleep.
  std::uint64_t radioSleeps() const { return radioSleeps_; }

  /// GPS error: world-frame offset added to the position this host
  /// *believes* (HostEnv::position()/cell()). Physical propagation — the
  /// channel and pager range checks — always uses truePosition(). If the
  /// new error moves the believed cell, the protocol sees onCellChanged.
  /// Drops the cached believed cell.
  void setGpsError(const geo::Vec2& error);
  const geo::Vec2& gpsError() const { return gpsError_; }

  /// Ground-truth physical position (what the channel propagates from).
  geo::Vec2 truePosition() { return mobility_->positionAt(sim_.now()); }

  // --- HostEnv ------------------------------------------------------------
  sim::Simulator& simulator() override { return sim_; }
  NodeId id() const override { return config_.id; }
  const geo::GridMap& gridMap() const override { return grid_; }
  geo::Vec2 position() override { return truePosition() + gpsError_; }
  geo::Vec2 velocity() override { return mobility_->velocityAt(sim_.now()); }
  /// grid_.cellOf(position()), answered from a cache while the believed
  /// position provably stays in the cell (refreshCell).
  geo::GridCoord cell() override {
    const sim::Time now = sim_.now();
    if (now >= cellFrom_ && now < cellUntil_) return cachedCell_;
    return refreshCell(now);
  }
  sim::Time nextPossibleCellExit() override {
    // Sleep timers are planned around the cell the host *believes* it is
    // in, consistent with position()/cell() above.
    return mobility_->nextPossibleCellExit(grid_, sim_.now(), gpsError_);
  }
  LinkLayer& link() override { return *mac_; }
  void sleepRadio() override;
  void wakeRadio() override;
  bool radioSleeping() const override { return radio_->sleeping(); }
  void pageHost(NodeId target) override;
  void pageGrid(const geo::GridCoord& gridCoord) override;
  energy::BatteryLevel batteryLevel() override {
    return radio_->battery().level(sim_.now());
  }
  double batteryRatio() override {
    return radio_->battery().remainingRatio(sim_.now());
  }
  bool alive() const override { return !radio_->dead(); }
  void deliverToApp(NodeId appSrc, const DataTag& tag,
                    int payloadBytes) override;

  // --- introspection for stats/tests --------------------------------------
  /// The battery as Radio::battery() gives it: with every reception
  /// start that has landed applied.
  energy::Battery& batteryRef() { return radio_->battery(); }
  phy::Radio& radio() { return *radio_; }
  mac::CsmaMac& mac() { return *mac_; }
  mobility::MobilityModel& mobilityModel() { return *mobility_; }
  const NodeConfig& config() const { return config_; }

 private:
  void onDeath();
  void attachToMedia();
  /// Recompute the believed cell at `now` and how long it holds.
  geo::GridCoord refreshCell(sim::Time now);

  // What a frame's way up reads (alive(), the protocol, and cell() in
  // its HELLO handling) first, so a reception touches one line of the
  // node (DESIGN §9).
  sim::Simulator& sim_;
  std::unique_ptr<phy::Radio> radio_;
  std::unique_ptr<RoutingProtocol> protocol_;
  /// cell()'s cache: `cachedCell_` is the believed cell at every time in
  /// [cellFrom_, cellUntil_); an empty interval means nothing is cached.
  geo::GridCoord cachedCell_{0, 0};
  sim::Time cellFrom_ = sim::kTimeZero;
  sim::Time cellUntil_ = sim::kTimeZero;

  geo::GridMap grid_;
  phy::Channel& channel_;
  phy::PagingChannel& paging_;
  NodeConfig config_;

  energy::Battery battery_;
  std::unique_ptr<mobility::MobilityModel> mobility_;
  std::unique_ptr<mac::CsmaMac> mac_;
  std::unique_ptr<mobility::GridTracker> tracker_;
  std::function<std::unique_ptr<RoutingProtocol>()> protocolFactory_;

  std::size_t channelAttachment_ = 0;
  std::size_t pagingAttachment_ = 0;

  geo::Vec2 gpsError_{0.0, 0.0};
  bool crashed_ = false;
  sim::Time crashedAt_ = 0.0;
  std::uint64_t radioSleeps_ = 0;

  std::function<void(NodeId, const DataTag&, int)> onAppReceive_;
  std::function<void(NodeId, sim::Time)> onDeathCb_;
};

ECGRID_LAYOUT_BUDGET(Node, 448);

}  // namespace ecgrid::net
