#include "net/node.hpp"

#include <algorithm>

#include "obs/observability.hpp"
#include "util/error.hpp"

namespace ecgrid::net {

namespace {
/// How close (metres) the believed position may come to a wall of its cell
/// before cell() recomputes: far above the rounding error of one leg
/// evaluation, so the end-of-interval check below practically never fails.
constexpr double kCellWallGuard = 1e-6;

/// Time from `p` moving at `v` until it comes within the guard of the wall
/// of [lo, lo + side] it heads for; kTimeNever when it does not move.
sim::Time timeToWallGuard(double p, double v, double lo, double side) {
  if (v > 0.0) return (lo + side - kCellWallGuard - p) / v;
  if (v < 0.0) return (lo + kCellWallGuard - p) / v;
  return sim::kTimeNever;
}

/// Span id correlating a packet's originate with its delivery: flows are
/// globally unique, sequences unique within a flow.
std::uint64_t flowSpanId(const DataTag& tag) {
  return (tag.flowId << 32) | (tag.sequence & 0xffffffffULL);
}
}  // namespace

Node::Node(sim::Simulator& sim, const geo::GridMap& grid,
           phy::Channel& channel, phy::PagingChannel& paging,
           std::unique_ptr<mobility::MobilityModel> mobility,
           const NodeConfig& config)
    : sim_(sim),
      grid_(grid),
      channel_(channel),
      paging_(paging),
      config_(config),
      battery_(config.infiniteBattery
                   ? energy::Battery::infinite()
                   : energy::Battery(config.batteryCapacityJ)),
      mobility_(std::move(mobility)) {
  ECGRID_REQUIRE(mobility_ != nullptr, "node needs a mobility model");
  ECGRID_REQUIRE(config.id >= 0, "node ids must be non-negative");

  radio_ = std::make_unique<phy::Radio>(sim_, battery_, config_.powerProfile,
                                        config_.id);
  radio_->setDeathCallback([this] { onDeath(); });

  mac_ = std::make_unique<mac::CsmaMac>(
      sim_, *radio_, channel_, config_.macConfig,
      sim_.rng().stream("mac", config_.id));

  attachToMedia();

  mac_->setReceiveCallback([this](const Packet& packet) {
    if (protocol_ && alive()) protocol_->onFrame(packet);
  });
  mac_->setSendFailureCallback([this](const Packet& packet) {
    if (protocol_ && alive()) protocol_->onSendFailed(packet);
  });

  // The tracker watches the *believed* position (true position + GPS
  // error): a static offset only translates the boundaries, so crossings
  // of the believed grid are still exact events, firing when the host's
  // own notion of its cell changes — which may be well before or after
  // the ground-truth crossing. With zero GPS error the offset vanishes
  // and the protocol sees the classic ground-truth crossing stream. The
  // tracker's cell is cellOf(positionAt(now) + gpsError_), the same value
  // cell() computes, so its (from, to) is the believed-cell change.
  tracker_ = std::make_unique<mobility::GridTracker>(
      sim_, grid_, *mobility_,
      [this](const geo::GridCoord& from, const geo::GridCoord& to) {
        if (protocol_ && alive()) protocol_->onCellChanged(from, to);
      },
      [this] { return gpsError_; });
}

Node::~Node() {
  // node.hpp declares the radio and the protocol first, for the receive
  // path's sake; release the stack top down all the same.
  protocol_.reset();
  tracker_.reset();
  mac_.reset();
  radio_.reset();
}

void Node::attachToMedia() {
  // Physical media always see the ground-truth position: GPS error warps
  // what the host believes, not where its antenna radiates. The channel
  // keeps its fan-out buckets current from these legs on its own, so the
  // host arms nothing for it.
  channelAttachment_ = channel_.attach(
      radio_.get(), [this](sim::Time t) { return mobility_->legAt(t); });
  pagingAttachment_ = paging_.attach(
      config_.id, [this] { return truePosition(); },
      // The pager's broadcast sequence is programmed with the grid the
      // host BELIEVES it occupies — under GPS error it can miss pages
      // meant for its physical grid, exactly the failure mode under test.
      [this] { return cell(); },
      [this](const PageSignal& signal) {
        if (!alive()) return;
        // The RAS powers the transceiver up before the protocol reacts.
        wakeRadio();
        if (protocol_) protocol_->onPaged(signal);
      });
}

geo::GridCoord Node::refreshCell(sim::Time now) {
  const geo::Segment leg = mobility_->legAt(now);
  const geo::Vec2 believed = leg.at(now) + gpsError_;
  const geo::GridCoord here = grid_.cellOf(believed);
  const geo::Vec2 lo = grid_.originOf(here);
  const double side = grid_.cellSide();
  sim::Time until = leg.end;
  until = std::min(until, now + timeToWallGuard(believed.x, leg.velocity.x,
                                                lo.x, side));
  until = std::min(until, now + timeToWallGuard(believed.y, leg.velocity.y,
                                                lo.y, side));
  // Exact, not approximate: every coordinate of leg.at(t) + gpsError_ —
  // and so of cellOf() of it — is monotone in t over the leg (each
  // floating-point step is monotone in its operand). So if the cell at
  // `until` is still `here`, the cell is `here` all through [now, until],
  // whatever the rounding; the guard only makes that check succeed.
  if (grid_.cellOf(leg.at(until) + gpsError_) != here) until = now;
  cachedCell_ = here;
  cellFrom_ = now;
  cellUntil_ = until;
  return here;
}

void Node::setProtocol(std::unique_ptr<RoutingProtocol> protocol) {
  ECGRID_REQUIRE(protocol != nullptr, "protocol must not be null");
  protocol_ = std::move(protocol);
}

void Node::setProtocolFactory(
    std::function<std::unique_ptr<RoutingProtocol>()> factory) {
  ECGRID_REQUIRE(factory != nullptr, "protocol factory must not be null");
  protocolFactory_ = std::move(factory);
  setProtocol(protocolFactory_());
}

RoutingProtocol& Node::protocol() {
  ECGRID_CHECK(protocol_ != nullptr, "protocol not installed");
  return *protocol_;
}

void Node::start() {
  ECGRID_CHECK(protocol_ != nullptr, "start() before setProtocol()");
  protocol_->start();
}

void Node::sendFromApp(NodeId destination, int payloadBytes,
                       const DataTag& tag) {
  if (!alive()) return;
  if (auto* tracer = obs::tracer(sim_)) {
    tracer->begin("pkt", "flow", flowSpanId(tag), config_.id,
                  {{"dst", destination},
                   {"bytes", payloadBytes},
                   {"flow", tag.flowId},
                   {"seq", tag.sequence}});
  }
  protocol_->sendData(destination, payloadBytes, tag);
}

void Node::setAppReceiveCallback(
    std::function<void(NodeId, const DataTag&, int)> cb) {
  onAppReceive_ = std::move(cb);
}

void Node::setDeathCallback(std::function<void(NodeId, sim::Time)> cb) {
  onDeathCb_ = std::move(cb);
}

void Node::sleepRadio() {
  ++radioSleeps_;
  mac_->clearQueue();
  radio_->sleep();
}

void Node::wakeRadio() { radio_->wake(); }

void Node::pageHost(NodeId target) {
  paging_.pageHost(config_.id, truePosition(), target);
}

void Node::pageGrid(const geo::GridCoord& gridCoord) {
  paging_.pageGrid(config_.id, truePosition(), gridCoord);
}

void Node::deliverToApp(NodeId appSrc, const DataTag& tag, int payloadBytes) {
  if (auto* tracer = obs::tracer(sim_)) {
    tracer->end("pkt", "flow", flowSpanId(tag), config_.id,
                {{"src", appSrc}, {"bytes", payloadBytes}});
  }
  if (onAppReceive_) onAppReceive_(appSrc, tag, payloadBytes);
}

void Node::crash() {
  if (!alive() || crashed_) return;
  crashed_ = true;
  crashedAt_ = sim_.now();
  obs::counter(sim_, "fault.crashes").add();
  if (auto* tracer = obs::tracer(sim_)) {
    tracer->instant("fault", "crash", config_.id);
  }
  tracker_->stop();
  mac_->clearQueue();
  channel_.detach(channelAttachment_);
  paging_.detach(pagingAttachment_);
  // powerDown (not die): the battery freezes at Off's 0 W and the death
  // callback stays silent — the host is failed, not exhausted.
  radio_->powerDown();
  if (protocol_) protocol_->onShutdown();
}

void Node::restart() {
  ECGRID_REQUIRE(crashed_, "restart() requires a crashed host");
  ECGRID_REQUIRE(protocolFactory_ != nullptr,
                 "restart() needs a protocol factory to rebuild state");
  crashed_ = false;
  obs::counter(sim_, "fault.restarts").add();
  if (auto* tracer = obs::tracer(sim_)) {
    tracer->instant("fault", "restart", config_.id);
  }
  radio_->powerUp();
  attachToMedia();
  tracker_->restart();  // no event: the fresh protocol reads cell()
  protocol_ = protocolFactory_();
  protocol_->start();
}

void Node::setGpsError(const geo::Vec2& error) {
  gpsError_ = error;
  cellUntil_ = cellFrom_;  // the cached cell was for the old error
  // refresh() both re-tests the believed cell now (firing onCellChanged
  // through the tracker callback if it moved) and re-arms the boundary
  // timer against the shifted geometry.
  if (alive()) tracker_->refresh();
}

void Node::onDeath() {
  obs::counter(sim_, "energy.deaths").add();
  if (auto* tracer = obs::tracer(sim_)) {
    tracer->instant("node", "death", config_.id);
  }
  tracker_->stop();
  mac_->clearQueue();
  channel_.detach(channelAttachment_);
  paging_.detach(pagingAttachment_);
  if (protocol_) protocol_->onShutdown();
  if (onDeathCb_) onDeathCb_(config_.id, sim_.now());
}

}  // namespace ecgrid::net
