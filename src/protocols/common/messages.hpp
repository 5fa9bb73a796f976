// Wire messages shared by the grid protocols (paper §3).
//
// Sizes are chosen to be byte-realistic for the fields each message
// carries (32-bit host ids, 2×32-bit grid coordinates, 32-bit sequence
// numbers); control-message airtime is a first-class experimental
// quantity, so these constants are deliberate, not arbitrary.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "energy/battery.hpp"
#include "geo/grid.hpp"
#include "geo/rect.hpp"
#include "net/host_env.hpp"
#include "net/packet.hpp"

namespace ecgrid::protocols {

using SeqNo = std::uint32_t;

/// True when `a` is fresher than `b` (handles wraparound like AODV).
inline bool seqFresher(SeqNo a, SeqNo b) {
  return static_cast<std::int32_t>(a - b) > 0;
}

/// HELLO — periodic beacon of every *active* host (paper §3.1).
/// Fields exactly as listed in the paper — id, grid, gflag, level, dist —
/// plus the sender's GPS position, which every location-aware beacon in
/// this protocol family carries (GRID's beacons do; receivers need it to
/// judge whether an advertised gateway is actually within radio reach).
class HelloHeader final : public net::HeaderOf<HelloHeader> {
 public:
  HelloHeader(net::NodeId id, geo::GridCoord grid, bool gatewayFlag,
              energy::BatteryLevel level, double distToCenter,
              geo::Vec2 position)
      : id_(id),
        grid_(grid),
        gatewayFlag_(gatewayFlag),
        level_(level),
        distToCenter_(distToCenter),
        position_(position) {}

  net::NodeId id() const { return id_; }
  const geo::GridCoord& grid() const { return grid_; }
  bool gatewayFlag() const { return gatewayFlag_; }
  energy::BatteryLevel level() const { return level_; }
  double distToCenter() const { return distToCenter_; }
  const geo::Vec2& position() const { return position_; }

  int bytes() const override { return 28; }  // id4+grid8+flags1+lvl1+dist4+pos8+pad
  const char* name() const override { return "HELLO"; }

 private:
  net::NodeId id_;
  geo::GridCoord grid_;
  bool gatewayFlag_;
  energy::BatteryLevel level_;
  double distToCenter_;
  geo::Vec2 position_;
};

/// One serialised routing-table entry (carried by RETIRE / HANDOFF).
struct RouteRecord {
  net::NodeId destination = net::kBroadcastId;
  geo::GridCoord nextGrid;
  geo::GridCoord destGrid;
  SeqNo destSeq = 0;
  double expiry = 0.0;
};

inline constexpr int kRouteRecordBytes = 24;

/// RETIRE(grid, rtab) — a departing/exhausted gateway hands its routing
/// table to the grid it is leaving (paper §3.2).
class RetireHeader final : public net::HeaderOf<RetireHeader> {
 public:
  RetireHeader(geo::GridCoord grid, std::vector<RouteRecord> table)
      : grid_(grid), table_(std::move(table)) {}

  const geo::GridCoord& grid() const { return grid_; }
  const std::vector<RouteRecord>& table() const { return table_; }

  int bytes() const override {
    return 12 + static_cast<int>(table_.size()) * kRouteRecordBytes;
  }
  const char* name() const override { return "RETIRE"; }

 private:
  geo::GridCoord grid_;
  std::vector<RouteRecord> table_;
};

/// HANDOFF — unicast routing-table transfer when a newcomer replaces the
/// gateway in place (paper §3.2 case 1: "the original gateway ... will
/// transmit the routing and host tables to the new gateway").
class HandoffHeader final : public net::HeaderOf<HandoffHeader> {
 public:
  HandoffHeader(geo::GridCoord grid, std::vector<RouteRecord> table,
                std::vector<std::pair<net::NodeId, bool>> hostTable)
      : grid_(grid), table_(std::move(table)), hostTable_(std::move(hostTable)) {}

  const geo::GridCoord& grid() const { return grid_; }
  const std::vector<RouteRecord>& table() const { return table_; }
  /// (hostId, isSleeping) pairs.
  const std::vector<std::pair<net::NodeId, bool>>& hostTable() const {
    return hostTable_;
  }

  int bytes() const override {
    return 12 + static_cast<int>(table_.size()) * kRouteRecordBytes +
           static_cast<int>(hostTable_.size()) * 5;
  }
  const char* name() const override { return "HANDOFF"; }

 private:
  geo::GridCoord grid_;
  std::vector<RouteRecord> table_;
  std::vector<std::pair<net::NodeId, bool>> hostTable_;
};

/// LEAVE — a non-gateway host notifies its gateway that it is departing
/// the grid (paper §3.2 "it must notify the gateway about its departure by
/// sending a unicast message").
class LeaveHeader final : public net::HeaderOf<LeaveHeader> {
 public:
  LeaveHeader(net::NodeId host, geo::GridCoord grid)
      : host_(host), grid_(grid) {}

  net::NodeId host() const { return host_; }
  const geo::GridCoord& grid() const { return grid_; }

  int bytes() const override { return 12; }
  const char* name() const override { return "LEAVE"; }

 private:
  net::NodeId host_;
  geo::GridCoord grid_;
};

/// SLEEP — a member tells its gateway it is turning its transceiver off,
/// keeping the host table's transmit/sleep status column (paper §3)
/// accurate so the gateway pages instead of unicasting into a dead ear.
class SleepNoticeHeader final : public net::HeaderOf<SleepNoticeHeader> {
 public:
  SleepNoticeHeader(net::NodeId host, geo::GridCoord grid)
      : host_(host), grid_(grid) {}

  net::NodeId host() const { return host_; }
  const geo::GridCoord& grid() const { return grid_; }

  int bytes() const override { return 12; }
  const char* name() const override { return "SLEEP"; }

 private:
  net::NodeId host_;
  geo::GridCoord grid_;
};

/// ACQ(gid, D) — a sleeping host that woke to transmit informs its
/// gateway (paper §3.3); the gateway answers with a HELLO.
class AcqHeader final : public net::HeaderOf<AcqHeader> {
 public:
  AcqHeader(net::NodeId host, geo::GridCoord grid, net::NodeId destination)
      : host_(host), grid_(grid), destination_(destination) {}

  net::NodeId host() const { return host_; }
  const geo::GridCoord& grid() const { return grid_; }
  net::NodeId destination() const { return destination_; }

  int bytes() const override { return 16; }
  const char* name() const override { return "ACQ"; }

 private:
  net::NodeId host_;
  geo::GridCoord grid_;
  net::NodeId destination_;
};

/// RREQ(S, s_seq, D, d_seq, id, range) — grid-confined route request
/// (paper §3.3). `originGrid` lets receivers build the reverse path.
class RreqHeader final : public net::HeaderOf<RreqHeader> {
 public:
  RreqHeader(net::NodeId source, SeqNo sourceSeq, net::NodeId destination,
             SeqNo destSeqKnown, std::uint32_t requestId, geo::GridRect range,
             geo::GridCoord senderGrid, geo::Vec2 senderPos, int hopCount)
      : source_(source),
        sourceSeq_(sourceSeq),
        destination_(destination),
        destSeqKnown_(destSeqKnown),
        requestId_(requestId),
        range_(range),
        senderGrid_(senderGrid),
        senderPos_(senderPos),
        hopCount_(hopCount) {}

  net::NodeId source() const { return source_; }
  SeqNo sourceSeq() const { return sourceSeq_; }
  net::NodeId destination() const { return destination_; }
  SeqNo destSeqKnown() const { return destSeqKnown_; }
  std::uint32_t requestId() const { return requestId_; }
  const geo::GridRect& range() const { return range_; }
  /// Grid of the gateway that (re)broadcast this copy — the reverse-path
  /// pointer target.
  const geo::GridCoord& senderGrid() const { return senderGrid_; }
  /// GPS position of that gateway when it sent this copy; receivers use
  /// it to reject hops that would already be at the edge of radio reach.
  const geo::Vec2& senderPos() const { return senderPos_; }
  int hopCount() const { return hopCount_; }

  int bytes() const override { return 52; }
  const char* name() const override { return "RREQ"; }

 private:
  net::NodeId source_;
  SeqNo sourceSeq_;
  net::NodeId destination_;
  SeqNo destSeqKnown_;
  std::uint32_t requestId_;
  geo::GridRect range_;
  geo::GridCoord senderGrid_;
  geo::Vec2 senderPos_;
  int hopCount_;
};

/// RREP(S, D, d_seq) — unicast back along the reverse path (paper §3.3).
class RrepHeader final : public net::HeaderOf<RrepHeader> {
 public:
  RrepHeader(net::NodeId source, net::NodeId destination, SeqNo destSeq,
             geo::GridCoord destGrid, geo::GridCoord senderGrid,
             geo::Vec2 senderPos, int hopCount)
      : source_(source),
        destination_(destination),
        destSeq_(destSeq),
        destGrid_(destGrid),
        senderGrid_(senderGrid),
        senderPos_(senderPos),
        hopCount_(hopCount) {}

  net::NodeId source() const { return source_; }
  net::NodeId destination() const { return destination_; }
  SeqNo destSeq() const { return destSeq_; }
  const geo::GridCoord& destGrid() const { return destGrid_; }
  /// Grid of the gateway forwarding this copy — the forward-path pointer.
  const geo::GridCoord& senderGrid() const { return senderGrid_; }
  /// GPS position of that gateway (keeps receivers' router tables warm).
  const geo::Vec2& senderPos() const { return senderPos_; }
  int hopCount() const { return hopCount_; }

  int bytes() const override { return 40; }
  const char* name() const override { return "RREP"; }

 private:
  net::NodeId source_;
  net::NodeId destination_;
  SeqNo destSeq_;
  geo::GridCoord destGrid_;
  geo::GridCoord senderGrid_;
  geo::Vec2 senderPos_;
  int hopCount_;
};

/// RERR — a gateway on the path could not forward towards `destination`;
/// propagated back so stale routes are purged and sources re-discover.
class RerrHeader final : public net::HeaderOf<RerrHeader> {
 public:
  RerrHeader(net::NodeId source, net::NodeId destination, SeqNo destSeq,
             geo::GridCoord senderGrid)
      : source_(source),
        destination_(destination),
        destSeq_(destSeq),
        senderGrid_(senderGrid) {}

  net::NodeId source() const { return source_; }
  net::NodeId destination() const { return destination_; }
  SeqNo destSeq() const { return destSeq_; }
  const geo::GridCoord& senderGrid() const { return senderGrid_; }

  int bytes() const override { return 20; }
  const char* name() const override { return "RERR"; }

 private:
  net::NodeId source_;
  net::NodeId destination_;
  SeqNo destSeq_;
  geo::GridCoord senderGrid_;
};

/// Application data riding the grid route. `payloadBytes` is the CBR
/// payload (512 B in the paper); the grid header adds 20 B.
class DataHeader final : public net::HeaderOf<DataHeader> {
 public:
  DataHeader(net::NodeId appSrc, net::NodeId appDst, int payloadBytes,
             net::DataTag tag)
      : appSrc_(appSrc), appDst_(appDst), payloadBytes_(payloadBytes), tag_(tag) {}

  net::NodeId appSrc() const { return appSrc_; }
  net::NodeId appDst() const { return appDst_; }
  int payloadBytes() const { return payloadBytes_; }
  const net::DataTag& tag() const { return tag_; }

  int bytes() const override { return 20 + payloadBytes_; }
  const char* name() const override { return "DATA"; }

 private:
  net::NodeId appSrc_;
  net::NodeId appDst_;
  int payloadBytes_;
  net::DataTag tag_;
};

}  // namespace ecgrid::protocols
