// Blind flooding — a correctness oracle, not a contender.
//
// Every host stays awake and rebroadcasts every data packet once
// (duplicate-suppressed, TTL-bounded). Within a connected component this
// delivers whenever *any* route exists, so integration tests use it as a
// reachability oracle against which the grid protocols' delivery is
// judged; the broadcast-storm ablation bench uses it as the "no search
// range at all" extreme.
#pragma once

#include <cstdint>
#include <set>
#include <utility>

#include "net/host_env.hpp"
#include "net/routing_protocol.hpp"
#include "protocols/common/messages.hpp"
#include "util/ownership.hpp"

namespace ecgrid::protocols {

/// Data wrapped with flood bookkeeping (origin + sequence + TTL).
class FloodHeader final : public net::HeaderOf<FloodHeader> {
 public:
  FloodHeader(net::NodeId origin, std::uint32_t floodSeq, int ttl,
              DataHeader data)
      : origin_(origin), floodSeq_(floodSeq), ttl_(ttl), data_(std::move(data)) {}

  net::NodeId origin() const { return origin_; }
  std::uint32_t floodSeq() const { return floodSeq_; }
  int ttl() const { return ttl_; }
  const DataHeader& data() const { return data_; }

  int bytes() const override { return 12 + data_.bytes(); }
  const char* name() const override { return "FLOOD"; }

 private:
  net::NodeId origin_;
  std::uint32_t floodSeq_;
  int ttl_;
  DataHeader data_;
};

struct FloodingConfig {
  int ttl = 64;
};

class ECGRID_DOMAIN_PER_HOST FloodingProtocol final : public net::RoutingProtocol {
 public:
  FloodingProtocol(net::HostEnv& env, const FloodingConfig& config)
      : env_(env), config_(config) {}

  const char* name() const override { return "FLOOD"; }
  void start() override {}
  void onFrame(const net::Packet& packet) override;
  void sendData(net::NodeId destination, int payloadBytes,
                const net::DataTag& tag) override;
  void onPaged(const net::PageSignal&) override {}
  void onCellChanged(const geo::GridCoord&, const geo::GridCoord&) override {}
  void onShutdown() override { dead_ = true; }

  std::uint64_t rebroadcasts() const { return rebroadcasts_; }

 private:
  void broadcast(std::shared_ptr<const net::Header> header);

  net::HostEnv& env_;
  FloodingConfig config_;
  bool dead_ = false;
  std::uint32_t nextSeq_ = 1;
  std::set<std::pair<net::NodeId, std::uint32_t>> seen_;
  std::uint64_t rebroadcasts_ = 0;
};

}  // namespace ecgrid::protocols
