// Tests for wire messages and the Packet container: byte-accurate sizes,
// typed header access, sequence freshness.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "mac/csma.hpp"
#include "protocols/common/messages.hpp"
#include "protocols/flooding/flooding_protocol.hpp"
#include "protocols/gaf/gaf_protocol.hpp"

namespace ecgrid::protocols {
namespace {

TEST(SeqFresher, HandlesWraparound) {
  EXPECT_TRUE(seqFresher(2, 1));
  EXPECT_FALSE(seqFresher(1, 2));
  EXPECT_FALSE(seqFresher(1, 1));
  EXPECT_TRUE(seqFresher(3, 0xFFFFFFF0u));   // wrapped is fresher
  EXPECT_FALSE(seqFresher(0xFFFFFFF0u, 3));
}

TEST(Messages, WireSizes) {
  HelloHeader hello(1, {2, 3}, true, energy::BatteryLevel::kUpper, 4.0,
                    {5.0, 6.0});
  EXPECT_EQ(hello.bytes(), 28);

  RetireHeader retireEmpty({1, 1}, {});
  EXPECT_EQ(retireEmpty.bytes(), 12);
  RetireHeader retireTwo({1, 1}, std::vector<RouteRecord>(2));
  EXPECT_EQ(retireTwo.bytes(), 12 + 2 * kRouteRecordBytes);

  AcqHeader acq(1, {0, 0}, 9);
  EXPECT_EQ(acq.bytes(), 16);
  LeaveHeader leave(1, {0, 0});
  EXPECT_EQ(leave.bytes(), 12);
  SleepNoticeHeader snooze(1, {0, 0});
  EXPECT_EQ(snooze.bytes(), 12);

  RreqHeader rreq(1, 2, 3, 4, 5, geo::GridRect::everywhere(), {0, 0},
                  {1.0, 2.0}, 0);
  EXPECT_EQ(rreq.bytes(), 52);
  RrepHeader rrep(1, 3, 7, {5, 5}, {4, 5}, {450.0, 550.0}, 2);
  EXPECT_EQ(rrep.bytes(), 40);
  RerrHeader rerr(1, 3, 7, {4, 5});
  EXPECT_EQ(rerr.bytes(), 20);

  // The paper's 512 B CBR payload with grid header on top.
  DataHeader data(1, 3, 512, {});
  EXPECT_EQ(data.bytes(), 532);
}

TEST(Messages, PacketAddsMacFraming) {
  net::Packet frame;
  frame.header = std::make_shared<DataHeader>(1, 2, 512, net::DataTag{});
  EXPECT_EQ(frame.bytes(), 512 + 20 + net::kMacOverheadBytes);
}

TEST(Messages, TypedHeaderAccess) {
  net::Packet frame;
  frame.header = std::make_shared<AcqHeader>(4, geo::GridCoord{1, 2}, 9);
  ASSERT_NE(frame.headerAs<AcqHeader>(), nullptr);
  EXPECT_EQ(frame.headerAs<AcqHeader>()->destination(), 9);
  EXPECT_EQ(frame.headerAs<HelloHeader>(), nullptr);
  EXPECT_EQ(frame.headerAs<DataHeader>(), nullptr);
}

/// A header class deriving from net::Header directly: it has no tag, so
/// no typed view matches it.
class UntaggedHeader final : public net::Header {
 public:
  int bytes() const override { return 1; }
  const char* name() const override { return "UNTAGGED"; }
};

/// Typed view of `frame` as H, as an untyped pointer.
template <typename H>
const void* viewAs(const net::Packet& frame) {
  return frame.headerAs<H>();
}

// Every header class against every other: a typed view is the header's
// own address for its class and null for every other one.
TEST(Messages, TypedViewMatchesExactlyItsOwnClass) {
  const std::vector<std::shared_ptr<const net::Header>> samples = {
      std::make_shared<mac::AckHeader>(1),
      std::make_shared<HelloHeader>(1, geo::GridCoord{0, 0}, false,
                                    energy::BatteryLevel::kUpper, 0.0,
                                    geo::Vec2{}),
      std::make_shared<RetireHeader>(geo::GridCoord{1, 1},
                                     std::vector<RouteRecord>{}),
      std::make_shared<HandoffHeader>(
          geo::GridCoord{1, 1}, std::vector<RouteRecord>{},
          std::vector<std::pair<net::NodeId, bool>>{}),
      std::make_shared<LeaveHeader>(1, geo::GridCoord{0, 0}),
      std::make_shared<SleepNoticeHeader>(1, geo::GridCoord{0, 0}),
      std::make_shared<AcqHeader>(1, geo::GridCoord{0, 0}, 9),
      std::make_shared<RreqHeader>(1, 2, 3, 4, 5,
                                   geo::GridRect::everywhere(),
                                   geo::GridCoord{0, 0}, geo::Vec2{}, 0),
      std::make_shared<RrepHeader>(1, 3, 7, geo::GridCoord{5, 5},
                                   geo::GridCoord{4, 5}, geo::Vec2{}, 2),
      std::make_shared<RerrHeader>(1, 3, 7, geo::GridCoord{4, 5}),
      std::make_shared<DataHeader>(1, 3, 512, net::DataTag{}),
      std::make_shared<GafDiscoveryHeader>(
          1, geo::GridCoord{0, 0},
          GafDiscoveryHeader::NodeState::kActive, 1.0, 2.0, geo::Vec2{}),
      std::make_shared<FloodHeader>(1, 2, 3,
                                    DataHeader(1, 3, 512, net::DataTag{})),
  };
  // One view per class, in the order of `samples`.
  const std::vector<const void* (*)(const net::Packet&)> views = {
      &viewAs<mac::AckHeader>,    &viewAs<HelloHeader>,
      &viewAs<RetireHeader>,      &viewAs<HandoffHeader>,
      &viewAs<LeaveHeader>,       &viewAs<SleepNoticeHeader>,
      &viewAs<AcqHeader>,         &viewAs<RreqHeader>,
      &viewAs<RrepHeader>,        &viewAs<RerrHeader>,
      &viewAs<DataHeader>,        &viewAs<GafDiscoveryHeader>,
      &viewAs<FloodHeader>,
  };
  ASSERT_EQ(samples.size(), views.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    net::Packet frame;
    frame.header = samples[i];
    for (std::size_t j = 0; j < views.size(); ++j) {
      EXPECT_EQ(views[j](frame), i == j ? samples[i].get() : nullptr)
          << samples[i]->name() << " viewed as class " << j;
    }
    EXPECT_EQ(net::headerAs<DataHeader>(samples[i].get()),
              i == 10 ? samples[i].get() : nullptr);
  }
  net::Packet untagged;
  untagged.header = std::make_shared<UntaggedHeader>();
  net::Packet empty;
  for (const auto& view : views) {
    EXPECT_EQ(view(untagged), nullptr);
    EXPECT_EQ(view(empty), nullptr);
  }
}

TEST(Messages, HeadersAreImmutableShared) {
  auto hello = std::make_shared<HelloHeader>(
      1, geo::GridCoord{0, 0}, false, energy::BatteryLevel::kUpper, 0.0,
      geo::Vec2{});
  net::Packet a;
  a.header = hello;
  net::Packet b = a;  // copy shares the header
  EXPECT_EQ(a.header.get(), b.header.get());
}

TEST(Messages, DescribeIsHumanReadable) {
  HelloHeader hello(7, {2, 3}, true, energy::BatteryLevel::kBoundary, 4.0, {});
  EXPECT_NE(hello.describe().find("id=7"), std::string::npos);
  DataHeader data(1, 2, 10, net::DataTag{0, 42, 0.0});
  EXPECT_NE(data.describe().find("seq=42"), std::string::npos);
}

TEST(Messages, GafDiscoverySize) {
  GafDiscoveryHeader disc(1, {0, 0}, GafDiscoveryHeader::NodeState::kActive,
                          0.9, 30.0, {10.0, 10.0});
  EXPECT_EQ(disc.bytes(), 32);
}

TEST(Messages, MacAckIsTiny) {
  mac::AckHeader ack(17);
  EXPECT_EQ(ack.bytes(), 2);
  net::Packet frame;
  frame.header = std::make_shared<mac::AckHeader>(17);
  EXPECT_EQ(frame.bytes(), 36);  // 2 + 34 B MAC framing
}

}  // namespace
}  // namespace ecgrid::protocols
