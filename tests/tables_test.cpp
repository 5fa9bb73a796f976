// Tests for the protocol state tables: routing table freshness rules,
// RREQ duplicate cache, neighbour-gateway table, host table.
#include <gtest/gtest.h>

#include "protocols/common/routing_table.hpp"
#include "protocols/common/tables.hpp"

namespace ecgrid::protocols {
namespace {

RouteEntry route(geo::GridCoord next, SeqNo seq, int hops) {
  RouteEntry entry;
  entry.nextGrid = next;
  entry.destGrid = next;
  entry.destSeq = seq;
  entry.hopCount = hops;
  return entry;
}

TEST(RoutingTable, StoresAndLooksUp) {
  RoutingTable table(10.0);
  EXPECT_TRUE(table.update(5, route({1, 0}, 3, 2), 0.0));
  auto found = table.lookup(5, 1.0);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->nextGrid, (geo::GridCoord{1, 0}));
  EXPECT_EQ(found->destSeq, 3u);
  EXPECT_FALSE(table.lookup(6, 1.0).has_value());
}

TEST(RoutingTable, EntriesExpire) {
  RoutingTable table(10.0);
  table.update(5, route({1, 0}, 3, 2), 0.0);
  EXPECT_TRUE(table.lookup(5, 9.9).has_value());
  EXPECT_FALSE(table.lookup(5, 10.1).has_value());
}

TEST(RoutingTable, RefreshExtendsLifetime) {
  RoutingTable table(10.0);
  table.update(5, route({1, 0}, 3, 2), 0.0);
  table.refresh(5, 8.0);
  EXPECT_TRUE(table.lookup(5, 15.0).has_value());
  EXPECT_FALSE(table.lookup(5, 18.1).has_value());
}

TEST(RoutingTable, StalerSequenceIsRejected) {
  RoutingTable table(10.0);
  table.update(5, route({1, 0}, 10, 2), 0.0);
  EXPECT_FALSE(table.update(5, route({2, 0}, 9, 1), 1.0));
  EXPECT_EQ(table.lookup(5, 1.0)->nextGrid, (geo::GridCoord{1, 0}));
}

TEST(RoutingTable, SameSeqShorterPathWins) {
  RoutingTable table(10.0);
  table.update(5, route({1, 0}, 10, 5), 0.0);
  EXPECT_TRUE(table.update(5, route({2, 0}, 10, 3), 1.0));
  EXPECT_EQ(table.lookup(5, 1.0)->hopCount, 3);
  EXPECT_FALSE(table.update(5, route({3, 0}, 10, 4), 2.0));
}

TEST(RoutingTable, SequenceWraparound) {
  RoutingTable table(10.0);
  SeqNo nearMax = 0xFFFFFFF0u;
  table.update(5, route({1, 0}, nearMax, 1), 0.0);
  // A wrapped-around (small) number is fresher than a near-max one.
  EXPECT_TRUE(table.update(5, route({2, 0}, 5u, 1), 1.0));
}

TEST(RoutingTable, ExpiredEntryIsReplaceableByAnything) {
  RoutingTable table(1.0);
  table.update(5, route({1, 0}, 100, 1), 0.0);
  // After expiry even a stale sequence number may install.
  EXPECT_TRUE(table.update(5, route({2, 0}, 1, 1), 5.0));
}

TEST(RoutingTable, ExportImportRoundTrip) {
  RoutingTable source(10.0);
  source.update(5, route({1, 0}, 3, 2), 0.0);
  source.update(7, route({2, 2}, 8, 1), 0.0);
  auto records = source.exportRecords(1.0);
  EXPECT_EQ(records.size(), 2u);

  RoutingTable target(10.0);
  target.importRecords(records, 1.0);
  EXPECT_TRUE(target.lookup(5, 2.0).has_value());
  EXPECT_TRUE(target.lookup(7, 2.0).has_value());
  EXPECT_EQ(target.lastKnownSeq(7), 8u);
}

TEST(RoutingTable, ExportSkipsExpired) {
  RoutingTable table(1.0);
  table.update(5, route({1, 0}, 3, 2), 0.0);
  EXPECT_TRUE(table.exportRecords(0.5).size() == 1);
  EXPECT_TRUE(table.exportRecords(2.0).empty());
}

TEST(RoutingTable, ImportKeepsFresherLocalEntry) {
  RoutingTable table(10.0);
  table.update(5, route({1, 0}, 10, 1), 0.0);
  RouteRecord rec;
  rec.destination = 5;
  rec.nextGrid = {9, 9};
  rec.destSeq = 4;  // staler
  rec.expiry = 8.0;
  table.importRecords({rec}, 1.0);
  EXPECT_EQ(table.lookup(5, 1.0)->nextGrid, (geo::GridCoord{1, 0}));
}

TEST(RreqCache, SuppressesDuplicates) {
  RreqCache cache(5.0);
  EXPECT_TRUE(cache.firstSighting(1, 100, 0.0));
  EXPECT_FALSE(cache.firstSighting(1, 100, 0.1));
  EXPECT_TRUE(cache.firstSighting(1, 101, 0.1));  // different request
  EXPECT_TRUE(cache.firstSighting(2, 100, 0.1));  // different source
}

TEST(RreqCache, ForgetsAfterHorizon) {
  RreqCache cache(5.0);
  EXPECT_TRUE(cache.firstSighting(1, 100, 0.0));
  // Re-sighting inside the horizon keeps the suppression alive…
  EXPECT_FALSE(cache.firstSighting(1, 100, 4.0));
  // …but long after the last copy, the pair is forgotten.
  EXPECT_TRUE(cache.firstSighting(1, 100, 30.0));
}

TEST(NeighbourGatewayTable, ObserveAndLookup) {
  NeighbourGatewayTable table(5.0);
  table.observe({1, 1}, 7, {150.0, 150.0}, 0.0);
  EXPECT_EQ(table.gatewayOf({1, 1}, 1.0), std::optional<net::NodeId>(7));
  EXPECT_FALSE(table.gatewayOf({2, 2}, 1.0).has_value());
  EXPECT_FALSE(table.gatewayOf({1, 1}, 6.0).has_value());  // stale
}

TEST(NeighbourGatewayTable, RangeCheckedLookup) {
  NeighbourGatewayTable table(5.0);
  table.observe({1, 1}, 7, {150.0, 150.0}, 0.0);
  EXPECT_TRUE(table.gatewayOf({1, 1}, 1.0, {50.0, 50.0}, 230.0).has_value());
  EXPECT_FALSE(
      table.gatewayOf({1, 1}, 1.0, {500.0, 500.0}, 230.0).has_value());
}

TEST(NeighbourGatewayTable, ForgetVariants) {
  NeighbourGatewayTable table(5.0);
  table.observe({1, 1}, 7, {}, 0.0);
  table.observe({2, 2}, 7, {}, 0.0);
  table.observe({3, 3}, 8, {}, 0.0);
  table.forget({1, 1}, 9);  // wrong gateway: no-op
  EXPECT_TRUE(table.gatewayOf({1, 1}, 1.0).has_value());
  table.forget({1, 1}, 7);
  EXPECT_FALSE(table.gatewayOf({1, 1}, 1.0).has_value());
  table.forgetById(7);
  EXPECT_FALSE(table.gatewayOf({2, 2}, 1.0).has_value());
  EXPECT_TRUE(table.gatewayOf({3, 3}, 1.0).has_value());
}

TEST(NeighbourGatewayTable, NewObservationReplacesOld) {
  NeighbourGatewayTable table(5.0);
  table.observe({1, 1}, 7, {}, 0.0);
  table.observe({1, 1}, 9, {}, 1.0);  // gateway changed
  EXPECT_EQ(table.gatewayOf({1, 1}, 1.5), std::optional<net::NodeId>(9));
}

TEST(NeighbourGatewayTable, KeysStayInStepAfterForget) {
  // Grids with negative coordinates: (-1, 0) and (0, -1) must stay apart,
  // and each grid must keep its own entry when forget/forgetById compact
  // the table.
  NeighbourGatewayTable table(5.0);
  table.observe({-1, 0}, 1, {-50.0, 50.0}, 0.0);
  table.observe({0, -1}, 2, {50.0, -50.0}, 0.0);
  table.observe({-1, -1}, 3, {-50.0, -50.0}, 0.0);
  table.observe({-2, 3}, 1, {-150.0, 350.0}, 0.0);
  table.observe({4, -5}, 4, {450.0, -450.0}, 0.0);
  ASSERT_EQ(table.size(), 5u);
  table.forget({0, -1}, 2);
  table.forgetById(1);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_FALSE(table.gatewayOf({-1, 0}, 1.0).has_value());
  EXPECT_FALSE(table.gatewayOf({0, -1}, 1.0).has_value());
  EXPECT_FALSE(table.gatewayOf({-2, 3}, 1.0).has_value());
  EXPECT_EQ(table.gatewayOf({-1, -1}, 1.0), std::optional<net::NodeId>(3));
  EXPECT_EQ(table.gatewayOf({4, -5}, 1.0), std::optional<net::NodeId>(4));
  // The survivors kept their positions: the range check reads them.
  EXPECT_TRUE(
      table.gatewayOf({4, -5}, 1.0, {450.0, -400.0}, 60.0).has_value());
  EXPECT_FALSE(
      table.gatewayOf({-1, -1}, 1.0, {450.0, -400.0}, 60.0).has_value());
  // Re-observing a forgotten grid appends it afresh; a live one updates
  // in place.
  table.observe({0, -1}, 5, {60.0, -60.0}, 2.0);
  table.observe({-1, -1}, 6, {-60.0, -60.0}, 2.0);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.gatewayOf({0, -1}, 3.0), std::optional<net::NodeId>(5));
  EXPECT_EQ(table.gatewayOf({-1, -1}, 3.0), std::optional<net::NodeId>(6));
  EXPECT_FALSE(table.gatewayOf({-1, 0}, 3.0).has_value());
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.gatewayOf({4, -5}, 3.0).has_value());
}

TEST(HostTable, TracksStatus) {
  HostTable table(2.5);
  table.markActive(4, 0.0);
  table.markSleeping(5, 0.0);
  EXPECT_TRUE(table.contains(4, 0.0));
  EXPECT_TRUE(table.contains(5, 0.0));
  EXPECT_FALSE(table.contains(6, 0.0));
  EXPECT_FALSE(table.isSleeping(4, 1.0));
  EXPECT_TRUE(table.isSleeping(5, 1.0));
}

TEST(HostTable, StaleActivesArePresumedAsleep) {
  HostTable table(2.5);
  table.markActive(4, 0.0);
  EXPECT_FALSE(table.isSleeping(4, 2.0));
  EXPECT_TRUE(table.isSleeping(4, 3.0));  // stopped HELLOing
  EXPECT_TRUE(table.contains(4, 3.0));    // still a member, though
}

TEST(HostTable, SleepersNeverAgeOut) {
  HostTable table(2.5);
  table.markSleeping(5, 0.0);
  EXPECT_TRUE(table.contains(5, 1000.0));
  EXPECT_TRUE(table.isSleeping(5, 1000.0));
}

TEST(HostTable, ExportImportRoundTrip) {
  HostTable source(2.5);
  source.markActive(4, 0.0);
  source.markSleeping(5, 0.0);
  HostTable target(2.5);
  target.importEntries(source.exportEntries(), 1.0);
  EXPECT_TRUE(target.contains(4, 1.0));
  EXPECT_TRUE(target.isSleeping(5, 1.0));
  EXPECT_FALSE(target.isSleeping(4, 1.0));
}

TEST(HostTable, RemoveAndDemote) {
  HostTable table(2.5);
  table.markActive(4, 0.0);
  table.remove(4);
  EXPECT_FALSE(table.contains(4, 0.0));
  table.markActive(6, 0.0);
  table.demoteStaleActives(5.0);
  EXPECT_TRUE(table.isSleeping(6, 5.0));
}

}  // namespace
}  // namespace ecgrid::protocols
