#include "routing/dsr/dsr.hpp"

#include <gtest/gtest.h>

#include "routing_fixture.hpp"

namespace mts::routing::dsr {
namespace {

using testing_bench = mts::testing::RoutingBench;
using mts::testing::chain;
using Proto = testing_bench::Proto;
using mts::testing::rerr;
using mts::testing::source_routed;

TEST(DsrTest, DiscoversSourceRouteAndDelivers) {
  testing_bench b(Proto::kDsr, chain(4));
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  ASSERT_EQ(b.node(3).delivered.size(), 1u);
  // Delivered packet carries the full source route 0-1-2-3.
  const auto* sr =
      std::get_if<net::DsrSourceRoute>(&b.node(3).delivered[0].routing());
  ASSERT_NE(sr, nullptr);
  EXPECT_EQ(sr->route, (std::vector<net::NodeId>{0, 1, 2, 3}));
}

TEST(DsrTest, SourceCachesDiscoveredRoute) {
  testing_bench b(Proto::kDsr, chain(4));
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  auto r = b.protocol<Dsr>(0)->cache().find(3, b.sched.now());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, (std::vector<net::NodeId>{0, 1, 2, 3}));
}

TEST(DsrTest, SecondSendUsesCacheWithoutNewFlood) {
  testing_bench b(Proto::kDsr, chain(4));
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  const auto ctrl_before = b.node(0).counters.sent_control;
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(4));
  EXPECT_EQ(b.node(0).counters.sent_control, ctrl_before);
  EXPECT_EQ(b.node(3).delivered.size(), 2u);
}

TEST(DsrTest, DestinationLearnsReverseRouteForAcks) {
  testing_bench b(Proto::kDsr, chain(4));
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  auto back = b.protocol<Dsr>(3)->cache().find(0, b.sched.now());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, (std::vector<net::NodeId>{3, 2, 1, 0}));
  // And the reverse direction actually works:
  b.send_data(3, 0);
  b.sched.run_until(sim::Time::sec(3));
  EXPECT_EQ(b.node(0).delivered.size(), 1u);
}

TEST(DsrTest, IntermediateNodesLearnFromRreqAndRrep) {
  testing_bench b(Proto::kDsr, chain(4));
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  // Node 1 saw the RREP pass: it knows a suffix route to 3.
  EXPECT_TRUE(b.protocol<Dsr>(1)->cache().find(3, b.sched.now()).has_value());
  // And from the RREQ record: a reverse route toward 0.
  EXPECT_TRUE(b.protocol<Dsr>(1)->cache().find(0, b.sched.now()).has_value());
}

TEST(DsrTest, ReplyFromCacheAnswersForeignDiscovery) {
  testing_bench b(Proto::kDsr, {{0, 0}, {200, 0}, {400, 0}, {200, 200}});
  // Prime node 1's cache with a route to 2.
  b.send_data(1, 2);
  b.sched.run_until(sim::Time::sec(1));
  // Node 3 (adjacent to 1 only) asks for 2: node 1 can answer from cache.
  b.send_data(3, 2);
  b.sched.run_until(sim::Time::sec(3));
  EXPECT_EQ(b.node(2).delivered.size(), 2u);
}

/// Relay 1 reaches node 4 over node 2 or node 3; node 5 hangs off node 0.
std::vector<mobility::Vec2> split_after_relay() {
  return {{0, 0}, {200, 0}, {400, 100}, {400, -100}, {600, 0}, {-200, 0}};
}

bool uses_link(const std::vector<net::RouteVec>& paths, net::NodeId from,
               net::NodeId to) {
  for (const auto& p : paths) {
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      if (p[i] == from && p[i + 1] == to) return true;
    }
  }
  return false;
}

net::RouteVec route_of(const net::Packet& p) {
  return std::get<net::DsrSourceRoute>(p.routing()).route;
}

TEST(DsrTest, RelayLinkFailureSalvagesOverTheRelaysOtherRoute) {
  testing_bench b(Proto::kDsr, split_after_relay());
  const net::Packet first = b.send_data(0, 4);
  b.sched.run_until(sim::Time::sec(2));
  // Node 4's discovery of node 5 teaches relay 1 the reverse route over
  // whichever of nodes 2 and 3 its flood reached node 1 through first.
  b.send_data(4, 5);
  b.sched.run_until(sim::Time::sec(4));
  ASSERT_EQ(b.node(4).delivered.size(), 1u);
  const net::RouteVec used = route_of(b.node(4).delivered[0]);
  ASSERT_EQ(used.size(), 4u);
  const net::NodeId dead = used[2];
  const net::NodeId other = dead == 2 ? 3 : 2;
  ASSERT_TRUE(uses_link(b.protocol<Dsr>(1)->cache().snapshot(), 1, other));
  const auto rreqs = b.node(0).counters.sent_control;

  // Relay 1's MAC gives up on `dead` and hands back the packet it was
  // forwarding along the route node 0 chose.
  b.node(1).routing->on_link_failure(source_routed(first, used, 1), dead);
  b.sched.run_until(sim::Time::sec(6));

  EXPECT_FALSE(uses_link(b.protocol<Dsr>(1)->cache().snapshot(), 1, dead));
  ASSERT_EQ(b.node(4).delivered.size(), 2u);
  const auto& salvaged =
      std::get<net::DsrSourceRoute>(b.node(4).delivered[1].routing());
  EXPECT_TRUE(salvaged.salvaged);
  EXPECT_EQ(salvaged.route, (std::vector<net::NodeId>{1, other, 4}));
  EXPECT_EQ(b.node(0).counters.sent_control, rreqs);  // no rediscovery
}

TEST(DsrTest, RerrPrunesTheDeadLinkFromEveryCacheItPasses) {
  testing_bench b(Proto::kDsr, split_after_relay());
  b.send_data(0, 4);
  b.sched.run_until(sim::Time::sec(2));
  ASSERT_EQ(b.node(4).delivered.size(), 1u);
  const net::RouteVec used = route_of(b.node(4).delivered[0]);
  const net::NodeId reporter = used[2];
  ASSERT_TRUE(uses_link(b.protocol<Dsr>(0)->cache().snapshot(), reporter, 4));
  ASSERT_TRUE(uses_link(b.protocol<Dsr>(1)->cache().snapshot(), reporter, 4));
  const auto rreqs = b.node(0).counters.sent_control;

  // The reporter's link to node 4 died; its RERR walks back to node 0.
  // Built here as the back path should read: the one a relay builds
  // today names the relay itself as the first hop and never leaves it.
  b.node(1).routing->receive_from_mac(rerr(b.uids, 4, {reporter, 1, 0}),
                                      reporter);
  b.sched.run_until(sim::Time::sec(3));
  EXPECT_EQ(b.node(1).counters.forwarded_control, 3u);  // RREQ, RREP, RERR
  EXPECT_FALSE(uses_link(b.protocol<Dsr>(1)->cache().snapshot(), reporter, 4));
  EXPECT_FALSE(uses_link(b.protocol<Dsr>(0)->cache().snapshot(), reporter, 4));

  // With no cached route left, node 0's next packet re-discovers.
  b.send_data(0, 4);
  b.sched.run_until(sim::Time::sec(5));
  EXPECT_GT(b.node(0).counters.sent_control, rreqs);
  EXPECT_EQ(b.node(4).delivered.size(), 2u);
}

TEST(DsrTest, UnreachableDestinationGivesUpViaBufferTimeout) {
  // The packet ages out of the send buffer after 30 s.
  testing_bench b(Proto::kDsr, {{0, 0}, {200, 0}, {5000, 0}});
  b.send_data(0, 2);
  b.sched.run_until(sim::Time::sec(35));
  EXPECT_TRUE(b.node(2).delivered.empty());
  EXPECT_EQ(b.protocol<Dsr>(0)->buffered(), 0u);
  EXPECT_GT(b.node(0).counters.dropped(net::DropReason::kSendBufferTimeout),
            0u);
}

TEST(DsrTest, RouteLengthCappedAtSixteenHops) {
  // The RREQ leaves with TTL 16 and a 16-node record limit: a 17-node
  // chain (16 hops) is the longest that discovery still spans.
  testing_bench fits(Proto::kDsr, chain(17));
  fits.send_data(0, 16);
  fits.sched.run_until(sim::Time::sec(10));
  EXPECT_EQ(fits.node(16).delivered.size(), 1u);

  testing_bench beyond(Proto::kDsr, chain(19));  // 17 relays > the record
  beyond.send_data(0, 18);
  beyond.sched.run_until(sim::Time::sec(10));
  EXPECT_TRUE(beyond.node(18).delivered.empty());
  EXPECT_GT(beyond.node(16).counters.dropped(net::DropReason::kTtlExpired),
            0u);
}

TEST(DsrTest, DataCarriesGrowingHeaderCost) {
  // Source-routed data pays 4 bytes per hop in the header: verify the
  // wire size of the delivered packet reflects the 4-node route.
  testing_bench b(Proto::kDsr, chain(4));
  b.send_data(0, 3, 100);
  b.sched.run_until(sim::Time::sec(2));
  ASSERT_EQ(b.node(3).delivered.size(), 1u);
  const auto& p = b.node(3).delivered[0];
  EXPECT_EQ(p.wire_bytes(), net::kCommonHeaderBytes + net::kTcpHeaderBytes +
                                100 + 4 + 4 * 4);
}

}  // namespace
}  // namespace mts::routing::dsr
