#include "routing/aodv/aodv.hpp"

#include <gtest/gtest.h>

#include "routing_fixture.hpp"

namespace mts::routing::aodv {
namespace {

using testing_bench = mts::testing::RoutingBench;
using mts::testing::chain;
using Proto = testing_bench::Proto;

TEST(AodvTest, DiscoversRouteAndDeliversOnChain) {
  testing_bench b(Proto::kAodv, chain(4));
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  ASSERT_EQ(b.node(3).delivered.size(), 1u);
  EXPECT_EQ(b.node(3).delivered[0].common().src, 0u);
}

TEST(AodvTest, InstallsForwardAndReverseRoutes) {
  testing_bench b(Proto::kAodv, chain(4));
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  auto* a0 = b.protocol<Aodv>(0);
  auto* a1 = b.protocol<Aodv>(1);
  const auto* fwd = a0->route_to(3);
  ASSERT_NE(fwd, nullptr);
  EXPECT_TRUE(fwd->valid);
  EXPECT_EQ(fwd->next_hop, 1u);
  EXPECT_EQ(fwd->hop_count, 3);
  const auto* rev = a1->route_to(0);
  ASSERT_NE(rev, nullptr);
  EXPECT_EQ(rev->next_hop, 0u);
}

TEST(AodvTest, DeliversLocallyWithoutNetwork) {
  testing_bench b(Proto::kAodv, chain(2));
  b.send_data(0, 0);
  EXPECT_EQ(b.node(0).delivered.size(), 1u);
}

TEST(AodvTest, BuffersUntilRouteFound) {
  testing_bench b(Proto::kAodv, chain(3));
  b.send_data(0, 2);
  b.send_data(0, 2);
  b.send_data(0, 2);
  EXPECT_GE(b.protocol<Aodv>(0)->buffered(), 2u);  // first may be in flight
  b.sched.run_until(sim::Time::sec(2));
  EXPECT_EQ(b.node(2).delivered.size(), 3u);
  EXPECT_EQ(b.protocol<Aodv>(0)->buffered(), 0u);
}

TEST(AodvTest, UnreachableDestinationDropsAfterRetries) {
  // Node 2 is beyond everyone's range.  Three RREQs wait 1 + 2 + 4 s.
  testing_bench b(Proto::kAodv, {{0, 0}, {200, 0}, {5000, 0}});
  b.send_data(0, 2);
  b.sched.run_until(sim::Time::sec(8));
  EXPECT_TRUE(b.node(2).delivered.empty());
  EXPECT_EQ(b.protocol<Aodv>(0)->buffered(), 0u);  // gave up, dropped
  EXPECT_GT(b.node(0).counters.dropped(net::DropReason::kNoRoute), 0u);
}

TEST(AodvTest, SequenceNumberIncreasesWithActivity) {
  testing_bench b(Proto::kAodv, chain(3));
  const auto seq_before = b.protocol<Aodv>(0)->own_seq();
  b.send_data(0, 2);
  b.sched.run_until(sim::Time::sec(1));
  EXPECT_GT(b.protocol<Aodv>(0)->own_seq(), seq_before);
}

TEST(AodvTest, IntermediateReplyFromFreshRoute) {
  testing_bench b(Proto::kAodv, chain(4));
  // Prime node 1 with a route to 3 via a first discovery 0->3.
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(1));
  const auto floods_before = b.node(0).counters.sent_control;
  // A later discovery by node 0 for the same dst can be answered without
  // the flood reaching node 3 again; hard to observe directly, so check
  // the route is reusable: expire nothing, send again, no new RREQ.
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  EXPECT_EQ(b.node(0).counters.sent_control, floods_before);
  EXPECT_EQ(b.node(3).delivered.size(), 2u);
}

// The active-route timeout is 10 s.
TEST(AodvTest, RouteExpiresWithoutUse) {
  testing_bench b(Proto::kAodv, chain(3));
  b.send_data(0, 2);
  b.sched.run_until(sim::Time::sec(5));
  ASSERT_NE(b.protocol<Aodv>(0)->route_to(2), nullptr);
  EXPECT_TRUE(b.protocol<Aodv>(0)->route_to(2)->valid);
  b.sched.run_until(sim::Time::sec(25));
  const auto* e = b.protocol<Aodv>(0)->route_to(2);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->valid);  // purged by the periodic sweep
}

TEST(AodvTest, ActiveTrafficKeepsRouteAlive) {
  testing_bench b(Proto::kAodv, chain(3));
  for (int t = 0; t < 8; ++t) {
    b.sched.schedule_at(sim::Time::sec(5 * t) + sim::Time::ms(1),
                        [&b] { b.send_data(0, 2); });
  }
  b.sched.run_until(sim::Time::sec(40));
  const auto* e = b.protocol<Aodv>(0)->route_to(2);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->valid);
  EXPECT_EQ(b.node(2).delivered.size(), 8u);
}

TEST(AodvTest, TtlGuardsAgainstInfiniteForwarding) {
  testing_bench b(Proto::kAodv, chain(3));
  b.send_data(0, 2);
  b.sched.run_until(sim::Time::sec(2));
  // Deliveries happened; no packet ever looped (ttl_expired == 0 on a
  // loop-free chain).
  EXPECT_EQ(b.node(1).counters.dropped(net::DropReason::kTtlExpired), 0u);
}

TEST(AodvTest, ControlOverheadCountsFloodAndReply) {
  testing_bench b(Proto::kAodv, chain(3));
  b.send_data(0, 2);
  b.sched.run_until(sim::Time::sec(2));
  std::uint64_t ctrl = 0;
  for (net::NodeId i = 0; i < 3; ++i) {
    ctrl += b.node(i).counters.control_transmissions();
  }
  // At least: RREQ at 0, relay at 1, RREP at 2, RREP relay at 1.
  EXPECT_GE(ctrl, 4u);
}

}  // namespace
}  // namespace mts::routing::aodv
