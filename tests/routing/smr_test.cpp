#include "routing/smr/smr.hpp"

#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "routing_fixture.hpp"

namespace mts::routing::smr {
namespace {

using testing_bench = mts::testing::RoutingBench;
using mts::testing::chain;
using Proto = testing_bench::Proto;
using mts::testing::rerr;
using mts::testing::source_routed;

std::vector<mobility::Vec2> diamond() {
  return {{0, 0}, {200, 150}, {200, -150}, {400, 0}};
}

TEST(SmrTest, DeliversOnChain) {
  testing_bench b(Proto::kSmr, chain(4));
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  ASSERT_EQ(b.node(3).delivered.size(), 1u);
}

TEST(SmrTest, DiscoversTwoDisjointRoutesOnDiamond) {
  testing_bench b(Proto::kSmr, diamond());
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  const auto routes = b.protocol<Smr>(0)->active_routes(3);
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_NE(routes[0], routes[1]);
  // One via node 1, one via node 2.
  EXPECT_NE(routes[0][1], routes[1][1]);
}

TEST(SmrTest, StripesDataAcrossBothRoutes) {
  testing_bench b(Proto::kSmr, diamond());
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  for (int i = 0; i < 40; ++i) b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(5));
  // Round-robin: both relays forwarded data.
  EXPECT_GT(b.node(1).counters.forwarded_data, 10u);
  EXPECT_GT(b.node(2).counters.forwarded_data, 10u);
  EXPECT_GE(b.node(3).delivered.size(), 40u);
}

TEST(SmrTest, SinkRepliesAlongReversedRoute) {
  testing_bench b(Proto::kSmr, diamond());
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  ASSERT_EQ(b.node(3).delivered.size(), 1u);
  b.send_data(3, 0);  // no discovery needed
  b.sched.run_until(sim::Time::sec(3));
  EXPECT_EQ(b.node(0).delivered.size(), 1u);
}

TEST(SmrTest, SurvivesWithSingleRouteTopology) {
  testing_bench b(Proto::kSmr, chain(3));
  for (int i = 0; i < 10; ++i) b.send_data(0, 2);
  b.sched.run_until(sim::Time::sec(3));
  EXPECT_EQ(b.node(2).delivered.size(), 10u);
  EXPECT_EQ(b.protocol<Smr>(0)->active_routes(2).size(), 1u);
}

TEST(SmrTest, SourceLinkFailureFallsBackToTheSurvivingRoute) {
  testing_bench b(Proto::kSmr, diamond());
  const net::Packet first = b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  const auto routes = b.protocol<Smr>(0)->active_routes(3);
  ASSERT_EQ(routes.size(), 2u);
  const auto rreqs = b.node(0).counters.sent_control;

  // Node 0's MAC gives up on the first hop of one striped route.
  b.node(0).routing->on_link_failure(source_routed(first, routes[0], 0),
                                     routes[0][1]);
  b.sched.run_until(sim::Time::sec(3));

  const auto left = b.protocol<Smr>(0)->active_routes(3);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0], routes[1]);
  ASSERT_EQ(b.node(3).delivered.size(), 2u);
  EXPECT_EQ(std::get<net::DsrSourceRoute>(b.node(3).delivered[1].routing())
                .route,
            routes[1]);
  EXPECT_EQ(b.node(0).counters.sent_control, rreqs);  // no new RREQ
}

TEST(SmrTest, RelayRerrRemovesTheStripedRouteAtTheSource) {
  // Relay 1 splits toward node 4 over node 2 or node 3.
  testing_bench b(Proto::kSmr,
                  {{0, 0}, {200, 0}, {380, 150}, {380, -150}, {560, 0}});
  b.send_data(0, 4);
  b.sched.run_until(sim::Time::sec(2));
  const auto routes = b.protocol<Smr>(0)->active_routes(4);
  ASSERT_EQ(routes.size(), 2u);
  const net::NodeId reporter = routes[0][2];
  const auto rreqs = b.node(0).counters.sent_control;
  const auto relayed = b.node(reporter).counters.forwarded_data;

  // The reporter's link to node 4 died; its RERR walks back through
  // relay 1.  Built here as the back path should read: the one a relay
  // builds today names the relay itself as the first hop and never
  // leaves it.
  b.node(1).routing->receive_from_mac(rerr(b.uids, 4, {reporter, 1, 0}),
                                      reporter);
  b.sched.run_until(sim::Time::sec(3));
  const auto left = b.protocol<Smr>(0)->active_routes(4);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0], routes[1]);

  // Data now takes the surviving route alone, with no new RREQ.
  for (int i = 0; i < 4; ++i) b.send_data(0, 4);
  b.sched.run_until(sim::Time::sec(4));
  EXPECT_EQ(b.node(4).delivered.size(), 5u);
  EXPECT_EQ(b.node(reporter).counters.forwarded_data, relayed);
  EXPECT_EQ(b.node(0).counters.sent_control, rreqs);
}

TEST(SmrTest, EndToEndViaHarness) {
  mts::harness::ScenarioConfig cfg;
  cfg.protocol = mts::harness::Protocol::kSmr;
  cfg.node_count = 40;  // 20 nodes / km^2 sits below the percolation
  cfg.max_speed = 5.0;  // threshold at 250 m range — keep it connected
  cfg.sim_time = sim::Time::sec(15);
  cfg.seed = 4;
  const mts::harness::RunMetrics m = mts::harness::run_scenario(cfg);
  EXPECT_GT(m.segments_delivered, 50u);
}

}  // namespace
}  // namespace mts::routing::smr
