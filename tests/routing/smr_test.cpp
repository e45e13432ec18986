#include "routing/smr/smr.hpp"

#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "routing_fixture.hpp"

namespace mts::routing::smr {
namespace {

using testing_bench = mts::testing::RoutingBench;
using mts::testing::chain;
using Proto = testing_bench::Proto;

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
