#include "core/mts.hpp"

#include <gtest/gtest.h>

#include "../routing/routing_fixture.hpp"

namespace mts::core {
namespace {

using testing_bench = mts::testing::RoutingBench;
using mts::testing::chain;
using Proto = testing_bench::Proto;

/// A diamond: two node-disjoint 2-hop routes S(0) - {1 | 2} - D(3).
std::vector<mobility::Vec2> diamond() {
  return {{0, 0}, {200, 150}, {200, -150}, {400, 0}};
}

TEST(MtsTest, DiscoversAndDeliversOnChain) {
  testing_bench b(Proto::kMts, chain(4));
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  ASSERT_EQ(b.node(3).delivered.size(), 1u);
  EXPECT_EQ(b.node(3).delivered[0].common().src, 0u);
}

TEST(MtsTest, DataCarriesPathTag) {
  testing_bench b(Proto::kMts, chain(3));
  b.send_data(0, 2);
  b.sched.run_until(sim::Time::sec(2));
  ASSERT_EQ(b.node(2).delivered.size(), 1u);
  EXPECT_NE(std::get_if<net::MtsDataTag>(&b.node(2).delivered[0].routing()),
            nullptr);
}

TEST(MtsTest, DestinationStoresDisjointPathsOnDiamond) {
  testing_bench b(Proto::kMts, diamond());
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  auto paths = b.protocol<Mts>(3)->stored_paths_for(0);
  ASSERT_EQ(paths.size(), 2u);
  // The two stored paths run through 1 and 2 respectively.
  EXPECT_TRUE(core::node_disjoint(paths[0], paths[1]));
}

TEST(MtsTest, DestinationRespectsMaxPathsCap) {
  MtsConfig cfg;
  cfg.max_paths = 1;
  testing_bench b(Proto::kMts, diamond(), cfg);
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  EXPECT_EQ(b.protocol<Mts>(3)->stored_paths_for(0).size(), 1u);
}

TEST(MtsTest, NonDisjointAlternateRejected) {
  // Fig. 3 topology: S-a-b-D plus an extra node c adjacent to both b
  // and D gives the non-disjoint S-a-b-c-D.
  std::vector<mobility::Vec2> fig3{
      {0, 0},      // S = 0
      {200, 0},    // a = 1
      {400, 0},    // b = 2
      {450, 150},  // c = 3 (in range of b and D)
      {600, 0},    // D = 4
  };
  testing_bench b(Proto::kMts, fig3);
  b.send_data(0, 4);
  b.sched.run_until(sim::Time::sec(2));
  auto paths = b.protocol<Mts>(4)->stored_paths_for(0);
  ASSERT_EQ(paths.size(), 1u);  // the S-a-b-c-D copy was rejected
  EXPECT_EQ(paths[0], (PathNodes{1, 2}));
}

TEST(MtsTest, ChecksFlowPeriodicaly) {
  MtsConfig cfg;
  cfg.check_period = sim::Time::ms(500);
  testing_bench b(Proto::kMts, diamond(), cfg);
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(5));
  auto* dest = b.protocol<Mts>(3);
  auto* src = b.protocol<Mts>(0);
  EXPECT_GE(dest->checks_sent(), 8u);   // ~9 rounds x 2 paths, some loss ok
  EXPECT_GE(src->checks_received(), 4u);
}

TEST(MtsTest, SourceHoldsCurrentPathAndSwitchesOnChecks) {
  MtsConfig cfg;
  cfg.check_period = sim::Time::ms(300);
  testing_bench b(Proto::kMts, diamond(), cfg);
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(10));
  auto* src = b.protocol<Mts>(0);
  EXPECT_GE(src->current_path_id(3), 0);
  // With randomized check emission, both diamond paths win some rounds.
  EXPECT_GE(src->route_switches(), 1u);
}

TEST(MtsTest, SpreadsDataAcrossBothDiamondRelays) {
  MtsConfig cfg;
  cfg.check_period = sim::Time::ms(300);
  testing_bench b(Proto::kMts, diamond(), cfg);
  // A steady packet stream across many check rounds.
  for (int t = 0; t < 100; ++t) {
    b.sched.schedule_at(sim::Time::ms(50 * t) + sim::Time::ms(1),
                        [&b] { b.send_data(0, 3); });
  }
  b.sched.run_until(sim::Time::sec(8));
  EXPECT_GT(b.node(1).counters.forwarded_data, 0u);
  EXPECT_GT(b.node(2).counters.forwarded_data, 0u);
  EXPECT_GE(b.node(3).delivered.size(), 95u);
}

TEST(MtsTest, AcksRouteBackAlongDataPath) {
  MtsConfig cfg;
  cfg.check_period = sim::Time::sec(100);  // quiesce checks: floods only
  testing_bench b(Proto::kMts, chain(4), cfg);
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  ASSERT_EQ(b.node(3).delivered.size(), 1u);
  // The sink replies (simulating a TCP ack) without any discovery.
  const auto floods_before = b.node(3).counters.sent_control;
  net::Packet ack;
  auto& common = ack.mutable_common();
  common.kind = net::PacketKind::kTcpAck;
  common.src = 3;
  common.dst = 0;
  common.uid = b.uids.next();
  net::TcpHeader ackh;
  ackh.ack = 2;
  ackh.flow_id = 1;
  ack.mutable_tcp() = ackh;
  b.node(3).routing->send_from_transport(std::move(ack));
  b.sched.run_until(sim::Time::sec(3));
  ASSERT_EQ(b.node(0).delivered.size(), 1u);
  EXPECT_EQ(b.node(0).delivered[0].common().kind, net::PacketKind::kTcpAck);
  EXPECT_EQ(b.node(3).counters.sent_control, floods_before);  // no flood
}

TEST(MtsTest, NewDiscoveryFlushesStoredPaths) {
  MtsConfig cfg;
  cfg.freshness_periods = 1.01;      // paths go stale quickly
  cfg.check_period = sim::Time::sec(100);  // no checks to refresh them
  testing_bench b(Proto::kMts, diamond(), cfg);
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  const auto first_gen = b.protocol<Mts>(3)->stored_paths_for(0);
  ASSERT_GE(first_gen.size(), 1u);
  // Wait past freshness: the next send triggers a fresh discovery whose
  // higher broadcast id flushes and repopulates the destination store.
  b.sched.run_until(sim::Time::sec(150));
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(152));
  EXPECT_EQ(b.node(3).delivered.size(), 2u);
  EXPECT_GE(b.protocol<Mts>(3)->stored_paths_for(0).size(), 1u);
}

TEST(MtsTest, UnreachableDestinationGivesUp) {
  // Three RREQs wait 1 + 2 + 4 s before the buffered packet is dropped.
  testing_bench b(Proto::kMts, {{0, 0}, {200, 0}, {5000, 0}});
  b.send_data(0, 2);
  b.sched.run_until(sim::Time::sec(8));
  EXPECT_TRUE(b.node(2).delivered.empty());
  EXPECT_GT(b.node(0).counters.dropped(net::DropReason::kNoRoute), 0u);
}

TEST(MtsTest, IntermediateRelaysEvenWithOwnFreshRoute) {
  // §III-B: intermediates always relay the RREQ; on a chain the flood
  // must reach the destination even though node 1 has routes already.
  testing_bench b(Proto::kMts, chain(4));
  b.send_data(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  ASSERT_EQ(b.node(3).delivered.size(), 1u);
  // Re-discover: node 1 relays again (forwarded_control grows).
  const auto fwd_before = b.node(1).counters.forwarded_control;
  b.send_data(1, 3);  // unrelated discovery by node 1 itself is fine too
  b.sched.run_until(sim::Time::sec(4));
  EXPECT_GE(b.node(1).counters.forwarded_control, fwd_before);
}

TEST(MtsTest, ConfigValidation) {
  MtsConfig bad;
  bad.max_paths = 0;
  sim::Scheduler sched;
  net::Counters c;
  net::UidSource uids;
  std::vector<mobility::Trajectory> trajectories;
  trajectories.emplace_back(mobility::Vec2{0, 0});
  phy::Channel channel(sched, std::move(trajectories), 250.0);
  const mac::MacConfig mac_cfg;
  mac::Mac80211 mac(channel, 0, mac_cfg, sim::Rng(1), &c);
  routing::RoutingContext ctx;
  ctx.self = 0;
  ctx.sched = &sched;
  ctx.mac = &mac;
  ctx.counters = &c;
  ctx.uids = &uids;
  EXPECT_THROW(Mts(std::move(ctx), bad, sim::Rng(1)), sim::ConfigError);
}

}  // namespace
}  // namespace mts::core
