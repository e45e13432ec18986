#include "routing/smr/smr.hpp"

#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "routing_fixture.hpp"

namespace mts::routing::smr {
namespace {

// The shared fixture does not know SMR; build stacks directly via the
// scenario harness for end-to-end checks and a local bench for
// introspection.
#include <memory>

class SmrBench {
 public:
  explicit SmrBench(std::vector<mobility::Vec2> positions,
                    SmrConfig cfg = {}) {
    prop_ = std::make_unique<phy::UnitDiskPropagation>(250.0);
    channel_ = std::make_unique<phy::Channel>(sched, *prop_);
    nodes_.resize(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      auto& n = nodes_[i];
      channel_->attach(mobility::Trajectory(positions[i]));
      n.radio = std::make_unique<phy::Radio>(*channel_,
                                             static_cast<net::NodeId>(i));
      n.mac = std::make_unique<mac::Mac80211>(sched, *n.radio,
                                              mac::MacConfig{},
                                              sim::Rng(1000 + i), &n.counters);
      routing::RoutingContext ctx;
      ctx.self = static_cast<net::NodeId>(i);
      ctx.sched = &sched;
      ctx.mac = n.mac.get();
      ctx.counters = &n.counters;
      ctx.uids = &uids;
      ctx.deliver = [&n](net::Packet&& p, net::NodeId) {
        n.delivered.push_back(std::move(p));
      };
      n.smr = std::make_unique<Smr>(std::move(ctx), cfg, sim::Rng(2000 + i));
    }
    channel_->finalize();
    for (auto& n : nodes_) {
      mac::Mac80211::Callbacks cb;
      auto* r = n.smr.get();
      cb.on_receive = [r](net::Packet&& p, net::NodeId from) {
        r->receive_from_mac(std::move(p), from);
      };
      cb.on_unicast_failure = [r](const net::Packet& p, net::NodeId hop) {
        r->on_link_failure(p, hop);
      };
      n.mac->set_callbacks(std::move(cb));
      n.smr->start();
    }
  }

  void send(net::NodeId src, net::NodeId dst) {
    net::Packet p;
    auto& common = p.mutable_common();
    common.kind = net::PacketKind::kTcpData;
    common.src = src;
    common.dst = dst;
    common.uid = uids.next();
    common.payload_bytes = 512;
    common.originated = sched.now();
    net::TcpHeader h;
    h.seq = p.common().uid;
    h.flow_id = 1;
    p.mutable_tcp() = h;
    nodes_[src].smr->send_from_transport(std::move(p));
  }

  struct N {
    net::Counters counters;
    std::unique_ptr<phy::Radio> radio;
    std::unique_ptr<mac::Mac80211> mac;
    std::unique_ptr<Smr> smr;
    std::vector<net::Packet> delivered;
  };
  N& node(net::NodeId id) { return nodes_[id]; }

  sim::Scheduler sched;
  net::UidSource uids;

 private:
  std::unique_ptr<phy::UnitDiskPropagation> prop_;
  std::unique_ptr<phy::Channel> channel_;
  std::vector<N> nodes_;
};

std::vector<mobility::Vec2> diamond() {
  return {{0, 0}, {200, 150}, {200, -150}, {400, 0}};
}

TEST(SmrTest, DeliversOnChain) {
  SmrBench b(mts::testing::chain(4));
  b.send(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  ASSERT_EQ(b.node(3).delivered.size(), 1u);
}

TEST(SmrTest, DiscoversTwoDisjointRoutesOnDiamond) {
  SmrBench b(diamond());
  b.send(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  const auto routes = b.node(0).smr->active_routes(3);
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_NE(routes[0], routes[1]);
  // One via node 1, one via node 2.
  EXPECT_NE(routes[0][1], routes[1][1]);
}

TEST(SmrTest, StripesDataAcrossBothRoutes) {
  SmrBench b(diamond());
  b.send(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  for (int i = 0; i < 40; ++i) b.send(0, 3);
  b.sched.run_until(sim::Time::sec(5));
  // Round-robin: both relays forwarded data.
  EXPECT_GT(b.node(1).counters.forwarded_data, 10u);
  EXPECT_GT(b.node(2).counters.forwarded_data, 10u);
  EXPECT_GE(b.node(3).delivered.size(), 40u);
}

TEST(SmrTest, SinkRepliesAlongReversedRoute) {
  SmrBench b(diamond());
  b.send(0, 3);
  b.sched.run_until(sim::Time::sec(2));
  ASSERT_EQ(b.node(3).delivered.size(), 1u);
  b.send(3, 0);  // no discovery needed
  b.sched.run_until(sim::Time::sec(3));
  EXPECT_EQ(b.node(0).delivered.size(), 1u);
}

TEST(SmrTest, SurvivesWithSingleRouteTopology) {
  SmrBench b(mts::testing::chain(3));
  for (int i = 0; i < 10; ++i) b.send(0, 2);
  b.sched.run_until(sim::Time::sec(3));
  EXPECT_EQ(b.node(2).delivered.size(), 10u);
  EXPECT_EQ(b.node(0).smr->active_routes(2).size(), 1u);
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
