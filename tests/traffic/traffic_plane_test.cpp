// TrafficPlane unit tests over an ideal loopback network: every packet
// the plane's TCP agents send is delivered to its destination 1 ms
// later, so session lifecycle, flow-id lane recycling, overload
// rejection and the per-class report can be checked deterministically
// without the mesh stack underneath.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "net/counters.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "traffic/traffic.hpp"

namespace mts::traffic {
namespace {

/// Harness stand-in: N nodes, perfect delivery with a fixed latency.
struct Loopback {
  explicit Loopback(std::uint32_t node_count) : counters(node_count) {}

  TrafficContext context() {
    TrafficContext ctx;
    ctx.sched = &sched;
    ctx.uids = &uids;
    ctx.node_count = static_cast<std::uint32_t>(counters.size());
    ctx.send = [this](net::NodeId, net::Packet&& p) {
      if (tap) tap(p);
      const net::NodeId dst = p.common().dst;
      sched.schedule_in(sim::Time::ms(1),
                        [this, dst, pkt = std::move(p)]() mutable {
                          if (plane != nullptr) plane->deliver(dst, pkt);
                        });
    };
    ctx.counters_of = [this](net::NodeId n) {
      return &counters[static_cast<std::size_t>(n)];
    };
    ctx.on_new_lane = [this](std::uint16_t id) { fresh_lanes.push_back(id); };
    return ctx;
  }

  sim::Scheduler sched;
  net::UidSource uids;
  std::vector<net::Counters> counters;
  std::vector<std::uint16_t> fresh_lanes;
  TrafficPlane* plane = nullptr;
  /// Sees every packet the plane's agents send, before it is carried.
  std::function<void(const net::Packet&)> tap;
};

TrafficSpec small_spec() {
  TrafficSpec spec;
  spec.enabled = true;
  spec.gateway_count = 2;
  spec.user_pool = 4;
  spec.session_rate = 5.0;
  spec.bulk_fraction = 0.5;
  return spec;
}

TEST(TrafficPlaneTest, SessionsCompleteOnAnIdealNetwork) {
  Loopback net(10);
  TrafficPlane plane(small_spec(), net.context(), sim::Rng(42).substream("traffic"));
  net.plane = &plane;
  plane.start(sim::Time::sec(30));
  // Run past the horizon so in-flight transfers and think times drain.
  net.sched.run_until(sim::Time::sec(60));

  const TrafficReport r = plane.report();
  EXPECT_GT(r.sessions_started, 50u);
  EXPECT_EQ(r.sessions_rejected, 0u);
  // Perfect delivery: every admitted session runs to completion.
  EXPECT_EQ(r.sessions_completed, r.sessions_started);
  EXPECT_EQ(r.classes[0].sessions + r.classes[1].sessions,
            r.sessions_started);
  for (const ClassReport& c : r.classes) {
    EXPECT_GT(c.sessions, 0u);
    EXPECT_GT(c.flows_completed, 0u);
    EXPECT_GT(c.delay_samples, 0u);
    // 1 ms one-way latency: delays sit near it, and the percentile
    // order holds.
    EXPECT_GT(c.delay_p50_ms, 0.0);
    EXPECT_LE(c.delay_p50_ms, c.delay_p95_ms);
    EXPECT_LE(c.delay_p95_ms, c.delay_p99_ms);
    EXPECT_GT(c.goodput_p50_seg_s, 0.0);
  }
  // Bulk sessions are single-flow; messaging runs 1..3 flows.
  EXPECT_GE(r.classes[0].flows_completed, r.classes[0].sessions);
  EXPECT_EQ(r.classes[1].flows_completed, r.classes[1].sessions);
}

TEST(TrafficPlaneTest, TopologyDrawsAreDisjointAndBounded) {
  Loopback net(10);
  TrafficSpec spec = small_spec();
  TrafficPlane plane(spec, net.context(), sim::Rng(1).substream("traffic"));
  EXPECT_EQ(plane.gateways().size(), spec.gateway_count);
  EXPECT_EQ(plane.attachment_nodes().size(), spec.user_pool);
  std::set<net::NodeId> all;
  for (net::NodeId n : plane.gateways()) EXPECT_TRUE(all.insert(n).second);
  for (net::NodeId n : plane.attachment_nodes()) {
    EXPECT_TRUE(all.insert(n).second) << "gateway double-books as user";
  }
  for (net::NodeId n : all) EXPECT_LT(n, 10u);
}

TEST(TrafficPlaneTest, LanesRecycleFifoAboveFirstFlowId) {
  Loopback net(10);
  TrafficContext ctx = net.context();
  ctx.first_flow_id = 5;  // static scenario flows own 1..4
  TrafficPlane plane(small_spec(), ctx, sim::Rng(7).substream("traffic"));
  net.plane = &plane;
  plane.start(sim::Time::sec(30));
  net.sched.run_until(sim::Time::sec(60));

  const TrafficReport r = plane.report();
  std::set<std::uint16_t> distinct;
  for (std::size_t c = 0; c < kUserClassCount; ++c) {
    for (std::uint16_t id : plane.lanes(static_cast<UserClass>(c))) {
      EXPECT_GE(id, 5u) << "lane collides with a static flow id";
      distinct.insert(id);
    }
  }
  // Recycling kept the lane space tiny relative to the flow volume...
  const std::uint64_t flows =
      r.classes[0].flows_completed + r.classes[1].flows_completed;
  EXPECT_GT(flows, distinct.size());
  // ...and the harness was told about each fresh lane exactly once.
  EXPECT_EQ(net.fresh_lanes.size(), distinct.size());
  std::set<std::uint16_t> fresh(net.fresh_lanes.begin(),
                                net.fresh_lanes.end());
  EXPECT_EQ(fresh, distinct);
}

TEST(TrafficPlaneTest, OverloadRejectsInsteadOfGrowing) {
  Loopback net(10);
  TrafficSpec spec = small_spec();
  spec.session_rate = 50.0;
  spec.max_concurrent_flows = 1;  // one lane: almost everything rejected
  TrafficPlane plane(spec, net.context(), sim::Rng(3).substream("traffic"));
  net.plane = &plane;
  plane.start(sim::Time::sec(10));
  net.sched.run_until(sim::Time::sec(30));

  const TrafficReport r = plane.report();
  EXPECT_GT(r.sessions_rejected, 0u);
  EXPECT_EQ(r.sessions_started, r.sessions_completed + r.sessions_rejected);
  // The single lane kept cycling, so some sessions did complete.
  EXPECT_GT(r.sessions_completed, 0u);
}

TEST(TrafficPlaneTest, DeliverIgnoresForeignAndStalePackets) {
  Loopback net(10);
  TrafficPlane plane(small_spec(), net.context(), sim::Rng(9).substream("traffic"));
  net.plane = &plane;
  // No sessions yet: any TCP packet is foreign.
  net::Packet p;
  p.mutable_common().kind = net::PacketKind::kTcpData;
  p.mutable_tcp() = net::TcpHeader{};
  p.mutable_tcp().flow_id = 999;
  EXPECT_FALSE(plane.deliver(0, p));
  // Non-TCP packets are never consumed.
  net::Packet q;
  q.mutable_common().kind = net::PacketKind::kDsrRreq;
  EXPECT_FALSE(plane.deliver(0, q));
}

TEST(TrafficPlaneTest, RecycledLaneUpCallsReachOnlyItsCurrentSession) {
  // One lane, one (user, gateway) pair, one 4-segment uplink flow per
  // session: every admitted session reuses the lane between the same
  // two nodes, so a stale packet of the lane's previous owner reaches
  // the agents of the session that owns it now.
  Loopback net(6);
  TrafficSpec spec = small_spec();
  spec.gateway_count = 1;
  spec.user_pool = 1;
  spec.bulk_fraction = 0.0;
  spec.max_concurrent_flows = 1;
  spec.messaging.min_flows = spec.messaging.max_flows = 1;
  spec.messaging.min_segments = spec.messaging.max_segments = 4;
  TrafficPlane plane(spec, net.context(), sim::Rng(11).substream("traffic"));
  net.plane = &plane;

  // Hold back the first flow's second segment and its final ACK; release
  // both 1 ms after the lane's next owner sends its first segment.
  std::vector<net::Packet> held;
  int flows_seen = 0;
  int stale_consumed = 0;
  net.tap = [&](const net::Packet& p) {
    const net::TcpHeader& h = p.tcp();
    if (p.common().kind == net::PacketKind::kTcpData && h.seq == 1 &&
        !h.retransmit && ++flows_seen == 2) {
      ASSERT_EQ(held.size(), 2u);
      net.sched.schedule_in(sim::Time::ms(1), [&] {
        for (const net::Packet& stale : held) {
          if (plane.deliver(stale.common().dst, stale)) ++stale_consumed;
        }
      });
    }
    if (flows_seen != 1) return;
    if ((p.common().kind == net::PacketKind::kTcpData && h.seq == 2 &&
         !h.retransmit) ||
        (p.common().kind == net::PacketKind::kTcpAck && h.ack == 5)) {
      held.push_back(p);
    }
  };
  plane.start(sim::Time::sec(30));
  net.sched.run_until(sim::Time::sec(60));

  ASSERT_GE(flows_seen, 2);
  // Same endpoints, same lane: the current owner's sink and source took
  // both stale packets (the lane id is all TCP has to tell them apart).
  EXPECT_EQ(stale_consumed, 2);
  const TrafficReport r = plane.report();
  EXPECT_EQ(r.sessions_started, r.sessions_completed + r.sessions_rejected);
  EXPECT_GE(r.sessions_completed, 2u);
  // transfer_done reached each admitted session exactly once, even the
  // one whose completion the stale final ACK triggered...
  EXPECT_EQ(r.classes[0].flows_completed, r.sessions_completed);
  // ...and delivered was counted once per fresh segment of the owning
  // flow: the stale second segment stood in for the genuine one.
  EXPECT_EQ(r.classes[0].delay_samples, 4 * r.classes[0].flows_completed);
  EXPECT_EQ(r.classes[1].sessions, 0u);
}

TEST(TrafficPlaneTest, ArrivalsPerBucketCoverTheHorizonOnly) {
  Loopback net(10);
  TrafficSpec spec = small_spec();
  spec.diurnal = {1.0, 0.0};  // arrivals only in even buckets
  spec.diurnal_bucket = sim::Time::sec(5);
  TrafficPlane plane(spec, net.context(), sim::Rng(4).substream("traffic"));
  net.plane = &plane;
  plane.start(sim::Time::sec(40));
  net.sched.run_until(sim::Time::sec(60));

  const TrafficReport r = plane.report();
  ASSERT_LE(r.arrivals_per_bucket.size(), 8u);  // horizon / bucket
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < r.arrivals_per_bucket.size(); ++b) {
    if (b % 2 == 1) {
      EXPECT_EQ(r.arrivals_per_bucket[b], 0u) << "bucket " << b;
    }
    total += r.arrivals_per_bucket[b];
  }
  EXPECT_EQ(total, r.sessions_started);
}

}  // namespace
}  // namespace mts::traffic
