// Packet-plane guarantees across the full phy->mac->routing->tcp stack:
// the zero-copy refactor must keep fixed-seed scenarios bit-identical,
// never deep-copy on non-mutating unicast paths, never leak pooled
// bodies, and shield every held sibling handle (channel pool, MAC retry
// buffer, trace sinks) from downstream copy-on-write mutations.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "harness/scenario.hpp"
#include "net/packet.hpp"
#include "net/trace.hpp"

namespace mts::harness {
namespace {

ScenarioConfig paper_like(Protocol p) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.node_count = 20;
  cfg.max_speed = 10.0;
  cfg.sim_time = sim::Time::sec(15);
  cfg.seed = 42;
  return cfg;
}

/// Two static nodes in range, one flow: every packet is originated or
/// terminally consumed, nothing is forwarded, so no handler ever
/// mutates a shared body.
ScenarioConfig direct_link(Protocol p) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.node_count = 2;
  cfg.static_positions = {{0.0, 0.0}, {150.0, 0.0}};
  cfg.explicit_flows = {FlowSpec{0, 1, sim::Time::sec(1)}};
  cfg.sim_time = sim::Time::sec(10);
  cfg.seed = 7;
  return cfg;
}

struct Fingerprint {
  Protocol protocol;
  std::uint64_t events;
  std::uint64_t delivered;
  std::uint64_t control;
  std::uint64_t pe;
  std::uint64_t order_hash;  ///< RunMetrics::event_order_hash
};

// Captured from the pre-refactor packet plane (deep-copy value-type
// packets) on the reference toolchain, seed 42: the zero-copy plane is
// an optimization, not a behaviour change, so every fixed-seed run must
// replay bit-identically.  If a compiler/libm change ever shifts these,
// re-pin them from a build of the previous commit.  The order hashes
// were captured when the scheduler first computed them, on the eager
// cancel-and-push event queue; lazy timer re-arm left them unchanged.
constexpr Fingerprint kPinned[] = {
    {Protocol::kDsr, 242727, 401, 41, 0, 0x76ca5172fe27e53a},
    {Protocol::kAodv, 83232, 146, 120, 0, 0xd0adb157fbde8fb6},
    {Protocol::kMts, 253295, 402, 154, 0, 0x84848782d86a2db2},
    {Protocol::kSmr, 121367, 188, 182, 0, 0xe4547a11b30130b8},
};

TEST(PacketPlaneTest, FixedSeedFingerprintsMatchThePreRefactorPlane) {
  for (const Fingerprint& fp : kPinned) {
    const RunMetrics m = run_scenario(paper_like(fp.protocol));
    EXPECT_EQ(m.events_executed, fp.events) << protocol_name(fp.protocol);
    EXPECT_EQ(m.segments_delivered, fp.delivered) << protocol_name(fp.protocol);
    EXPECT_EQ(m.control_packets, fp.control) << protocol_name(fp.protocol);
    EXPECT_EQ(m.pe, fp.pe) << protocol_name(fp.protocol);
    EXPECT_EQ(m.pr, m.segments_delivered) << protocol_name(fp.protocol);
    EXPECT_EQ(m.event_order_hash, fp.order_hash) << protocol_name(fp.protocol);
  }
}

TEST(PacketPlaneTest, NonMutatingUnicastPathNeverDeepClones) {
  // On a direct link the whole run — TCP data, ACKs, discovery floods,
  // MTS checks — passes through queues, retry buffers, and the channel
  // pool as refcount bumps only.  A single CoW clone here means some
  // handler mutates where it used to read.
  for (Protocol p :
       {Protocol::kDsr, Protocol::kAodv, Protocol::kMts, Protocol::kSmr}) {
    const auto before = net::packet_pool_stats().cow_clones;
    const RunMetrics m = run_scenario(direct_link(p));
    EXPECT_GT(m.segments_delivered, 0u) << protocol_name(p);
    EXPECT_EQ(net::packet_pool_stats().cow_clones, before)
        << protocol_name(p) << ": deep clone on a non-mutating path";
  }
}

TEST(PacketPlaneTest, ForwardingClonesButOnlyOnMutatingHops) {
  // With relays in play, forwarding hops *must* clone (TTL decrement /
  // record append against live siblings) — but the count stays far
  // below what per-receiver deep copying would cost.
  const auto before = net::packet_pool_stats().cow_clones;
  const RunMetrics m = run_scenario(paper_like(Protocol::kDsr));
  const auto clones = net::packet_pool_stats().cow_clones - before;
  EXPECT_GT(clones, 0u);
  // Every clone corresponds to at most one executed event; the old
  // plane copied per enqueue + per carrier-sense receiver + per trace.
  EXPECT_LT(clones, m.events_executed / 10);
}

TEST(PacketPlaneTest, MutatingForwardChainIsZeroClone) {
  // Model a 5-hop unicast forward of one DSR data packet the way the
  // stack does it: every hop pins a sibling handle (channel pool, MAC
  // retry buffer, trace sink) while the forwarder rewrites the TTL and
  // the source-route cursor.  All of that per-hop state lives in the
  // handle cell, so the shared body must never clone — zero cow_clones,
  // zero pool acquires, one cell write per mutation.
  net::Packet p;
  auto& c = p.mutable_common();
  c.kind = net::PacketKind::kTcpData;
  c.src = 0;
  c.dst = 5;
  c.payload_bytes = 512;
  p.mutable_tcp() = net::TcpHeader{};
  net::DsrSourceRoute sr;
  sr.route = {0, 1, 2, 3, 4, 5};
  p.mutable_routing() = sr;
  p.mutable_hop().ttl = 16;

  const auto before = net::packet_pool_stats();
  std::vector<net::Packet> held;
  for (int hop = 0; hop < 5; ++hop) {
    held.push_back(p);  // the sibling a real hop would keep alive
    --p.mutable_hop().ttl;
    ++p.mutable_hop().cursor;
  }
  const auto after = net::packet_pool_stats();
  EXPECT_EQ(after.cow_clones, before.cow_clones);
  EXPECT_EQ(after.acquired, before.acquired);
  EXPECT_EQ(after.cell_acquired, before.cell_acquired + 10);
  EXPECT_EQ(p.hop().ttl, 11);
  EXPECT_EQ(p.hop().cursor, 5u);
  // Each pinned sibling still shows the cell exactly as of its hop.
  for (int hop = 0; hop < 5; ++hop) {
    EXPECT_EQ(held[static_cast<std::size_t>(hop)].hop().ttl, 16 - hop);
    EXPECT_EQ(held[static_cast<std::size_t>(hop)].hop().cursor,
              static_cast<std::uint16_t>(hop));
  }
}

TEST(PacketPlaneTest, ScenariosReturnEveryBodyToThePool) {
  const auto before = net::packet_pool_stats().live();
  for (Protocol p :
       {Protocol::kDsr, Protocol::kAodv, Protocol::kMts, Protocol::kSmr}) {
    run_scenario(direct_link(p));
    EXPECT_EQ(net::packet_pool_stats().live(), before)
        << protocol_name(p) << ": leaked packet bodies";
  }
}

TEST(PacketPlaneTest, TraceSinkRecordsAreImmuneToDownstreamMutation) {
  // A subscribed sink keeps every record's packet handle alive.  DSR
  // forwards mutate TTL and the source-route cursor per hop; records
  // captured earlier must keep showing the pre-mutation body.
  net::TraceHub hub;
  std::vector<net::TraceRecord> records;
  hub.subscribe([&records](const net::TraceRecord& r) {
    records.push_back(r);
  });
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kDsr;
  cfg.node_count = 3;
  cfg.static_positions = {{0.0, 0.0}, {200.0, 0.0}, {400.0, 0.0}};
  cfg.explicit_flows = {FlowSpec{0, 2, sim::Time::sec(1)}};
  cfg.sim_time = sim::Time::sec(10);
  cfg.seed = 3;
  const RunMetrics m = run_scenario(cfg, &hub);
  ASSERT_GT(m.segments_delivered, 0u);

  // Find an RREQ traced at origination (record empty) and again at the
  // relay's rebroadcast (record grown, TTL down): same uid, two
  // distinct bodies — the relay's append cloned instead of mutating the
  // body the origination record still holds.
  bool checked = false;
  for (const net::TraceRecord& orig : records) {
    if (orig.op != net::TraceOp::kOriginate ||
        orig.packet.kind() != net::PacketKind::kDsrRreq) {
      continue;
    }
    for (const net::TraceRecord& fwd : records) {
      if (fwd.op != net::TraceOp::kForward || fwd.node != 1 ||
          fwd.packet.kind() != net::PacketKind::kDsrRreq ||
          fwd.packet.common().uid != orig.packet.common().uid) {
        continue;
      }
      const auto& h0 = std::get<net::DsrRreqHeader>(orig.packet.routing());
      const auto& h1 = std::get<net::DsrRreqHeader>(fwd.packet.routing());
      EXPECT_TRUE(h0.record.empty());  // unperturbed by the relay's append
      ASSERT_EQ(h1.record.size(), 1u);
      EXPECT_EQ(h1.record[0], 1u);
      EXPECT_EQ(orig.packet.hop().ttl, fwd.packet.hop().ttl + 1);
      checked = true;
      break;
    }
    if (checked) break;
  }
  EXPECT_TRUE(checked) << "no originate/forward record pair found";
}

}  // namespace
}  // namespace mts::harness
