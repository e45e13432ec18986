#include "security/adversary.hpp"

#include <gtest/gtest.h>

#include <map>

#include "sim/error.hpp"

namespace mts::security {
namespace {

phy::Frame data_frame(std::uint16_t flow, std::uint32_t seq) {
  phy::Frame f;
  f.type = phy::FrameType::kData;
  f.payload.mutable_common().kind = net::PacketKind::kTcpData;
  f.payload.mutable_tcp() = net::TcpHeader{.seq = seq, .flow_id = flow, .ts = {}};
  return f;
}

net::Packet data_packet(net::NodeId src, net::NodeId dst, std::uint32_t seq) {
  net::Packet p;
  auto& common = p.mutable_common();
  common.kind = net::PacketKind::kTcpData;
  common.src = src;
  common.dst = dst;
  p.mutable_tcp() = net::TcpHeader{.seq = seq, .flow_id = 1, .ts = {}};
  return p;
}

// --- member resolution -----------------------------------------------------

TEST(ResolveMembersTest, CoalitionsOfIncreasingSizeAreNested) {
  AdversarySpec small;
  small.kind = AdversaryKind::kColluding;
  small.count = 2;
  AdversarySpec big = small;
  big.count = 5;
  const sim::Rng rng(42);
  const auto two = resolve_members(small, 20, {0, 19}, rng);
  const auto five = resolve_members(big, 20, {0, 19}, rng);
  ASSERT_EQ(two.size(), 2u);
  ASSERT_EQ(five.size(), 5u);
  // Prefix property: the size-2 coalition is the first 2 of the size-5.
  EXPECT_EQ(two[0], five[0]);
  EXPECT_EQ(two[1], five[1]);
}

TEST(ResolveMembersTest, ExcludedNodesNeverDrawn) {
  AdversarySpec spec;
  spec.kind = AdversaryKind::kColluding;
  spec.count = 8;
  const auto members = resolve_members(spec, 10, {0, 9}, sim::Rng(7));
  EXPECT_EQ(members.size(), 8u);
  for (net::NodeId m : members) {
    EXPECT_NE(m, 0u);
    EXPECT_NE(m, 9u);
  }
}

TEST(ResolveMembersTest, ExplicitMembersPassThrough) {
  AdversarySpec spec;
  spec.kind = AdversaryKind::kBlackhole;
  spec.members = {3, 5};
  const auto members = resolve_members(spec, 10, {}, sim::Rng(1));
  EXPECT_EQ(members, (std::vector<net::NodeId>{3, 5}));
}

TEST(ResolveMembersTest, CountClampedToPoolSize) {
  AdversarySpec spec;
  spec.kind = AdversaryKind::kColluding;
  spec.count = 100;
  const auto members = resolve_members(spec, 5, {0}, sim::Rng(1));
  EXPECT_EQ(members.size(), 4u);
}

// --- colluding coalition ---------------------------------------------------

class ColludingTest : public ::testing::Test {
 protected:
  /// Members 1 @ (0,0) and 2 @ (1000,0); sniff range 250.
  Adversary make(std::vector<net::NodeId> members) {
    AdversarySpec spec;
    spec.kind = AdversaryKind::kColluding;
    spec.members = std::move(members);
    spec.sniff_range = 250.0;
    AdversaryContext ctx;
    ctx.node_count = 10;
    ctx.position_of = [this](net::NodeId id, sim::Time) {
      return positions_.at(id);
    };
    return Adversary(spec, ctx);
  }
  std::map<net::NodeId, mobility::Vec2> positions_{
      {1, {0, 0}}, {2, {1000, 0}}};
};

TEST_F(ColludingTest, PoolsSegmentsAcrossMembers) {
  // Segment 10 radiated near member 1 only; segment 20 near member 2.
  // Single-member coalitions show which member heard which segment.
  auto pair = make({1, 2});
  auto first = make({1});
  auto second = make({2});
  for (Adversary* a : {&pair, &first, &second}) {
    a->on_transmission({5, {100, 0}, {}, sim::Time::sec(1)}, data_frame(1, 10));
    a->on_transmission({6, {900, 0}, {}, sim::Time::sec(2)}, data_frame(1, 20));
  }
  EXPECT_EQ(pair.pool().captured_segments(), 2u);
  EXPECT_EQ(first.pool().captured_segments(), 1u);
  EXPECT_EQ(second.pool().captured_segments(), 1u);
}

TEST_F(ColludingTest, OutOfRangeTransmissionsAreMissed) {
  auto coalition = make({1});
  coalition.on_transmission({5, {500, 0}, {}, sim::Time::sec(1)}, data_frame(1, 10));
  EXPECT_EQ(coalition.pool().captured_segments(), 0u);
}

TEST_F(ColludingTest, LargerCoalitionCapturesSupersetByConstruction) {
  auto solo = make({1});
  auto pair = make({1, 2});
  const std::vector<std::pair<mobility::Vec2, std::uint32_t>> txs{
      {{100, 0}, 1}, {{900, 0}, 2}, {{500, 0}, 3}, {{50, 0}, 4}};
  for (const auto& [pos, seq] : txs) {
    solo.on_transmission({9, pos, {}, sim::Time::sec(1)}, data_frame(1, seq));
    pair.on_transmission({9, pos, {}, sim::Time::sec(1)}, data_frame(1, seq));
  }
  EXPECT_GE(pair.pool().captured_segments(), solo.pool().captured_segments());
  EXPECT_EQ(solo.pool().captured_segments(), 2u);  // seq 1 and 4 near member 1
  EXPECT_EQ(pair.pool().captured_segments(), 3u);  // + seq 2 near member 2
}

TEST_F(ColludingTest, RetransmissionsNotDoubleCounted) {
  auto coalition = make({1, 2});
  coalition.on_transmission({5, {100, 0}, {}, sim::Time::sec(1)}, data_frame(1, 10));
  coalition.on_transmission({5, {100, 0}, {}, sim::Time::sec(2)}, data_frame(1, 10));
  // Both members overhearing the same segment still pools to one.
  coalition.on_transmission({5, {100, 0}, {}, sim::Time::sec(3)}, data_frame(1, 10));
  EXPECT_EQ(coalition.pool().captured_segments(), 1u);
}

TEST_F(ColludingTest, OwnTransmissionsAndControlIgnored) {
  auto coalition = make({1});
  // Member 1 itself is the transmitter: forwarding is not overhearing.
  coalition.on_transmission({1, {0, 0}, {}, sim::Time::sec(1)}, data_frame(1, 10));
  phy::Frame ack = data_frame(1, 11);
  ack.payload.mutable_common().kind = net::PacketKind::kTcpAck;
  coalition.on_transmission({5, {10, 0}, {}, sim::Time::sec(1)}, ack);
  phy::Frame bare;
  coalition.on_transmission({5, {10, 0}, {}, sim::Time::sec(1)}, bare);
  EXPECT_EQ(coalition.pool().captured_segments(), 0u);
}

TEST_F(ColludingTest, InterceptionAndFragmentMetrics) {
  auto coalition = make({1});
  for (std::uint32_t s = 1; s <= 5; ++s) {
    coalition.on_transmission({9, {0, 0}, {}, sim::Time::sec(1)}, data_frame(1, s));
  }
  EXPECT_DOUBLE_EQ(coalition.pool().interception_ratio(20), 0.25);
  EXPECT_EQ(coalition.pool().fragments_missing(20), 15u);
  EXPECT_EQ(coalition.pool().fragments_missing(3), 0u);  // captured >= delivered
  EXPECT_DOUBLE_EQ(coalition.pool().interception_ratio(0), 0.0);
}

// --- mobile eavesdroppers --------------------------------------------------

Adversary mobile_sniffers(const mobility::Field& field, std::uint32_t count,
                          double max_speed, std::uint64_t seed) {
  AdversarySpec spec;
  spec.kind = AdversaryKind::kMobile;
  spec.count = count;
  spec.max_speed = max_speed;
  spec.sniff_range = 250.0;
  AdversaryContext ctx;
  ctx.field = field;
  ctx.rng = sim::Rng(seed);
  return Adversary(spec, ctx);
}

TEST(MobileEavesdropperTest, StaysInsideTheArena) {
  const mobility::Field field{1000.0, 800.0};
  const Adversary eve = mobile_sniffers(field, 3, 20.0, 99);
  ASSERT_EQ(eve.member_count(), 3u);
  EXPECT_TRUE(eve.members().empty()) << "external sniffers are not nodes";
  for (std::size_t m = 0; m < eve.member_count(); ++m) {
    for (int t = 0; t <= 300; ++t) {
      const mobility::Vec2 p = eve.sniffer_position(m, sim::Time::sec(t));
      EXPECT_TRUE(field.contains(p))
          << "sniffer " << m << " left the arena at t=" << t << ": " << p;
    }
  }
}

TEST(MobileEavesdropperTest, CapturesOnlyWithinRange) {
  Adversary eve = mobile_sniffers({100.0, 100.0}, 1, 10.0, 5);
  const sim::Time t = sim::Time::sec(1);
  const mobility::Vec2 at = eve.sniffer_position(0, t);
  // Radiated right on top of the sniffer: captured.
  eve.on_transmission({7, at, {}, t}, data_frame(1, 1));
  // Radiated 10 km away: missed.
  eve.on_transmission({7, {at.x + 10000.0, at.y}, {}, t}, data_frame(1, 2));
  EXPECT_EQ(eve.pool().captured_segments(), 1u);
}

// --- blackhole -------------------------------------------------------------

Adversary blackhole(std::vector<net::NodeId> members) {
  AdversarySpec spec;
  spec.kind = AdversaryKind::kBlackhole;
  spec.members = std::move(members);
  AdversaryContext ctx;
  ctx.node_count = 10;
  return Adversary(spec, ctx);
}

TEST(BlackholeTest, AbsorbsOnlyTransitDataAtMembers) {
  Adversary bh = blackhole({3});
  EXPECT_TRUE(bh.absorbs(3, data_packet(0, 9, 1), sim::Time::zero()));   // transit data
  EXPECT_FALSE(bh.absorbs(4, data_packet(0, 9, 1), sim::Time::zero()));  // not a member
  EXPECT_FALSE(bh.absorbs(3, data_packet(0, 3, 1), sim::Time::zero()));  // terminates here
  net::Packet ctrl;
  ctrl.mutable_common().kind = net::PacketKind::kAodvRreq;
  EXPECT_FALSE(bh.absorbs(3, ctrl, sim::Time::zero()));  // control passes: stay attractive
  net::Packet ack = data_packet(9, 0, 1);
  ack.mutable_common().kind = net::PacketKind::kTcpAck;
  EXPECT_FALSE(bh.absorbs(3, ack, sim::Time::zero()));  // data only
}

TEST(BlackholeTest, CountsAndReadsWhatItEats) {
  // Member 3 relays seq 1 twice (a TCP retransmit), member 5 relays
  // seq 2.  Single-member coalitions count per member; the veto and the
  // harness's on_absorb run as in a simulation.
  const std::vector<std::pair<net::NodeId, net::Packet>> relayed{
      {3, data_packet(0, 9, 1)},
      {3, data_packet(0, 9, 1)},
      {5, data_packet(0, 9, 2)}};
  Adversary pair = blackhole({3, 5});
  Adversary at3 = blackhole({3});
  Adversary at5 = blackhole({5});
  for (Adversary* bh : {&pair, &at3, &at5}) {
    for (const auto& [node, p] : relayed) {
      if (bh->absorbs(node, p, sim::Time::zero())) bh->on_absorb(p);
    }
  }
  EXPECT_EQ(pair.counters().absorbed, 3u);
  EXPECT_EQ(pair.pool().captured_segments(), 2u);  // distinct segments, not frames
  EXPECT_EQ(at3.counters().absorbed, 2u);
  EXPECT_EQ(at3.pool().captured_segments(), 1u);
  EXPECT_EQ(at5.counters().absorbed, 1u);
  EXPECT_EQ(at5.pool().captured_segments(), 1u);
}

// --- construction ----------------------------------------------------------

TEST(AdversaryTest, NoneIsInert) {
  Adversary none(AdversarySpec{}, AdversaryContext{});
  EXPECT_EQ(none.kind(), AdversaryKind::kNone);
  EXPECT_EQ(none.member_count(), 0u);
  EXPECT_FALSE(none.absorbs(0, data_packet(1, 2, 1), sim::Time::zero()));
  none.on_transmission({1, {}, {}, sim::Time::sec(1)}, data_frame(1, 1));
  EXPECT_EQ(none.pool().captured_segments(), 0u);
  EXPECT_EQ(none.key_recovery(), nullptr);
}

TEST(AdversaryTest, BuildsEachPassiveKind) {
  AdversaryContext ctx;
  ctx.node_count = 20;
  ctx.radio_range = 250.0;
  ctx.position_of = [](net::NodeId, sim::Time) { return mobility::Vec2{}; };
  ctx.rng = sim::Rng(3);

  AdversarySpec spec;
  spec.kind = AdversaryKind::kColluding;
  spec.count = 4;
  const Adversary colluding(spec, ctx);
  EXPECT_EQ(colluding.kind(), AdversaryKind::kColluding);
  EXPECT_EQ(colluding.member_count(), 4u);
  for (net::NodeId m : colluding.members()) EXPECT_TRUE(colluding.is_member(m));

  spec.kind = AdversaryKind::kMobile;
  spec.count = 2;
  const Adversary mobile(spec, ctx);
  EXPECT_EQ(mobile.kind(), AdversaryKind::kMobile);
  EXPECT_EQ(mobile.member_count(), 2u);

  spec.kind = AdversaryKind::kBlackhole;
  spec.count = 1;
  Adversary bh(spec, ctx);
  EXPECT_EQ(bh.kind(), AdversaryKind::kBlackhole);
  ASSERT_EQ(bh.member_count(), 1u);
  EXPECT_TRUE(bh.absorbs(bh.members()[0], data_packet(0, 19, 1),
                         sim::Time::zero()));
}

TEST(AdversaryTest, EmptyCoalitionIsAConfigError) {
  AdversaryContext ctx;
  ctx.node_count = 2;
  ctx.position_of = [](net::NodeId, sim::Time) { return mobility::Vec2{}; };
  ctx.excluded = {0, 1};  // every node is a flow endpoint
  AdversarySpec spec;
  spec.kind = AdversaryKind::kColluding;
  EXPECT_THROW(Adversary(spec, ctx), sim::ConfigError);
  spec.kind = AdversaryKind::kMobile;
  spec.count = 0;
  EXPECT_THROW(Adversary(spec, ctx), sim::ConfigError);
}

TEST(AdversaryTest, KindNamesAreStable) {
  EXPECT_STREQ(adversary_kind_name(AdversaryKind::kNone), "none");
  EXPECT_STREQ(adversary_kind_name(AdversaryKind::kColluding), "colluding");
  EXPECT_STREQ(adversary_kind_name(AdversaryKind::kMobile), "mobile");
  EXPECT_STREQ(adversary_kind_name(AdversaryKind::kBlackhole), "blackhole");
}

}  // namespace
}  // namespace mts::security
