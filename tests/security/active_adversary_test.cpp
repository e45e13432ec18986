// Unit coverage for the active half of the adversary taxonomy: wormhole
// pair placement, grayhole drop statistics and duty cycling, traffic-
// analysis inference, RREQ-flood injection pacing and rate validation.
// Everything here is deterministic for a fixed seed — the properties the
// integration fingerprints build on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "phy/channel.hpp"
#include "security/adversary.hpp"
#include "security/keyshare.hpp"
#include "sim/scheduler.hpp"

namespace mts::security {
namespace {

net::Packet data_packet(net::NodeId src, net::NodeId dst, std::uint32_t seq) {
  net::Packet p;
  auto& common = p.mutable_common();
  common.kind = net::PacketKind::kTcpData;
  common.src = src;
  common.dst = dst;
  p.mutable_tcp() = net::TcpHeader{.seq = seq, .flow_id = 1, .ts = {}};
  return p;
}

phy::Frame metadata_frame(net::NodeId tx, net::NodeId rx,
                          std::uint32_t bytes) {
  phy::Frame f;
  f.type = phy::FrameType::kData;
  f.transmitter = tx;
  f.receiver = rx;
  f.bytes = bytes;
  return f;
}

// --- wormhole pair placement -----------------------------------------------

/// 10 nodes on a 100 m-spaced line: distances are unambiguous, so the
/// far-end choice is easy to verify independently.
mobility::Vec2 line_position(net::NodeId id, sim::Time) {
  return {static_cast<double>(id) * 100.0, 0.0};
}

TEST(WormholePairTest, PlacementIsDeterministic) {
  AdversarySpec spec;
  spec.kind = AdversaryKind::kWormhole;
  const auto a =
      resolve_wormhole_pair(spec, 10, {0, 9}, sim::Rng(42), line_position);
  const auto b =
      resolve_wormhole_pair(spec, 10, {0, 9}, sim::Rng(42), line_position);
  EXPECT_EQ(a, b);
  EXPECT_NE(a[0], a[1]);
}

TEST(WormholePairTest, FarEndMaximizesSeparationFromAnchor) {
  AdversarySpec spec;
  spec.kind = AdversaryKind::kWormhole;
  const std::unordered_set<net::NodeId> excluded{0, 9};
  const auto pair =
      resolve_wormhole_pair(spec, 10, excluded, sim::Rng(7), line_position);
  const mobility::Vec2 ap = line_position(pair[0], {});
  const double chosen = mobility::distance(ap, line_position(pair[1], {}));
  for (net::NodeId c = 0; c < 10; ++c) {
    if (c == pair[0] || excluded.contains(c)) continue;
    EXPECT_GE(chosen + 1e-9, mobility::distance(ap, line_position(c, {})))
        << "candidate " << c << " is farther from the anchor than the "
        << "chosen far end " << pair[1];
  }
  EXPECT_FALSE(excluded.contains(pair[0]));
  EXPECT_FALSE(excluded.contains(pair[1]));
}

TEST(WormholePairTest, ExplicitPairPassesThroughAndIsValidated) {
  AdversarySpec spec;
  spec.kind = AdversaryKind::kWormhole;
  spec.members = {3, 7};
  const auto pair =
      resolve_wormhole_pair(spec, 10, {}, sim::Rng(1), line_position);
  EXPECT_EQ(pair, (std::array<net::NodeId, 2>{3, 7}));

  spec.members = {3};
  EXPECT_THROW(resolve_wormhole_pair(spec, 10, {}, sim::Rng(1), line_position),
               sim::ConfigError);
  spec.members = {3, 3};
  EXPECT_THROW(resolve_wormhole_pair(spec, 10, {}, sim::Rng(1), line_position),
               sim::ConfigError);
}

// --- grayhole --------------------------------------------------------------

/// A grayhole at member 4 of a 10-node population.
Adversary grayhole(double drop_prob, sim::Time window, sim::Time period,
                   std::uint64_t seed) {
  AdversarySpec spec;
  spec.kind = AdversaryKind::kGrayhole;
  spec.members = {4};
  spec.drop_prob = drop_prob;
  spec.active_window = window;
  spec.active_period = period;
  AdversaryContext ctx;
  ctx.node_count = 10;
  ctx.rng = sim::Rng(seed);
  return Adversary(spec, ctx);
}

TEST(GrayholeTest, DropRateConvergesToDropProb) {
  const double p = 0.3;
  Adversary gh = grayhole(p, sim::Time::zero(), sim::Time::zero(), 99);
  const int n = 4000;
  int absorbed = 0;
  for (int i = 0; i < n; ++i) {
    if (gh.absorbs(4, data_packet(0, 9, static_cast<std::uint32_t>(i)),
                   sim::Time::sec(1))) {
      ++absorbed;
    }
  }
  const double rate = static_cast<double>(absorbed) / n;
  // Seeded binomial tolerance: 4 sigma around p.
  const double sigma = std::sqrt(p * (1.0 - p) / n);
  EXPECT_NEAR(rate, p, 4.0 * sigma);
}

TEST(GrayholeTest, EligibilityMatchesTheBlackholeRules) {
  Adversary gh = grayhole(1.0, sim::Time::zero(), sim::Time::zero(), 1);
  // p = 1: every eligible packet dies, so the veto is fully visible.
  EXPECT_TRUE(gh.absorbs(4, data_packet(0, 9, 1), sim::Time::sec(1)));
  EXPECT_FALSE(gh.absorbs(5, data_packet(0, 9, 1), sim::Time::sec(1)));
  EXPECT_FALSE(gh.absorbs(4, data_packet(0, 4, 1), sim::Time::sec(1)));
  net::Packet ctrl;
  ctrl.mutable_common().kind = net::PacketKind::kMtsCheck;
  EXPECT_FALSE(gh.absorbs(4, ctrl, sim::Time::sec(1)));
}

TEST(GrayholeTest, DutyCycleGatesAbsorption) {
  // On for the first second of every 4-second period.
  Adversary gh = grayhole(1.0, sim::Time::sec(1), sim::Time::sec(4), 5);
  EXPECT_TRUE(gh.active_at(sim::Time::ms(500)));
  EXPECT_FALSE(gh.active_at(sim::Time::ms(1500)));
  EXPECT_FALSE(gh.active_at(sim::Time::ms(3999)));
  EXPECT_TRUE(gh.active_at(sim::Time::ms(4200)));
  EXPECT_TRUE(gh.absorbs(4, data_packet(0, 9, 1), sim::Time::ms(4200)));
  EXPECT_FALSE(gh.absorbs(4, data_packet(0, 9, 1), sim::Time::ms(2000)));
}

TEST(GrayholeTest, HalfConfiguredDutyCycleIsAConfigError) {
  // window without period (or vice versa) must not silently run
  // always-on.
  EXPECT_THROW(grayhole(0.5, sim::Time::sec(2), sim::Time::zero(), 1),
               sim::ConfigError);
  EXPECT_THROW(grayhole(0.5, sim::Time::zero(), sim::Time::sec(4), 1),
               sim::ConfigError);
  EXPECT_THROW(grayhole(1.5, sim::Time::zero(), sim::Time::zero(), 1),
               sim::ConfigError);
}

TEST(GrayholeTest, AbsorbedPacketsAreCountedAndRead) {
  Adversary gh = grayhole(0.5, sim::Time::zero(), sim::Time::zero(), 1);
  gh.on_absorb(data_packet(0, 9, 1));
  gh.on_absorb(data_packet(0, 9, 1));  // retransmit of seq 1
  gh.on_absorb(data_packet(0, 9, 2));
  EXPECT_EQ(gh.counters().absorbed, 3u);
  EXPECT_EQ(gh.pool().captured_segments(), 2u);  // distinct segments
}

// --- traffic analysis ------------------------------------------------------

class TrafficAnalysisTest : public ::testing::Test {
 protected:
  /// Member 1 at the origin sees everything within 250 m; nodes sit on
  /// a 100 m line so the whole chain is observable.
  static Adversary make(std::vector<net::NodeId> members) {
    AdversarySpec spec;
    spec.kind = AdversaryKind::kTrafficAnalysis;
    spec.members = std::move(members);
    spec.sniff_range = 250.0;
    AdversaryContext ctx;
    ctx.node_count = 4;
    ctx.position_of = line_position;
    return Adversary(spec, ctx);
  }

  /// One TCP exchange of the flow 0 -> 2 through relay 1: big data
  /// frames downstream, small ACKs upstream.
  static void feed(Adversary& t, int rounds) {
    for (int i = 0; i < rounds; ++i) {
      t.on_transmission({0, line_position(0, {}), {}, sim::Time::sec(1)},
                        metadata_frame(0, 1, 1000));
      t.on_transmission({1, line_position(1, {}), {}, sim::Time::sec(1)},
                        metadata_frame(1, 2, 1000));
      t.on_transmission({2, line_position(2, {}), {}, sim::Time::sec(1)},
                        metadata_frame(2, 1, 60));
      t.on_transmission({1, line_position(1, {}), {}, sim::Time::sec(1)},
                        metadata_frame(1, 0, 60));
    }
  }
};

TEST_F(TrafficAnalysisTest, InfersEndpointsFromVolumeSkewAlone) {
  auto t = make({1});
  feed(t, 10);
  // Source 0: sends 10 kB of data, receives 600 B of ACKs.  Sink 2 is
  // the mirror image.  Relay 1 cancels out.
  EXPECT_GT(t.volume_skew(0), 0);
  EXPECT_LT(t.volume_skew(2), 0);
  EXPECT_EQ(t.volume_skew(1), 0);
  const auto guesses = t.inferred_endpoints(1);
  ASSERT_EQ(guesses.size(), 1u);
  EXPECT_EQ(guesses[0].first, 0u);
  EXPECT_EQ(guesses[0].second, 2u);
}

TEST_F(TrafficAnalysisTest, InferenceIsDeterministic) {
  auto a = make({1});
  auto b = make({1});
  feed(a, 7);
  feed(b, 7);
  EXPECT_EQ(a.inferred_endpoints(2), b.inferred_endpoints(2));
  EXPECT_EQ(a.counters().profiled, b.counters().profiled);
}

TEST_F(TrafficAnalysisTest, NeverDecodesPayloads) {
  auto t = make({1});
  // Even a frame that *carries* a decodable TCP segment contributes
  // metadata only: the capture-pool metrics stay at their "knows
  // nothing" defaults.
  phy::Frame f = metadata_frame(0, 1, 1060);
  f.payload.mutable_common().kind = net::PacketKind::kTcpData;
  f.payload.mutable_tcp() = net::TcpHeader{.seq = 1, .flow_id = 1, .ts = {}};
  t.on_transmission({0, line_position(0, {}), {}, sim::Time::sec(1)}, f);
  EXPECT_EQ(t.pool().captured_segments(), 0u);
  EXPECT_EQ(t.pool().fragments_missing(100), 100u);
  EXPECT_EQ(t.counters().profiled, 1u);
}

TEST_F(TrafficAnalysisTest, OutOfRangeTransmissionsAreNotProfiled) {
  auto t = make({1});
  // 1 km from member 1: invisible.
  t.on_transmission({3, {1000.0, 1000.0}, {}, sim::Time::sec(1)},
                    metadata_frame(3, 2, 1000));
  EXPECT_EQ(t.counters().profiled, 0u);
  EXPECT_TRUE(t.inferred_endpoints(1).empty());
}

// --- RREQ flood ------------------------------------------------------------

struct FloodHarness {
  sim::Scheduler sched;
  std::vector<net::Packet> injected;
  std::vector<net::NodeId> injectors;

  /// A flood over a 10-node population starting at t = 1 s.
  Adversary make(std::vector<net::NodeId> members, net::PacketKind kind,
                 double rate) {
    AdversarySpec spec;
    spec.kind = AdversaryKind::kRreqFlood;
    spec.members = std::move(members);
    spec.flood_rate = rate;
    spec.flood_start = sim::Time::sec(1);
    AdversaryContext ctx;
    ctx.node_count = 10;
    ctx.rreq_kind = kind;
    ctx.sched = &sched;
    ctx.inject_control = [this](net::NodeId m, net::Packet&& p) {
      injectors.push_back(m);
      injected.push_back(std::move(p));
    };
    ctx.rng = sim::Rng(3);
    return Adversary(spec, ctx);
  }
};

TEST(RreqFloodTest, InjectionCountMatchesTheConfiguredRate) {
  FloodHarness h;
  auto flood = h.make({5}, net::PacketKind::kAodvRreq, 10.0);
  flood.on_start(sim::Time::sec(6));
  h.sched.run_until(sim::Time::sec(6));
  // Ticks at t = 1.0, 1.1, ..., 6.0: (6 - 1) * 10 + 1 per member.
  EXPECT_EQ(flood.counters().injected, 51u);
  EXPECT_EQ(h.injected.size(), 51u);
}

TEST(RreqFloodTest, EveryMemberInjectsEachTick) {
  FloodHarness h;
  auto flood = h.make({2, 5, 7}, net::PacketKind::kDsrRreq, 2.0);
  flood.on_start(sim::Time::sec(3));
  h.sched.run_until(sim::Time::sec(3));
  // Ticks at t = 1, 1.5, 2, 2.5, 3 -> 5 per member.
  EXPECT_EQ(flood.counters().injected, 15u);
  for (std::size_t i = 0; i < h.injectors.size(); ++i) {
    EXPECT_EQ(h.injectors[i], std::vector<net::NodeId>({2, 5, 7})[i % 3]);
  }
}

TEST(RreqFloodTest, ForgedPacketsAreWellFormedPerProtocol) {
  FloodHarness h;
  auto flood = h.make({5}, net::PacketKind::kMtsRreq, 5.0);
  flood.on_start(sim::Time::sec(2));
  h.sched.run_until(sim::Time::sec(2));
  ASSERT_FALSE(h.injected.empty());
  for (const net::Packet& p : h.injected) {
    EXPECT_EQ(p.kind(), net::PacketKind::kMtsRreq);
    EXPECT_EQ(p.common().src, 5u);
    EXPECT_EQ(p.common().dst, net::kBroadcastId);
    const auto& rh = std::get<net::MtsRreqHeader>(p.routing());
    EXPECT_EQ(rh.orig, 5u);
    EXPECT_NE(rh.dst, 5u);          // never floods for itself
    EXPECT_LT(rh.dst, 10u);         // a real victim
    EXPECT_GE(rh.bcast_id, Adversary::kForgedIdBase)
        << "forged ids must not collide with genuine discovery ids";
  }
}

TEST(RreqFloodTest, FloodAfterSimEndNeverFires) {
  FloodHarness h;
  auto flood = h.make({5}, net::PacketKind::kAodvRreq, 10.0);
  flood.on_start(sim::Time::ms(500));  // sim ends before flood_start (1 s)
  h.sched.run_until(sim::Time::ms(500));
  EXPECT_EQ(flood.counters().injected, 0u);
}

TEST(RreqFloodTest, RateIsValidatedBeforeTheIntervalIsDerived) {
  // 1 / rate becomes a Time in nanoseconds: zero, NaN and a rate whose
  // interval overflows Time (1e-12/s is ~31,700 years) must be rejected
  // before that conversion, as must a rate whose interval rounds to 0 ns.
  for (double rate : {0.0, -1.0, std::nan(""), 1e-12, 1e10,
                      std::numeric_limits<double>::infinity()}) {
    FloodHarness h;
    EXPECT_THROW(h.make({5}, net::PacketKind::kAodvRreq, rate),
                 sim::ConfigError)
        << "flood_rate " << rate;
  }
  FloodHarness h;
  EXPECT_NO_THROW(h.make({5}, net::PacketKind::kAodvRreq, 1e-9));
}

// --- wormhole dedup aging --------------------------------------------------

/// Drives the tunnel tap directly: frames transmitted by endpoint 3 are
/// always heard (own transmissions feed the tunnel), so every feed is a
/// tunnel-dedup decision.  drop_prob 0 keeps the counts deterministic.
struct WormholeDedupHarness {
  sim::Scheduler sched;
  phy::Channel channel{sched, {}, 250.0};
  Adversary worm{spec(), context()};

  static AdversarySpec spec() {
    AdversarySpec s;
    s.kind = AdversaryKind::kWormhole;
    s.members = {3, 7};
    s.sniff_range = 250.0;
    s.drop_prob = 0.0;
    return s;
  }
  AdversaryContext context() {
    AdversaryContext ctx;
    ctx.node_count = 10;
    ctx.position_of = line_position;
    ctx.sched = &sched;
    ctx.channel = &channel;
    ctx.rng = sim::Rng(5);
    return ctx;
  }

  void feed(std::uint32_t uid, sim::Time now) {
    sched.run_until(now);
    net::Packet p = data_packet(0, 9, uid);
    p.mutable_common().uid = uid;
    phy::Frame f = metadata_frame(3, 4, 1000);
    f.payload = p;
    worm.on_transmission({3, line_position(3, now), sim::Time::us(100), now},
                         f);
  }
};

TEST(WormholeDedupTest, SameUidWithinTheWindowTunnelsOnce) {
  WormholeDedupHarness h;
  h.feed(42, sim::Time::sec(1));
  h.feed(42, sim::Time::sec(2));  // MAC retry / far-end re-hear
  EXPECT_EQ(h.worm.counters().tunneled, 1u);
  EXPECT_EQ(h.worm.dedup_entries(), 1u);
}

TEST(WormholeDedupTest, EntriesAgeOutAfterTheFreshnessWindow) {
  WormholeDedupHarness h;
  h.feed(42, sim::Time::sec(1));
  EXPECT_EQ(h.worm.dedup_entries(), 1u);
  // Past the window the entry is evicted and the uid tunnels again —
  // a packet genuinely re-entering the air (e.g. after a send-buffer
  // stint) is a fresh radiation a real tunnel would replay.
  const sim::Time later =
      sim::Time::sec(1) + Adversary::kUidFreshness + sim::Time::sec(1);
  h.feed(42, later);
  EXPECT_EQ(h.worm.counters().tunneled, 2u);
  EXPECT_EQ(h.worm.dedup_entries(), 1u) << "old entry evicted, new recorded";
}

TEST(WormholeDedupTest, DedupStateIsBoundedOverALongRun) {
  WormholeDedupHarness h;
  // 10 distinct packets per second for 200 simulated seconds: the old
  // unbounded set would hold 2000 entries; the aged set holds at most
  // one freshness window's worth.
  std::uint32_t uid = 1;
  for (int sec = 1; sec <= 200; ++sec) {
    for (int k = 0; k < 10; ++k) {
      h.feed(uid++, sim::Time::sec(sec) + sim::Time::ms(k * 10));
    }
  }
  EXPECT_EQ(h.worm.counters().tunneled, 2000u);
  const auto window_s =
      static_cast<std::size_t>(Adversary::kUidFreshness.to_seconds());
  EXPECT_LE(h.worm.dedup_entries(), (window_s + 2) * 10)
      << "dedup set must be bounded by the freshness window, not the run";
}

// --- construction ----------------------------------------------------------

class ActiveAdversaryTest : public ::testing::Test {
 protected:
  ActiveAdversaryTest() {
    ctx_.node_count = 20;
    ctx_.radio_range = 250.0;
    ctx_.position_of = line_position;
    ctx_.rng = sim::Rng(3);
    ctx_.sched = &sched_;
    ctx_.channel = &channel_;
    ctx_.rreq_kind = net::PacketKind::kDsrRreq;
    ctx_.inject_control = [](net::NodeId, net::Packet&&) {};
  }

  sim::Scheduler sched_;
  phy::Channel channel_{sched_, {}, 250.0};
  AdversaryContext ctx_;
};

TEST_F(ActiveAdversaryTest, BuildsEachActiveKind) {
  AdversarySpec spec;
  spec.kind = AdversaryKind::kWormhole;
  const Adversary wormhole(spec, ctx_);
  EXPECT_EQ(wormhole.kind(), AdversaryKind::kWormhole);
  EXPECT_EQ(wormhole.member_count(), 2u);
  ASSERT_EQ(wormhole.members().size(), 2u);
  EXPECT_TRUE(wormhole.is_member(wormhole.members()[1]));

  spec.kind = AdversaryKind::kGrayhole;
  spec.count = 3;
  spec.drop_prob = 0.25;
  const Adversary grayhole(spec, ctx_);
  EXPECT_EQ(grayhole.kind(), AdversaryKind::kGrayhole);
  EXPECT_EQ(grayhole.member_count(), 3u);

  spec.kind = AdversaryKind::kTrafficAnalysis;
  const Adversary traffic(spec, ctx_);
  EXPECT_EQ(traffic.kind(), AdversaryKind::kTrafficAnalysis);
  EXPECT_TRUE(traffic.inferred_endpoints(1).empty());  // saw nothing yet

  spec.kind = AdversaryKind::kRreqFlood;
  spec.count = 2;
  const Adversary flood(spec, ctx_);
  EXPECT_EQ(flood.kind(), AdversaryKind::kRreqFlood);
  EXPECT_EQ(flood.member_count(), 2u);
  EXPECT_EQ(flood.counters().injected, 0u);
}

TEST_F(ActiveAdversaryTest, SecrecyGameArmsOnlyPayloadReadingKinds) {
  const SecrecyPlane plane(SecrecySpec{.enabled = true}, sim::Rng(1));
  ctx_.secrecy = &plane;
  for (AdversaryKind k :
       {AdversaryKind::kColluding, AdversaryKind::kMobile,
        AdversaryKind::kBlackhole, AdversaryKind::kWormhole,
        AdversaryKind::kGrayhole, AdversaryKind::kTrafficAnalysis,
        AdversaryKind::kRreqFlood}) {
    AdversarySpec spec;
    spec.kind = k;
    const Adversary a(spec, ctx_);
    const bool reads_payloads = k != AdversaryKind::kTrafficAnalysis &&
                                k != AdversaryKind::kRreqFlood;
    EXPECT_EQ(a.key_recovery() != nullptr, reads_payloads)
        << adversary_kind_name(k);
  }
}

TEST(ActiveAdversaryNamesTest, NewKindNamesAreStable) {
  EXPECT_STREQ(adversary_kind_name(AdversaryKind::kWormhole), "wormhole");
  EXPECT_STREQ(adversary_kind_name(AdversaryKind::kGrayhole), "grayhole");
  EXPECT_STREQ(adversary_kind_name(AdversaryKind::kTrafficAnalysis),
               "traffic");
  EXPECT_STREQ(adversary_kind_name(AdversaryKind::kRreqFlood), "rreq-flood");
}

}  // namespace
}  // namespace mts::security
