// End-to-end adversary coverage: the models are wired through the
// channel tap and the MAC->routing seam, so these tests drive full
// simulations and assert on the resulting RunMetrics.
#include <gtest/gtest.h>

#include "harness/campaign.hpp"
#include "harness/scenario.hpp"
#include "integration/campaign_fixture.hpp"

namespace mts::harness {
namespace {

ScenarioConfig small_base(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.node_count = 25;
  // Denser than the paper's 50-node/1000 m grid so every seed yields a
  // connected multihop topology at 25 nodes.
  cfg.field = {700.0, 700.0};
  cfg.sim_time = sim::Time::sec(20);
  cfg.max_speed = 5.0;
  cfg.seed = seed;
  return cfg;
}

TEST(AdversaryScenarioTest, CoalitionInterceptionMonotoneInCoalitionSize) {
  // Same seed => identical simulation (passive adversaries are pure
  // observers) and nested coalitions (prefix member draw), so the
  // pooled capture can only grow with coalition size.
  std::uint64_t prev_captured = 0;
  double prev_ratio = 0.0;
  for (std::uint32_t k : {1u, 2u, 4u, 8u}) {
    ScenarioConfig cfg = small_base(11);
    cfg.protocol = Protocol::kMts;
    cfg.adversary.kind = security::AdversaryKind::kColluding;
    cfg.adversary.count = k;
    const RunMetrics m = run_scenario(cfg);
    EXPECT_EQ(m.adversary_kind, security::AdversaryKind::kColluding);
    EXPECT_EQ(m.adversary_count, k);
    EXPECT_GE(m.coalition_captured, prev_captured)
        << "coalition of " << k << " captured less than a smaller one";
    EXPECT_GE(m.coalition_interception_ratio, prev_ratio);
    prev_captured = m.coalition_captured;
    prev_ratio = m.coalition_interception_ratio;
  }
  EXPECT_GT(prev_captured, 0u) << "largest coalition never heard anything";
}

TEST(AdversaryScenarioTest, PassiveAdversaryDoesNotPerturbTheRun) {
  ScenarioConfig plain = small_base(7);
  plain.protocol = Protocol::kMts;
  const RunMetrics base = run_scenario(plain);

  ScenarioConfig watched = plain;
  watched.adversary.kind = security::AdversaryKind::kColluding;
  watched.adversary.count = 4;
  const RunMetrics obs = run_scenario(watched);

  // Identical event stream: the coalition only watches.
  EXPECT_EQ(base.events_executed, obs.events_executed);
  EXPECT_EQ(base.segments_delivered, obs.segments_delivered);
  EXPECT_EQ(base.control_packets, obs.control_packets);
}

TEST(AdversaryScenarioTest, BlackholeStrictlyReducesAodvDelivery) {
  // Static 3-node chain 0 -(200m)- 1 -(200m)- 2 with a 250 m range:
  // every data packet must transit node 1.
  ScenarioConfig cfg;
  cfg.node_count = 3;
  cfg.static_positions = {{0, 0}, {200, 0}, {400, 0}};
  cfg.explicit_flows = {{0, 2, sim::Time::sec(1)}};
  cfg.min_flow_distance = 0;
  cfg.protocol = Protocol::kAodv;
  cfg.sim_time = sim::Time::sec(30);
  cfg.eavesdropper_enabled = false;
  cfg.seed = 3;

  const RunMetrics honest = run_scenario(cfg);
  ASSERT_GT(honest.segments_delivered, 0u) << "baseline chain never delivered";

  ScenarioConfig attacked = cfg;
  attacked.adversary.kind = security::AdversaryKind::kBlackhole;
  attacked.adversary.members = {1};
  const RunMetrics bh = run_scenario(attacked);

  EXPECT_EQ(bh.segments_delivered, 0u)
      << "the only relay is a blackhole; nothing can get through";
  EXPECT_LT(bh.delivery_rate, honest.delivery_rate);
  EXPECT_GT(bh.blackhole_absorbed, 0u);
  EXPECT_EQ(bh.dropped(net::DropReason::kAdversary), bh.blackhole_absorbed);
  // The attacker read everything it ate.
  EXPECT_GT(bh.coalition_captured, 0u);
}

TEST(AdversaryScenarioTest, BlackholeReducesDeliveryInAMobileNetwork) {
  // 25-node AODV network, 3 insider blackholes: delivery must not
  // improve, and the attackers must absorb traffic.
  ScenarioConfig cfg = small_base(5);
  cfg.protocol = Protocol::kAodv;
  const RunMetrics honest = run_scenario(cfg);

  ScenarioConfig attacked = cfg;
  attacked.adversary.kind = security::AdversaryKind::kBlackhole;
  attacked.adversary.count = 3;
  const RunMetrics bh = run_scenario(attacked);

  EXPECT_GT(bh.blackhole_absorbed, 0u);
  EXPECT_LT(bh.segments_delivered, honest.segments_delivered);
}

TEST(AdversaryScenarioTest, CampaignSweepsTheAdversaryAxis) {
  CampaignConfig cfg;
  cfg.base.node_count = 20;
  cfg.base.sim_time = sim::Time::sec(8);
  cfg.speeds = {2};
  cfg.protocols = {Protocol::kAodv, Protocol::kMts};
  cfg.repetitions = 2;
  security::AdversarySpec colluding;
  colluding.kind = security::AdversaryKind::kColluding;
  colluding.count = 3;
  security::AdversarySpec mobile;
  mobile.kind = security::AdversaryKind::kMobile;
  mobile.count = 2;
  cfg.adversaries = {security::AdversarySpec{}, colluding, mobile};

  const CampaignResult result = run_test_campaign(cfg);
  EXPECT_EQ(result.total_runs(), 2u * 1u * 3u * 2u);
  for (Protocol p : cfg.protocols) {
    // Adversary index 0 is the paper grid: no adversary metrics.
    for (const RunMetrics& m : result.runs(p, 2, 0)) {
      EXPECT_EQ(m.adversary_kind, security::AdversaryKind::kNone);
    }
    ASSERT_EQ(result.runs(p, 2, 1).size(), 2u);
    for (const RunMetrics& m : result.runs(p, 2, 1)) {
      EXPECT_EQ(m.adversary_kind, security::AdversaryKind::kColluding);
      EXPECT_EQ(m.adversary_count, 3u);
      EXPECT_EQ(m.adversary_members.size(), 3u);
    }
    for (const RunMetrics& m : result.runs(p, 2, 2)) {
      EXPECT_EQ(m.adversary_kind, security::AdversaryKind::kMobile);
    }
  }
  // The summarize overload scoped to an adversary cell works.
  const stats::Summary s = result.summarize(
      Protocol::kMts, 2, 1,
      [](const RunMetrics& m) { return m.coalition_interception_ratio; });
  EXPECT_EQ(s.count(), 2u);
}

// --- active-attack suite ---------------------------------------------------

/// The fixed 20-node arena every active-adversary fingerprint uses.
ScenarioConfig active_base(Protocol p) {
  ScenarioConfig cfg;
  cfg.node_count = 20;
  cfg.field = {700.0, 700.0};
  cfg.sim_time = sim::Time::sec(15);
  cfg.max_speed = 5.0;
  cfg.seed = 11;
  cfg.protocol = p;
  return cfg;
}

security::AdversarySpec wormhole_spec() {
  security::AdversarySpec s;
  s.kind = security::AdversaryKind::kWormhole;
  return s;  // endpoints auto-placed, drop_prob 0.5
}

security::AdversarySpec grayhole_spec() {
  security::AdversarySpec s;
  s.kind = security::AdversaryKind::kGrayhole;
  s.count = 3;
  s.drop_prob = 0.3;
  return s;
}

security::AdversarySpec traffic_spec() {
  security::AdversarySpec s;
  s.kind = security::AdversaryKind::kTrafficAnalysis;
  s.count = 3;
  return s;
}

security::AdversarySpec flood_spec() {
  security::AdversarySpec s;
  s.kind = security::AdversaryKind::kRreqFlood;
  s.count = 1;
  s.flood_rate = 5.0;
  return s;
}

security::AdversarySpec coalition_spec(security::AdversaryKind k,
                                       std::uint32_t count) {
  security::AdversarySpec s;
  s.kind = k;
  s.count = count;
  return s;
}

struct ActiveFingerprint {
  security::AdversaryKind kind;
  Protocol protocol;
  security::DefenseKind defense;
  bool secrecy;  ///< secrecy game on, threshold 2
  std::uint64_t events;
  std::uint64_t order_hash;  ///< RunMetrics::event_order_hash
  std::uint64_t delivered;
  std::uint64_t control;
  std::uint64_t captured;  ///< pooled distinct segments
  std::uint64_t aux;       ///< kind-specific: tunneled / absorbed / injected
  std::uint64_t shares;    ///< shares_captured (0 with the game off)
  std::uint64_t keys;      ///< keys_recovered
};

using security::AdversaryKind;
using security::DefenseKind;

/// Fixed-seed attack-effect fingerprints, captured on the reference
/// toolchain.  These pin each attacker's *effect* — what it perturbed,
/// what it captured — as a regression-checked fact.  If a deliberate
/// behaviour change shifts them, re-pin from a run of this config and
/// say why in the commit.  Highlights the numbers encode:
///  - wormhole vs DSR: delivery collapses to zero (phantom shortcut
///    routes fail while discovery keeps succeeding through the tunnel);
///  - wormhole vs MTS: the tunnel *is* the best path, so the pair reads
///    the entire delivered stream (captured == delivered);
///  - grayhole at p=0.3: TCP collapses far below 70% of baseline — loss
///    compounds through timeouts — while absorbing only a handful;
///  - RREQ flood: 71 forged discoveries inflate control overhead ~20x
///    (DSR) while barely denting delivery;
///  - colluding and mobile coalitions replay the traffic-analysis (and
///    adversary-free) event stream exactly: same events, same order hash;
///  - a 3-member blackhole sits on the only route and zeroes delivery;
///  - with the secrecy game at threshold 2, the wormhole pair reads two
///    shares and recovers the key, while the colluding coalition reads
///    one and recovers nothing.
constexpr ActiveFingerprint kActivePinned[] = {
    {AdversaryKind::kWormhole, Protocol::kDsr, DefenseKind::kNone, false,
     119225, 0x65c5c35d34888cb5u, 0, 1979, 1, 198, 0, 0},
    {AdversaryKind::kWormhole, Protocol::kMts, DefenseKind::kNone, false,
     255836, 0xa0355d3ed56b18f2u, 314, 613, 314, 564, 0, 0},
    {AdversaryKind::kGrayhole, Protocol::kDsr, DefenseKind::kNone, false,
     40868, 0xd51f118db12fa8b7u, 58, 36, 16, 17, 0, 0},
    {AdversaryKind::kGrayhole, Protocol::kMts, DefenseKind::kNone, false,
     13828, 0x71019e3468b81677u, 16, 52, 3, 4, 0, 0},
    {AdversaryKind::kTrafficAnalysis, Protocol::kDsr, DefenseKind::kNone, false,
     283999, 0x39f6dacbf20a3c91u, 466, 59, 0, 0, 0, 0},
    {AdversaryKind::kTrafficAnalysis, Protocol::kMts, DefenseKind::kNone, false,
     288290, 0x40baafd86c4c3f7au, 453, 52, 0, 0, 0, 0},
    {AdversaryKind::kRreqFlood, Protocol::kDsr, DefenseKind::kNone, false,
     338414, 0x2b9c017dd08a2539u, 458, 1185, 0, 71, 0, 0},
    {AdversaryKind::kRreqFlood, Protocol::kMts, DefenseKind::kNone, false,
     364623, 0x167b18fd3bfe6237u, 456, 1957, 0, 71, 0, 0},
    {AdversaryKind::kColluding, Protocol::kDsr, DefenseKind::kNone, false,
     283999, 0x39f6dacbf20a3c91u, 466, 59, 467, 0, 0, 0},
    {AdversaryKind::kColluding, Protocol::kMts, DefenseKind::kNone, false,
     288290, 0x40baafd86c4c3f7au, 453, 52, 456, 0, 0, 0},
    {AdversaryKind::kMobile, Protocol::kDsr, DefenseKind::kNone, false,
     283999, 0x39f6dacbf20a3c91u, 466, 59, 467, 0, 0, 0},
    {AdversaryKind::kMobile, Protocol::kMts, DefenseKind::kNone, false,
     288290, 0x40baafd86c4c3f7au, 453, 52, 456, 0, 0, 0},
    {AdversaryKind::kBlackhole, Protocol::kDsr, DefenseKind::kNone, false,
     2074, 0x0df7bd2d8729a08cu, 0, 36, 1, 3, 0, 0},
    {AdversaryKind::kBlackhole, Protocol::kMts, DefenseKind::kNone, false,
     3413, 0xa9a3aa2a530c3dd6u, 0, 52, 1, 3, 0, 0},
    // Every kind against MTS with the full defense suite.
    {AdversaryKind::kColluding, Protocol::kMts, DefenseKind::kSuite, false,
     307509, 0x50f507a9581f43e3u, 439, 114, 441, 0, 0, 0},
    {AdversaryKind::kMobile, Protocol::kMts, DefenseKind::kSuite, false,
     307509, 0x50f507a9581f43e3u, 439, 114, 441, 0, 0, 0},
    {AdversaryKind::kBlackhole, Protocol::kMts, DefenseKind::kSuite, false,
     13391, 0x3fbae60047f887eeu, 0, 208, 1, 24, 0, 0},
    {AdversaryKind::kWormhole, Protocol::kMts, DefenseKind::kSuite, false,
     314647, 0x04e8b4fd395da494u, 419, 55, 420, 661, 0, 0},
    {AdversaryKind::kGrayhole, Protocol::kMts, DefenseKind::kSuite, false,
     37199, 0xf0aeb7c5ccf44fbbu, 28, 72, 6, 20, 0, 0},
    {AdversaryKind::kTrafficAnalysis, Protocol::kMts, DefenseKind::kSuite, false,
     307509, 0x50f507a9581f43e3u, 439, 114, 0, 0, 0, 0},
    {AdversaryKind::kRreqFlood, Protocol::kMts, DefenseKind::kSuite, false,
     483992, 0xdb14ea790ec604a7u, 347, 660, 0, 71, 0, 0},
    // The secrecy game on: key shares read from real wire bytes.
    {AdversaryKind::kColluding, Protocol::kMts, DefenseKind::kNone, true,
     288290, 0x40baafd86c4c3f7au, 453, 52, 456, 0, 1, 0},
    {AdversaryKind::kWormhole, Protocol::kMts, DefenseKind::kNone, true,
     255836, 0xa0355d3ed56b18f2u, 314, 613, 314, 564, 2, 1},
};

security::AdversarySpec spec_for(AdversaryKind k) {
  switch (k) {
    case AdversaryKind::kColluding: return coalition_spec(k, 3);
    case AdversaryKind::kMobile: return coalition_spec(k, 2);
    case AdversaryKind::kBlackhole: return coalition_spec(k, 3);
    case AdversaryKind::kWormhole: return wormhole_spec();
    case AdversaryKind::kGrayhole: return grayhole_spec();
    case AdversaryKind::kTrafficAnalysis: return traffic_spec();
    case AdversaryKind::kRreqFlood: return flood_spec();
    default: return {};
  }
}

TEST(ActiveAdversaryScenarioTest, FixedSeedAttackEffectFingerprints) {
  for (const ActiveFingerprint& fp : kActivePinned) {
    ScenarioConfig cfg = active_base(fp.protocol);
    cfg.adversary = spec_for(fp.kind);
    cfg.defense.kind = fp.defense;
    cfg.secrecy.enabled = fp.secrecy;
    if (fp.secrecy) cfg.secrecy.threshold = 2;
    const RunMetrics m = run_scenario(cfg);
    const std::string tag = std::string(protocol_name(fp.protocol)) + "/" +
                            security::adversary_kind_name(fp.kind) + "/" +
                            security::defense_kind_name(fp.defense) +
                            (fp.secrecy ? "/secrecy" : "");
    EXPECT_EQ(m.adversary_kind, fp.kind) << tag;
    EXPECT_EQ(m.events_executed, fp.events) << tag;
    EXPECT_EQ(m.event_order_hash, fp.order_hash) << tag;
    EXPECT_EQ(m.segments_delivered, fp.delivered) << tag;
    EXPECT_EQ(m.control_packets, fp.control) << tag;
    EXPECT_EQ(m.coalition_captured, fp.captured) << tag;
    EXPECT_EQ(m.shares_captured, fp.shares) << tag;
    EXPECT_EQ(m.keys_recovered, fp.keys) << tag;
    switch (fp.kind) {
      case AdversaryKind::kWormhole:
        EXPECT_EQ(m.wormhole_tunneled, fp.aux) << tag;
        EXPECT_EQ(m.adversary_members.size(), 2u) << tag;
        break;
      case AdversaryKind::kBlackhole:
        EXPECT_EQ(m.blackhole_absorbed, fp.aux) << tag;
        break;
      case AdversaryKind::kGrayhole:
        EXPECT_EQ(m.grayhole_absorbed, fp.aux) << tag;
        EXPECT_EQ(m.blackhole_absorbed, fp.aux) << tag;  // same counter
        break;
      case AdversaryKind::kTrafficAnalysis:
        EXPECT_DOUBLE_EQ(m.endpoint_inference_accuracy, 1.0)
            << tag << ": metadata profiling should identify the flow "
            << "endpoints in this arena — relay spreading does not hide "
            << "the endpoints' volume signature";
        break;
      case AdversaryKind::kRreqFlood:
        EXPECT_EQ(m.flood_injected, fp.aux) << tag;
        break;
      default:
        break;
    }
  }
}

TEST(ActiveAdversaryScenarioTest, TrafficAnalysisRunIsBitIdenticalToNoAdversary) {
  // The same guarantee PR 1 pinned for eavesdroppers, extended to the
  // new passive kind: a kTrafficAnalysis coalition is a pure observer,
  // so the run replays the adversary-free event stream exactly.
  for (Protocol p : {Protocol::kDsr, Protocol::kMts}) {
    const RunMetrics base = run_scenario(active_base(p));
    ScenarioConfig watched = active_base(p);
    watched.adversary = traffic_spec();
    const RunMetrics obs = run_scenario(watched);
    EXPECT_EQ(base.events_executed, obs.events_executed) << protocol_name(p);
    EXPECT_EQ(base.segments_delivered, obs.segments_delivered)
        << protocol_name(p);
    EXPECT_EQ(base.control_packets, obs.control_packets) << protocol_name(p);
    EXPECT_EQ(base.pe, obs.pe) << protocol_name(p);
    EXPECT_EQ(base.retransmits, obs.retransmits) << protocol_name(p);
  }
}

TEST(ActiveAdversaryScenarioTest, GrayholeEvadesADeliveryRateDetector) {
  // Static 3-node chain: every data packet transits node 1.  A blackhole
  // there zeroes delivery — any delivery-rate detector flags it.  A
  // grayhole at p = 0.15 keeps the connection alive and the end-to-end
  // delivery rate high enough to sit under the same detector's
  // threshold, while still eating (and reading) a slice of the stream.
  ScenarioConfig cfg;
  cfg.node_count = 3;
  cfg.static_positions = {{0, 0}, {200, 0}, {400, 0}};
  cfg.explicit_flows = {{0, 2, sim::Time::sec(1)}};
  cfg.min_flow_distance = 0;
  cfg.protocol = Protocol::kAodv;
  cfg.sim_time = sim::Time::sec(30);
  cfg.eavesdropper_enabled = false;
  cfg.seed = 3;

  const RunMetrics honest = run_scenario(cfg);
  ASSERT_GT(honest.segments_delivered, 0u);

  ScenarioConfig black = cfg;
  black.adversary.kind = security::AdversaryKind::kBlackhole;
  black.adversary.members = {1};
  const RunMetrics bh = run_scenario(black);
  EXPECT_EQ(bh.segments_delivered, 0u);

  ScenarioConfig gray = cfg;
  gray.adversary.kind = security::AdversaryKind::kGrayhole;
  gray.adversary.members = {1};
  gray.adversary.drop_prob = 0.15;
  const RunMetrics gh = run_scenario(gray);

  EXPECT_GT(gh.grayhole_absorbed, 0u) << "the grayhole never ate anything";
  EXPECT_GT(gh.coalition_captured, 0u) << "it reads what it eats";
  EXPECT_GT(gh.segments_delivered, 0u)
      << "a grayhole must keep the connection alive to stay hidden";
  // The evasion claim: the blackhole's delivery rate (0) trips any
  // threshold; the grayhole's stays in the healthy band.
  EXPECT_GT(gh.delivery_rate, 0.5);
  EXPECT_LT(gh.segments_delivered, honest.segments_delivered);
}

TEST(ActiveAdversaryScenarioTest, GrayholeDutyCycleOnlyEatsInsideTheWindow) {
  ScenarioConfig cfg;
  cfg.node_count = 3;
  cfg.static_positions = {{0, 0}, {200, 0}, {400, 0}};
  cfg.explicit_flows = {{0, 2, sim::Time::sec(1)}};
  cfg.min_flow_distance = 0;
  cfg.protocol = Protocol::kAodv;
  cfg.sim_time = sim::Time::sec(20);
  cfg.eavesdropper_enabled = false;
  cfg.seed = 3;
  cfg.adversary.kind = security::AdversaryKind::kGrayhole;
  cfg.adversary.members = {1};
  cfg.adversary.drop_prob = 1.0;
  // Eat everything, but only in the first quarter of each 8 s period:
  // TCP recovers between windows, so traffic still flows overall.
  cfg.adversary.active_window = sim::Time::sec(2);
  cfg.adversary.active_period = sim::Time::sec(8);
  const RunMetrics m = run_scenario(cfg);
  EXPECT_GT(m.grayhole_absorbed, 0u);
  EXPECT_GT(m.segments_delivered, 0u)
      << "with the veto off 3/4 of the time, data must get through";
}

TEST(ActiveAdversaryScenarioTest, WormholePerturbsAndMembersArePinnedPair) {
  // The wormhole is active by design: unlike the passive kinds it must
  // change the event stream, and its endpoint pair is the deterministic
  // anchor/far-end draw.
  const RunMetrics base = run_scenario(active_base(Protocol::kMts));
  ScenarioConfig cfg = active_base(Protocol::kMts);
  cfg.adversary = wormhole_spec();
  const RunMetrics w = run_scenario(cfg);
  EXPECT_NE(base.events_executed, w.events_executed);
  EXPECT_GT(w.wormhole_tunneled, 0u);
  ASSERT_EQ(w.adversary_members.size(), 2u);
  EXPECT_NE(w.adversary_members[0], w.adversary_members[1]);

  const RunMetrics w2 = run_scenario(cfg);
  EXPECT_EQ(w.adversary_members, w2.adversary_members)
      << "wormhole placement must be deterministic for a fixed seed";
  EXPECT_EQ(w.events_executed, w2.events_executed);
}

TEST(ActiveAdversaryScenarioTest, RreqFloodInflatesControlOverhead) {
  for (Protocol p : {Protocol::kDsr, Protocol::kMts}) {
    const RunMetrics base = run_scenario(active_base(p));
    ScenarioConfig cfg = active_base(p);
    cfg.adversary = flood_spec();
    const RunMetrics f = run_scenario(cfg);
    // Ticks at 1.0, 1.2, ..., 15.0 seconds: (15 - 1) * 5 + 1 per member.
    EXPECT_EQ(f.flood_injected, 71u) << protocol_name(p);
    EXPECT_GT(f.control_packets, base.control_packets + f.flood_injected)
        << protocol_name(p)
        << ": honest rebroadcasting must amplify the forged discoveries";
  }
}

TEST(AdversaryScenarioTest, MtsOutsourcesLessToACoalitionThanAodv) {
  // The paper's headline, lifted to coalitions: multipath spreading
  // should not make a pooled eavesdropper coalition *more* effective
  // than it is against single-path AODV on the same mobility.  This is
  // a smoke check on one seed, not a statistical claim.
  ScenarioConfig aodv = small_base(2);
  aodv.protocol = Protocol::kAodv;
  aodv.adversary.kind = security::AdversaryKind::kColluding;
  aodv.adversary.count = 2;
  const RunMetrics a = run_scenario(aodv);

  ScenarioConfig mts = small_base(2);
  mts.protocol = Protocol::kMts;
  mts.adversary.kind = security::AdversaryKind::kColluding;
  mts.adversary.count = 2;
  const RunMetrics m = run_scenario(mts);

  // Both produced meaningful traffic and observations.
  EXPECT_GT(a.segments_delivered, 0u);
  EXPECT_GT(m.segments_delivered, 0u);
}

}  // namespace
}  // namespace mts::harness
