// Unit coverage for the countermeasure subsystem: the acked-checking
// delivery estimator, the geometric wormhole leash, the per-origin
// flood token bucket, the suite, and which parts each kind switches
// on.  Everything here is pure defense logic — the integration suite
// drives the wired scenarios.
#include <gtest/gtest.h>

#include "security/defense/defense.hpp"
#include "sim/error.hpp"

namespace mts::security {
namespace {

/// Nodes on a 200 m-spaced line; radio range 250 m.
mobility::Vec2 line_pos(net::NodeId id, sim::Time) {
  return {static_cast<double>(id) * 200.0, 0.0};
}

SecurityContext line_ctx() {
  SecurityContext ctx;
  ctx.radio_range = 250.0;
  ctx.position_of = line_pos;
  return ctx;
}

DefenseSpec acked_spec() {
  DefenseSpec s;
  s.kind = DefenseKind::kAckedChecking;
  s.probe_period = sim::Time::ms(400);
  s.ewma_alpha = 0.5;
  s.demote_threshold = 0.35;
  s.min_probes = 3;
  return s;
}

Defense acked() { return Defense(acked_spec(), line_ctx()); }

Defense leash(double slack) {
  DefenseSpec s;
  s.kind = DefenseKind::kWormholeLeash;
  s.leash_slack = slack;
  return Defense(s, line_ctx());
}

Defense limiter(double rate, double burst) {
  DefenseSpec s;
  s.kind = DefenseKind::kFloodRateLimit;
  s.rreq_rate = rate;
  s.rreq_burst = burst;
  return Defense(s, line_ctx());
}

// --- acked-checking estimator ----------------------------------------------

TEST(AckedCheckingTest, ConsecutiveMissesDemoteAfterMinProbes) {
  Defense d = acked();
  const net::NodeId self = 0, dst = 9;
  // Each send after an unacked send counts the previous probe as lost.
  d.on_probe_sent(self, dst, 0);  // probe 1
  EXPECT_FALSE(d.path_suspect(self, dst, 0));
  d.on_probe_sent(self, dst, 0);  // miss 1 -> 0.5
  EXPECT_FALSE(d.path_suspect(self, dst, 0)) << "min_probes not reached yet";
  d.on_probe_sent(self, dst, 0);  // miss 2 -> 0.25
  EXPECT_TRUE(d.path_suspect(self, dst, 0)) << "3 probes sent, EWMA 0.25 < 0.35";
  EXPECT_EQ(d.counters().probes_sent, 3u);
  EXPECT_EQ(d.counters().echoes, 0u);
}

TEST(AckedCheckingTest, EchoedProbesKeepThePathHealthy) {
  Defense d = acked();
  const net::NodeId self = 0, dst = 9;
  for (int i = 0; i < 20; ++i) {
    d.on_probe_sent(self, dst, 0);
    d.on_probe_echo(self, dst, 0);
    EXPECT_FALSE(d.path_suspect(self, dst, 0));
  }
  EXPECT_DOUBLE_EQ(d.ewma(0, 9, 0), 1.0) << "all-echoed path stays at 1.0";
  EXPECT_EQ(d.counters().echoes, 20u);
  EXPECT_EQ(d.counters().quarantined, 0u);
  EXPECT_TRUE(d.counters().first_detection.is_zero());
}

TEST(AckedCheckingTest, SingleLossRecoversWithoutDemotion) {
  Defense d = acked();
  const net::NodeId self = 0, dst = 9;
  // Healthy, one loss, healthy again: EWMA dips to 0.5 and climbs back.
  d.on_probe_sent(self, dst, 0);
  d.on_probe_echo(self, dst, 0);
  d.on_probe_sent(self, dst, 0);  // this one will be lost
  d.on_probe_sent(self, dst, 0);  // accounts the loss: 1.0 -> 0.5
  d.on_probe_echo(self, dst, 0);  // 0.5 -> 0.75
  EXPECT_FALSE(d.path_suspect(self, dst, 0));
  EXPECT_DOUBLE_EQ(d.ewma(0, 9, 0), 0.75);
}

TEST(AckedCheckingTest, QuarantineRecordsDetectionTimeAndResetsState) {
  Defense d = acked();
  const net::NodeId self = 0, dst = 9;
  for (int i = 1; i <= 3; ++i) d.on_probe_sent(self, dst, 0);
  ASSERT_TRUE(d.path_suspect(self, dst, 0));
  d.on_path_quarantined(self, dst, 0, sim::Time::ms(1200));
  EXPECT_EQ(d.counters().quarantined, 1u);
  EXPECT_EQ(d.counters().first_detection, sim::Time::ms(1200));
  // The estimator for the id was erased: a fresh path wearing the same
  // id starts clean instead of being insta-demoted.
  EXPECT_FALSE(d.path_suspect(self, dst, 0));
  EXPECT_DOUBLE_EQ(d.ewma(self, dst, 0), 1.0);
  // Detection time pins the *first* event.
  for (int i = 1; i <= 3; ++i) d.on_probe_sent(self, dst, 1);
  d.on_path_quarantined(self, dst, 1, sim::Time::sec(7));
  EXPECT_EQ(d.counters().first_detection, sim::Time::ms(1200));
  EXPECT_EQ(d.counters().quarantined, 2u);
}

TEST(AckedCheckingTest, PathEstablishedResetsAStaleEstimator) {
  Defense d = acked();
  for (int i = 1; i <= 3; ++i) d.on_probe_sent(0, 9, 2);
  ASSERT_TRUE(d.path_suspect(0, 9, 2));
  // A new discovery generation re-created path id 2.
  d.on_path_established(0, 9, 2);
  EXPECT_FALSE(d.path_suspect(0, 9, 2));
}

TEST(AckedCheckingTest, PathsAreTrackedIndependently) {
  Defense d = acked();
  for (int i = 1; i <= 4; ++i) {
    d.on_probe_sent(0, 9, 0);  // path 0: never echoed
    d.on_probe_sent(0, 9, 1);  // path 1: always echoed
    d.on_probe_echo(0, 9, 1);
  }
  EXPECT_TRUE(d.path_suspect(0, 9, 0));
  EXPECT_FALSE(d.path_suspect(0, 9, 1));
}

TEST(AckedCheckingTest, RejectsBadConfig) {
  DefenseSpec s = acked_spec();
  s.ewma_alpha = 0.0;
  EXPECT_THROW(Defense(s, line_ctx()), sim::ConfigError);
  s = acked_spec();
  s.demote_threshold = 1.0;
  EXPECT_THROW(Defense(s, line_ctx()), sim::ConfigError);
  s = acked_spec();
  s.probe_period = sim::Time::zero();
  EXPECT_THROW(Defense(s, line_ctx()), sim::ConfigError);
}

// --- wormhole leash --------------------------------------------------------

TEST(WormholeLeashTest, FeasibleChainPasses) {
  Defense d = leash(1.3);
  net::RouteVec mid;
  mid.push_back(1);
  mid.push_back(2);
  EXPECT_TRUE(d.admit_path(0, 3, mid, sim::Time::sec(1)));
  EXPECT_EQ(d.counters().validated, 1u);
  EXPECT_EQ(d.counters().quarantined, 0u);
  EXPECT_TRUE(d.counters().first_detection.is_zero());
}

TEST(WormholeLeashTest, PhantomHopIsQuarantined) {
  Defense d = leash(1.3);
  // Advertised walk 0 -> 1 -> 7 -> 8: the 1 -> 7 "hop" spans 1200 m — a
  // wormhole's tunnel crossing, infeasible for a 250 m radio.
  net::RouteVec mid;
  mid.push_back(1);
  mid.push_back(7);
  EXPECT_FALSE(d.admit_path(0, 8, mid, sim::Time::sec(2)));
  EXPECT_EQ(d.counters().quarantined, 1u);
  EXPECT_EQ(d.counters().first_detection, sim::Time::sec(2));
}

TEST(WormholeLeashTest, EndpointHopsAreCheckedToo) {
  Defense d = leash(1.3);
  // Empty intermediate list: src -> dst direct, 1000 m apart.
  EXPECT_FALSE(d.admit_path(0, 5, {}, sim::Time::sec(1)));
  // Adjacent nodes (200 m < 1.3 x 250 m) pass.
  EXPECT_TRUE(d.admit_path(0, 1, {}, sim::Time::sec(1)));
}

TEST(WormholeLeashTest, SlackScalesTheBudget) {
  // With slack 4.0 even an 800 m hop is "feasible".
  Defense d = leash(4.0);
  EXPECT_TRUE(d.admit_path(0, 4, {}, sim::Time::sec(1)));
  EXPECT_THROW(leash(0.9), sim::ConfigError);
}

// --- flood rate limiter ----------------------------------------------------

TEST(FloodRateLimitTest, BurstThenSustainedRate) {
  Defense d = limiter(1.0, 3.0);
  const net::NodeId self = 5, origin = 2;
  // The bucket starts full: a genuine burst of 3 passes.
  EXPECT_TRUE(d.admit_rreq(self, origin, sim::Time::sec(1)));
  EXPECT_TRUE(d.admit_rreq(self, origin, sim::Time::sec(1)));
  EXPECT_TRUE(d.admit_rreq(self, origin, sim::Time::sec(1)));
  // The fourth in the same instant is refused.
  EXPECT_FALSE(d.admit_rreq(self, origin, sim::Time::sec(1)));
  EXPECT_EQ(d.counters().suppressed, 1u);
  EXPECT_EQ(d.counters().first_detection, sim::Time::sec(1));
  // One second later exactly one token has refilled.
  EXPECT_TRUE(d.admit_rreq(self, origin, sim::Time::sec(2)));
  EXPECT_FALSE(d.admit_rreq(self, origin, sim::Time::sec(2)));
  EXPECT_EQ(d.counters().rreqs_seen, 6u);
}

TEST(FloodRateLimitTest, OriginsAndNodesAreIsolated) {
  Defense d = limiter(1.0, 1.0);
  // Draining origin 2's bucket at node 5 affects neither origin 3 at
  // node 5 nor origin 2 at node 6.
  EXPECT_TRUE(d.admit_rreq(5, 2, sim::Time::sec(1)));
  EXPECT_FALSE(d.admit_rreq(5, 2, sim::Time::sec(1)));
  EXPECT_TRUE(d.admit_rreq(5, 3, sim::Time::sec(1)));
  EXPECT_TRUE(d.admit_rreq(6, 2, sim::Time::sec(1)));
}

TEST(FloodRateLimitTest, SuppressionRatioApproachesExcessRate) {
  Defense d = limiter(1.0, 3.0);
  // A flooder at 5/s for 10 seconds: ~burst + rate*10 admitted of 50.
  std::uint64_t admitted = 0;
  for (int i = 0; i < 50; ++i) {
    const sim::Time t = sim::Time::ms(1000 + i * 200);
    if (d.admit_rreq(7, 4, t)) ++admitted;
  }
  EXPECT_LE(admitted, 14u);
  EXPECT_GE(admitted, 12u);
  EXPECT_EQ(d.counters().suppressed + admitted, 50u);
}

// --- suite and kinds ---------------------------------------------------------

/// Which parts each kind switches on.
struct KindParts {
  DefenseKind kind;
  bool probing, leashed, limiting;
};
constexpr KindParts kKindParts[] = {
    {DefenseKind::kNone, false, false, false},
    {DefenseKind::kAckedChecking, true, false, false},
    {DefenseKind::kWormholeLeash, false, true, false},
    {DefenseKind::kFloodRateLimit, false, false, true},
    {DefenseKind::kSuite, true, true, true},
};

TEST(DefenseTest, SuiteRunsAllThreePartsOnOneCounterSet) {
  DefenseSpec s = acked_spec();
  s.kind = DefenseKind::kSuite;
  Defense d(s, line_ctx());
  EXPECT_EQ(d.kind(), DefenseKind::kSuite);
  EXPECT_EQ(d.probe_period(), s.probe_period);

  // The leash rejects the phantom hop...
  net::RouteVec phantom;
  phantom.push_back(7);
  EXPECT_FALSE(d.admit_path(0, 8, phantom, sim::Time::sec(1)));
  EXPECT_EQ(d.counters().quarantined, 1u);
  // ...the buckets rate-limit...
  EXPECT_TRUE(d.admit_rreq(5, 2, sim::Time::sec(1)));
  EXPECT_TRUE(d.admit_rreq(5, 2, sim::Time::sec(1)));
  EXPECT_TRUE(d.admit_rreq(5, 2, sim::Time::sec(1)));
  EXPECT_FALSE(d.admit_rreq(5, 2, sim::Time::sec(1)));
  EXPECT_EQ(d.counters().suppressed, 1u);
  // ...and the estimator drives probe verdicts.
  for (int i = 1; i <= 3; ++i) d.on_probe_sent(0, 9, 0);
  EXPECT_TRUE(d.path_suspect(0, 9, 0));
  EXPECT_EQ(d.counters().probes_sent, 3u);
  // Quarantines from the estimator and the leash share one count, and
  // the detection time is the earliest event of any part.
  d.on_path_quarantined(0, 9, 0, sim::Time::sec(2));
  EXPECT_EQ(d.counters().quarantined, 2u);
  EXPECT_EQ(d.counters().first_detection, sim::Time::sec(1));
}

// With one part on, every hook of the other two families must answer
// as if no defense were installed and count nothing — the one thing a
// single class with switchable parts could get wrong that three
// separate classes could not.
TEST(DefenseTest, OnePartOnAnswersTheOtherFamiliesAsAbsent) {
  for (const KindParts& c : kKindParts) {
    SCOPED_TRACE(defense_kind_name(c.kind));
    DefenseSpec s = acked_spec();
    s.kind = c.kind;
    s.rreq_burst = 1.0;
    Defense d(s, line_ctx());
    EXPECT_EQ(d.kind(), c.kind);

    // Probe family: period zero and no verdicts when probing is off.
    EXPECT_EQ(d.probe_period(),
              c.probing ? s.probe_period : sim::Time::zero());
    for (int i = 0; i < 3; ++i) d.on_probe_sent(0, 9, 0);
    EXPECT_EQ(d.path_suspect(0, 9, 0), c.probing);
    d.on_path_quarantined(0, 9, 0, sim::Time::sec(1));
    d.on_probe_sent(0, 9, 1);
    d.on_probe_echo(0, 9, 1);
    EXPECT_EQ(d.counters().probes_sent, c.probing ? 4u : 0u);
    EXPECT_EQ(d.counters().echoes, c.probing ? 1u : 0u);

    // Leash: a 1000 m direct hop is admitted when the leash is off.
    EXPECT_EQ(d.admit_path(0, 5, {}, sim::Time::sec(2)), !c.leashed);
    EXPECT_EQ(d.counters().validated, c.leashed ? 1u : 0u);

    // Buckets: a second same-instant discovery (burst 1) is admitted
    // when rate limiting is off.
    EXPECT_TRUE(d.admit_rreq(5, 2, sim::Time::sec(3)));
    EXPECT_EQ(d.admit_rreq(5, 2, sim::Time::sec(3)), !c.limiting);
    EXPECT_EQ(d.counters().rreqs_seen, c.limiting ? 2u : 0u);
    EXPECT_EQ(d.counters().suppressed, c.limiting ? 1u : 0u);

    EXPECT_EQ(d.counters().quarantined,
              (c.probing ? 1u : 0u) + (c.leashed ? 1u : 0u));
    const sim::Time first = c.probing   ? sim::Time::sec(1)
                            : c.leashed ? sim::Time::sec(2)
                            : c.limiting ? sim::Time::sec(3)
                                         : sim::Time::zero();
    EXPECT_EQ(d.counters().first_detection, first);
  }
}

TEST(DefenseTest, ValidatesOnlyTheFieldsOfItsParts) {
  SecurityContext no_positions;  // the leash needs a position oracle
  for (const KindParts& c : kKindParts) {
    SCOPED_TRACE(defense_kind_name(c.kind));
    DefenseSpec s;
    s.kind = c.kind;
    EXPECT_NO_THROW(Defense(s, line_ctx()));

    DefenseSpec bad = s;
    bad.min_probes = 0;
    if (c.probing) {
      EXPECT_THROW(Defense(bad, line_ctx()), sim::ConfigError);
    } else {
      EXPECT_NO_THROW(Defense(bad, line_ctx()));
    }
    bad = s;
    bad.leash_slack = 0.9;
    if (c.leashed) {
      EXPECT_THROW(Defense(bad, line_ctx()), sim::ConfigError);
      EXPECT_THROW(Defense(s, no_positions), sim::ConfigError);
    } else {
      EXPECT_NO_THROW(Defense(bad, line_ctx()));
      EXPECT_NO_THROW(Defense(s, no_positions));
    }
    bad = s;
    bad.rreq_rate = 0.0;
    DefenseSpec shallow = s;
    shallow.rreq_burst = 0.5;
    if (c.limiting) {
      EXPECT_THROW(Defense(bad, line_ctx()), sim::ConfigError);
      EXPECT_THROW(Defense(shallow, line_ctx()), sim::ConfigError);
    } else {
      EXPECT_NO_THROW(Defense(bad, line_ctx()));
      EXPECT_NO_THROW(Defense(shallow, line_ctx()));
    }
  }
}

TEST(DefenseTest, KindNamesAreStable) {
  EXPECT_STREQ(defense_kind_name(DefenseKind::kNone), "none");
  EXPECT_STREQ(defense_kind_name(DefenseKind::kAckedChecking),
               "acked-checking");
  EXPECT_STREQ(defense_kind_name(DefenseKind::kWormholeLeash),
               "wormhole-leash");
  EXPECT_STREQ(defense_kind_name(DefenseKind::kFloodRateLimit),
               "flood-limit");
  EXPECT_STREQ(defense_kind_name(DefenseKind::kSuite), "suite");
}

}  // namespace
}  // namespace mts::security
