#include "mobility/trajectory.hpp"

#include <gtest/gtest.h>

#include "sim/error.hpp"

namespace mts::mobility {
namespace {

RandomWaypointConfig cfg(double max_speed = 10.0) {
  RandomWaypointConfig c;
  c.field = Field{1000, 1000};
  c.min_speed = 0.5;
  c.max_speed = max_speed;
  c.pause = sim::Time::sec(1);
  return c;
}

TEST(RandomWaypointTest, StaysInsideFieldForever) {
  Trajectory rwp(cfg(20.0), sim::Rng(1));
  for (int t = 0; t <= 2000; ++t) {
    const Vec2 p = rwp.position_at(sim::Time::ms(t * 100));
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 1000.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 1000.0);
  }
}

TEST(RandomWaypointTest, DeterministicGivenSeed) {
  Trajectory a(cfg(), sim::Rng(5));
  Trajectory b(cfg(), sim::Rng(5));
  for (int t = 0; t < 100; ++t) {
    const Vec2 pa = a.position_at(sim::Time::sec(t));
    const Vec2 pb = b.position_at(sim::Time::sec(t));
    EXPECT_DOUBLE_EQ(pa.x, pb.x);
    EXPECT_DOUBLE_EQ(pa.y, pb.y);
  }
}

TEST(RandomWaypointTest, SpeedNeverExceedsMax) {
  const double vmax = 15.0;
  Trajectory rwp(cfg(vmax), sim::Rng(3));
  const double dt = 0.1;
  Vec2 prev = rwp.position_at(sim::Time::zero());
  for (int i = 1; i < 3000; ++i) {
    const Vec2 cur = rwp.position_at(sim::Time::seconds(i * dt));
    const double v = distance(prev, cur) / dt;
    EXPECT_LE(v, vmax * 1.0001);
    prev = cur;
  }
}

TEST(RandomWaypointTest, PausesAtWaypoints) {
  Trajectory rwp(cfg(), sim::Rng(7));
  (void)rwp.position_at(sim::Time::sec(5000));  // force leg generation
  const auto& legs = rwp.legs();
  ASSERT_GE(legs.size(), 2u);
  const auto& leg = legs.front();
  // During [arrive, depart] the node sits at the waypoint.
  const Vec2 at_arrive = rwp.position_at(leg.arrive);
  const Vec2 mid_pause = rwp.position_at(leg.arrive + sim::Time::ms(500));
  EXPECT_NEAR(distance(at_arrive, leg.to), 0.0, 1e-9);
  EXPECT_NEAR(distance(mid_pause, leg.to), 0.0, 1e-9);
}

TEST(RandomWaypointTest, InitialPauseHoldsStartPosition) {
  Trajectory rwp(cfg(), sim::Rng(9));
  const Vec2 p0 = rwp.position_at(sim::Time::zero());
  const Vec2 p_half = rwp.position_at(sim::Time::ms(500));
  EXPECT_NEAR(distance(p0, p_half), 0.0, 1e-9);  // pause = 1 s
}

TEST(RandomWaypointTest, MovesLinearlyAlongALeg) {
  Trajectory rwp(cfg(), sim::Rng(11));
  (void)rwp.position_at(sim::Time::sec(200));  // force leg generation
  const auto& leg = rwp.legs().front();
  const sim::Time mid = leg.start + (leg.arrive - leg.start) / std::int64_t{2};
  const Vec2 expect_mid = leg.from + (leg.to - leg.from) * 0.5;
  const Vec2 got = rwp.position_at(mid);
  EXPECT_NEAR(got.x, expect_mid.x, 1e-6);
  EXPECT_NEAR(got.y, expect_mid.y, 1e-6);
}

TEST(RandomWaypointTest, LegSpeedsWithinConfiguredBand) {
  auto c = cfg(12.0);
  c.min_speed = 2.0;
  Trajectory rwp(c, sim::Rng(13));
  (void)rwp.position_at(sim::Time::sec(500));  // force leg generation
  for (const auto& leg : rwp.legs()) {
    EXPECT_GE(leg.speed, 2.0);
    EXPECT_LE(leg.speed, 12.0);
  }
}

TEST(RandomWaypointTest, OutOfOrderQueriesAgree) {
  Trajectory a(cfg(), sim::Rng(15));
  Trajectory b(cfg(), sim::Rng(15));
  const Vec2 a_late = a.position_at(sim::Time::sec(50));
  const Vec2 a_early = a.position_at(sim::Time::sec(10));
  const Vec2 b_early = b.position_at(sim::Time::sec(10));
  const Vec2 b_late = b.position_at(sim::Time::sec(50));
  EXPECT_DOUBLE_EQ(a_early.x, b_early.x);
  EXPECT_DOUBLE_EQ(a_late.x, b_late.x);
}

TEST(RandomWaypointTest, RejectsBadConfig) {
  auto c = cfg();
  c.max_speed = 0.0;
  EXPECT_THROW(Trajectory(c, sim::Rng(1)), sim::ConfigError);
  c = cfg();
  c.min_speed = 0.0;  // literal zero would make a leg infinite
  EXPECT_THROW(Trajectory(c, sim::Rng(1)), sim::ConfigError);
  c = cfg();
  c.min_speed = 5.0;
  c.max_speed = 2.0;
  EXPECT_THROW(Trajectory(c, sim::Rng(1)), sim::ConfigError);
}

TEST(RandomWaypointTest, DegenerateZeroAreaFieldWithZeroPauseTerminates) {
  // A 0x0 field with pause 0 generates zero-duration legs (from == to,
  // arrive == start, depart == arrive).  Without the depart floor,
  // extend_until would append forever without advancing.
  RandomWaypointConfig c;
  c.field = Field{0, 0};
  c.min_speed = 0.5;
  c.max_speed = 1.0;
  c.pause = sim::Time::zero();
  Trajectory rwp(c, sim::Rng(1));
  const Vec2 p = rwp.position_at(sim::Time::sec(10));
  EXPECT_EQ(p, (Vec2{0, 0}));
  // The floor also bounds the number of legs a degenerate config emits.
  EXPECT_LE(rwp.stats().generated, 10'001u);
}

TEST(RandomWaypointTest, TrimKeepsAnswersIdenticalAtAndAfterMark) {
  RandomWaypointConfig c = cfg(20.0);
  c.pause = sim::Time::ms(100);
  Trajectory trimmed(c, sim::Rng(17));
  Trajectory intact(c, sim::Rng(17));
  for (int t = 0; t <= 400; ++t) {
    const sim::Time now = sim::Time::ms(t * 250);
    const Vec2 a = trimmed.position_at(now);
    const Vec2 b = intact.position_at(now);
    EXPECT_DOUBLE_EQ(a.x, b.x);
    EXPECT_DOUBLE_EQ(a.y, b.y);
    // Prune with half a second of slack, as the channel's snapshot hook
    // does; future queries must be unaffected.
    trimmed.trim_history_before(now - sim::Time::ms(500));
  }
  EXPECT_GT(trimmed.stats().pruned, 0u);
  EXPECT_EQ(trimmed.stats().generated, intact.stats().generated);
  EXPECT_LT(trimmed.stats().live, intact.stats().live);
}

TEST(RandomWaypointTest, TrimBoundsLiveHistory) {
  RandomWaypointConfig c = cfg(25.0);
  c.min_speed = 5.0;
  c.field = Field{200, 200};
  c.pause = sim::Time::ms(100);
  Trajectory rwp(c, sim::Rng(19));
  for (int t = 0; t <= 4000; ++t) {
    const sim::Time now = sim::Time::ms(t * 250);
    (void)rwp.position_at(now);
    rwp.trim_history_before(now - sim::Time::ms(500));
    const Trajectory::Stats s = rwp.stats();
    EXPECT_EQ(s.live, s.generated - s.pruned);
  }
  // ~17-minute run on short legs: history stays a handful of entries,
  // not hundreds.
  const Trajectory::Stats s = rwp.stats();
  EXPECT_GT(s.generated, 100u);
  EXPECT_LE(s.live, 8u);
  EXPECT_LE(s.peak_live, 8u);
}

TEST(RandomWaypointTest, TrimRetainsTheCoveringLeg) {
  Trajectory rwp(cfg(), sim::Rng(23));
  (void)rwp.position_at(sim::Time::sec(500));
  const sim::Time mark = sim::Time::sec(300);
  const Vec2 before = rwp.position_at(mark);
  rwp.trim_history_before(mark);
  const Vec2 after = rwp.position_at(mark);
  EXPECT_DOUBLE_EQ(before.x, after.x);
  EXPECT_DOUBLE_EQ(before.y, after.y);
  EXPECT_LE(rwp.legs().front().start, mark);
}

TEST(RandomWaypointTest, QueryBelowPrunedHistoryFailsLoudly) {
  // Before any pruning, a query in the initial pause is legitimate;
  // after pruning, a query below the retained front leg would silently
  // return the wrong position, so it must throw instead.
  Trajectory rwp(cfg(), sim::Rng(31));
  EXPECT_NO_THROW((void)rwp.position_at(sim::Time::zero()));
  (void)rwp.position_at(sim::Time::sec(500));
  rwp.trim_history_before(sim::Time::sec(300));
  ASSERT_GT(rwp.stats().pruned, 0u);
  EXPECT_NO_THROW((void)rwp.position_at(sim::Time::sec(300)));  // at the mark
  EXPECT_THROW((void)rwp.position_at(sim::Time::zero()), sim::SimError);
}

TEST(FixedTrajectoryTest, NeverMoves) {
  const Trajectory m(Vec2{3, 4});
  EXPECT_EQ(m.position_at(sim::Time::zero()), (Vec2{3, 4}));
  EXPECT_EQ(m.position_at(sim::Time::sec(1000)), (Vec2{3, 4}));
  // Far past any finite leg end: the one leg lasts until Time::max().
  EXPECT_EQ(m.position_at(sim::Time::sec(1'000'000'000)), (Vec2{3, 4}));
  EXPECT_EQ(m.max_speed(), 0.0);
  ASSERT_EQ(m.legs().size(), 1u);
  EXPECT_EQ(m.legs().front().depart, sim::Time::max());
}

TEST(FixedTrajectoryTest, StatsAreZeroAndTrimDoesNothing) {
  const Trajectory m(Vec2{1, 2});
  (void)m.position_at(sim::Time::sec(5000));
  m.trim_history_before(sim::Time::sec(100));
  EXPECT_EQ(m.position_at(sim::Time::sec(200)), (Vec2{1, 2}));
  EXPECT_EQ(m.legs().size(), 1u);
  const Trajectory::Stats s = m.stats();
  EXPECT_EQ(s.generated, 0u);
  EXPECT_EQ(s.pruned, 0u);
  EXPECT_EQ(s.live, 0u);
  EXPECT_EQ(s.peak_live, 0u);
}

TEST(Vec2Test, NormAndDistance) {
  EXPECT_DOUBLE_EQ((Vec2{3, 4}).norm(), 5.0);
  EXPECT_DOUBLE_EQ(distance(Vec2{0, 0}, Vec2{3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_sq(Vec2{0, 0}, Vec2{3, 4}), 25.0);
}

TEST(FieldTest, Contains) {
  Field f{10, 20};
  EXPECT_TRUE(f.contains({0, 0}));
  EXPECT_TRUE(f.contains({10, 20}));
  EXPECT_FALSE(f.contains({-0.1, 5}));
  EXPECT_FALSE(f.contains({5, 20.1}));
}

}  // namespace
}  // namespace mts::mobility
