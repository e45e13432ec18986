// The channel's leg table against independent trajectories.  Every
// position the channel answers must equal, to the bit, what a copy of the
// same trajectory answers when asked directly, and the table must make
// the trajectories generate and keep exactly the legs direct queries
// would.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "mobility/trajectory.hpp"
#include "phy/channel.hpp"
#include "sim/rng.hpp"

namespace mts::phy {
namespace {

using mobility::Trajectory;
using mobility::Vec2;

bool same_bits(Vec2 a, Vec2 b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// A channel of `kMoving` random-waypoint nodes followed by `kFixed`
/// parked ones, and a twin of every trajectory that the channel never
/// sees.
class LegTableTest : public ::testing::Test {
 protected:
  static constexpr net::NodeId kMoving = 60;
  static constexpr net::NodeId kFixed = 4;
  static constexpr net::NodeId kNodes = kMoving + kFixed;

  LegTableTest()
      : channel_(sched_, trajectories(), 250.0), twins_(trajectories()) {}

  /// Node `id`'s trajectory, a fresh copy on every call.
  static Trajectory trajectory(net::NodeId id) {
    mobility::RandomWaypointConfig rc;
    rc.field = mobility::Field{1500, 1500};
    rc.min_speed = 5.0;
    rc.max_speed = 20.0;
    rc.pause = sim::Time::ms(700);
    const sim::Rng mob = sim::Rng(18).substream("mobility");
    return id < kMoving ? Trajectory(rc, mob.substream(id))
                        : Trajectory(Vec2{100.0 * id, 7.5});
  }
  static std::vector<Trajectory> trajectories() {
    std::vector<Trajectory> all;
    for (net::NodeId id = 0; id < kNodes; ++id) all.push_back(trajectory(id));
    return all;
  }

  /// Asks the channel and node `id`'s twin for the position at `t`.
  void expect_same(net::NodeId id, sim::Time t) {
    const Vec2 got = channel_.position_of(id, t);
    const Vec2 want = twins_[id].position_at(t);
    ASSERT_TRUE(same_bits(got, want))
        << "node " << id << " at " << t.nanoseconds() << " ns: (" << got.x
        << ", " << got.y << ") vs (" << want.x << ", " << want.y << ")";
  }

  /// The channel's history counters equal the twins' summed ones.
  void expect_same_stats() const {
    Trajectory::Stats want;
    for (const Trajectory& tw : twins_) {
      want.generated += tw.stats().generated;
      want.pruned += tw.stats().pruned;
      want.live += tw.stats().live;
      want.peak_live = std::max(want.peak_live, tw.stats().peak_live);
    }
    const Trajectory::Stats got = channel_.mobility_stats();
    EXPECT_EQ(got.generated, want.generated);
    EXPECT_EQ(got.pruned, want.pruned);
    EXPECT_EQ(got.live, want.live);
    EXPECT_EQ(got.peak_live, want.peak_live);
  }

  sim::Scheduler sched_;
  Channel channel_;
  std::vector<Trajectory> twins_;
};

TEST_F(LegTableTest, MonotoneQueriesMatch) {
  sim::Rng rng(1);
  sim::Time t = sim::Time::zero();
  for (int step = 0; step < 20'000; ++step) {
    t = t + sim::Time::us(rng.uniform_int(0, 50'000));
    const auto id = static_cast<net::NodeId>(rng.uniform_int(0, kNodes - 1));
    expect_same(id, t);
  }
  expect_same_stats();
}

TEST_F(LegTableTest, RandomAndBackwardQueriesMatch) {
  sim::Rng rng(2);
  for (int step = 0; step < 20'000; ++step) {
    const sim::Time t = sim::Time::us(rng.uniform_int(0, 600'000'000));
    expect_same(static_cast<net::NodeId>(rng.uniform_int(0, kNodes - 1)), t);
  }
  for (net::NodeId id = 0; id < kNodes; ++id) {
    for (std::int64_t ms = 600'000; ms >= 0; ms -= 997) {
      expect_same(id, sim::Time::ms(ms));
    }
  }
  expect_same_stats();
}

TEST_F(LegTableTest, LegBoundariesAndTheInitialPauseMatch) {
  // Generate every node's legs up to 2000 s on a third trajectory, then
  // ask both sides at each leg's start, arrive and depart and one tick
  // either side, in time order.  The first leg's start ends the initial
  // pause, so zero and the pause's last tick are covered too.
  for (net::NodeId id = 0; id < kNodes; ++id) {
    const Trajectory probe = trajectory(id);
    (void)probe.position_at(sim::Time::sec(2000));
    std::vector<sim::Time> times{sim::Time::zero()};
    for (const mobility::Leg& leg : probe.legs()) {
      for (const sim::Time mark : {leg.start, leg.arrive, leg.depart}) {
        if (mark == sim::Time::max()) continue;  // a parked node's leg
        times.push_back(mark);
        times.push_back(mark + sim::Time::ns(1));
        if (mark > sim::Time::zero()) times.push_back(mark - sim::Time::ns(1));
      }
    }
    std::sort(times.begin(), times.end());
    for (const sim::Time t : times) expect_same(id, t);
    if (id < kMoving) {
      EXPECT_GE(probe.legs().size(), 3u);
      EXPECT_GT(probe.legs().front().start, sim::Time::zero());  // a pause
    }
  }
  expect_same_stats();
}

TEST_F(LegTableTest, QueriesAfterSnapshotTrimsMatch) {
  // Every grid rebuild after the first trims the channel's trajectories
  // behind the previous snapshot; the twins get the same trims, after
  // the same snapshot reads, so the counters must agree too.
  sim::Rng rng(3);
  Channel::NeighborVec scratch;
  sim::Time prev_snapshot = sim::Time::zero();
  bool snapshotted = false;
  sim::Time t = sim::Time::zero();
  for (int step = 0; step < 4'000; ++step) {
    t = t + sim::Time::ms(rng.uniform_int(0, 150));
    const std::uint32_t before = channel_.index().rebuild_count();
    channel_.neighbors_of(
        static_cast<net::NodeId>(rng.uniform_int(0, kNodes - 1)), t, scratch);
    if (channel_.index().rebuild_count() != before) {
      for (const Trajectory& tw : twins_) (void)tw.position_at(t);
      if (snapshotted) {
        for (const Trajectory& tw : twins_) {
          tw.trim_history_before(prev_snapshot);
        }
      }
      prev_snapshot = t;
      snapshotted = true;
    }
    // Both sides read every node at `t` before the next trim, so they
    // generate the same legs between the same trims.
    for (net::NodeId id = 0; id < kNodes; ++id) expect_same(id, t);
    for (int k = 0; k < 8; ++k) {
      // At or after the previous snapshot, as every live query is.
      const sim::Time q =
          prev_snapshot + sim::Time::us(rng.uniform_int(
                              0, (t - prev_snapshot).nanoseconds() / 1000));
      expect_same(static_cast<net::NodeId>(rng.uniform_int(0, kNodes - 1)),
                  q);
    }
  }
  EXPECT_GT(channel_.index().rebuild_count(), 100u);
  const Trajectory::Stats s = channel_.mobility_stats();
  EXPECT_GT(s.pruned, 0u);
  expect_same_stats();
}

}  // namespace
}  // namespace mts::phy
