#include "sim/timer.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

namespace mts::sim {
namespace {

/// A timer owner whose bound member function records each firing, then
/// runs the test's follow-up (if any).
struct Recorder {
  explicit Recorder(Scheduler& s) : sched(&s) {}

  void fire() {
    fires.push_back(sched->now());
    if (then) then();
  }
  [[nodiscard]] int fired() const { return static_cast<int>(fires.size()); }

  Scheduler* sched;
  std::vector<Time> fires;
  std::function<void()> then;
};

TEST(TimerTest, FiresOnce) {
  Scheduler s;
  Recorder r(s);
  Timer t(s, bind<&Recorder::fire>(&r));
  t.schedule_in(Time::ms(5));
  EXPECT_TRUE(t.is_pending());
  s.run();
  EXPECT_EQ(r.fired(), 1);
  EXPECT_FALSE(t.is_pending());
}

TEST(TimerTest, CancelPreventsFiring) {
  Scheduler s;
  Recorder r(s);
  Timer t(s, bind<&Recorder::fire>(&r));
  t.schedule_in(Time::ms(5));
  t.cancel();
  s.run();
  EXPECT_EQ(r.fired(), 0);
}

TEST(TimerTest, RescheduleMovesExpiry) {
  Scheduler s;
  Recorder r(s);
  Timer t(s, bind<&Recorder::fire>(&r));
  t.schedule_in(Time::ms(5));
  t.schedule_in(Time::ms(20));  // re-arm replaces the earlier expiry
  s.run();
  ASSERT_EQ(r.fired(), 1);
  EXPECT_EQ(r.fires[0], Time::ms(20));
}

TEST(TimerTest, ScheduleAtAbsolute) {
  Scheduler s;
  Recorder r(s);
  Timer t(s, bind<&Recorder::fire>(&r));
  s.schedule_at(Time::ms(3), [&] { t.schedule_at(Time::ms(9)); });
  s.run();
  ASSERT_EQ(r.fired(), 1);
  EXPECT_EQ(r.fires[0], Time::ms(9));
}

TEST(TimerTest, DestructionCancels) {
  Scheduler s;
  Recorder r(s);
  {
    Timer t(s, bind<&Recorder::fire>(&r));
    t.schedule_in(Time::ms(5));
  }
  s.run();
  EXPECT_EQ(r.fired(), 0);
}

TEST(TimerTest, CanRearmFromItsOwnCallback) {
  Scheduler s;
  Recorder r(s);
  Timer t(s, bind<&Recorder::fire>(&r));
  r.then = [&] {
    if (r.fired() < 3) t.schedule_in(Time::ms(1));
  };
  t.schedule_in(Time::ms(1));
  s.run();
  EXPECT_EQ(r.fired(), 3);
}

TEST(PeriodicTimerTest, FiresEveryPeriod) {
  Scheduler s;
  Recorder r(s);
  PeriodicTimer t(s, bind<&Recorder::fire>(&r));
  t.start(Time::ms(10));
  s.run_until(Time::ms(35));
  ASSERT_EQ(r.fires.size(), 3u);
  EXPECT_EQ(r.fires[0], Time::ms(10));
  EXPECT_EQ(r.fires[1], Time::ms(20));
  EXPECT_EQ(r.fires[2], Time::ms(30));
}

TEST(PeriodicTimerTest, InitialDelayIndependentOfPeriod) {
  Scheduler s;
  Recorder r(s);
  PeriodicTimer t(s, bind<&Recorder::fire>(&r));
  t.start(Time::ms(10), Time::ms(3));
  s.run_until(Time::ms(25));
  ASSERT_EQ(r.fires.size(), 3u);
  EXPECT_EQ(r.fires[0], Time::ms(3));
  EXPECT_EQ(r.fires[1], Time::ms(13));
  EXPECT_EQ(r.fires[2], Time::ms(23));
}

TEST(PeriodicTimerTest, StopHalts) {
  Scheduler s;
  Recorder r(s);
  PeriodicTimer t(s, bind<&Recorder::fire>(&r));
  t.start(Time::ms(10));
  s.schedule_at(Time::ms(25), [&] { t.stop(); });
  s.run_until(Time::ms(100));
  EXPECT_EQ(r.fired(), 2);
  EXPECT_FALSE(t.is_running());
}

TEST(PeriodicTimerTest, CallbackMayStopItself) {
  Scheduler s;
  Recorder r(s);
  PeriodicTimer t(s, bind<&Recorder::fire>(&r));
  r.then = [&] {
    if (r.fired() == 2) t.stop();
  };
  t.start(Time::ms(1));
  s.run_until(Time::ms(50));
  EXPECT_EQ(r.fired(), 2);
}

TEST(PeriodicTimerTest, RejectsNonPositivePeriod) {
  Scheduler s;
  Recorder r(s);
  PeriodicTimer t(s, bind<&Recorder::fire>(&r));
  EXPECT_THROW(t.start(Time::zero()), SimError);
}

TEST(TimerTest, RearmFromOwnCallbackAdvancesTime) {
  // The hot MAC/TCP idiom: the expiry handler re-arms the same timer.
  // Each firing must land exactly one delay after the previous one.
  Scheduler s;
  Recorder r(s);
  Timer t(s, bind<&Recorder::fire>(&r));
  r.then = [&] {
    if (r.fires.size() < 4) t.schedule_in(Time::ms(3));
  };
  t.schedule_in(Time::ms(3));
  s.run();
  ASSERT_EQ(r.fires.size(), 4u);
  for (std::size_t i = 0; i < r.fires.size(); ++i) {
    EXPECT_EQ(r.fires[i], Time::ms(3) * static_cast<std::int64_t>(i + 1));
  }
  EXPECT_FALSE(t.is_pending());
}

TEST(TimerTest, RearmToEarlierTimeWins) {
  Scheduler s;
  Recorder r(s);
  Timer t(s, bind<&Recorder::fire>(&r));
  t.schedule_in(Time::ms(50));
  t.schedule_in(Time::ms(5));  // moving the expiry *earlier* must work too
  s.run();
  ASSERT_EQ(r.fired(), 1);
  EXPECT_EQ(r.fires[0], Time::ms(5));
  EXPECT_EQ(s.executed_count(), 1u);
}

TEST(TimerTest, RearmedTimerOrdersAfterEarlierSameTickEvents) {
  // Re-arming behaves like a fresh schedule for tie-breaking: an event
  // already queued for the same tick runs first.
  Scheduler s;
  std::vector<int> order;
  Recorder r(s);
  r.then = [&] { order.push_back(2); };
  Timer t(s, bind<&Recorder::fire>(&r));
  t.schedule_in(Time::ms(9));
  s.schedule_at(Time::ms(10), [&] { order.push_back(1); });
  t.schedule_at(Time::ms(10));  // re-arm to the same tick, later insertion
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerTest, CancelThenRearmFires) {
  Scheduler s;
  Recorder r(s);
  Timer t(s, bind<&Recorder::fire>(&r));
  t.schedule_in(Time::ms(5));
  t.cancel();
  EXPECT_FALSE(t.is_pending());
  t.schedule_in(Time::ms(7));
  s.run();
  EXPECT_EQ(r.fired(), 1);
  EXPECT_EQ(s.now(), Time::ms(7));
}

TEST(TimerTest, FreezeAndLaterResumeTouchNoHeapEntry) {
  // The MAC access-timer shape: arm, freeze (cancel), resume later.
  // Each resume is at or after the queued expiry, so the one queued
  // entry stays put until it surfaces and is forwarded.
  Scheduler s;
  Recorder r(s);
  Timer t(s, bind<&Recorder::fire>(&r));
  t.schedule_in(Time::us(300));
  for (int i = 1; i <= 100; ++i) {
    t.cancel();
    EXPECT_FALSE(t.is_pending());
    t.schedule_in(Time::us(300 + i));
    EXPECT_TRUE(t.is_pending());
    EXPECT_EQ(s.queued_entries(), 1u);
  }
  s.check_invariants();
  s.run();
  EXPECT_EQ(r.fires, (std::vector<Time>{Time::us(400)}));
}

TEST(TimerTest, ParkedTimerWhoseEntrySurfacedRearmsThroughAFreshSlot) {
  Scheduler s;
  Recorder r(s);
  Timer t(s, bind<&Recorder::fire>(&r));
  t.schedule_in(Time::ms(5));
  t.cancel();  // parked: slot and id kept
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.queued_entries(), 1u);
  s.run_until(Time::ms(10));  // the entry surfaces; the slot is released
  EXPECT_EQ(s.queued_entries(), 0u);
  // Another event recycles the released slot.  The timer's stale id
  // must not reach it: the re-arm schedules anew.
  bool other = false;
  s.schedule_at(Time::ms(30), [&] { other = true; });
  t.schedule_at(Time::ms(20));
  EXPECT_EQ(s.pending_count(), 2u);
  s.check_invariants();
  s.run();
  EXPECT_TRUE(other);
  EXPECT_EQ(r.fires, (std::vector<Time>{Time::ms(20)}));
}

TEST(TimerTest, DestroyedParkedTimerLeaksNoSlot) {
  Scheduler s;
  Recorder r(s);
  // A cancelled probe puts its slot at the head of the free list.
  const EventId probe = s.schedule_at(Time::ms(1), [] {});
  ASSERT_TRUE(s.cancel(probe));
  {
    Timer t(s, bind<&Recorder::fire>(&r));
    t.schedule_in(Time::ms(5));  // takes the probe's slot
    t.cancel();                  // parks it
  }                              // and releases it on destruction
  const EventId next = s.schedule_at(Time::ms(2), [] {});
  EXPECT_EQ(next & 0xffffffffu, probe & 0xffffffffu);  // slot reused
  EXPECT_EQ(s.pending_count(), 1u);
  s.check_invariants();
  s.run();
  EXPECT_EQ(r.fired(), 0);
  EXPECT_EQ(s.executed_count(), 1u);
}

TEST(PeriodicTimerTest, StopThenStartRearmsTheParkedTick) {
  Scheduler s;
  Recorder r(s);
  PeriodicTimer t(s, bind<&Recorder::fire>(&r));
  t.start(Time::ms(10));
  t.stop();
  EXPECT_FALSE(t.is_running());
  t.start(Time::ms(10), Time::ms(12));
  EXPECT_TRUE(t.is_running());
  s.run_until(Time::ms(25));
  EXPECT_EQ(r.fires, (std::vector<Time>{Time::ms(12), Time::ms(22)}));
}

TEST(PeriodicTimerTest, SetPeriodTakesEffectNextTick) {
  Scheduler s;
  Recorder r(s);
  PeriodicTimer t(s, bind<&Recorder::fire>(&r));
  t.start(Time::ms(10));
  s.schedule_at(Time::ms(15), [&] { t.set_period(Time::ms(2)); });
  s.run_until(Time::ms(25));
  // Fires at 10 (old period), 20 (already scheduled), then every 2 ms.
  ASSERT_GE(r.fires.size(), 3u);
  EXPECT_EQ(r.fires[0], Time::ms(10));
  EXPECT_EQ(r.fires[1], Time::ms(20));
  EXPECT_EQ(r.fires[2], Time::ms(22));
}

/// The shape every protocol module has: the timer is a member, bound to
/// another member function of the same object.
struct Heartbeat {
  explicit Heartbeat(Scheduler& s)
      : sched(&s), timer(s, bind<&Heartbeat::beat>(this)),
        ticker(s, bind<&Heartbeat::tick>(this)) {}

  void beat() {
    beats.push_back(sched->now());
    if (beats.size() < 3) timer.schedule_in(Time::ms(2));
  }
  void tick() {}

  Scheduler* sched;
  Timer timer;
  PeriodicTimer ticker;
  std::vector<Time> beats;
};

TEST(TimerTest, MemberCallbackRearmsItsOwnTimer) {
  Scheduler s;
  Heartbeat h(s);
  h.timer.schedule_in(Time::ms(1));
  s.run();
  EXPECT_EQ(h.beats,
            (std::vector<Time>{Time::ms(1), Time::ms(3), Time::ms(5)}));
  EXPECT_FALSE(h.timer.is_pending());
  EXPECT_EQ(s.executed_count(), 3u);
}

TEST(TimerTest, OwnersDestructorCancelsPendingExpiries) {
  Scheduler s;
  auto h = std::make_unique<Heartbeat>(s);
  h->timer.schedule_in(Time::ms(5));
  h->ticker.start(Time::ms(1));
  EXPECT_EQ(s.pending_count(), 2u);
  h.reset();  // both timers die with their owner, still armed
  EXPECT_EQ(s.pending_count(), 0u);
  s.run_until(Time::ms(20));
  EXPECT_EQ(s.executed_count(), 0u);
}

}  // namespace
}  // namespace mts::sim
