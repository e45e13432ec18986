#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

namespace mts::sim {
namespace {

TEST(SchedulerTest, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), Time::zero());
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(SchedulerTest, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time::ms(3), [&] { order.push_back(3); });
  s.schedule_at(Time::ms(1), [&] { order.push_back(1); });
  s.schedule_at(Time::ms(2), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), Time::ms(3));
}

TEST(SchedulerTest, TiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    s.schedule_at(Time::ms(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SchedulerTest, ScheduleInIsRelative) {
  Scheduler s;
  Time fired;
  s.schedule_at(Time::ms(10), [&] {
    s.schedule_in(Time::ms(5), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, Time::ms(15));
}

TEST(SchedulerTest, SchedulingInThePastThrows) {
  Scheduler s;
  s.schedule_at(Time::ms(10), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(Time::ms(5), [] {}), SimError);
}

TEST(SchedulerTest, EmptyCallbackThrows) {
  Scheduler s;
  EXPECT_THROW(s.schedule_at(Time::ms(1), std::function<void()>{}), SimError);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_at(Time::ms(1), [&] { ran = true; });
  EXPECT_TRUE(s.is_pending(id));
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.is_pending(id));
  s.run();
  EXPECT_FALSE(ran);
}

TEST(SchedulerTest, CancelTwiceReturnsFalse) {
  Scheduler s;
  const EventId id = s.schedule_at(Time::ms(1), [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
}

TEST(SchedulerTest, CancelAfterFireReturnsFalse) {
  Scheduler s;
  const EventId id = s.schedule_at(Time::ms(1), [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));
}

TEST(SchedulerTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time::ms(1), [&] { order.push_back(1); });
  s.schedule_at(Time::ms(10), [&] { order.push_back(10); });
  s.run_until(Time::ms(5));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.now(), Time::ms(5));  // time advances even with no event
  EXPECT_EQ(s.pending_count(), 1u);
  s.run_until(Time::ms(20));
  EXPECT_EQ(order, (std::vector<int>{1, 10}));
}

TEST(SchedulerTest, EventAtBoundaryRuns) {
  Scheduler s;
  bool ran = false;
  s.schedule_at(Time::ms(5), [&] { ran = true; });
  s.run_until(Time::ms(5));
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, StopHaltsRun) {
  Scheduler s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(Time::ms(i), [&] {
      ++count;
      if (count == 3) s.stop();
    });
  }
  s.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pending_count(), 7u);
}

TEST(SchedulerTest, RunStepsExecutesExactly) {
  Scheduler s;
  int count = 0;
  for (int i = 1; i <= 5; ++i) {
    s.schedule_at(Time::ms(i), [&] { ++count; });
  }
  EXPECT_EQ(s.run_steps(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.run_steps(10), 2u);
  EXPECT_EQ(count, 5);
}

TEST(SchedulerTest, EventsMayScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_in(Time::us(1), recurse);
  };
  s.schedule_at(Time::zero(), recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), Time::us(99));
}

TEST(SchedulerTest, ExecutedCountTracksHistory) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.schedule_at(Time::ms(i + 1), [] {});
  s.run();
  EXPECT_EQ(s.executed_count(), 7u);
}

TEST(SchedulerTest, NextEventTimeSkipsCancelled) {
  Scheduler s;
  const EventId early = s.schedule_at(Time::ms(1), [] {});
  s.schedule_at(Time::ms(2), [] {});
  EXPECT_EQ(s.next_event_time(), Time::ms(1));
  s.cancel(early);
  EXPECT_EQ(s.next_event_time(), Time::ms(2));
}

TEST(SchedulerTest, NextEventTimeOnEmptyIsMax) {
  Scheduler s;
  EXPECT_EQ(s.next_event_time(), Time::max());
}

TEST(SchedulerTest, PeekThenEarlierScheduleKeepsPopOrder) {
  // Regression: a peek at a queue whose only event is far in the future,
  // then an earlier schedule.  A queue that caches anything about the
  // minimum across a peek can pop the later event first and move now()
  // backwards.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time::sec(10), [&] { order.push_back(10); });
  EXPECT_EQ(s.next_event_time(), Time::sec(10));
  s.schedule_at(Time::sec(1), [&] { order.push_back(1); });
  EXPECT_EQ(s.next_event_time(), Time::sec(1));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 10}));
  EXPECT_EQ(s.now(), Time::sec(10));
}

TEST(SchedulerTest, RunUntilThenEarlierScheduleKeepsPopOrder) {
  // Same pattern through the co-sim boundary: run_until peeks past its
  // end time, then the driver schedules earlier than everything pending.
  Scheduler s;
  std::vector<Time> fired;
  s.schedule_at(Time::sec(30), [&] { fired.push_back(s.now()); });
  s.run_until(Time::ms(1));  // peeks, pops nothing
  s.schedule_at(Time::sec(2), [&] { fired.push_back(s.now()); });
  s.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], Time::sec(2));
  EXPECT_EQ(fired[1], Time::sec(30));
}

TEST(SchedulerTest, ZeroDelayEventRunsAtCurrentTime) {
  Scheduler s;
  Time fired = Time::max();
  s.schedule_at(Time::ms(5), [&] {
    s.schedule_in(Time::zero(), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, Time::ms(5));
}

// --------------------------------------------------------------------------
// Semantics the event-core refactor must preserve exactly.  These were
// written (and green) against the lazy-delete priority_queue core before
// the slot-pool rewrite landed.
// --------------------------------------------------------------------------

TEST(SchedulerTest, SameTickFifoSurvivesInterleavedCancels) {
  Scheduler s;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 32; ++i) {
    ids.push_back(s.schedule_at(Time::ms(7), [&order, i] { order.push_back(i); }));
  }
  // Cancelling every third event must not disturb the relative order of
  // the survivors.
  for (std::size_t i = 0; i < ids.size(); i += 3) s.cancel(ids[i]);
  s.run();
  std::vector<int> expected;
  for (int i = 0; i < 32; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(SchedulerTest, CancelDuringDispatchOfSameTick) {
  // An event may cancel a later event scheduled for the very same tick;
  // the victim must not fire even though dispatch of that tick already
  // began.
  Scheduler s;
  bool victim_ran = false;
  EventId victim = kInvalidEvent;
  s.schedule_at(Time::ms(1), [&] { EXPECT_TRUE(s.cancel(victim)); });
  victim = s.schedule_at(Time::ms(1), [&] { victim_ran = true; });
  s.schedule_at(Time::ms(1), [] {});  // a survivor behind the victim
  s.run();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(s.executed_count(), 2u);
}

TEST(SchedulerTest, CancelOfSelfDuringDispatchReturnsFalse) {
  Scheduler s;
  EventId self = kInvalidEvent;
  bool cancel_result = true;
  self = s.schedule_at(Time::ms(1), [&] {
    cancel_result = s.cancel(self);
    EXPECT_FALSE(s.is_pending(self));
  });
  s.run();
  EXPECT_FALSE(cancel_result);
}

TEST(SchedulerTest, StaleIdCancelStaysFalseAfterHeavyReuse) {
  // After an event fires, its id must never cancel (or report pending
  // for) any later event — even once internal storage gets reused by
  // thousands of newer events.
  Scheduler s;
  const EventId old_id = s.schedule_at(Time::ms(1), [] {});
  s.run();
  EXPECT_FALSE(s.cancel(old_id));
  int ran = 0;
  std::vector<EventId> fresh;
  for (int i = 0; i < 4096; ++i) {
    fresh.push_back(s.schedule_at(Time::ms(2 + i), [&ran] { ++ran; }));
  }
  EXPECT_FALSE(s.is_pending(old_id));
  EXPECT_FALSE(s.cancel(old_id));  // must not kill a recycled slot
  s.run();
  EXPECT_EQ(ran, 4096);
  for (EventId id : fresh) EXPECT_FALSE(s.cancel(id));
}

TEST(SchedulerTest, CancelledIdStaysDeadAfterReuse) {
  Scheduler s;
  const EventId a = s.schedule_at(Time::ms(1), [] {});
  EXPECT_TRUE(s.cancel(a));
  bool ran = false;
  s.schedule_at(Time::ms(1), [&ran] { ran = true; });
  EXPECT_FALSE(s.cancel(a));  // stale id, possibly recycled storage
  s.run();
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, PendingCountTracksCancels) {
  Scheduler s;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(s.schedule_at(Time::ms(1), [] {}));
  EXPECT_EQ(s.pending_count(), 10u);
  for (int i = 0; i < 10; i += 2) s.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(s.pending_count(), 5u);
  s.run();
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.executed_count(), 5u);
}

TEST(SchedulerTest, RescheduleMovesPendingEvent) {
  Scheduler s;
  Time fired = Time::zero();
  const EventId id = s.schedule_at(Time::ms(5), [&] { fired = s.now(); });
  EXPECT_TRUE(s.reschedule(id, Time::ms(20)));
  EXPECT_TRUE(s.is_pending(id));
  s.run();
  EXPECT_EQ(fired, Time::ms(20));
  EXPECT_EQ(s.executed_count(), 1u);
}

TEST(SchedulerTest, RescheduleEarlierWorks) {
  Scheduler s;
  Time fired = Time::zero();
  const EventId id = s.schedule_at(Time::ms(50), [&] { fired = s.now(); });
  EXPECT_TRUE(s.reschedule(id, Time::ms(2)));
  s.run();
  EXPECT_EQ(fired, Time::ms(2));
}

TEST(SchedulerTest, RescheduleOrdersLikeFreshSchedule) {
  // A rescheduled event draws a new insertion sequence: same-tick
  // events queued before the reschedule run first.
  Scheduler s;
  std::vector<int> order;
  const EventId id = s.schedule_at(Time::ms(1), [&] { order.push_back(2); });
  s.schedule_at(Time::ms(10), [&] { order.push_back(1); });
  EXPECT_TRUE(s.reschedule(id, Time::ms(10)));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerTest, RescheduleStaleIdReturnsFalse) {
  Scheduler s;
  const EventId fired = s.schedule_at(Time::ms(1), [] {});
  const EventId cancelled = s.schedule_at(Time::ms(2), [] {});
  s.cancel(cancelled);
  s.run();
  EXPECT_FALSE(s.reschedule(fired, Time::ms(10)));
  EXPECT_FALSE(s.reschedule(cancelled, Time::ms(10)));
  EXPECT_FALSE(s.reschedule(kInvalidEvent, Time::ms(10)));
}

TEST(SchedulerTest, RescheduleIntoPastThrows) {
  Scheduler s;
  s.schedule_at(Time::ms(10), [] {});
  const EventId id = s.schedule_at(Time::ms(20), [] {});
  s.run_until(Time::ms(15));
  EXPECT_THROW(s.reschedule(id, Time::ms(5)), SimError);
}

TEST(SchedulerTest, WidelySpreadTimersStayOrdered) {
  // Sparse events across six decades of time: ordering must not depend
  // on the spacing between events.
  Scheduler s;
  std::vector<std::int64_t> fired_ns;
  for (std::int64_t ns : {1ll, 900ll, 40000ll, 2000000ll, 700000000ll,
                          30000000000ll, 31000000000ll}) {
    s.schedule_at(Time::ns(ns), [&fired_ns, ns] { fired_ns.push_back(ns); });
  }
  s.run();
  EXPECT_EQ(fired_ns.size(), 7u);
  EXPECT_TRUE(std::is_sorted(fired_ns.begin(), fired_ns.end()));
}

TEST(SchedulerTest, BimodalNearAndFarEventsInterleaveCorrectly) {
  // The 10k-node shape: dense microsecond-spaced events next to timers
  // parked seconds out.  Every far event must fire in global (time,
  // insertion) order, including far events scheduled from inside near
  // callbacks.
  Scheduler s;
  std::vector<std::int64_t> fired_ns;
  const auto record = [&s, &fired_ns] {
    fired_ns.push_back(s.now().nanoseconds());
  };
  for (int i = 0; i < 200; ++i) {
    s.schedule_at(Time::ns(10 + i * 3), record);          // near burst
    s.schedule_at(Time::ms(50 + i * 7), record);          // far timers
  }
  s.schedule_at(Time::ns(100), [&s, record] {
    s.schedule_at(Time::seconds(2), record);              // far from near
  });
  s.run();
  EXPECT_EQ(fired_ns.size(), 401u);
  EXPECT_TRUE(std::is_sorted(fired_ns.begin(), fired_ns.end()));
  EXPECT_EQ(fired_ns.back(), Time::seconds(2).nanoseconds());
}

TEST(SchedulerTest, CancelAndRearmWhileParkedFar) {
  // Events cancelled or re-armed long before they are due must neither
  // fire at their stale time nor linger: their stale entries are swept and
  // the survivors fire in order.
  Scheduler s;
  std::vector<int> fired;
  std::vector<EventId> parked;
  for (int i = 0; i < 300; ++i) {
    parked.push_back(
        s.schedule_at(Time::ms(100 + i), [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 300; i += 2) EXPECT_TRUE(s.cancel(parked[i]));
  // Re-arm a survivor to the very end: it must fire last, once.
  EXPECT_TRUE(s.reschedule(parked[1], Time::seconds(5)));
  s.run();
  ASSERT_EQ(fired.size(), 150u);
  EXPECT_EQ(fired.back(), 1);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end() - 1));
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(SchedulerTest, DifferentialStressAgainstReferenceModel) {
  // Randomised schedule/cancel/reschedule mix, mirrored into an ordered
  // std::map reference keyed (time, op-sequence): the scheduler must
  // fire exactly the reference's order through every stale-entry drop and
  // compaction.  Time ties are frequent by construction (small time
  // range, many events).
  Scheduler s;
  std::mt19937_64 rng(0xC0FFEE);
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (t_ns, seq)
  std::map<Key, int> ref;                      // pending, in fire order
  std::map<EventId, std::pair<Key, int>> by_id;  // id -> (key, label)
  std::vector<int> fired;
  std::uint64_t seq = 0;
  int label = 0;
  const auto rand_in = [&](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng() % static_cast<std::uint64_t>(hi - lo));
  };
  for (int round = 0; round < 3000; ++round) {
    const auto op = rng() % 10;
    if (op < 6 || by_id.empty()) {
      // Mixed horizons: mostly near-future (dense ties), sometimes far.
      const std::int64_t delay =
          (rng() % 8 == 0) ? rand_in(1000000, 100000000) : rand_in(0, 200);
      const Time at = s.now() + Time::ns(delay);
      const int l = label++;
      const EventId id = s.schedule_at(at, [&fired, l] { fired.push_back(l); });
      const Key key{at.nanoseconds(), seq++};
      ref.emplace(key, l);
      by_id.emplace(id, std::make_pair(key, l));
    } else if (op < 8) {
      auto it = by_id.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng() % by_id.size()));
      EXPECT_TRUE(s.cancel(it->first));
      ref.erase(it->second.first);
      by_id.erase(it);
    } else {
      auto it = by_id.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng() % by_id.size()));
      const Time at = s.now() + Time::ns(rand_in(0, 200));
      EXPECT_TRUE(s.reschedule(it->first, at));
      ref.erase(it->second.first);
      const Key key{at.nanoseconds(), seq++};
      ref.emplace(key, it->second.second);
      it->second.first = key;
    }
  }
  EXPECT_EQ(s.pending_count(), ref.size());
  s.run();
  std::vector<int> expected;
  expected.reserve(ref.size());
  for (const auto& [key, l] : ref) expected.push_back(l);
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(SchedulerTest, RearmCancelStormMatchesReferenceModel) {
  // The timer-heavy shape: 100 timers, a million operations, over 90%
  // of them re-arms and cancels; cancels and earlier re-arms leave a
  // stale entry behind, later re-arms are forwarded when they surface.  Fire
  // order must match the std::map reference at every pop, compaction
  // must run many times, and stored entries must stay within
  // 2 * pending + 64 throughout.
  constexpr int kTimers = 100;
  constexpr int kOps = 1000000;
  Scheduler s;
  std::mt19937_64 rng(0x5707);
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (t_ns, seq)
  std::map<Key, int> ref;                              // pending -> timer
  std::vector<EventId> ids(kTimers, kInvalidEvent);
  std::vector<Key> keys(kTimers);
  std::uint64_t seq = 0;
  std::vector<int> fired;
  int rearm_or_cancel = 0;
  int compactions = 0;
  const auto due = [&] {
    // Coarse 40 ns grid: same-tick ties are common.
    return s.now() + Time::ns(40 * static_cast<std::int64_t>(rng() % 64));
  };
  for (int op = 0; op < kOps; ++op) {
    const auto h = static_cast<std::size_t>(rng() % kTimers);
    const auto roll = rng() % 100;
    const std::size_t tombs_before = s.queued_entries() - s.pending_count();
    if (ids[h] == kInvalidEvent) {
      const Time at = due();
      const int timer = static_cast<int>(h);
      ids[h] = s.schedule_at(at, [&fired, timer] { fired.push_back(timer); });
      keys[h] = {at.nanoseconds(), seq++};
      ref.emplace(keys[h], timer);
    } else if (roll < 3) {
      ASSERT_TRUE(s.cancel(ids[h]));
      ref.erase(keys[h]);
      ids[h] = kInvalidEvent;
      ++rearm_or_cancel;
    } else if (roll < 5) {
      ASSERT_EQ(s.run_steps(1), 1u);
      ASSERT_EQ(fired.back(), ref.begin()->second);
      ASSERT_EQ(s.now().nanoseconds(), ref.begin()->first.first);
      ids[static_cast<std::size_t>(fired.back())] = kInvalidEvent;
      ref.erase(ref.begin());
    } else {
      const Time at = due();
      ASSERT_TRUE(s.reschedule(ids[h], at));
      ref.erase(keys[h]);
      keys[h] = {at.nanoseconds(), seq++};
      ref.emplace(keys[h], static_cast<int>(h));
      ++rearm_or_cancel;
    }
    ASSERT_EQ(s.pending_count(), ref.size());
    ASSERT_LE(s.queued_entries(), 2 * s.pending_count() + 64);
    if (op % 128 == 0) {
      ASSERT_NO_THROW(s.check_invariants());
    }
    if (tombs_before >= 32 && s.queued_entries() == s.pending_count()) {
      ++compactions;
    }
  }
  EXPECT_GE(rearm_or_cancel, kOps * 9 / 10);
  EXPECT_GT(compactions, 1000);
  std::vector<int> expected;
  for (const auto& [key, timer] : ref) expected.push_back(timer);
  fired.clear();
  s.run();
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.queued_entries(), 0u);
}

TEST(SchedulerTest, ForwardAtSameTickOrdersByRearmSequence) {
  // T's entry stays queued at 5 ns when it is re-armed to 10 ns, and is
  // forwarded when it surfaces.  At 10 ns it must order by the re-arm's
  // sequence number: after A (scheduled before the re-arm), before B.
  Scheduler s;
  std::vector<char> order;
  const EventId t = s.schedule_at(Time::ns(5), [&] { order.push_back('T'); });
  s.schedule_at(Time::ns(10), [&] { order.push_back('A'); });
  ASSERT_TRUE(s.reschedule(t, Time::ns(10)));
  s.schedule_at(Time::ns(10), [&] { order.push_back('B'); });
  EXPECT_EQ(s.queued_entries(), 3u);  // the later re-arm pushed nothing
  s.check_invariants();
  EXPECT_EQ(s.next_event_time(), Time::ns(10));  // forwarded at the top
  s.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'T', 'B'}));
}

TEST(SchedulerTest, ParkKeepsTheIdForARearm) {
  Scheduler s;
  int fired = 0;
  const EventId id = s.schedule_at(Time::ms(5), [&] { ++fired; });
  EXPECT_TRUE(s.park(id));
  EXPECT_FALSE(s.park(id));  // no longer pending
  EXPECT_FALSE(s.is_pending(id));
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_TRUE(s.reschedule(id, Time::ms(7)));  // same id, same closure
  EXPECT_TRUE(s.is_pending(id));
  EXPECT_EQ(s.queued_entries(), 1u);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), Time::ms(7));
}

TEST(SchedulerTest, RunUntilKeepsParkedEntriesPastItsEnd) {
  // Only entries due by run_until's end are settled: a parked event
  // that is not yet due keeps its slot, and re-arms in place.
  Scheduler s;
  int fired = 0;
  const EventId id = s.schedule_at(Time::ms(5), [&] { ++fired; });
  s.schedule_at(Time::sec(10), [] {});
  ASSERT_TRUE(s.park(id));
  s.run_until(Time::ms(2));
  EXPECT_TRUE(s.reschedule(id, Time::ms(6)));
  EXPECT_EQ(s.queued_entries(), 2u);
  s.run_until(Time::ms(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), Time::ms(20));
}

TEST(SchedulerTest, CancelReleasesAParkedSlotButReportsFalse) {
  Scheduler s;
  const EventId id = s.schedule_at(Time::ms(5), [] {});
  ASSERT_TRUE(s.park(id));
  EXPECT_FALSE(s.cancel(id));
  EXPECT_FALSE(s.reschedule(id, Time::ms(6)));  // the id went stale
  s.check_invariants();
  s.run();
  EXPECT_EQ(s.executed_count(), 0u);
}

TEST(SchedulerTest, CompactionSweepsParkedSlots) {
  // Parked entries count as dead.  Once they outnumber pending events,
  // a compaction sweeps them and releases their slots: those ids go
  // stale, and the survivors still fire in order.
  Scheduler s;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(
        s.schedule_at(Time::ms(100 + i), [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(s.park(ids[static_cast<std::size_t>(i)]));
    s.check_invariants();
  }
  EXPECT_EQ(s.pending_count(), 20u);
  EXPECT_LE(s.queued_entries(), 2 * s.pending_count() + 32);
  // The first parks were swept; the last one is still held.
  EXPECT_FALSE(s.reschedule(ids[0], Time::ms(500)));
  EXPECT_TRUE(s.reschedule(ids[79], Time::ms(500)));
  s.run();
  std::vector<int> expected;
  for (int i = 80; i < 100; ++i) expected.push_back(i);
  expected.push_back(79);
  EXPECT_EQ(fired, expected);
}

/// Drives a fixed set of handles through every way an event can be
/// armed and disarmed, mirrored into a std::set of (t_ns, seq, handle)
/// keys: schedule_at, cancel, park, reschedule (earlier, same tick,
/// later; pending or parked), run_steps and run_until, with some
/// events stepping a reserved item inline when they fire.  After every
/// operation the fire sequence, pending_count(), each handle's
/// is_pending() and the queue's invariants must agree with the model.
class LazyRearmModel {
 public:
  /// (t_ns, seq, handle); handle -1 is a reserved item nobody re-arms.
  using Key = std::tuple<std::int64_t, std::uint64_t, int>;
  /// Arming horizon, ns: long against the time a step advances, so
  /// parked entries often outlive the next re-arm of their handle.
  static constexpr std::int64_t kHorizon = 2000;

  LazyRearmModel(std::uint64_t seed, int handles)
      : rng_(seed), handles_(static_cast<std::size_t>(handles)) {}

  Scheduler s;
  std::uint64_t inline_steps = 0;
  std::uint64_t parked_rearms = 0;
  std::uint64_t stale_rearms = 0;
  std::uint64_t earlier = 0;
  std::uint64_t same_tick = 0;
  std::uint64_t later = 0;

  void step() {
    const auto h = static_cast<int>(rng_() % handles_.size());
    Handle& hd = handles_[static_cast<std::size_t>(h)];
    const auto roll = rng_() % 100;
    if (hd.state == kIdle || roll < 10) {
      // A parked handle's cancel releases its slot but reports false.
      ASSERT_EQ(s.cancel(hd.id), hd.state == kPending);
      if (hd.state == kPending) ref_.erase(hd.key);
      const Time at = s.now() + Time::ns(rand_in(0, kHorizon));
      hd.id = s.schedule_at(at, [this, h] { fire(h); });
      arm(h, at);
    } else if (roll < 20) {
      ASSERT_EQ(s.cancel(hd.id), hd.state == kPending);
      if (hd.state == kPending) ref_.erase(hd.key);
      hd.state = kIdle;
    } else if (roll < 45) {
      ASSERT_EQ(s.park(hd.id), hd.state == kPending);
      if (hd.state == kPending) ref_.erase(hd.key);
      hd.state = kParked;
    } else if (roll < 75) {
      rearm(h);
    } else if (roll < 88) {
      const auto n = static_cast<std::size_t>(rand_in(1, 4));
      const std::uint64_t before = fires_;
      window_end_ = Time::ns(-1);  // run_steps never steps inline
      const std::size_t done = s.run_steps(n);
      ASSERT_EQ(done, fires_ - before);
      ASSERT_TRUE(done == n || ref_.empty());
    } else {
      window_end_ = s.now() + Time::ns(rand_in(0, 300));
      s.run_until(window_end_);
    }
    verify();
  }

  void drain() {
    window_end_ = Time::max();
    s.run();
    verify();
    EXPECT_TRUE(ref_.empty());
  }

 private:
  enum State { kIdle, kPending, kParked };
  struct Handle {
    EventId id = kInvalidEvent;
    State state = kIdle;
    Key key{};
  };

  std::int64_t rand_in(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng_() % static_cast<std::uint64_t>(hi - lo));
  }

  /// Records the handle's new live key: the scheduler drew `seq_`.
  void arm(int h, Time at) {
    Handle& hd = handles_[static_cast<std::size_t>(h)];
    hd.state = kPending;
    hd.key = Key{at.nanoseconds(), seq_++, h};
    ref_.insert(hd.key);
  }

  void rearm(int h) {
    Handle& hd = handles_[static_cast<std::size_t>(h)];
    Time at = s.now() + Time::ns(rand_in(0, kHorizon));
    if (hd.state == kPending) {
      const Time live = Time::ns(std::get<0>(hd.key));
      const auto pick = rng_() % 3;
      if (pick == 0 && live > s.now()) {
        at = s.now() + Time::ns(rand_in(0, (live - s.now()).nanoseconds()));
        ++earlier;
      } else if (pick == 1) {
        at = live;
        ++same_tick;
      } else {
        at = live + Time::ns(rand_in(1, 400));
        ++later;
      }
      ASSERT_TRUE(s.reschedule(hd.id, at));
      ref_.erase(hd.key);
    } else if (s.reschedule(hd.id, at)) {
      ++parked_rearms;  // the parked slot was still held
    } else {
      // Released once its entry surfaced or a compaction swept it:
      // re-arm through a fresh slot, as Timer does.
      ++stale_rearms;
      hd.id = s.schedule_at(at, [this, h] { fire(h); });
    }
    arm(h, at);
  }

  /// Pops the model's first key, which must be (now, ..., h).
  void expect_head(int h) {
    ASSERT_FALSE(ref_.empty());
    const Key head = *ref_.begin();
    ASSERT_EQ(std::get<2>(head), h);
    ASSERT_EQ(s.now().nanoseconds(), std::get<0>(head));
    ref_.erase(ref_.begin());
    ++fires_;
  }

  void fire(int h) {
    expect_head(h);
    handles_[static_cast<std::size_t>(h)].state = kIdle;
    ASSERT_NO_THROW(s.check_invariants());
    if (rng_() % 4 != 0) return;
    // Step one reserved item inline iff it is the next event anyway and
    // inside the running call's window; otherwise queue it.
    const std::uint64_t seq = s.reserve_seqs(1);
    ASSERT_EQ(seq, seq_++);
    const Time at = s.now() + Time::ns(rand_in(0, 60));
    const Key key{at.nanoseconds(), seq, -1};
    const bool first = ref_.empty() || key < *ref_.begin();
    const bool stepped = s.step_inline(at, seq, EventCategory::kChannel);
    ASSERT_EQ(stepped, first && at <= window_end_);
    if (stepped) {
      ASSERT_EQ(s.now(), at);
      ++inline_steps;
    } else {
      ref_.insert(key);
      s.schedule_reserved(at, seq, [this] { expect_head(-1); },
                          EventCategory::kChannel);
    }
  }

  void verify() {
    ASSERT_EQ(s.pending_count(), ref_.size());
    for (const Handle& hd : handles_) {
      ASSERT_EQ(s.is_pending(hd.id), hd.state == kPending);
    }
    ASSERT_NO_THROW(s.check_invariants());
  }

  std::mt19937_64 rng_;
  std::uint64_t seq_ = 1;  // the scheduler's first sequence number
  std::uint64_t fires_ = 0;
  Time window_end_ = Time::ns(-1);
  std::vector<Handle> handles_;
  std::set<Key> ref_;
};

TEST(SchedulerTest, LazyRearmMatchesSetReferenceModel) {
  // 48 handles: parked entries mostly surface.  256: dead entries pass
  // the compaction floor, so compactions sweep parked slots too.
  struct Run {
    std::uint64_t seed;
    int handles;
    int ops;
  };
  for (const Run& run : {Run{1, 48, 20000}, Run{2, 48, 20000},
                         Run{3, 256, 60000}}) {
    const std::uint64_t seed = run.seed;
    LazyRearmModel m(seed, run.handles);
    for (int op = 0; op < run.ops; ++op) {
      m.step();
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "seed " << seed;
    }
    m.drain();
    // Every path was exercised, many times.
    EXPECT_GT(m.earlier, 400u);
    EXPECT_GT(m.same_tick, 400u);
    EXPECT_GT(m.later, 400u);
    EXPECT_GT(m.parked_rearms, 200u);
    EXPECT_GT(m.stale_rearms, 400u);
    EXPECT_GT(m.inline_steps, 200u);
  }
}

/// Drives a scheduler and a std::map reference holding one entry per
/// logical event, keyed (t_ns, seq).  Plain events are scheduled,
/// re-armed and cancelled; a wave reserves one sequence number per item
/// and is walked by a single event that steps inline while its next
/// item is the scheduler's next event and re-parks otherwise.  Every
/// fire must be the reference's first entry.
class WaveModel {
 public:
  using Key = std::pair<std::int64_t, std::uint64_t>;

  explicit WaveModel(std::uint64_t seed) : rng_(seed) {}

  Scheduler s;
  std::map<Key, int> ref;
  std::vector<int> fired;
  std::uint64_t inline_steps = 0;
  std::uint64_t parks = 0;

  std::int64_t rand_in(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng_() % static_cast<std::uint64_t>(hi - lo));
  }

  void plain(Time at) {
    const int l = label_++;
    const EventId id = s.schedule_at(at, [this, l] { fire(l); });
    plain_.emplace(l, std::make_pair(id, Key{at.nanoseconds(), seq_}));
    ref.emplace(Key{at.nanoseconds(), seq_++}, l);
  }

  void launch_wave(Time base, int k) {
    const std::uint64_t first = s.reserve_seqs(static_cast<std::uint64_t>(k));
    ASSERT_EQ(first, seq_);  // the block is the next k sequence numbers
    Wave w;
    for (int i = 0; i < k; ++i) {
      w.items.push_back(
          Item{base + Time::ns(rand_in(0, 200)), seq_++, label_++});
    }
    std::sort(w.items.begin(), w.items.end(),
              [](const Item& a, const Item& b) {
                return a.t != b.t ? a.t < b.t : a.seq < b.seq;
              });
    for (const Item& it : w.items) {
      ref.emplace(Key{it.t.nanoseconds(), it.seq}, it.label);
    }
    waves_.push_back(std::move(w));
    const std::size_t wi = waves_.size() - 1;
    const Item& head = waves_[wi].items.front();
    s.schedule_reserved(head.t, head.seq, [this, wi] { walk(wi); },
                        EventCategory::kChannel);
  }

  void cancel_random() {
    auto it = random_plain();
    ASSERT_TRUE(s.cancel(it->second.first));
    ref.erase(it->second.second);
    plain_.erase(it);
  }

  void rearm_random(Time at) {
    auto it = random_plain();
    ASSERT_TRUE(s.reschedule(it->second.first, at));
    ref.erase(it->second.second);
    it->second.second = Key{at.nanoseconds(), seq_++};
    ref.emplace(it->second.second, it->first);
  }

  [[nodiscard]] bool has_plain() const { return !plain_.empty(); }

 private:
  struct Item {
    Time t;
    std::uint64_t seq;
    int label;
  };
  struct Wave {
    std::vector<Item> items;
    std::size_t next = 0;
  };

  std::map<int, std::pair<EventId, Key>>::iterator random_plain() {
    auto it = plain_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng_() % plain_.size()));
    return it;
  }

  void fire(int l) {
    ASSERT_FALSE(ref.empty());
    ASSERT_EQ(l, ref.begin()->second);
    ASSERT_EQ(s.now().nanoseconds(), ref.begin()->first.first);
    ref.erase(ref.begin());
    plain_.erase(l);
    fired.push_back(l);
    // Items react like receivers: some schedule a follow-up, some start
    // a wave of their own (which grows the wave pool mid-walk).
    const auto roll = rng_() % 16;
    if (roll < 4) plain(s.now() + Time::ns(rand_in(0, 300)));
    if (roll == 4) {
      launch_wave(s.now() + Time::ns(rand_in(0, 100)),
                  1 + static_cast<int>(rng_() % 8));
    }
  }

  void walk(std::size_t wi) {
    for (;;) {
      const Item it = waves_[wi].items[waves_[wi].next++];
      fire(it.label);
      if (waves_[wi].next == waves_[wi].items.size()) return;
      const Item n = waves_[wi].items[waves_[wi].next];
      if (!s.step_inline(n.t, n.seq, EventCategory::kChannel)) {
        ++parks;
        s.schedule_reserved(n.t, n.seq, [this, wi] { walk(wi); },
                            EventCategory::kChannel);
        return;
      }
      ++inline_steps;
    }
  }

  std::mt19937_64 rng_;
  std::uint64_t seq_ = 1;  // the scheduler's first sequence number
  int label_ = 0;
  std::map<int, std::pair<EventId, Key>> plain_;  // label -> (id, key)
  std::vector<Wave> waves_;
};

TEST(SchedulerTest, WavesMatchOneEventPerItemReferenceModel) {
  WaveModel m(0x3A7E);
  for (int op = 0; op < 20000; ++op) {
    const auto roll = m.rand_in(0, 100);
    const Time soon = m.s.now() + Time::ns(m.rand_in(0, 400));
    if (roll < 30 || !m.has_plain()) {
      m.plain(soon);
    } else if (roll < 45) {
      m.launch_wave(soon, static_cast<int>(m.rand_in(1, 24)));
    } else if (roll < 55) {
      m.cancel_random();
    } else if (roll < 75) {
      m.rearm_random(soon);
    } else if (roll < 85) {
      ASSERT_LE(m.s.run_steps(static_cast<std::size_t>(m.rand_in(1, 4))), 3u);
    } else {
      m.s.run_until(m.s.now() + Time::ns(m.rand_in(0, 300)));
    }
    ASSERT_NO_THROW(m.s.check_invariants());
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  m.s.run();
  EXPECT_TRUE(m.ref.empty());
  EXPECT_EQ(m.s.pending_count(), 0u);
  EXPECT_EQ(m.s.executed_count(), m.fired.size());
  // Both wave paths were exercised, many times.
  EXPECT_GT(m.inline_steps, 1000u);
  EXPECT_GT(m.parks, 1000u);
}

TEST(SchedulerTest, StepInlineRefusesOutsideItsWindow) {
  Scheduler s;
  // Outside run()/run_until().
  EXPECT_FALSE(s.step_inline(Time::ns(1), s.reserve_seqs(1),
                             EventCategory::kPhy));

  // Inside run_steps: every step is one queued event.
  bool refused = false;
  s.schedule_at(Time::ns(5), [&] {
    refused = !s.step_inline(Time::ns(6), s.reserve_seqs(1),
                             EventCategory::kPhy);
  });
  EXPECT_EQ(s.run_steps(1), 1u);
  EXPECT_TRUE(refused);

  // After stop().
  refused = false;
  s.schedule_at(Time::ns(10), [&] {
    s.stop();
    refused = !s.step_inline(Time::ns(11), s.reserve_seqs(1),
                             EventCategory::kPhy);
  });
  s.run();
  EXPECT_TRUE(refused);

  // Past run_until's end, but not at it.
  bool at_end = false;
  refused = false;
  s.schedule_at(Time::ns(15), [&] {
    refused = !s.step_inline(Time::ns(21), s.reserve_seqs(1),
                             EventCategory::kPhy);
    at_end = s.step_inline(Time::ns(20), s.reserve_seqs(1),
                           EventCategory::kPhy);
  });
  s.run_until(Time::ns(20));
  EXPECT_TRUE(refused);
  EXPECT_TRUE(at_end);

  // An earlier entry is queued: a later time, or the same time with a
  // later sequence number, must wait for it; an earlier seq goes first.
  bool later_time = true;
  bool later_seq = true;
  bool earlier_seq = false;
  s.schedule_at(Time::ns(30), [&] {
    const std::uint64_t early = s.reserve_seqs(1);
    s.schedule_at(Time::ns(32), [] {});
    const std::uint64_t late = s.reserve_seqs(2);
    later_time = s.step_inline(Time::ns(33), late + 1, EventCategory::kPhy);
    later_seq = s.step_inline(Time::ns(32), late, EventCategory::kPhy);
    earlier_seq = s.step_inline(Time::ns(32), early, EventCategory::kPhy);
  });
  s.run();
  EXPECT_FALSE(later_time);
  EXPECT_FALSE(later_seq);
  EXPECT_TRUE(earlier_seq);
}

TEST(SchedulerTest, InlineStepsCountAsExecutedEvents) {
  Scheduler s;
  Time seen;
  s.schedule_at(Time::ns(5), [&] {
    const std::uint64_t seq = s.reserve_seqs(1);
    ASSERT_TRUE(s.step_inline(Time::ns(9), seq, EventCategory::kPhy));
    seen = s.now();
  });
  s.run();
  EXPECT_EQ(seen, Time::ns(9));
  EXPECT_EQ(s.executed_count(), 2u);
  EXPECT_EQ(s.executed_count(EventCategory::kOther), 1u);
  EXPECT_EQ(s.executed_count(EventCategory::kPhy), 1u);
}

TEST(SchedulerTest, OrderHashSeesReorderingsThatCountsCannot) {
  // Each run executes one kMac and one kPhy event, at 1 ms and 2 ms:
  // equal totals and equal per-category counts in every run.
  const auto run = [](EventCategory first, EventCategory second) {
    Scheduler s;
    s.schedule_at(Time::ms(1), [] {}, first);
    s.schedule_at(Time::ms(2), [] {}, second);
    s.run();
    EXPECT_EQ(s.executed_count(EventCategory::kMac), 1u);
    EXPECT_EQ(s.executed_count(EventCategory::kPhy), 1u);
    return s.order_hash();
  };
  const std::uint64_t mac_first = run(EventCategory::kMac, EventCategory::kPhy);
  EXPECT_EQ(run(EventCategory::kMac, EventCategory::kPhy), mac_first);
  EXPECT_NE(run(EventCategory::kPhy, EventCategory::kMac), mac_first);
  EXPECT_NE(mac_first, Scheduler{}.order_hash());
}

TEST(SchedulerTest, InlineStepsHashLikeQueuedEvents) {
  Scheduler queued;
  queued.schedule_at(Time::ns(5), [] {}, EventCategory::kChannel);
  queued.schedule_at(Time::ns(9), [] {}, EventCategory::kPhy);
  queued.run();

  Scheduler stepped;
  stepped.schedule_at(Time::ns(5), [&] {
    const std::uint64_t seq = stepped.reserve_seqs(1);
    ASSERT_TRUE(stepped.step_inline(Time::ns(9), seq, EventCategory::kPhy));
  }, EventCategory::kChannel);
  stepped.run();
  EXPECT_EQ(stepped.order_hash(), queued.order_hash());
}

TEST(SchedulerTest, ScheduleReservedRejectsUnreservedAndPastKeys) {
  Scheduler s;
  const std::uint64_t seq = s.reserve_seqs(2);
  EXPECT_THROW(s.schedule_reserved(Time::ns(1), seq + 2, [] {},
                                   EventCategory::kOther),
               SimError);
  s.schedule_reserved(Time::ns(4), seq + 1, [] {}, EventCategory::kOther);
  s.run();
  // seq orders before the event that just ran at the same time.
  EXPECT_THROW(s.schedule_reserved(Time::ns(4), seq, [] {},
                                   EventCategory::kOther),
               SimError);
}

TEST(SchedulerTest, ManyTicksInterleavedScheduleCancelKeepsOrder) {
  // A torture mix of schedule/cancel across several ticks: execution
  // order must equal (time, insertion order) over the survivors.
  Scheduler s;
  std::vector<std::pair<int, int>> order;  // (tick, serial)
  std::vector<EventId> cancellable;
  int serial = 0;
  for (int round = 0; round < 8; ++round) {
    for (int tick = 1; tick <= 4; ++tick) {
      const int id = serial++;
      const EventId ev = s.schedule_at(
          Time::ms(tick), [&order, tick, id] { order.emplace_back(tick, id); });
      if (id % 2 == 1) cancellable.push_back(ev);
    }
  }
  for (EventId ev : cancellable) EXPECT_TRUE(s.cancel(ev));
  s.run();
  ASSERT_EQ(order.size(), 16u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

}  // namespace
}  // namespace mts::sim
