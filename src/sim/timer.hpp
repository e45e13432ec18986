#pragma once

#include "sim/scheduler.hpp"

namespace mts::sim {

/// A member function of a timer's owner, held as an `{owner, thunk}`
/// pair: two pointers, no stored closure.  Made by `bind`.
struct Callback {
  void* owner = nullptr;
  void (*thunk)(void*) = nullptr;

  void operator()() const { thunk(owner); }
};

/// Binds `Method` (a `void()` member function) to `owner`:
///   sim::bind<&Mac80211::access_timer_fired>(this)
template <auto Method, typename Owner>
[[nodiscard]] Callback bind(Owner* owner) {
  return Callback{owner,
                  [](void* o) { (static_cast<Owner*>(o)->*Method)(); }};
}

namespace detail {

/// What one-shot and periodic timers share: the scheduler, the owner's
/// callback, the event id and its category.  Destruction cancels any
/// pending expiry, so a dying owner can never be called back.
class TimerBase {
 public:
  TimerBase(Scheduler& sched, Callback cb, EventCategory cat)
      : sched_(&sched), cb_(cb), cat_(cat) {}
  /// Releases the event's slot, pending or parked.
  ~TimerBase() {
    if (id_ != kInvalidEvent) sched_->cancel(id_);
  }
  TimerBase(const TimerBase&) = delete;
  TimerBase& operator=(const TimerBase&) = delete;

  /// Disarms; no-op if not pending.  The event is parked
  /// (Scheduler::park): it keeps its id, so the next arming re-arms it in
  /// place.
  void cancel() {
    if (armed_) {
      sched_->park(id_);
      armed_ = false;
    }
  }

 protected:
  /// Arms (or re-arms) the expiry at `t`.  A re-arm of a pending or
  /// parked event keeps its closure (Scheduler::reschedule); only a
  /// fresh arming stores `on_fire`, a `this` capture that lives inline
  /// in the event slot.  Either way the expiry orders among same-tick
  /// events exactly like a fresh schedule (it draws a new sequence
  /// number).
  template <typename F>
  void arm_at(Time t, F on_fire) {
    if (id_ == kInvalidEvent || !sched_->reschedule(id_, t)) {
      id_ = sched_->schedule_at(t, on_fire, cat_);
    }
    armed_ = true;
  }

  Scheduler* sched_;
  Callback cb_;
  /// The pending or parked event; stale once the scheduler released a
  /// parked slot, which a re-arm then finds out.
  EventId id_ = kInvalidEvent;
  EventCategory cat_;
  bool armed_ = false;
};

}  // namespace detail

/// RAII one-shot timer bound to a member function of its owner.
///
/// Protocol modules own Timers as members; destruction cancels any
/// pending expiry.  Cancel parks the event and a re-arm moves it, so the
/// hot "freeze, then resume" and "restart the timeout" idioms in the MAC
/// (backoff freezes, ACK/CTS timeouts) and TCP (RTO restarts) touch the
/// heap only when the new expiry is earlier than the queued one, or
/// when the queued entry surfaces and is forwarded.
class Timer : private detail::TimerBase {
 public:
  Timer(Scheduler& sched, Callback on_expire,
        EventCategory cat = EventCategory::kOther)
      : TimerBase(sched, on_expire, cat) {}

  using TimerBase::cancel;

  /// Arms (or re-arms) the timer to fire `delay` from now.
  void schedule_in(Time delay) { schedule_at(sched_->now() + delay); }

  /// Arms (or re-arms) the timer to fire at absolute time `t`.
  void schedule_at(Time t) {
    arm_at(t, [this] { fire(); });
  }

  [[nodiscard]] bool is_pending() const { return armed_; }

 private:
  void fire() {
    id_ = kInvalidEvent;  // not pending inside the callback; re-arm works
    armed_ = false;
    cb_();
  }
};

static_assert(sizeof(Timer) <= 40,
              "sim::Timer grew: it is one per MAC, radio, TCP agent and "
              "session, so keep it to the scheduler, the owner callback, "
              "the event id, the category and the armed flag");

/// Periodic timer: fires every `period` until stopped.  The first
/// firing is one period after start() (plus optional initial jitter).
class PeriodicTimer : private detail::TimerBase {
 public:
  PeriodicTimer(Scheduler& sched, Callback on_tick,
                EventCategory cat = EventCategory::kOther)
      : TimerBase(sched, on_tick, cat) {}

  void start(Time period, Time initial_delay) {
    require(period > Time::zero(), "PeriodicTimer: period must be positive");
    period_ = period;
    arm_at(sched_->now() + initial_delay, [this] { tick(); });
  }
  void start(Time period) { start(period, period); }

  void set_period(Time period) {
    require(period > Time::zero(), "PeriodicTimer: period must be positive");
    period_ = period;
  }

  void stop() { cancel(); }
  [[nodiscard]] bool is_running() const { return armed_; }

 private:
  void tick() {
    // Re-arm first: the callback may stop().
    id_ = sched_->schedule_at(sched_->now() + period_, [this] { tick(); },
                              cat_);
    cb_();
  }

  Time period_ = Time::sec(1);
};

static_assert(sizeof(PeriodicTimer) <= 48,
              "sim::PeriodicTimer grew past one Timer plus its period");

}  // namespace mts::sim
