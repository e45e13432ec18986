#include "sim/scheduler.hpp"

#include <utility>

namespace mts::sim {

const char* event_category_name(EventCategory c) {
  switch (c) {
    case EventCategory::kOther: return "other";
    case EventCategory::kChannel: return "channel";
    case EventCategory::kPhy: return "phy";
    case EventCategory::kMac: return "mac";
    case EventCategory::kRouting: return "routing";
    case EventCategory::kTransport: return "transport";
    case EventCategory::kSecurity: return "security";
    case EventCategory::kCount: break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Slot pool.
// ---------------------------------------------------------------------------

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNullIndex) {
    const std::uint32_t s = free_head_;
    Slot& slot = slot_at(s);
    free_head_ = slot.next_free;
    slot.next_free = kNullIndex;
    return s;
  }
  require(slot_count_ < kSlotMask, "Scheduler: slot pool exhausted");
  if ((slot_count_ & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return slot_count_++;
}

void Scheduler::release_slot(std::uint32_t s) {
  Slot& slot = slot_at(s);
  slot.fn.reset();
  slot.live.key = kDeadKey;
  slot.queued.key = kDeadKey;  // any remaining queue entry goes stale
  ++slot.gen;                  // ids referring to this slot go stale here
  slot.next_free = free_head_;
  free_head_ = s;
}

// ---------------------------------------------------------------------------
// 4-ary heap.
// ---------------------------------------------------------------------------

void Scheduler::sift_down(std::size_t i, Entry e) {
  Entry* h = heap_.data();
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t c = 4 * i + 1;
    if (c >= n) break;
    std::size_t m = c;
    if (c + 3 < n) {
      // All four children exist: a two-round tournament.
      const std::size_t a = h[c + 1].before(h[c]) ? c + 1 : c;
      const std::size_t b = h[c + 3].before(h[c + 2]) ? c + 3 : c + 2;
      m = h[b].before(h[a]) ? b : a;
    } else {
      for (std::size_t k = c + 1; k < n; ++k) {
        if (h[k].before(h[m])) m = k;
      }
    }
    if (!h[m].before(e)) break;
    h[i] = h[m];
    i = m;
  }
  h[i] = e;
}

void Scheduler::pop_top() {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

bool Scheduler::peek_live(Time until) {
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    if (top.t > until) return false;
    const std::uint32_t s = slot_of(top);
    Slot& slot = slot_at(s);
    if (slot.queued.key != top.key) {
      pop_top();  // stale: cancelled, fired, or re-armed earlier
    } else if (slot.live.key == top.key) {
      return true;
    } else if (slot.live.key == kDeadKey) {
      pop_top();  // parked, and nothing re-armed it before it came due
      release_slot(s);
    } else {
      // Re-armed later: forward the entry to the live key.
      slot.queued = slot.live;
      sift_down(0, slot.live);
    }
  }
  return false;
}

EventFn Scheduler::take_top() {
  const Entry e = heap_.front();
  // (time, seq) keys are unique and every new key is minted at or after
  // now(), so pops must be strictly increasing.  Two compares against a
  // register-hot value; cheap enough to check on every run.
  require(last_pop_.before(e), "Scheduler: event popped out of order");
  last_pop_ = e;
  pop_top();
  if (!heap_.empty()) {
    // Overlap the next event's slot line with this callback's execution.
    __builtin_prefetch(&slot_at(slot_of(heap_.front())), 0, 1);
  }
  const std::uint32_t s = slot_of(e);
  now_ = e.t;
  EventFn fn = std::move(slot_at(s).fn);
  count_executed(slot_at(s).cat);
  release_slot(s);  // the event's id dies before its callback runs
  --live_count_;
  maybe_compact();
  return fn;
}

void Scheduler::compact() {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const std::uint32_t s = slot_of(heap_[i]);
    Slot& slot = slot_at(s);
    if (slot.queued.key != heap_[i].key) continue;  // stale
    if (slot.live.key == kDeadKey) {
      release_slot(s);  // parked
      continue;
    }
    slot.queued = slot.live;
    heap_[kept++] = slot.live;
  }
  heap_.resize(kept);
  // Floyd's bottom-up heapify: sift every internal node, deepest first.
  if (kept > 1) {
    for (std::size_t i = (kept - 2) / 4 + 1; i-- > 0;) sift_down(i, heap_[i]);
  }
  require(heap_.size() == live_count_,
          "Scheduler: queue lost or duplicated a live event");
}

void Scheduler::check_invariants() const {
  const std::size_t n = heap_.size();
  for (std::size_t i = 1; i < n; ++i) {
    require(!heap_[i].before(heap_[(i - 1) / 4]), "Scheduler: heap disorder");
  }
  std::vector<std::uint8_t> entries(slot_count_, 0);
  for (const Entry& e : heap_) {
    const std::uint32_t s = slot_of(e);
    require(s < slot_count_, "Scheduler: entry names no slot");
    const Slot& slot = slot_at(s);
    if (slot.queued.key != e.key) continue;  // stale
    require(slot.queued.t == e.t, "Scheduler: queued entry time mismatch");
    require(++entries[s] == 1, "Scheduler: slot queued twice");
  }
  std::size_t pending = 0;
  for (std::uint32_t s = 0; s < slot_count_; ++s) {
    const Slot& slot = slot_at(s);
    if (slot.queued.key == kDeadKey) {
      require(slot.live.key == kDeadKey, "Scheduler: pending slot unqueued");
      continue;  // free
    }
    require(entries[s] == 1, "Scheduler: held slot has no queued entry");
    if (slot.live.key == kDeadKey) continue;  // parked
    ++pending;
    require(!slot.live.before(slot.queued),
            "Scheduler: queued entry orders after its live key");
  }
  require(pending == live_count_, "Scheduler: pending count mismatch");
  require(n <= 2 * live_count_ + kCompactFloor,
          "Scheduler: dead entries outgrew their bound");
}

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

bool Scheduler::reschedule(EventId id, Time t) {
  require(t >= now_, "Scheduler: cannot reschedule into the past");
  const std::uint32_t s = lookup_index(id);
  if (s == kNullIndex) return false;
  // A fresh seq orders the re-armed event exactly like a new schedule.
  const std::uint64_t key = (reserve_seqs(1) << kSlotBits) | s;
  Slot& slot = slot_at(s);
  if (slot.live.key == kDeadKey) ++live_count_;  // a parked event re-arms
  slot.live = Entry{t, key};
  // At or after the queued entry's time, that entry still orders first
  // and is forwarded when it surfaces.  Earlier, a new entry goes in and
  // the old one goes stale.
  if (t < slot.queued.t) {
    slot.queued = slot.live;
    push(slot.live);
    maybe_compact();
  }
  return true;
}

bool Scheduler::park(EventId id) {
  const std::uint32_t s = lookup_index(id);
  if (s == kNullIndex || slot_at(s).live.key == kDeadKey) return false;
  slot_at(s).live.key = kDeadKey;  // the queued entry stays for a re-arm
  --live_count_;
  maybe_compact();
  return true;
}

bool Scheduler::cancel(EventId id) {
  const std::uint32_t s = lookup_index(id);
  if (s == kNullIndex) return false;
  const bool pending = slot_at(s).live.key != kDeadKey;
  release_slot(s);  // the queued entry goes stale
  if (pending) --live_count_;
  maybe_compact();
  return pending;
}

Time Scheduler::next_event_time() {
  return peek_live() ? heap_.front().t : Time::max();
}

class Scheduler::InlineWindow {
 public:
  InlineWindow(Scheduler& s, Time end)
      : s_(s), saved_(std::exchange(s.inline_end_, end)) {}
  ~InlineWindow() { s_.inline_end_ = saved_; }
  InlineWindow(const InlineWindow&) = delete;
  InlineWindow& operator=(const InlineWindow&) = delete;

 private:
  Scheduler& s_;
  Time saved_;
};

void Scheduler::run() {
  const InlineWindow window(*this, Time::max());
  stopped_ = false;
  while (!stopped_ && peek_live()) {
    take_top()();
  }
}

void Scheduler::run_until(Time end) {
  require(end >= now_, "Scheduler: run_until into the past");
  const InlineWindow window(*this, end);
  stopped_ = false;
  while (!stopped_ && peek_live(end)) {
    take_top()();
  }
  if (now_ < end) now_ = end;
}

std::size_t Scheduler::run_steps(std::size_t n) {
  const InlineWindow window(*this, kNoInline);
  stopped_ = false;
  std::size_t done = 0;
  while (done < n && !stopped_ && peek_live()) {
    ++done;
    take_top()();
  }
  return done;
}

}  // namespace mts::sim
