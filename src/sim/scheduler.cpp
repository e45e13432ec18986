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
  slot.live_key = kDeadKey;  // any remaining queue entry tombstones
  ++slot.gen;                // ids referring to this slot go stale here
  slot.next_free = free_head_;
  free_head_ = s;
}

// ---------------------------------------------------------------------------
// 4-ary heap.
// ---------------------------------------------------------------------------

void Scheduler::sift_down(std::size_t i, Entry e) const {
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

void Scheduler::pop_top() const {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

bool Scheduler::peek_live() const {
  while (!heap_.empty()) {
    if (!entry_dead(heap_.front())) return true;
    pop_top();  // tombstone: cancelled, re-armed, or recycled
    --tombstones_;
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
  ++executed_by_[static_cast<std::size_t>(slot_at(s).cat)];
  release_slot(s);  // the event's id dies before its callback runs
  --live_count_;
  ++executed_;
  maybe_compact();
  return fn;
}

void Scheduler::compact() {
  std::size_t kept = 0;
  for (const Entry& e : heap_) {
    if (!entry_dead(e)) heap_[kept++] = e;
  }
  heap_.resize(kept);
  tombstones_ = 0;
  // Floyd's bottom-up heapify: sift every internal node, deepest first.
  if (kept > 1) {
    for (std::size_t i = (kept - 2) / 4 + 1; i-- > 0;) sift_down(i, heap_[i]);
  }
  require(heap_.size() == live_count_ + tombstones_,
          "Scheduler: queue lost or duplicated a live event");
}

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

bool Scheduler::reschedule(EventId id, Time t) {
  require(t >= now_, "Scheduler: cannot reschedule into the past");
  const std::uint32_t s = lookup_index(id);
  if (s == kNullIndex) return false;
  Slot& slot = slot_at(s);
  // Re-keying with a fresh seq orders the re-armed event exactly like a
  // new schedule; the old heap entry becomes a tombstone.
  slot.live_key = (reserve_seqs(1) << kSlotBits) | s;
  ++tombstones_;
  push(Entry{t, slot.live_key});
  maybe_compact();
  return true;
}

bool Scheduler::cancel(EventId id) {
  const std::uint32_t s = lookup_index(id);
  if (s == kNullIndex) return false;
  release_slot(s);  // the heap entry tombstones via the live_key reset
  ++tombstones_;
  --live_count_;
  maybe_compact();
  return true;
}

Time Scheduler::next_event_time() const {
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
  while (!stopped_ && peek_live()) {
    if (heap_.front().t > end) break;
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
