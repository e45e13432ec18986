#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/error.hpp"
#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace mts::sim {

/// Coarse subsystem attribution for executed events.  Call sites tag
/// their schedules so scale studies can see where a protocol's cycles
/// go (the 10k-node push needs to know whether AODV/MTS runs are
/// medium-bound or timer-bound before optimizing either).  Untagged
/// schedules land in kOther.
enum class EventCategory : std::uint8_t {
  kOther = 0,   ///< untagged (tests, harness glue)
  kChannel,     ///< reception starts (a delivery wave's arrivals)
  kPhy,         ///< radio tx-done, reception ends (a wave's ends)
  kMac,         ///< 802.11 access / backoff / response / SIFS timers
  kRouting,     ///< discovery timers, jittered rebroadcasts, purges
  kTransport,   ///< TCP RTO / start timers
  kSecurity,    ///< adversary/defense self-scheduled events
  kCount
};

inline constexpr std::size_t kEventCategoryCount =
    static_cast<std::size_t>(EventCategory::kCount);

const char* event_category_name(EventCategory c);

/// Identifies a scheduled event; usable to cancel it before it fires.
/// Encodes a slot index (low 32 bits, biased by one so 0 stays invalid)
/// and that slot's generation counter (high 32 bits): ids of fired or
/// cancelled events go stale the moment their slot is released, so a
/// stale cancel can never kill a newer event that recycled the slot.
using EventId = std::uint64_t;

/// Sentinel returned by schedulers for "no event".
inline constexpr EventId kInvalidEvent = 0;

/// The discrete-event core: a time-ordered queue of callbacks.
///
/// Ordering is total and deterministic: events fire by (time, insertion
/// sequence).  Two events scheduled for the same tick therefore run in
/// the order they were scheduled, independent of queue internals.
/// Rescheduling (Timer re-arm) assigns a fresh sequence number, so a
/// re-armed event orders exactly like a newly scheduled one — bit-for-bit
/// the behaviour of the old cancel + schedule idiom.
///
/// Two structures back the queue, both allocation-free in steady state:
///
/// 1. A slot pool of event records (chunked, recycled via a free list).
///    Each record stores the callback as an `EventFn`, whose capture
///    always lives inline in the slot, so schedule/cancel allocate
///    nothing.
///
/// 2. A 4-ary min-heap of 16-byte (time, key) entries.  Sifts move a
///    hole instead of swapping, and a node's four children share one or
///    two cache lines, so the tree is half as deep as a binary heap's at
///    the same line traffic.
///
/// Cancel and re-arm touch the heap as little as they can.  A slot
/// records its live (time, key) and, apart from it, the one queued entry
/// that stands for it, which never orders after the live key:
///
/// - A re-arm to the queued entry's time or later only rewrites the
///   slot's live key.  When that entry reaches the top, it is forwarded
///   to the live key with one replace-top sift.  A re-arm to an earlier
///   time pushes a new entry; the old one goes stale.
/// - park() disarms an event but keeps its slot and id, so a later
///   reschedule() re-arms it in place.  The slot is released once its
///   entry comes due at the top, or a compaction sweeps it; the id then
///   goes stale and a re-arm schedules anew.  Timer::cancel() parks.
/// - cancel() releases the slot at once; its entry goes stale.
/// - Stale and parked entries are dropped at the top, or by a
///   compaction once they outnumber pending events (amortised O(1) per
///   cancel, park or re-arm).
///
/// Batched fan-out: a caller that knows a run of future events up front
/// (the channel's reception waves) reserves their sequence numbers in
/// one block, parks one event at the first item's reserved (t, seq),
/// and from inside it steps the rest with step_inline() while each is
/// the queue's next event anyway, re-parking itself with
/// schedule_reserved() when it is not.  Fire order, now() and the
/// executed counts are exactly those of one event per item.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time.  Monotonically non-decreasing during run().
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must be >= now()).  Inline:
  /// the closure is built straight into its pool slot.  `cat` attributes
  /// the execution to a subsystem (kept across reschedule()).
  EventId schedule_at(Time t, EventFn fn,
                      EventCategory cat = EventCategory::kOther) {
    require(t >= now_, "Scheduler: cannot schedule into the past");
    return insert(t, reserve_seqs(1), std::move(fn), cat);
  }

  /// Schedules `fn` after `delay` (must be >= 0).
  EventId schedule_in(Time delay, EventFn fn,
                      EventCategory cat = EventCategory::kOther) {
    return schedule_at(now_ + delay, std::move(fn), cat);
  }

  /// Reserves `n` consecutive insertion sequence numbers and returns the
  /// first.  Each orders like a schedule_at() made now, and each may be
  /// used once, by schedule_reserved() or step_inline().
  std::uint64_t reserve_seqs(std::uint64_t n) {
    require(n <= kSeqLimit - next_seq_, "Scheduler: sequence space exhausted");
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Schedules `fn` at (t, seq), `seq` from reserve_seqs().  (t, seq)
  /// must order after every event already executed.
  EventId schedule_reserved(Time t, std::uint64_t seq, EventFn fn,
                            EventCategory cat) {
    require(seq < next_seq_, "Scheduler: sequence number not reserved");
    require(t >= now_ && last_pop_.before(Entry{t, seq << kSlotBits}),
            "Scheduler: cannot schedule into the past");
    return insert(t, seq, std::move(fn), cat);
  }

  /// Executes the reserved item (t, seq) in place, from inside the
  /// running event, iff it is the next event run()/run_until() would
  /// execute: it orders before every queued event, stop() was not
  /// called, and t is not past run_until()'s end.  Then now() moves to
  /// t, one event of `cat` counts as executed, and it returns true: the
  /// caller runs the item.  Otherwise nothing changes.  Always false
  /// outside run()/run_until(), so run_steps(n) executes exactly n.
  bool step_inline(Time t, std::uint64_t seq, EventCategory cat) {
    const Entry e{t, seq << kSlotBits};
    if (stopped_ || t > inline_end_) return false;
    // The top entry orders at or before every pending event, so an item
    // ahead of it is next without settling the top.
    if (!heap_.empty() && heap_.front().before(e)) {
      if (peek_live(t) && heap_.front().before(e)) return false;
    }
    require(last_pop_.before(e), "Scheduler: event stepped out of order");
    last_pop_ = e;
    now_ = t;
    count_executed(cat);
    return true;
  }

  /// Arms a pending or parked event at absolute time `t` (>= now()),
  /// keeping its callback and id but ordering it like a fresh schedule
  /// (it draws a new sequence number).  Returns false if `id` already
  /// fired, was cancelled, was released while parked, or is invalid —
  /// the caller then schedules anew.  This is the Timer re-arm fast
  /// path: no closure is constructed and no slot churns, and a re-arm
  /// to the queued entry's time or later touches no heap entry.
  bool reschedule(EventId id, Time t);

  /// Disarms a pending event but keeps its slot and id for a later
  /// reschedule().  Returns false if `id` is not pending.  The scheduler
  /// releases the slot on its own once the event's queued entry comes
  /// due at the top or a compaction sweeps it; cancel() releases it
  /// earlier.
  bool park(EventId id);

  /// Cancels a pending event, or releases a parked one, and frees its
  /// slot.  Returns true only if an event was pending: false if it
  /// already fired, was cancelled or parked, or `id` is invalid.
  bool cancel(EventId id);

  /// Returns true iff `id` is pending (scheduled and not yet fired).
  [[nodiscard]] bool is_pending(EventId id) const {
    const std::uint32_t s = lookup_index(id);
    return s != kNullIndex && slot_at(s).live.key != kDeadKey;
  }

  /// Runs events until the queue drains or stop() is called.
  void run();

  /// Runs events with timestamp <= `end`; afterwards now() == end (if the
  /// queue drained earlier, time still advances to `end`).
  void run_until(Time end);

  /// Executes at most `n` events; returns the number actually executed.
  std::size_t run_steps(std::size_t n);

  /// Requests run()/run_until() to return after the current event.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::size_t pending_count() const { return live_count_; }
  [[nodiscard]] std::uint64_t executed_count() const { return executed_; }

  /// Executed events attributed to `cat` (see EventCategory).
  [[nodiscard]] std::uint64_t executed_count(EventCategory cat) const {
    return executed_by_[static_cast<std::size_t>(cat)];
  }

  /// Order-sensitive 64-bit digest of every executed event's (time,
  /// category), folded in execution order.  Two runs with equal counts
  /// that execute their events in a different order differ here.
  [[nodiscard]] std::uint64_t order_hash() const { return order_hash_; }

  /// Timestamp of the earliest pending event, or Time::max() when empty.
  /// Not const: it drops stale entries off the top and releases the
  /// slots of parked events that surface there.
  Time next_event_time();

  /// Entries stored in the queue: one per pending event, plus stale and
  /// parked ones.  Bounded by 2 * pending_count() + kCompactFloor; tests
  /// pin that bound.
  [[nodiscard]] std::size_t queued_entries() const { return heap_.size(); }

  /// Throws SimError unless the queue's structural invariants hold: the
  /// heap is ordered, every pending slot has exactly one queued entry at
  /// or before its live key, every parked slot has exactly one, free
  /// slots have none, and queued_entries() is within its bound.
  /// O(queue + slots); for tests.
  void check_invariants() const;

 private:
  static constexpr std::uint32_t kNullIndex = 0xffffffffu;
  /// Low 24 bits of a queue key name the slot; the high 40 bits are the
  /// insertion sequence.  Caps: 16.7M concurrently pending events, 1e12
  /// events per scheduler lifetime — both enforced.
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqLimit = 1ull << 40;
  /// A key no real key uses: an unset live or queued key in a slot.
  static constexpr std::uint64_t kDeadKey = ~0ull;

  /// Keyed (t, seq): ordering compares are two integer compares.  seq is
  /// globally unique, so `key` never ties and doubles as the (seq, slot)
  /// pack.
  struct Entry {
    Time t;
    std::uint64_t key;  ///< (seq << kSlotBits) | slot

    [[nodiscard]] bool before(const Entry& other) const {
      if (t != other.t) return t < other.t;
      return key < other.key;
    }
  };

  /// A slot is free (both keys dead), pending (both set, `queued` never
  /// after `live`) or parked (`live` dead, `queued` set).
  struct Slot {
    EventFn fn;
    /// When the event fires; key kDeadKey when free or parked.
    Entry live{Time::zero(), kDeadKey};
    /// The one heap entry that stands for this slot; key kDeadKey when
    /// free.  Heap entries with any other key are stale.
    Entry queued{Time::zero(), kDeadKey};
    std::uint32_t gen = 1;   ///< bumped on release; validates EventIds
    std::uint32_t next_free = kNullIndex;
    EventCategory cat = EventCategory::kOther;
  };
  static_assert(sizeof(Slot) <= 112,
                "Scheduler::Slot grew: it is one per pending or parked event");

  [[nodiscard]] static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) |
           (static_cast<EventId>(slot) + 1);
  }

  /// Resolves an id to its slot index (pending or parked), or kNullIndex
  /// when stale.
  [[nodiscard]] std::uint32_t lookup_index(EventId id) const {
    const auto biased = static_cast<std::uint32_t>(id & 0xffffffffu);
    if (biased == 0 || biased > slot_count_) return kNullIndex;
    const std::uint32_t s = biased - 1;
    if (slot_at(s).gen != static_cast<std::uint32_t>(id >> 32)) return kNullIndex;
    return s;
  }

  /// Slots live in fixed chunks so the pool grows without relocating
  /// existing slots (an EventFn move per slot per growth step is pure
  /// waste) and without invalidating Slot references across reentrant
  /// schedule calls from inside callbacks.  256 slots (28 KB) a chunk:
  /// a fresh scheduler pays for one chunk on its first schedule, so the
  /// chunk stays small.
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  [[nodiscard]] Slot& slot_at(std::uint32_t s) {
    return chunks_[s >> kChunkBits][s & (kChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot_at(std::uint32_t s) const {
    return chunks_[s >> kChunkBits][s & (kChunkSize - 1)];
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t s);

  /// Queues `fn` at (t, seq): the insertion sequence in the key's high
  /// bits (the tie-break), its slot index packed low.
  EventId insert(Time t, std::uint64_t seq, EventFn fn, EventCategory cat) {
    require(static_cast<bool>(fn), "Scheduler: empty callback");
    const std::uint32_t s = acquire_slot();
    Slot& slot = slot_at(s);
    slot.fn = std::move(fn);
    slot.cat = cat;
    slot.live = Entry{t, (seq << kSlotBits) | s};
    slot.queued = slot.live;
    push(slot.live);
    ++live_count_;
    return make_id(s, slot.gen);
  }

  [[nodiscard]] static std::uint32_t slot_of(const Entry& e) {
    return static_cast<std::uint32_t>(e.key & kSlotMask);
  }

  // --- 4-ary heap: children of i are 4i+1 .. 4i+4 ----------------------
  /// Inserts `e`, moving the hole up from the new leaf.
  void push(Entry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    Entry* h = heap_.data();
    while (i > 0) {
      const std::size_t p = (i - 1) / 4;
      if (!e.before(h[p])) break;
      h[i] = h[p];
      i = p;
    }
    h[i] = e;
  }
  /// Places `e` at or below hole `i`, moving the hole down.
  void sift_down(std::size_t i, Entry e);
  /// Removes the top entry.
  void pop_top();
  /// Settles the top: drops stale entries, releases parked slots and
  /// forwards re-armed entries until the top entry is a pending event's
  /// live key, or its time is past `until`.  Returns true iff a pending
  /// event due at or before `until` is at the top.  Entries past
  /// `until` stay put: a parked timer may still re-arm in place before
  /// the clock reaches them.
  bool peek_live(Time until = Time::max());
  /// Detaches the live top event and hands back its callback; updates
  /// now_.  Pre-condition: peek_live() returned true.
  EventFn take_top();

  /// Counts one executed event of `cat` at now() and folds it into
  /// order_hash_.
  void count_executed(EventCategory cat) {
    static_assert(kEventCategoryCount <= 8, "a category must fit 3 bits");
    ++executed_by_[static_cast<std::size_t>(cat)];
    ++executed_;
    const auto word = (static_cast<std::uint64_t>(now_.nanoseconds()) << 3) |
                      static_cast<std::uint64_t>(cat);
    order_hash_ = ((order_hash_ << 5 | order_hash_ >> 59) ^ word) *
                  0x9e3779b97f4a7c15ull;
  }

  /// Heaps holding fewer stale or parked entries than this are never
  /// compacted.
  static constexpr std::size_t kCompactFloor = 32;
  void maybe_compact() {
    const std::size_t dead = heap_.size() - live_count_;
    if (dead > live_count_ && dead >= kCompactFloor) compact();
  }
  /// Sweeps every stale and parked entry out of the heap (releasing the
  /// parked slots), forwards every pending one to its live key and
  /// re-heapifies: O(size), paid for by the more-than-size/2 cancels,
  /// parks and re-arms that made them.
  void compact();

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t order_hash_ = 0;
  std::array<std::uint64_t, kEventCategoryCount> executed_by_{};
  std::size_t live_count_ = 0;
  bool stopped_ = false;
  /// step_inline() refuses items later than this: run_until()'s end,
  /// Time::max() in run(), before time zero outside both.
  Time inline_end_ = kNoInline;
  static constexpr Time kNoInline = Time::ns(-1);
  /// Sets inline_end_ for one run(), run_until() or run_steps() call
  /// and restores the enclosing value on exit, exceptions included.
  class InlineWindow;
  /// The last entry popped or stepped inline; every later one must
  /// order strictly after it.
  Entry last_pop_{Time::zero(), 0};

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNullIndex;

  /// One entry per pending event plus the stale and parked ones:
  /// heap_.size() - live_count_ entries are dead.
  std::vector<Entry> heap_;
};

}  // namespace mts::sim
