#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>

#include "net/node_id.hpp"
#include "sim/error.hpp"

namespace mts::routing {

/// Remembers which flood packets (RREQs) this node has already seen, so
/// duplicates are dropped instead of re-broadcast.  Bounded FIFO: old
/// entries age out by insertion order, which is safe because broadcast
/// ids are monotonically increasing per originator.
///
/// Storage is flat, in one allocation: an open-addressed table of keys
/// (linear probing, backward-shift deletion, at most half full) and a
/// ring holding the same keys in insertion order, which picks the
/// eviction victim.  Both start small and double on demand up to
/// `capacity`, so a node that hears a few dozen floods holds a few
/// dozen slots, not `capacity` (a 10k-node MTS field holds 20k caches).
/// Key 0 — originator 0's flood 0 — doubles as the table's empty
/// marker, so its presence is a flag instead of a slot.
class FloodCache {
 public:
  explicit FloodCache(std::size_t capacity = 4096) : capacity_(capacity) {
    sim::require(capacity > 0 && capacity <= kMaxCapacity,
                 "FloodCache: capacity out of range");
  }

  /// Returns true if (orig, id) was new — and records it.
  bool check_and_insert(net::NodeId orig, std::uint32_t id) {
    const std::uint64_t key = key_of(orig, id);
    if (key == 0) {
      if (has_zero_) return false;
      make_room();
      has_zero_ = true;
      push_order(0);
      return true;
    }
    std::uint32_t i = 0;
    if (buckets_ != 0) {
      i = probe(key);
      if (table()[i] == key) return false;
    }
    if (count_ == ring_cap_) {
      make_room();
      i = probe(key);  // growth or eviction reshaped the table
    }
    table()[i] = key;
    push_order(key);
    return true;
  }

  [[nodiscard]] bool contains(net::NodeId orig, std::uint32_t id) const {
    const std::uint64_t key = key_of(orig, id);
    if (key == 0) return has_zero_;
    return buckets_ != 0 && table()[probe(key)] == key;
  }

  [[nodiscard]] std::size_t size() const { return count_; }

  /// Table slots allocated so far: twice the ring, which grows with the
  /// entries held, not with `capacity`.
  [[nodiscard]] std::size_t bucket_count() const { return buckets_; }

  /// Slot where `key`'s probe starts in a table of `buckets` slots (a
  /// power of two, at least 2); Fibonacci hashing mixes both halves of
  /// the key into the top bits.
  [[nodiscard]] static std::uint32_t home(std::uint64_t key,
                                          std::uint32_t buckets) {
    return static_cast<std::uint32_t>((key * 0x9E3779B97F4A7C15ull) >>
                                      (64 - std::countr_zero(buckets)));
  }

 private:
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 30;
  static constexpr std::uint32_t kFirstRing = 8;

  static std::uint64_t key_of(net::NodeId orig, std::uint32_t id) {
    return (static_cast<std::uint64_t>(orig) << 32) | std::uint64_t{id};
  }

  std::uint64_t* table() const { return slots_.get(); }
  std::uint64_t* ring() const { return slots_.get() + buckets_; }
  std::uint32_t next(std::uint32_t i) const { return (i + 1) & (buckets_ - 1); }

  /// Slot holding nonzero `key`, or the empty slot ending its probe run.
  std::uint32_t probe(std::uint64_t key) const {
    std::uint32_t i = home(key, buckets_);
    while (table()[i] != 0 && table()[i] != key) i = next(i);
    return i;
  }

  /// Ensures one more key fits: grows the ring (and table) below
  /// capacity, else evicts the oldest key.
  void make_room() {
    if (count_ < ring_cap_) return;
    if (ring_cap_ < capacity_) {
      grow();
      return;
    }
    const std::uint64_t oldest = ring()[head_];
    head_ = head_ + 1 == ring_cap_ ? 0 : head_ + 1;
    --count_;
    if (oldest == 0) {
      has_zero_ = false;
    } else {
      erase(oldest);
    }
  }

  void push_order(std::uint64_t key) {
    std::uint32_t tail = head_ + count_;
    if (tail >= ring_cap_) tail -= ring_cap_;
    ring()[tail] = key;
    ++count_;
  }

  /// Doubles the ring (up to capacity) and re-inserts every key, oldest
  /// first, into a table twice the ring's size.
  void grow() {
    const std::unique_ptr<std::uint64_t[]> old = std::move(slots_);
    const std::uint32_t old_ring = buckets_;  // the ring follows the table
    const std::uint32_t old_cap = ring_cap_;
    ring_cap_ = static_cast<std::uint32_t>(std::min<std::size_t>(
        old_cap == 0 ? kFirstRing : std::size_t{old_cap} * 2, capacity_));
    buckets_ = std::bit_ceil(ring_cap_ * 2);
    slots_.reset(new std::uint64_t[buckets_ + ring_cap_]());
    for (std::uint32_t k = 0; k < count_; ++k) {
      std::uint32_t at = head_ + k;
      if (at >= old_cap) at -= old_cap;
      const std::uint64_t key = old[old_ring + at];
      ring()[k] = key;
      if (key != 0) table()[probe(key)] = key;
    }
    head_ = 0;
  }

  /// Removes `key` (present, nonzero) and shifts its probe run back so
  /// no later key is cut off from its home slot.
  void erase(std::uint64_t key) {
    std::uint64_t* t = table();
    const std::uint32_t mask = buckets_ - 1;
    std::uint32_t gap = probe(key);
    for (std::uint32_t j = next(gap); t[j] != 0; j = next(j)) {
      // The key at j may fill the gap iff the gap lies on its probe
      // path: its home is at least as far behind j as the gap is.
      if (((j - home(t[j], buckets_)) & mask) >= ((j - gap) & mask)) {
        t[gap] = t[j];
        gap = j;
      }
    }
    t[gap] = 0;
  }

  std::size_t capacity_;
  std::unique_ptr<std::uint64_t[]> slots_;  ///< table, then ring
  std::uint32_t buckets_ = 0;
  std::uint32_t ring_cap_ = 0;
  std::uint32_t head_ = 0;   ///< oldest key's ring index
  std::uint32_t count_ = 0;  ///< keys held, key 0 included
  bool has_zero_ = false;
};

}  // namespace mts::routing
