#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#include "net/node_id.hpp"
#include "sim/error.hpp"

namespace mts::routing {

/// Remembers which flood packets (RREQs) this node has already seen, so
/// duplicates are dropped instead of re-broadcast.  Bounded FIFO: old
/// entries age out by insertion order, which is safe because broadcast
/// ids are monotonically increasing per originator.
///
/// Storage is flat, in one allocation: a ring holding each key once, in
/// insertion order (it picks the eviction victim), followed by an
/// open-addressed index of 16-bit ring positions (linear probing,
/// backward-shift deletion, at most half full).  A ring slot costs 8 B
/// of key plus two 2 B index slots, 12 B in all.  Both start small and
/// double on demand up to `capacity`, so a node that hears a few dozen
/// floods holds a few dozen slots, not `capacity` (a 10k-node MTS field
/// holds 20k caches).  Positions are 16-bit, so capacity is capped at
/// 65,535 and position 0xFFFF marks an empty index slot.
class FloodCache {
 public:
  explicit FloodCache(std::size_t capacity = 4096)
      : capacity_(static_cast<std::uint16_t>(capacity)) {
    sim::require(capacity > 0 && capacity <= kMaxCapacity,
                 "FloodCache: capacity out of range");
  }

  /// Returns true if (orig, id) was new — and records it.
  bool check_and_insert(net::NodeId orig, std::uint32_t id) {
    const std::uint64_t key = key_of(orig, id);
    std::uint32_t i = 0;
    if (buckets_ != 0) {
      i = probe(key);
      if (index()[i] != kEmpty) return false;
    }
    if (count_ == ring_cap_) {
      make_room();
      i = probe(key);  // growth or eviction reshaped the index
    }
    std::uint32_t tail = std::uint32_t{head_} + count_;
    if (tail >= ring_cap_) tail -= ring_cap_;
    ring()[tail] = key;
    index()[i] = static_cast<std::uint16_t>(tail);
    ++count_;
    return true;
  }

  [[nodiscard]] bool contains(net::NodeId orig, std::uint32_t id) const {
    return buckets_ != 0 && index()[probe(key_of(orig, id))] != kEmpty;
  }

  [[nodiscard]] std::size_t size() const { return count_; }

  /// Index slots allocated so far: twice the ring, which grows with the
  /// entries held, not with `capacity`.
  [[nodiscard]] std::size_t bucket_count() const { return buckets_; }

  /// Bytes of the one allocation: the ring's keys plus the index.
  [[nodiscard]] std::size_t storage_bytes() const {
    return std::size_t{ring_cap_} * sizeof(std::uint64_t) +
           std::size_t{buckets_} * sizeof(std::uint16_t);
  }

  /// Slot where `key`'s probe starts in an index of `buckets` slots (a
  /// power of two, at least 2); Fibonacci hashing mixes both halves of
  /// the key into the top bits.
  [[nodiscard]] static std::uint32_t home(std::uint64_t key,
                                          std::uint32_t buckets) {
    return static_cast<std::uint32_t>((key * 0x9E3779B97F4A7C15ull) >>
                                      (64 - std::countr_zero(buckets)));
  }

 private:
  static constexpr std::size_t kMaxCapacity = 0xFFFF;
  static constexpr std::uint16_t kEmpty = 0xFFFF;
  static constexpr std::uint32_t kFirstRing = 8;

  static std::uint64_t key_of(net::NodeId orig, std::uint32_t id) {
    return (static_cast<std::uint64_t>(orig) << 32) | std::uint64_t{id};
  }

  // The block holds `ring_cap_` keys, then `buckets_` positions; both
  // arrays were created in it by `grow`.
  std::uint64_t* ring() const {
    return std::launder(reinterpret_cast<std::uint64_t*>(block_.get()));
  }
  std::uint16_t* index() const {
    return std::launder(reinterpret_cast<std::uint16_t*>(
        block_.get() + std::size_t{ring_cap_} * sizeof(std::uint64_t)));
  }
  std::uint32_t next(std::uint32_t i) const { return (i + 1) & (buckets_ - 1); }

  /// Index slot pointing at `key`, or the empty slot ending its probe run.
  std::uint32_t probe(std::uint64_t key) const {
    const std::uint64_t* r = ring();
    const std::uint16_t* t = index();
    std::uint32_t i = home(key, buckets_);
    while (t[i] != kEmpty && r[t[i]] != key) i = next(i);
    return i;
  }

  /// Makes room for one more key in a full ring: grows the ring (and
  /// index) below capacity, else evicts the oldest key.
  void make_room() {
    if (ring_cap_ < capacity_) {
      grow();
      return;
    }
    erase(probe(ring()[head_]));
    head_ = head_ + 1 == ring_cap_ ? 0 : head_ + 1;
    --count_;
  }

  /// Doubles the ring (up to capacity) and re-indexes every key, oldest
  /// first at position 0, in an index twice the ring's size.
  void grow() {
    const std::unique_ptr<std::byte[]> old = std::move(block_);
    const auto* old_ring = std::launder(
        reinterpret_cast<const std::uint64_t*>(old.get()));
    const std::uint32_t old_cap = ring_cap_;
    ring_cap_ = static_cast<std::uint16_t>(std::min<std::uint32_t>(
        old_cap == 0 ? kFirstRing : old_cap * 2, capacity_));
    buckets_ = std::bit_ceil(std::uint32_t{ring_cap_} * 2);
    block_.reset(new std::byte[storage_bytes()]);
    // Start the lifetimes of both arrays in the fresh bytes: the keys
    // are filled below, every index slot starts empty.
    std::uint64_t* r = new (block_.get()) std::uint64_t[ring_cap_];
    std::uint16_t* t = index();
    std::uninitialized_fill_n(t, buckets_, kEmpty);
    for (std::uint32_t k = 0; k < count_; ++k) {
      std::uint32_t at = std::uint32_t{head_} + k;
      if (at >= old_cap) at -= old_cap;
      r[k] = old_ring[at];
      t[probe(r[k])] = static_cast<std::uint16_t>(k);
    }
    head_ = 0;
  }

  /// Empties index slot `gap` and shifts its probe run back so no later
  /// key is cut off from its home slot.
  void erase(std::uint32_t gap) {
    const std::uint64_t* r = ring();
    std::uint16_t* t = index();
    const std::uint32_t mask = buckets_ - 1;
    for (std::uint32_t j = next(gap); t[j] != kEmpty; j = next(j)) {
      // The key at j may fill the gap iff the gap lies on its probe
      // path: its home is at least as far behind j as the gap is.
      if (((j - home(r[t[j]], buckets_)) & mask) >= ((j - gap) & mask)) {
        t[gap] = t[j];
        gap = j;
      }
    }
    t[gap] = kEmpty;
  }

  std::unique_ptr<std::byte[]> block_;  ///< ring keys, then the index
  std::uint32_t buckets_ = 0;
  std::uint16_t capacity_;
  std::uint16_t ring_cap_ = 0;
  std::uint16_t head_ = 0;   ///< oldest key's ring position
  std::uint16_t count_ = 0;  ///< keys held
};

static_assert(sizeof(FloodCache) <= 32,
              "routing::FloodCache grew: DSR and AODV hold one per node, "
              "MTS two");

}  // namespace mts::routing
