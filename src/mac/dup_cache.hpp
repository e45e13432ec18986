#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "net/node_id.hpp"

namespace mts::mac {

/// Receive-side duplicate filter: last accepted MAC sequence number per
/// transmitter, in a fixed open-addressed table.
///
/// The 802.11 rule it implements is unchanged from the unordered_map it
/// replaces: a DATA frame is a duplicate iff its retry bit is set and
/// its seq equals the last seq seen from the same transmitter; the
/// cached seq is always updated.  What changed is the storage — a flat
/// 64-slot array probed linearly, no rehashing, cache-resident for the
/// handful of live neighbours a node actually hears.
///
/// The table lives behind one pointer and is allocated by the first
/// `is_duplicate_and_update` — in a MAC, its first unicast DATA
/// reception.  Most nodes of a large field never receive one, so they
/// never pay the table's 772 B; a node that does allocates it once and
/// the per-frame path stays heap-free after that.
///
/// Eviction: when a probe window is full of other transmitters the
/// least-recently-touched slot in the window is recycled.  Losing an
/// entry can only *accept* a retransmission that a boundless map would
/// have dropped (never the reverse), and only once more than
/// `kSlots` distinct transmitters hash-collide — beyond any plausible
/// neighbourhood in the modelled scenarios.
class RxDupCache {
 public:
  /// Records `seq` as the most recent from `from` and reports whether
  /// the frame is a duplicate under the rule above.
  /// `from` is a transmitter's id, never `kNoNode` (the empty mark).
  bool is_duplicate_and_update(net::NodeId from, std::uint16_t seq,
                               bool retry) {
    if (!table_) table_ = std::make_unique<Table>();
    Table& t = *table_;
    ++t.tick;
    const std::uint32_t h = home(from);
    std::uint32_t victim = h;
    std::uint32_t victim_age = 0;
    for (std::uint32_t i = 0; i < kProbe; ++i) {
      Slot& s = t.slots[(h + i) & (kSlots - 1)];
      if (s.node == net::kNoNode) {
        s = Slot{from, seq, t.tick};
        return false;
      }
      if (s.node == from) {
        const bool dup = retry && s.seq == seq;
        s.seq = seq;
        s.stamp = t.tick;
        return dup;
      }
      const std::uint32_t age = t.tick - s.stamp;
      if (age >= victim_age) {
        victim_age = age;
        victim = (h + i) & (kSlots - 1);
      }
    }
    t.slots[victim] = Slot{from, seq, t.tick};  // recycle the stalest
    return false;
  }

  /// Forgets every transmitter and releases the table.
  void clear() { table_.reset(); }

  /// True while `from` still owns a slot (introspection for tests;
  /// `from` != kNoNode).  Allocates nothing.
  [[nodiscard]] bool contains(net::NodeId from) const {
    if (!table_) return false;
    const std::uint32_t h = home(from);
    for (std::uint32_t i = 0; i < kProbe; ++i) {
      if (table_->slots[(h + i) & (kSlots - 1)].node == from) return true;
    }
    return false;
  }

  /// True once the table has been allocated (introspection for tests).
  [[nodiscard]] bool has_table() const { return table_ != nullptr; }

  static constexpr std::uint32_t kSlots = 64;  ///< power of two
  static constexpr std::uint32_t kProbe = 8;   ///< linear probe window

  /// One transmitter's entry; `node == kNoNode` marks an empty slot.
  struct Slot {
    net::NodeId node = net::kNoNode;
    std::uint16_t seq = 0;
    std::uint32_t stamp = 0;
  };
  static_assert(sizeof(Slot) == 12,
                "RxDupCache::Slot must stay 12 B: a MAC's table holds 64");

 private:
  struct Table {
    std::array<Slot, kSlots> slots{};
    std::uint32_t tick = 0;
  };

  static std::uint32_t home(net::NodeId from) {
    return (static_cast<std::uint32_t>(from) * 2654435761u) & (kSlots - 1);
  }

  std::unique_ptr<Table> table_;
};

static_assert(sizeof(RxDupCache) <= 16,
              "RxDupCache must stay one pointer: every node's MAC holds one, "
              "and most never allocate the table behind it");

}  // namespace mts::mac
