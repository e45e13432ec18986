#pragma once

#include <array>
#include <cstdint>

#include "net/node_id.hpp"

namespace mts::mac {

/// Receive-side duplicate filter: last accepted MAC sequence number per
/// transmitter, in a fixed open-addressed table.
///
/// The 802.11 rule it implements is unchanged from the unordered_map it
/// replaces: a DATA frame is a duplicate iff its retry bit is set and
/// its seq equals the last seq seen from the same transmitter; the
/// cached seq is always updated.  What changed is the storage — a flat
/// 64-slot array probed linearly, no heap, no rehashing, cache-resident
/// for the handful of live neighbours a node actually hears.
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
    ++tick_;
    const std::uint32_t h =
        (static_cast<std::uint32_t>(from) * 2654435761u) & (kSlots - 1);
    std::uint32_t victim = h;
    std::uint32_t victim_age = 0;
    for (std::uint32_t i = 0; i < kProbe; ++i) {
      Slot& s = slots_[(h + i) & (kSlots - 1)];
      if (s.node == net::kNoNode) {
        s = Slot{from, seq, tick_};
        return false;
      }
      if (s.node == from) {
        const bool dup = retry && s.seq == seq;
        s.seq = seq;
        s.stamp = tick_;
        return dup;
      }
      const std::uint32_t age = tick_ - s.stamp;
      if (age >= victim_age) {
        victim_age = age;
        victim = (h + i) & (kSlots - 1);
      }
    }
    slots_[victim] = Slot{from, seq, tick_};  // recycle the stalest
    return false;
  }

  void clear() {
    slots_.fill(Slot{});
    tick_ = 0;
  }

  /// True while `from` still owns a slot (introspection for tests;
  /// `from` != kNoNode).
  [[nodiscard]] bool contains(net::NodeId from) const {
    const std::uint32_t h =
        (static_cast<std::uint32_t>(from) * 2654435761u) & (kSlots - 1);
    for (std::uint32_t i = 0; i < kProbe; ++i) {
      const Slot& s = slots_[(h + i) & (kSlots - 1)];
      if (s.node == from) return true;
    }
    return false;
  }

  static constexpr std::uint32_t kSlots = 64;  ///< power of two
  static constexpr std::uint32_t kProbe = 8;   ///< linear probe window

  /// One transmitter's entry; `node == kNoNode` marks an empty slot.
  struct Slot {
    net::NodeId node = net::kNoNode;
    std::uint16_t seq = 0;
    std::uint32_t stamp = 0;
  };
  static_assert(sizeof(Slot) == 12,
                "RxDupCache::Slot must stay 12 B: 64 of them sit in every "
                "node's MAC");

 private:
  std::array<Slot, kSlots> slots_{};
  std::uint32_t tick_ = 0;
};

}  // namespace mts::mac
