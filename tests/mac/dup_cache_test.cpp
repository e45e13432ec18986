#include "mac/dup_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/rng.hpp"

namespace mts::mac {
namespace {

TEST(RxDupCacheTest, RetryOfTheLastSeqIsADuplicate) {
  RxDupCache c;
  EXPECT_FALSE(c.is_duplicate_and_update(3, 100, false));
  EXPECT_TRUE(c.is_duplicate_and_update(3, 100, true));
  // A *new* frame (retry bit clear) with the same seq is not a dup —
  // same rule the unordered_map implemented.
  EXPECT_FALSE(c.is_duplicate_and_update(3, 100, false));
  // Per-transmitter state: another node's identical seq is unrelated.
  EXPECT_FALSE(c.is_duplicate_and_update(4, 100, true));
}

TEST(RxDupCacheTest, SeqWraparound) {
  RxDupCache c;
  EXPECT_FALSE(c.is_duplicate_and_update(7, 65535, false));
  EXPECT_TRUE(c.is_duplicate_and_update(7, 65535, true));
  // The counter wraps to 0: a fresh frame, then its retransmission.
  EXPECT_FALSE(c.is_duplicate_and_update(7, 0, false));
  EXPECT_TRUE(c.is_duplicate_and_update(7, 0, true));
  // A retry of a frame whose first copy we never decoded is accepted.
  EXPECT_FALSE(c.is_duplicate_and_update(7, 1, true));
}

TEST(RxDupCacheTest, StaleEntryIsEvictedWhenTheProbeWindowFills) {
  RxDupCache c;
  // Gather kProbe + 1 transmitter ids that hash to the same home slot,
  // so the probe window must recycle its least-recently-touched entry.
  std::vector<net::NodeId> ids;
  const std::uint32_t mask = RxDupCache::kSlots - 1;
  const std::uint32_t target = (1u * 2654435761u) & mask;
  for (net::NodeId n = 1; ids.size() < RxDupCache::kProbe + 1; ++n) {
    if (((n * 2654435761u) & mask) == target) ids.push_back(n);
  }
  for (net::NodeId n : ids) {
    EXPECT_FALSE(c.is_duplicate_and_update(n, 5, false));
  }
  // The earliest (stalest) entry lost its slot; the rest survived.
  EXPECT_FALSE(c.contains(ids.front()));
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_TRUE(c.contains(ids[i])) << "i=" << i;
  }
  // Eviction fails open: the evicted transmitter's retransmission is
  // accepted (a boundless map would have dropped it) — never the
  // reverse, so no frame is ever wrongly discarded.
  EXPECT_FALSE(c.is_duplicate_and_update(ids.front(), 5, true));
}

TEST(RxDupCacheTest, DropDecisionsMatchTheUnorderedMapOnARandomTrace) {
  // The reference implementation this table replaced, bit for bit: a
  // randomized frame trace over 16 transmitters (hash-spread so the
  // table never evicts) must produce identical drop decisions.
  RxDupCache c;
  std::unordered_map<net::NodeId, std::uint16_t> ref;
  sim::Rng rng(1234);
  for (int i = 0; i < 20000; ++i) {
    const auto from = static_cast<net::NodeId>(rng.uniform_int(0, 15));
    // A tiny seq space makes stale-seq collisions frequent, exercising
    // the retry && seq-match conjunction rather than just inequality.
    const auto seq = static_cast<std::uint16_t>(rng.uniform_int(0, 7));
    const bool retry = rng.bernoulli(0.3);
    bool ref_dup = false;
    auto [it, inserted] = ref.try_emplace(from, seq);
    if (!inserted) {
      ref_dup = retry && it->second == seq;
      it->second = seq;
    }
    EXPECT_EQ(c.is_duplicate_and_update(from, seq, retry), ref_dup)
        << "i=" << i << " from=" << from << " seq=" << seq;
  }
}

TEST(RxDupCacheTest, ClearForgetsEverything) {
  RxDupCache c;
  EXPECT_FALSE(c.is_duplicate_and_update(9, 1, false));
  EXPECT_TRUE(c.contains(9));
  c.clear();
  EXPECT_FALSE(c.contains(9));
  EXPECT_FALSE(c.is_duplicate_and_update(9, 1, true));
}

TEST(RxDupCacheTest, AFreshCacheOwnsNoTableAndContainsAllocatesNone) {
  RxDupCache c;
  EXPECT_FALSE(c.has_table());
  EXPECT_FALSE(c.contains(9));
  EXPECT_FALSE(c.has_table());
  c.clear();
  EXPECT_FALSE(c.has_table());
}

TEST(RxDupCacheTest, TheFirstUpdateAllocatesTheTableAndClearReleasesIt) {
  RxDupCache c;
  EXPECT_FALSE(c.is_duplicate_and_update(9, 1, false));
  EXPECT_TRUE(c.has_table());
  c.clear();
  EXPECT_FALSE(c.has_table());
  EXPECT_FALSE(c.contains(9));
  // The next update allocates a fresh table and the rule runs again.
  EXPECT_FALSE(c.is_duplicate_and_update(9, 1, true));
  EXPECT_TRUE(c.has_table());
  EXPECT_TRUE(c.is_duplicate_and_update(9, 1, true));
}

}  // namespace
}  // namespace mts::mac
