#include "routing/flood_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/error.hpp"
#include "sim/rng.hpp"

namespace mts::routing {
namespace {

/// The node-based cache the flat one replaced, kept verbatim as the
/// differential reference: same answers, same FIFO eviction order.
class ReferenceFloodCache {
 public:
  explicit ReferenceFloodCache(std::size_t capacity) : capacity_(capacity) {}

  bool check_and_insert(net::NodeId orig, std::uint32_t id) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(orig) << 32) | std::uint64_t{id};
    if (seen_.contains(key)) return false;
    seen_.insert(key);
    order_.push_back(key);
    if (order_.size() > capacity_) {
      seen_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

  [[nodiscard]] bool contains(net::NodeId orig, std::uint32_t id) const {
    return seen_.contains((static_cast<std::uint64_t>(orig) << 32) |
                          std::uint64_t{id});
  }

  [[nodiscard]] std::size_t size() const { return seen_.size(); }

 private:
  std::size_t capacity_;
  std::unordered_set<std::uint64_t> seen_;
  std::deque<std::uint64_t> order_;
};

using Key = std::pair<net::NodeId, std::uint32_t>;

/// `n` keys whose probe starts at the table's last slot (`tail`) or its
/// first (`!tail`) at every table size up to 2^13 slots: the home slot
/// is the top bits of one product, so all-ones (all-zeros) top 13 bits
/// stay all-ones (all-zeros) at every smaller size.  Runs of them wrap
/// past the end and leave long clusters for backward shifts.
std::vector<Key> keys_homing_at(bool tail, std::size_t n, std::uint32_t orig) {
  std::vector<Key> out;
  for (std::uint32_t id = 1; out.size() < n; ++id) {
    const std::uint64_t key = (std::uint64_t{orig} << 32) | id;
    const std::uint32_t home = FloodCache::home(key, 1u << 13);
    if (home == (tail ? (1u << 13) - 1 : 0u)) out.emplace_back(orig, id);
  }
  return out;
}

TEST(FloodCacheTest, FirstInsertTrueThenFalse) {
  FloodCache c;
  EXPECT_TRUE(c.check_and_insert(1, 100));
  EXPECT_FALSE(c.check_and_insert(1, 100));
  EXPECT_TRUE(c.contains(1, 100));
}

TEST(FloodCacheTest, DistinguishesOriginators) {
  FloodCache c;
  EXPECT_TRUE(c.check_and_insert(1, 100));
  EXPECT_TRUE(c.check_and_insert(2, 100));  // same id, other origin
  EXPECT_TRUE(c.check_and_insert(1, 101));  // same origin, other id
}

TEST(FloodCacheTest, CapacityEvictsOldestFirst) {
  FloodCache c(3);
  c.check_and_insert(1, 1);
  c.check_and_insert(1, 2);
  c.check_and_insert(1, 3);
  c.check_and_insert(1, 4);  // evicts (1,1)
  EXPECT_FALSE(c.contains(1, 1));
  EXPECT_TRUE(c.contains(1, 2));
  EXPECT_TRUE(c.contains(1, 4));
  EXPECT_EQ(c.size(), 3u);
}

TEST(FloodCacheTest, LargeIdsNoCollision) {
  FloodCache c;
  EXPECT_TRUE(c.check_and_insert(0xFFFFFFFE, 0xFFFFFFFF));
  EXPECT_TRUE(c.check_and_insert(0xFFFFFFFF, 0xFFFFFFFE));
  EXPECT_FALSE(c.check_and_insert(0xFFFFFFFE, 0xFFFFFFFF));
}

TEST(FloodCacheTest, ProbeRunsWrapPastTheTableEnd) {
  // Capacity 3 keeps an 8-slot table: three keys homing at slot 7 fill
  // 7, 0 and 1; evicting the first shifts the other two back.
  FloodCache c(3);
  const std::vector<Key> tail = keys_homing_at(true, 4, 7);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(c.check_and_insert(tail[k].first, tail[k].second));
  }
  EXPECT_EQ(c.bucket_count(), 8u);
  EXPECT_TRUE(c.check_and_insert(tail[3].first, tail[3].second));
  EXPECT_FALSE(c.contains(tail[0].first, tail[0].second));
  for (std::size_t k = 1; k < 4; ++k) {
    EXPECT_TRUE(c.contains(tail[k].first, tail[k].second)) << k;
    EXPECT_FALSE(c.check_and_insert(tail[k].first, tail[k].second)) << k;
  }
  EXPECT_EQ(c.size(), 3u);
}

TEST(FloodCacheTest, StorageGrowsWithEntriesNotCapacity) {
  FloodCache c(4096);
  EXPECT_EQ(c.bucket_count(), 0u);  // nothing allocated until a flood
  for (std::uint32_t id = 1; id <= 20; ++id) c.check_and_insert(3, id);
  EXPECT_LE(c.bucket_count(), 64u);
  for (std::uint32_t id = 21; id <= 10'000; ++id) c.check_and_insert(3, id);
  EXPECT_EQ(c.size(), 4096u);
  EXPECT_EQ(c.bucket_count(), 8192u);  // at most half full
}

TEST(FloodCacheTest, StorageIsTwelveBytesPerRingSlot) {
  // Each key once in the ring, plus two 16-bit index slots per ring
  // slot; the ring doubles from 8 keys, so check every size it passes.
  FloodCache c;
  EXPECT_EQ(c.storage_bytes(), 0u);
  for (std::uint32_t id = 1; id <= 4096; ++id) {
    c.check_and_insert(5, id);
    if ((id & (id - 1)) == 0 && id >= 8) {
      EXPECT_LE(c.storage_bytes(), 12 * c.size()) << id << " keys";
    }
  }
  EXPECT_EQ(c.storage_bytes(), 12u * 4096);
}

TEST(FloodCacheTest, CapacityIsBoundedBySixteenBitPositions) {
  EXPECT_NO_THROW(FloodCache(65'535));
  EXPECT_THROW(FloodCache(65'536), sim::SimError);
  EXPECT_THROW(FloodCache(0), sim::SimError);
}

TEST(FloodCacheTest, LastRingPositionRoundTripsAtMaximumCapacity) {
  FloodCache c(65'535);
  for (std::uint32_t id = 0; id < 65'535; ++id) {
    ASSERT_TRUE(c.check_and_insert(9, id)) << id;
  }
  // Key 65,534 sits at ring position 65,534, the last one below the
  // empty marker.
  EXPECT_TRUE(c.contains(9, 65'534));
  EXPECT_FALSE(c.check_and_insert(9, 65'534));
  // The next key evicts key 0 and takes its position.
  EXPECT_TRUE(c.check_and_insert(9, 65'535));
  EXPECT_FALSE(c.contains(9, 0));
  EXPECT_TRUE(c.contains(9, 65'534));
  EXPECT_TRUE(c.contains(9, 65'535));
  EXPECT_EQ(c.size(), 65'535u);
  EXPECT_EQ(c.bucket_count(), 131'072u);
}

TEST(FloodCacheTest, MatchesReferenceUnderRandomOperations) {
  // 65,535 is the largest capacity: the ring's last position, 65,534,
  // is in use and wraps back to 0 while eviction runs.
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{3},
                                     std::size_t{4096},
                                     std::size_t{65'535}}) {
    // The key pool outnumbers the capacity so eviction runs all along,
    // and mixes wrap-around runs, first-slot runs, dense ids from a few
    // originators, and the extreme keys.
    std::vector<Key> pool = keys_homing_at(true, 48, 0xFFFFFFFF);
    const std::vector<Key> head = keys_homing_at(false, 48, 0);
    pool.insert(pool.end(), head.begin(), head.end());
    for (const Key& k : {Key{0, 0}, Key{0xFFFFFFFF, 0xFFFFFFFF},
                        Key{0, 0xFFFFFFFF}, Key{0xFFFFFFFF, 0}}) {
      pool.push_back(k);
    }
    const std::uint32_t per_orig =
        static_cast<std::uint32_t>(capacity) + 16;
    for (std::uint32_t orig = 1; orig <= 3; ++orig) {
      for (std::uint32_t id = 0; id < per_orig; ++id) {
        pool.emplace_back(orig, id);
      }
    }
    FloodCache flat(capacity);
    ReferenceFloodCache ref(capacity);
    sim::Rng rng(capacity);
    const int ops = capacity > 100 ? 400'000 : 20'000;
    for (int op = 0; op < ops; ++op) {
      const Key k = pool[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(pool.size()) - 1))];
      const std::string at = "capacity " + std::to_string(capacity) +
                             " op " + std::to_string(op);
      if (rng.uniform() < 0.7) {
        ASSERT_EQ(flat.check_and_insert(k.first, k.second),
                  ref.check_and_insert(k.first, k.second))
            << at;
      } else {
        ASSERT_EQ(flat.contains(k.first, k.second),
                  ref.contains(k.first, k.second))
            << at;
      }
      ASSERT_EQ(flat.size(), ref.size()) << at;
    }
    // A final sweep over the whole pool: the same keys survive.
    for (const Key& k : pool) {
      ASSERT_EQ(flat.contains(k.first, k.second),
                ref.contains(k.first, k.second))
          << "capacity " << capacity;
    }
  }
}

}  // namespace
}  // namespace mts::routing
