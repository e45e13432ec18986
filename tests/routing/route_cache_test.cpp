#include "routing/route_cache.hpp"

#include <gtest/gtest.h>

namespace mts::routing {
namespace {

const sim::Time t0 = sim::Time::zero();

TEST(RouteCacheTest, FindReturnsStoredPath) {
  RouteCache c;
  c.add({0, 1, 2}, t0);
  auto r = c.find(2, t0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, (std::vector<net::NodeId>{0, 1, 2}));
}

TEST(RouteCacheTest, FindMissReturnsNullopt) {
  RouteCache c;
  c.add({0, 1, 2}, t0);
  EXPECT_FALSE(c.find(9, t0).has_value());
}

TEST(RouteCacheTest, ShortestPathWins) {
  RouteCache c;
  c.add({0, 1, 2, 3, 4}, t0);
  c.add({0, 7, 4}, t0);
  auto r = c.find(4, t0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), 3u);
}

TEST(RouteCacheTest, PrefixOfLongerPathReachesInteriorNode) {
  RouteCache c;
  c.add({0, 1, 2, 3}, t0);
  auto r = c.find(2, t0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, (std::vector<net::NodeId>{0, 1, 2}));
}

TEST(RouteCacheTest, RemoveLinkTruncatesAndPrunes) {
  RouteCache c;
  c.add({0, 1, 2, 3}, t0);
  EXPECT_EQ(c.remove_link(2, 3), 1u);
  // Prefix 0-1-2 survives as a usable route.
  EXPECT_TRUE(c.find(2, t0).has_value());
  EXPECT_FALSE(c.find(3, t0).has_value());
  // Breaking the first link kills the whole entry.
  EXPECT_EQ(c.remove_link(0, 1), 1u);
  EXPECT_FALSE(c.find(1, t0).has_value());
  EXPECT_EQ(c.size(), 0u);
}

TEST(RouteCacheTest, RemoveLinkIsDirected) {
  RouteCache c;
  c.add({0, 1, 2}, t0);
  EXPECT_EQ(c.remove_link(2, 1), 0u);  // reverse direction: no match
  EXPECT_TRUE(c.find(2, t0).has_value());
}

TEST(RouteCacheTest, PathsNeverExpire) {
  RouteCache c;  // the paper's DSR: only RERRs and link failures evict
  c.add({0, 1, 2}, t0);
  EXPECT_TRUE(c.find(2, sim::Time::sec(100000)).has_value());
}

TEST(RouteCacheTest, DuplicateAddRefreshes) {
  RouteCache c(2);
  c.add({0, 1}, t0);
  c.add({0, 2}, sim::Time::sec(1));
  c.add({0, 1}, sim::Time::sec(2));  // refresh: {0,2} is now the LRU
  EXPECT_EQ(c.size(), 2u);
  c.add({0, 3}, sim::Time::sec(3));
  EXPECT_TRUE(c.find(1, sim::Time::sec(4)).has_value());
  EXPECT_FALSE(c.find(2, sim::Time::sec(4)).has_value());
}

TEST(RouteCacheTest, CapacityEvictsLeastRecentlyUsed) {
  RouteCache c(2);
  c.add({0, 1}, t0);
  c.add({0, 2}, sim::Time::sec(1));
  (void)c.find(1, sim::Time::sec(2));  // touch {0,1}
  c.add({0, 3}, sim::Time::sec(3));   // evicts {0,2}
  EXPECT_TRUE(c.find(1, sim::Time::sec(4)).has_value());
  EXPECT_FALSE(c.find(2, sim::Time::sec(4)).has_value());
  EXPECT_TRUE(c.find(3, sim::Time::sec(4)).has_value());
}

TEST(RouteCacheTest, RejectsDegeneratePaths) {
  RouteCache c;
  c.add({0}, t0);  // single node is not a route
  EXPECT_EQ(c.size(), 0u);
}

}  // namespace
}  // namespace mts::routing
