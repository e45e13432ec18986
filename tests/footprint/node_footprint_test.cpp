// Heap bytes per node of a freshly built MTS scenario, counted by
// replacing the global allocation functions.  The replacement is why
// this suite is its own test executable: it sees every allocation in
// the process.
//
// `sizeof` guards (the static_asserts next to Mac80211, Mts, Timer and
// RxDupCache::Slot) cannot see heap members: a container that allocates
// on construction costs every node its chunk whether or not the node
// ever uses it.  This test catches that class of regression.

#include <malloc.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "harness/scenario.hpp"

namespace {

std::size_t g_live = 0;  ///< usable bytes currently allocated
std::size_t g_peak = 0;  ///< high-water mark of g_live

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live += malloc_usable_size(p);
  if (g_live > g_peak) g_peak = g_live;
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live -= malloc_usable_size(p);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace mts::harness {
namespace {

/// Measured on x86-64 (GCC 12, glibc): 2,000 MTS nodes at the paper's
/// density peak at 2,640 heap bytes per node.  A 1 ms run executes no
/// event, so this is what building a node costs: its radio, MAC and MTS
/// instance, its receiver record, trajectory and neighbour-index share.
/// Before the interface queue and send buffer became lazily allocated
/// rings and the per-node closures and config copies went, the same run
/// peaked at 5,720 B per node.
constexpr double kMeasuredBytesPerNode = 2640.0;

TEST(NodeFootprintTest, HeapBytesPerMtsNodeStayWithinTenPercent) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kMts;
  cfg.node_count = 2000;
  cfg.field = mobility::Field{6325.0, 6325.0};  // 50 nodes per km^2
  cfg.max_speed = 10.0;
  cfg.flow_count = 10;
  cfg.sim_time = sim::Time::ms(1);
  cfg.seed = 42;

  const std::size_t before = g_live;
  g_peak = g_live;
  run_scenario(cfg);
  const double per_node = static_cast<double>(g_peak - before) /
                          static_cast<double>(cfg.node_count);
  std::printf("peak heap per node: %.0f B (measured %.0f B)\n", per_node,
              kMeasuredBytesPerNode);
  EXPECT_LE(per_node, kMeasuredBytesPerNode * 1.10);
}

}  // namespace
}  // namespace mts::harness
