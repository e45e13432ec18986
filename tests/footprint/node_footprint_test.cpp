// Heap bytes per node of an MTS scenario, freshly built and over a
// short run, counted by replacing the global allocation functions.  The
// replacement is why this suite is its own test executable: it sees
// every allocation in the process.
//
// `sizeof` guards (the static_asserts next to Mac80211, Mts, Timer and
// RxDupCache) cannot see heap members: a container that allocates on
// construction, or on an event nearly every node sees, costs every node
// its chunk whether or not the node ever uses it.  This test catches
// that class of regression.

#include <malloc.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "harness/scenario.hpp"
#include "sim/rng.hpp"

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
/// density peak at 1,774 heap bytes per node.  A 1 ms run executes no
/// event, so this is what building a node costs: its MAC and MTS
/// instance, its receiver record, trajectory and neighbour-index share.
/// With a separate radio object between the MAC and its receiver
/// record it was 1,854 B; before the flood caches shrank to 24 B,
/// 1,872 B; before each MAC's duplicate filter moved behind a pointer
/// allocated on its first unicast reception, 2,640 B; before the
/// interface queue and send buffer became lazily allocated rings and
/// the per-node closures and config copies went, 5,720 B.
constexpr double kMeasuredBytesPerNode = 1774.0;

/// The same scenario run until 2 s peaks at 2,332 B per node (2,410 B
/// with the radio object).  Its ten flows start at 1 s, so this covers
/// one simulated second of route discovery floods that reach most
/// nodes, then replies and TCP data along a few paths.  Per-node state
/// that a broadcast reception allocates shows up here and not in the
/// build-only figure above: a MAC duplicate filter allocated on
/// broadcast receptions too, not only on unicast ones, read 3,446 B.
/// Flood caches that kept a second copy of each key in their index
/// (24 B per ring slot, not 12) read 2,738 B.
constexpr double kMeasuredRunBytesPerNode = 2332.0;

// Every node holds three streams (mobility, MAC, routing), so a byte on
// a stream is three on every node.  The started-cursors flag lives in
// the padding after the draw count and must stay there.
static_assert(sizeof(sim::CompactMt64) == 40);
static_assert(sizeof(sim::Rng) == 48);

ScenarioConfig mts_field(sim::Time sim_time) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kMts;
  cfg.node_count = 2000;
  cfg.field = mobility::Field{6325.0, 6325.0};  // 50 nodes per km^2
  cfg.max_speed = 10.0;
  cfg.flow_count = 10;
  cfg.sim_time = sim_time;
  cfg.seed = 42;
  return cfg;
}

double peak_heap_per_node(const ScenarioConfig& cfg) {
  const std::size_t before = g_live;
  g_peak = g_live;
  run_scenario(cfg);
  return static_cast<double>(g_peak - before) /
         static_cast<double>(cfg.node_count);
}

TEST(NodeFootprintTest, HeapBytesPerMtsNodeStayWithinTenPercent) {
  const double per_node = peak_heap_per_node(mts_field(sim::Time::ms(1)));
  std::printf("peak heap per node: %.0f B (measured %.0f B)\n", per_node,
              kMeasuredBytesPerNode);
  EXPECT_LE(per_node, kMeasuredBytesPerNode * 1.10);
}

TEST(NodeFootprintTest, HeapBytesPerMtsNodeStayWithinTenPercentOverARun) {
  const double per_node = peak_heap_per_node(mts_field(sim::Time::sec(2)));
  std::printf("peak heap per node over 2 s: %.0f B (measured %.0f B)\n",
              per_node, kMeasuredRunBytesPerNode);
  EXPECT_LE(per_node, kMeasuredRunBytesPerNode * 1.10);
}

}  // namespace
}  // namespace mts::harness
