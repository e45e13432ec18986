// Large-arena guarantees for the 10k-node scaling work: mobility
// trajectory history stays bounded (the NeighborIndex snapshot hook
// prunes behind the previous snapshot), steady-state index rebuilds
// stop allocating once the CSR buffers are sized, and — because both
// mechanisms only drop history that no live query can reach — every
// fixed-seed fingerprint replays bit-identically (the 20-node pins live
// in packet_plane_test.cpp; the 50-node pins of the paper's scenario
// live here).
#include <gtest/gtest.h>

#include <numeric>

#include "harness/scenario.hpp"

namespace mts::harness {
namespace {

/// The paper's 50-node scenario (40 s, seed 42, MAXSPEED 10) whose
/// fingerprints kPinned50 holds.
ScenarioConfig bench_like(Protocol p) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.node_count = 50;
  cfg.max_speed = 10.0;
  cfg.sim_time = sim::Time::sec(40);
  cfg.seed = 42;
  return cfg;
}

/// Fast churn on a small field: legs last a few seconds, so a 60 s run
/// generates several legs per node and the pruning low-water mark
/// actually advances past most of them.
ScenarioConfig churny() {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kMts;
  cfg.node_count = 30;
  cfg.field = mobility::Field{300.0, 300.0};
  cfg.max_speed = 25.0;
  cfg.min_speed = 5.0;
  cfg.pause = sim::Time::ms(100);
  cfg.min_flow_distance = 0.0;  // 300 m field can't fit the 400 m default
  cfg.sim_time = sim::Time::sec(60);
  cfg.seed = 1;
  return cfg;
}

/// 2000 nodes at the paper's density (50 per 1000 m x 1000 m).
ScenarioConfig large_arena() {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kMts;
  cfg.node_count = 2000;
  cfg.field = mobility::Field{6325.0, 6325.0};
  cfg.max_speed = 10.0;
  cfg.sim_time = sim::Time::sec(10);
  // A single flow can stall on a failed discovery and leave the medium
  // idle (rebuilds are lazy, riding on transmissions); ten keep it busy.
  cfg.flow_count = 10;
  cfg.seed = 42;
  return cfg;
}

struct Fingerprint {
  Protocol protocol;
  std::uint64_t events;
  std::uint64_t delivered;
  std::uint64_t control;
  std::uint64_t pe;
  std::uint64_t order_hash;  ///< RunMetrics::event_order_hash
};

// Captured from the pre-refactor packet plane and unchanged by every
// refactor since; perf/run.py's paper50 workload times the same
// scenario over the paper's full 200 s.  The order hashes were captured
// on the eager cancel-and-push event queue, before lazy timer re-arm.
constexpr Fingerprint kPinned50[] = {
    {Protocol::kDsr, 200471, 151, 118, 1, 0x8ae25e58587af07d},
    {Protocol::kAodv, 1786206, 1406, 241, 446, 0xf383923a472a162d},
    {Protocol::kMts, 1908920, 1479, 514, 1065, 0x21ca0536e7de5cb4},
    {Protocol::kSmr, 391419, 282, 457, 201, 0x914f1beaae899b6d},
};

TEST(ScaleTest, FiftyNodeFingerprintsMatchTheBenchBaseline) {
  for (const Fingerprint& fp : kPinned50) {
    const RunMetrics m = run_scenario(bench_like(fp.protocol));
    EXPECT_EQ(m.events_executed, fp.events) << protocol_name(fp.protocol);
    EXPECT_EQ(m.segments_delivered, fp.delivered) << protocol_name(fp.protocol);
    EXPECT_EQ(m.control_packets, fp.control) << protocol_name(fp.protocol);
    EXPECT_EQ(m.pe, fp.pe) << protocol_name(fp.protocol);
    EXPECT_EQ(m.pr, m.segments_delivered) << protocol_name(fp.protocol);
    EXPECT_EQ(m.event_order_hash, fp.order_hash) << protocol_name(fp.protocol);
  }
}

TEST(ScaleTest, MobilityHistoryIsPrunedAndBoundedInAChurnyRun) {
  const RunMetrics m = run_scenario(churny());
  // Legs last ~3-10 s, so 60 s generates several per node ...
  EXPECT_GE(m.mobility_legs_generated, 2u * 30u);
  // ... and the snapshot hook retires them as the run advances.
  EXPECT_GT(m.mobility_legs_pruned, 0u);
  const std::uint64_t live = m.mobility_legs_generated - m.mobility_legs_pruned;
  EXPECT_LE(live, 8u * 30u) << "live trajectory history not bounded";
  // No node ever held more than a handful of legs at once: memory is
  // O(nodes), not O(sim-time x nodes).
  EXPECT_LE(m.mobility_peak_live_legs, 8u);
}

TEST(ScaleTest, TwoThousandNodeRunStaysFlat) {
  const RunMetrics m = run_scenario(large_arena());
  EXPECT_GT(m.events_executed, 0u);

  // The index refreshed throughout the run, and the CSR buffers settled
  // after warm-up: almost every rebuild reused existing capacity.
  EXPECT_GE(m.neighbor_rebuilds, 15u);
  EXPECT_LE(m.neighbor_rebuild_allocs, 5u);
  EXPECT_LT(m.neighbor_rebuild_allocs, m.neighbor_rebuilds);

  // Per-node trajectory history stayed a handful of legs.
  EXPECT_GE(m.mobility_legs_generated, 2000u);
  EXPECT_LE(m.mobility_peak_live_legs, 8u);

  // Per-subsystem attribution: the tagged categories never exceed the
  // total, and the medium dominates a broadcast-flood workload.
  const std::uint64_t tagged = std::accumulate(
      m.events_by_category.begin(), m.events_by_category.end(),
      std::uint64_t{0});
  EXPECT_LE(tagged, m.events_executed);
  EXPECT_GT(m.executed(sim::EventCategory::kChannel), 0u);
  EXPECT_GT(m.executed(sim::EventCategory::kPhy), 0u);
  EXPECT_GT(m.executed(sim::EventCategory::kMac), 0u);
  EXPECT_GT(m.executed(sim::EventCategory::kRouting), 0u);
}

TEST(ScaleTest, CategoryCountersSumToExecutedTotal) {
  ScenarioConfig cfg = bench_like(Protocol::kMts);
  cfg.sim_time = sim::Time::sec(5);
  const RunMetrics m = run_scenario(cfg);
  const std::uint64_t total = std::accumulate(
      m.events_by_category.begin(), m.events_by_category.end(),
      std::uint64_t{0});
  // Every executed event lands in exactly one bucket (untagged ones in
  // kOther), so the buckets partition the total.
  EXPECT_EQ(total, m.events_executed);
  EXPECT_GT(m.executed(sim::EventCategory::kTransport), 0u);
}

}  // namespace
}  // namespace mts::harness
