// Fixed-seed pins for MAC paths the paper-default pins never reach:
// RTS/CTS with its NAV, fading links, a dense field where capture
// decides most receptions, and carrier sense equal to decode range
// (no energy-only receptions, so no EIFS trigger from distance).  The
// `kPinned` runs all use basic access, the unit disk and a 2.2x
// carrier-sense range, so a change to the MAC's carrier-sense or EIFS
// bookkeeping can move these while leaving those untouched.
#include <gtest/gtest.h>

#include <string>

#include "harness/scenario.hpp"

namespace mts::harness {
namespace {

enum class Variant { kRtsCts, kFading, kDenseCapture, kCsEqualsRange };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kRtsCts: return "rts256";
    case Variant::kFading: return "fading";
    case Variant::kDenseCapture: return "dense60";
    case Variant::kCsEqualsRange: return "cs1.0";
  }
  return "?";
}

ScenarioConfig variant_config(Protocol p, Variant v) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.node_count = 20;
  cfg.max_speed = 10.0;
  cfg.sim_time = sim::Time::sec(15);
  cfg.seed = 42;
  switch (v) {
    case Variant::kRtsCts:
      cfg.mac.rts_threshold_bytes = 256;
      break;
    case Variant::kFading:
      cfg.fading_enabled = true;
      break;
    case Variant::kDenseCapture:
      cfg.node_count = 60;
      cfg.field = mobility::Field{400.0, 400.0};
      break;
    case Variant::kCsEqualsRange:
      cfg.channel.cs_range_factor = 1.0;
      break;
  }
  return cfg;
}

struct Pin {
  Protocol protocol;
  Variant variant;
  std::uint64_t events;
  std::uint64_t delivered;
  std::uint64_t control;
  std::uint64_t collision_drops;
  std::uint64_t retry_drops;
};

// Recorded on the reference toolchain before the radio took over the
// MAC's carrier-sense marks (last idle edge, last undecodable end); the
// change is an optimization, so every run must replay bit-identically.
constexpr Pin kMacPathPins[] = {
    {Protocol::kMts, Variant::kRtsCts, 146271, 145, 69, 811, 1},
    {Protocol::kMts, Variant::kFading, 232476, 379, 102, 6691, 18},
    {Protocol::kMts, Variant::kDenseCapture, 1088825, 1885, 85, 28160, 0},
    {Protocol::kMts, Variant::kCsEqualsRange, 48350, 173, 289, 2914, 14},
    {Protocol::kAodv, Variant::kRtsCts, 186464, 188, 22, 1479, 0},
    {Protocol::kAodv, Variant::kFading, 52877, 92, 139, 1800, 5},
    {Protocol::kAodv, Variant::kDenseCapture, 1084541, 2127, 60, 29016, 0},
    {Protocol::kAodv, Variant::kCsEqualsRange, 34966, 123, 285, 1867, 11},
};

TEST(MacPathsPinTest, FixedSeedRunsReplayBitIdentically) {
  for (const Pin& pin : kMacPathPins) {
    const RunMetrics m = run_scenario(variant_config(pin.protocol, pin.variant));
    const std::string what = std::string(protocol_name(pin.protocol)) + " " +
                             variant_name(pin.variant);
    EXPECT_EQ(m.events_executed, pin.events) << what;
    EXPECT_EQ(m.segments_delivered, pin.delivered) << what;
    EXPECT_EQ(m.control_packets, pin.control) << what;
    EXPECT_EQ(m.dropped(net::DropReason::kCollision), pin.collision_drops)
        << what;
    EXPECT_EQ(m.dropped(net::DropReason::kMacRetryExceeded), pin.retry_drops)
        << what;
  }
}

}  // namespace
}  // namespace mts::harness
