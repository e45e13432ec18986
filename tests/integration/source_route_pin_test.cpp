// Fixed-seed pins for the two source-routed protocols, DSR and SMR, on
// the scenarios the paper-default pins never drive them through: three
// seeds at the paper's top speed (MAXSPEED 20, where cached routes go
// stale and RERRs, salvaging and SMR's route pruning all fire), the
// four MAC-path variants of `mac_paths_pin_test`, and a forged RREQ
// flood with and without the full defense suite.  Each line records the
// event count, the delivered segments, the control packets and every
// drop reason, so a change to how either protocol builds, checks or
// forwards a source-route packet shows up as the reason it dropped.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "harness/scenario.hpp"

namespace mts::harness {
namespace {

enum class Variant {
  kSeed1,
  kSeed7,
  kSeed42,
  kRtsCts,
  kFading,
  kDenseCapture,
  kCsEqualsRange,
  kFlood,
  kFloodSuite,
};

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kSeed1: return "seed1";
    case Variant::kSeed7: return "seed7";
    case Variant::kSeed42: return "seed42";
    case Variant::kRtsCts: return "rts256";
    case Variant::kFading: return "fading";
    case Variant::kDenseCapture: return "dense60";
    case Variant::kCsEqualsRange: return "cs1.0";
    case Variant::kFlood: return "flood";
    case Variant::kFloodSuite: return "flood+suite";
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
    case Variant::kSeed1:
    case Variant::kSeed7:
    case Variant::kSeed42:
      // 30 nodes on the paper's 1000 m field.  Seed 1 stays mostly
      // partitioned, so it drives the discovery retries and the send
      // buffer; seeds 7 and 42 carry a multi-hop flow through route
      // breaks.
      cfg.node_count = 30;
      cfg.max_speed = 20.0;
      cfg.sim_time = sim::Time::sec(20);
      cfg.seed = v == Variant::kSeed1 ? 1 : v == Variant::kSeed7 ? 7 : 42;
      break;
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
    case Variant::kFlood:
    case Variant::kFloodSuite:
      // The active-adversary arena of `defense_scenario_test`.
      cfg.field = mobility::Field{700.0, 700.0};
      cfg.max_speed = 5.0;
      cfg.seed = 11;
      cfg.adversary.kind = security::AdversaryKind::kRreqFlood;
      cfg.adversary.count = 1;
      cfg.adversary.flood_rate = 5.0;
      if (v == Variant::kFloodSuite) {
        cfg.defense.kind = security::DefenseKind::kSuite;
      }
      break;
  }
  return cfg;
}

constexpr std::size_t kReasons =
    static_cast<std::size_t>(net::DropReason::kCount);

struct Pin {
  Protocol protocol;
  Variant variant;
  std::uint64_t events;
  std::uint64_t delivered;
  std::uint64_t control;
  /// Drop counts indexed by `net::DropReason`.
  std::array<std::uint64_t, kReasons> drops;
};

// Recorded on the reference toolchain before DSR and SMR shared one
// source-route layer; that change moves no packet, so every run must
// replay bit-identically.
constexpr Pin kSourceRoutePins[] = {
    {Protocol::kDsr, Variant::kSeed1, 16388, 8, 63,
     {0, 18, 15, 0, 591, 0, 0, 0, 171, 0, 0}},
    {Protocol::kDsr, Variant::kSeed7, 563802, 659, 40,
     {0, 5, 6, 0, 24935, 0, 0, 0, 72, 0, 0}},
    {Protocol::kDsr, Variant::kSeed42, 588105, 695, 34,
     {0, 4, 3, 0, 10499, 0, 0, 0, 68, 0, 0}},
    {Protocol::kDsr, Variant::kRtsCts, 187451, 185, 22,
     {0, 0, 0, 0, 1628, 0, 0, 0, 28, 0, 0}},
    {Protocol::kDsr, Variant::kFading, 228005, 363, 35,
     {0, 11, 19, 0, 6887, 0, 0, 0, 13, 0, 0}},
    {Protocol::kDsr, Variant::kDenseCapture, 1068945, 2106, 60,
     {0, 0, 0, 0, 26533, 0, 0, 0, 244, 0, 0}},
    {Protocol::kDsr, Variant::kCsEqualsRange, 34813, 128, 50,
     {0, 35, 34, 0, 2442, 0, 0, 0, 30, 0, 0}},
    {Protocol::kDsr, Variant::kFlood, 338414, 458, 1185,
     {0, 0, 1, 0, 12652, 0, 0, 0, 4245, 0, 0}},
    {Protocol::kDsr, Variant::kFloodSuite, 314448, 476, 382,
     {0, 0, 1, 0, 11706, 0, 0, 0, 1363, 0, 533}},
    {Protocol::kSmr, Variant::kSeed1, 22226, 11, 152,
     {0, 5, 14, 0, 1230, 0, 0, 5, 294, 0, 0}},
    {Protocol::kSmr, Variant::kSeed7, 564589, 650, 118,
     {0, 0, 6, 0, 26617, 0, 0, 1, 239, 0, 0}},
    {Protocol::kSmr, Variant::kSeed42, 595599, 685, 72,
     {0, 0, 1, 0, 9928, 0, 0, 0, 143, 0, 0}},
    {Protocol::kSmr, Variant::kRtsCts, 85049, 79, 42,
     {0, 1, 9, 0, 716, 0, 0, 5, 45, 0, 0}},
    {Protocol::kSmr, Variant::kFading, 26675, 41, 67,
     {0, 13, 11, 0, 627, 0, 0, 4, 71, 0, 0}},
    {Protocol::kSmr, Variant::kDenseCapture, 971602, 1476, 205,
     {0, 0, 0, 0, 29729, 0, 0, 0, 3643, 0, 0}},
    {Protocol::kSmr, Variant::kCsEqualsRange, 35729, 128, 90,
     {0, 12, 27, 0, 2516, 0, 0, 12, 92, 0, 0}},
    {Protocol::kSmr, Variant::kFlood, 380816, 398, 3700,
     {102, 0, 4, 0, 21617, 0, 0, 0, 15233, 0, 0}},
    {Protocol::kSmr, Variant::kFloodSuite, 318553, 469, 1040,
     {0, 0, 2, 0, 12432, 0, 0, 0, 4046, 0, 502}},
};

TEST(SourceRoutePinTest, FixedSeedRunsReplayBitIdentically) {
  for (const Pin& pin : kSourceRoutePins) {
    const RunMetrics m =
        run_scenario(variant_config(pin.protocol, pin.variant));
    const std::string what = std::string(protocol_name(pin.protocol)) + " " +
                             variant_name(pin.variant);
    EXPECT_EQ(m.events_executed, pin.events) << what;
    EXPECT_EQ(m.segments_delivered, pin.delivered) << what;
    EXPECT_EQ(m.control_packets, pin.control) << what;
    for (std::size_t r = 0; r < kReasons; ++r) {
      const auto reason = static_cast<net::DropReason>(r);
      EXPECT_EQ(m.dropped(reason), pin.drops[r])
          << what << " " << net::drop_reason_name(reason);
    }
  }
}

}  // namespace
}  // namespace mts::harness
