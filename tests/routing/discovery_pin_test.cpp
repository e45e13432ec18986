// Fixed-seed pins for the route-discovery scaffolding every on-demand
// protocol shares: the send buffer, the RREQ retry timer and the
// buffer-ageing purge tick.  Three small static scenarios drive each
// protocol through the paths the paper-default pins rarely reach: a
// destination that never answers (retry backoff, give-up, buffer
// timeout), a burst that overflows the 64-slot send buffer, and a plain
// multi-hop discovery on a 6-node chain.  Every number below must
// replay bit-identically: a change to the discovery code that moves
// one changes what the protocols compute.
#include <gtest/gtest.h>

#include <string>

#include "routing_fixture.hpp"

namespace mts::testing {
namespace {

using Proto = RoutingBench::Proto;

enum class Scenario { kUnreachable, kBurst, kChain6 };

const char* proto_name(Proto p) {
  switch (p) {
    case Proto::kAodv: return "AODV";
    case Proto::kDsr: return "DSR";
    case Proto::kMts: return "MTS";
    case Proto::kSmr: return "SMR";
  }
  return "?";
}

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kUnreachable: return "unreachable";
    case Scenario::kBurst: return "burst70";
    case Scenario::kChain6: return "chain6";
  }
  return "?";
}

struct Outcome {
  std::uint64_t sent_control = 0;
  std::uint64_t forwarded_control = 0;
  std::uint64_t delivered = 0;
  std::uint64_t no_route = 0;
  std::uint64_t buffer_full = 0;
  std::uint64_t buffer_timeout = 0;
  std::uint64_t events = 0;
};

Outcome run(Proto proto, Scenario scenario) {
  std::vector<mobility::Vec2> positions;
  switch (scenario) {
    case Scenario::kUnreachable:
      positions = {{0, 0}, {200, 0}, {5000, 0}};  // node 2 out of range
      break;
    case Scenario::kBurst: positions = chain(4); break;
    case Scenario::kChain6: positions = chain(6); break;
  }
  RoutingBench b(proto, positions);
  switch (scenario) {
    case Scenario::kUnreachable:
      // A second packet after AODV/MTS give up restarts discovery; DSR
      // and SMR are still querying for the first one.
      b.send_data(0, 2);
      b.sched.run_until(sim::Time::sec(10));
      b.send_data(0, 2);
      b.sched.run_until(sim::Time::sec(45));
      break;
    case Scenario::kBurst:
      // 70 packets to a 3-hop destination before any route exists: the
      // 64-slot buffer evicts the oldest six.
      for (int i = 0; i < 70; ++i) b.send_data(0, 3);
      b.sched.run_until(sim::Time::sec(10));
      break;
    case Scenario::kChain6:
      for (int i = 0; i < 5; ++i) b.send_data(0, 5);
      b.sched.run_until(sim::Time::sec(5));
      for (int i = 0; i < 5; ++i) b.send_data(5, 0);
      b.sched.run_until(sim::Time::sec(10));
      break;
  }
  Outcome o;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const TestNode& n = b.node(static_cast<net::NodeId>(i));
    o.sent_control += n.counters.sent_control;
    o.forwarded_control += n.counters.forwarded_control;
    o.delivered += n.delivered.size();
    o.no_route += n.counters.dropped(net::DropReason::kNoRoute);
    o.buffer_full += n.counters.dropped(net::DropReason::kSendBufferFull);
    o.buffer_timeout +=
        n.counters.dropped(net::DropReason::kSendBufferTimeout);
  }
  o.events = b.sched.executed_count();
  return o;
}

struct Pin {
  Proto proto;
  Scenario scenario;
  Outcome expect;
};

// Recorded before the four protocols' discovery scaffolding moved into
// one core; the move is a refactor, so every run must replay unchanged.
// {sent_control, forwarded_control, delivered, no_route, buffer_full,
//  buffer_timeout, events}
constexpr Pin kDiscoveryPins[] = {
    {Proto::kDsr, Scenario::kUnreachable, {8, 8, 0, 0, 0, 2, 210}},
    {Proto::kDsr, Scenario::kBurst, {2, 4, 51, 0, 6, 0, 2391}},
    {Proto::kDsr, Scenario::kChain6, {2, 8, 10, 0, 0, 0, 1063}},
    {Proto::kAodv, Scenario::kUnreachable, {6, 6, 0, 2, 0, 0, 191}},
    {Proto::kAodv, Scenario::kBurst, {2, 4, 51, 0, 6, 0, 2391}},
    {Proto::kAodv, Scenario::kChain6, {2, 8, 10, 0, 0, 0, 1063}},
    {Proto::kSmr, Scenario::kUnreachable, {8, 8, 0, 0, 0, 2, 210}},
    {Proto::kSmr, Scenario::kBurst, {2, 4, 51, 0, 6, 0, 2392}},
    {Proto::kSmr, Scenario::kChain6, {2, 8, 10, 0, 0, 0, 1064}},
    {Proto::kMts, Scenario::kUnreachable, {6, 6, 0, 2, 0, 0, 236}},
    {Proto::kMts, Scenario::kBurst, {5, 10, 51, 0, 6, 0, 2538}},
    {Proto::kMts, Scenario::kChain6, {5, 20, 10, 0, 0, 0, 1337}},
};

TEST(DiscoveryPinTest, FixedScenariosReplayBitIdentically) {
  for (const Pin& pin : kDiscoveryPins) {
    const Outcome o = run(pin.proto, pin.scenario);
    const std::string what = std::string(proto_name(pin.proto)) + " " +
                             scenario_name(pin.scenario);
    EXPECT_EQ(o.sent_control, pin.expect.sent_control) << what;
    EXPECT_EQ(o.forwarded_control, pin.expect.forwarded_control) << what;
    EXPECT_EQ(o.delivered, pin.expect.delivered) << what;
    EXPECT_EQ(o.no_route, pin.expect.no_route) << what;
    EXPECT_EQ(o.buffer_full, pin.expect.buffer_full) << what;
    EXPECT_EQ(o.buffer_timeout, pin.expect.buffer_timeout) << what;
    EXPECT_EQ(o.events, pin.expect.events) << what;
  }
}

}  // namespace
}  // namespace mts::testing
