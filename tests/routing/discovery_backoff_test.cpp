// The persist-while-buffered retry policy (DSR, SMR) doubles its RREQ
// wait from 500 ms up to a 10 s cap and keeps querying for as long as
// anything is buffered.  A destination that stays unreachable while
// traffic keeps arriving is queried for the whole run, so the backoff
// must stop doubling at the cap: doubling on regardless overflows the
// wait after a few hundred seconds and schedules into the past.
#include <gtest/gtest.h>

#include "routing_fixture.hpp"

namespace mts::testing {
namespace {

using Proto = RoutingBench::Proto;

void offer_every_second_to_unreachable(Proto proto) {
  // Node 2 is far beyond everyone's range.
  RoutingBench b(proto, {{0, 0}, {200, 0}, {5000, 0}});
  for (int s = 0; s < 400; ++s) {
    b.send_data(0, 2);
    b.sched.run_until(sim::Time::sec(s + 1));
  }
  EXPECT_TRUE(b.node(2).delivered.empty());
  // RREQs at 0, 0.5, 1.5, 3.5, 7.5 and 15.5 s, then one every 10 s from
  // 25.5 s to 395.5 s.
  EXPECT_EQ(b.node(0).counters.sent_control, 6u + 38u);
}

TEST(DiscoveryBackoffTest, DsrPersistsPastTheCapWithoutOverflow) {
  offer_every_second_to_unreachable(Proto::kDsr);
}

TEST(DiscoveryBackoffTest, SmrPersistsPastTheCapWithoutOverflow) {
  offer_every_second_to_unreachable(Proto::kSmr);
}

}  // namespace
}  // namespace mts::testing
