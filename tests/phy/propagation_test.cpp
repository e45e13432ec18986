#include "phy/propagation.hpp"

#include <gtest/gtest.h>

namespace mts::phy {
namespace {

TEST(PropagationDelayTest, SpeedOfLight) {
  // ~300 m is about a microsecond.
  const sim::Time d = propagation_delay(299.792458);
  EXPECT_EQ(d, sim::Time::us(1));
  EXPECT_EQ(propagation_delay(0.0), sim::Time::zero());
}

TEST(PropagationDelayTest, MonotonicInDistance) {
  EXPECT_LT(propagation_delay(100.0), propagation_delay(200.0));
}

}  // namespace
}  // namespace mts::phy
