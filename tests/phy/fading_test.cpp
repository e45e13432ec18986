#include "phy/fading.hpp"

#include <gtest/gtest.h>

namespace mts::phy {
namespace {

FadingConfig cfg() {
  FadingConfig c;
  c.faded_fraction = 0.7;
  c.fade_probability = 0.25;
  c.coherence_time = sim::Time::sec(3);
  return c;
}

TEST(FadingTest, DeterministicWithinAnEpoch) {
  Fading p(cfg(), 7);
  for (int pair = 0; pair < 50; ++pair) {
    const auto a = static_cast<std::uint32_t>(pair);
    const bool at_start = p.is_faded(a, a + 1, sim::Time::ms(1));
    const bool mid_epoch = p.is_faded(a, a + 1, sim::Time::ms(2500));
    EXPECT_EQ(at_start, mid_epoch);
  }
}

TEST(FadingTest, SymmetricPerLink) {
  Fading p(cfg(), 7);
  for (std::uint32_t i = 0; i < 40; ++i) {
    EXPECT_EQ(p.is_faded(i, i + 9, sim::Time::sec(1)),
              p.is_faded(i + 9, i, sim::Time::sec(1)));
  }
}

TEST(FadingTest, RedrawsAcrossEpochs) {
  Fading p(cfg(), 7);
  int changes = 0;
  for (std::uint32_t i = 0; i < 200; ++i) {
    const bool e0 = p.is_faded(i, i + 1, sim::Time::sec(1));
    const bool e1 = p.is_faded(i, i + 1, sim::Time::sec(4));
    if (e0 != e1) ++changes;
  }
  EXPECT_GT(changes, 20);  // fading states move between coherence epochs
}

TEST(FadingTest, FadeProbabilityApproximatelyHonoured) {
  Fading p(cfg(), 11);
  int faded = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (p.is_faded(static_cast<std::uint32_t>(i),
                   static_cast<std::uint32_t>(i + 10000),
                   sim::Time::sec(1))) {
      ++faded;
    }
  }
  EXPECT_NEAR(static_cast<double>(faded) / n, 0.25, 0.03);
}

TEST(FadingTest, DifferentSeedsDifferentPatterns) {
  Fading p1(cfg(), 1), p2(cfg(), 2);
  int diff = 0;
  for (std::uint32_t i = 0; i < 200; ++i) {
    if (p1.is_faded(i, i + 1, sim::Time::sec(1)) !=
        p2.is_faded(i, i + 1, sim::Time::sec(1))) {
      ++diff;
    }
  }
  EXPECT_GT(diff, 20);
}

TEST(FadingTest, ConfigValidation) {
  FadingConfig bad = cfg();
  bad.faded_fraction = 1.5;
  EXPECT_THROW(Fading(bad, 1), sim::ConfigError);
  bad = cfg();
  bad.fade_probability = -0.1;
  EXPECT_THROW(Fading(bad, 1), sim::ConfigError);
  bad = cfg();
  bad.coherence_time = sim::Time::zero();
  EXPECT_THROW(Fading(bad, 1), sim::ConfigError);
}

}  // namespace
}  // namespace mts::phy
