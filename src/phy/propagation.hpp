#pragma once

#include <algorithm>
#include <cmath>

#include "sim/time.hpp"

namespace mts::phy {

/// Signal propagation delay over distance `d_m` metres at light speed.
inline sim::Time propagation_delay(double d_m) {
  return sim::Time::seconds(d_m / 299'792'458.0);
}

/// Relative received power at `d_m` metres for the capture rule: a
/// two-ray path-loss surrogate (power ~ d^-4), clamped below 1 m to keep
/// it finite.  Only ratios of two such figures are ever compared.
inline double capture_power(double d_m) {
  return std::pow(std::max(d_m, 1.0), -4.0);
}

}  // namespace mts::phy
