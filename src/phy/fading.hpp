#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/error.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mts::phy {

/// Slow (shadowing-style) link fading, an extension beyond the paper's
/// plain 250 m disk.
///
/// The paper motivates MTS's checking period with "the coherence time
/// of the fading/shadowing conditions" (§III-D): a discovered route is
/// only trustworthy for a channel coherence interval, after which links
/// near the margin may have faded out.  The unit disk cannot express
/// that; this extension can.  `ScenarioConfig::fading_enabled` turns it
/// on; the MAC-path and source-route pin suites and the scenario tests
/// run it.
///
/// Model: each node pair (a, b) has a fading state that redraws every
/// `coherence_time`: with probability `fade_probability` the link is
/// faded and the channel shrinks its decode range to `faded_fraction`
/// of the nominal one.  Fading is symmetric (the pair key is unordered)
/// and deterministic in the seed + pair + epoch, so runs remain
/// reproducible and two queries in the same epoch agree.
struct FadingConfig {
  double faded_fraction = 0.7;      ///< faded range = fraction * nominal
  double fade_probability = 0.2;    ///< chance a link is faded per epoch
  sim::Time coherence_time = sim::Time::sec(3);
};

class Fading {
 public:
  Fading(const FadingConfig& cfg, std::uint64_t seed) : cfg_(cfg), seed_(seed) {
    sim::require_config(cfg.faded_fraction > 0 && cfg.faded_fraction <= 1,
                        "Fading: faded_fraction out of (0,1]");
    sim::require_config(cfg.fade_probability >= 0 && cfg.fade_probability <= 1,
                        "Fading: fade_probability out of [0,1]");
    sim::require_config(cfg.coherence_time > sim::Time::zero(),
                        "Fading: coherence_time <= 0");
  }

  /// Whether link (ia, ib) is faded in the epoch containing `t`.
  [[nodiscard]] bool is_faded(std::uint32_t ia, std::uint32_t ib,
                              sim::Time t) const {
    const std::uint64_t epoch = static_cast<std::uint64_t>(
        t.nanoseconds() / cfg_.coherence_time.nanoseconds());
    // Unordered pair key: fading is link-symmetric.
    const std::uint64_t lo = std::min(ia, ib);
    const std::uint64_t hi = std::max(ia, ib);
    const std::uint64_t h = sim::splitmix64(
        seed_ ^ sim::splitmix64((lo << 32) | hi) ^ sim::splitmix64(epoch));
    // Map to [0, 1): top 53 bits as a double.
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    return u < cfg_.fade_probability;
  }

  [[nodiscard]] const FadingConfig& config() const { return cfg_; }

 private:
  FadingConfig cfg_;
  std::uint64_t seed_;
};

}  // namespace mts::phy
