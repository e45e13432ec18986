#pragma once

#include <cmath>

#include "phy/propagation.hpp"
#include "sim/rng.hpp"

namespace mts::phy {

/// Log-distance path loss with slow (shadowing-style) link fading.
///
/// The paper motivates MTS's checking period with "the coherence time
/// of the fading/shadowing conditions" (§III-D): a discovered route is
/// only trustworthy for a channel coherence interval, after which links
/// near the margin may have faded out.  The unit-disk model cannot
/// express that; this extension can, and the route-checking ablation
/// uses it to show the coherence-time/check-period coupling.
///
/// Model: each ordered node pair (a, b) has a fading state that redraws
/// every `coherence_time`: with probability `fade_probability` the link
/// is faded and its effective decode range shrinks by `faded_fraction`.
/// Fading is symmetric (the pair key is unordered) and deterministic in
/// the master seed + pair + epoch, so runs remain reproducible and two
/// queries in the same epoch agree.
struct FadingConfig {
  double faded_fraction = 0.7;      ///< faded range = fraction * nominal
  double fade_probability = 0.2;    ///< chance a link is faded per epoch
  sim::Time coherence_time = sim::Time::sec(3);
};

class FadingPropagation final : public PropagationModel {
 public:
  /// `range_m` is the nominal (unfaded) decode range.
  FadingPropagation(double range_m, const FadingConfig& cfg,
                    std::uint64_t seed)
      : range_(range_m), cfg_(cfg), seed_(seed) {
    sim::require_config(range_m > 0, "Fading: range <= 0");
    sim::require_config(cfg.faded_fraction > 0 && cfg.faded_fraction <= 1,
                        "Fading: faded_fraction out of (0,1]");
    sim::require_config(cfg.fade_probability >= 0 && cfg.fade_probability <= 1,
                        "Fading: fade_probability out of [0,1]");
    sim::require_config(cfg.coherence_time > sim::Time::zero(),
                        "Fading: coherence_time <= 0");
  }

  /// Position-only queries see the nominal disk (used for the spatial
  /// index bound); fading applies in the time-aware overload below.
  [[nodiscard]] bool in_range(mobility::Vec2 a,
                              mobility::Vec2 b) const override {
    return mobility::distance_sq(a, b) <= range_ * range_;
  }
  [[nodiscard]] double max_range() const override { return range_; }

  /// Whether the link (ia, ib) decodes at time `t` given positions.
  [[nodiscard]] bool link_up(std::uint32_t ia, mobility::Vec2 a,
                             std::uint32_t ib, mobility::Vec2 b,
                             sim::Time t) const override {
    const double r = effective_range(ia, ib, t);
    return mobility::distance_sq(a, b) <= r * r;
  }

  /// The decode range of link (ia, ib) in the epoch containing `t`.
  [[nodiscard]] double effective_range(std::uint32_t ia, std::uint32_t ib,
                                       sim::Time t) const {
    return is_faded(ia, ib, t) ? range_ * cfg_.faded_fraction : range_;
  }

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
  double range_;
  FadingConfig cfg_;
  std::uint64_t seed_;
};

}  // namespace mts::phy
