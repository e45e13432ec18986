#pragma once

#include <algorithm>
#include <cmath>

#include "mobility/vec2.hpp"
#include "sim/time.hpp"

namespace mts::phy {

/// Propagation abstraction: who can decode whom, and after how long.
///
/// The paper specifies only "radio transmission range: 250 m", i.e. the
/// ns-2 TwoRayGround configuration whose effective behaviour at these
/// distances *is* a 250 m disk.  UnitDisk reproduces exactly that;
/// the interface leaves room for fading models.
class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  /// Can a frame transmitted at `a` be decoded at `b`?
  [[nodiscard]] virtual bool in_range(mobility::Vec2 a,
                                      mobility::Vec2 b) const = 0;

  /// Maximum decode distance (m) — spatial index pruning radius.
  [[nodiscard]] virtual double max_range() const = 0;

  /// Link-level decodability: models with per-link state (fading)
  /// override this; the default is pure geometry.
  [[nodiscard]] virtual bool link_up(std::uint32_t /*tx*/, mobility::Vec2 a,
                                     std::uint32_t /*rx*/, mobility::Vec2 b,
                                     sim::Time /*t*/) const {
    return in_range(a, b);
  }
};

class UnitDiskPropagation final : public PropagationModel {
 public:
  explicit UnitDiskPropagation(double range_m = 250.0) : range_(range_m) {}

  [[nodiscard]] bool in_range(mobility::Vec2 a,
                              mobility::Vec2 b) const override {
    return mobility::distance_sq(a, b) <= range_ * range_;
  }
  [[nodiscard]] double max_range() const override { return range_; }

 private:
  double range_;
};

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
