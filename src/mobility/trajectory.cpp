#include "mobility/trajectory.hpp"

#include <algorithm>

#include "sim/error.hpp"

namespace mts::mobility {

Trajectory::Trajectory(Vec2 fixed) : rng_(0) {
  cfg_.min_speed = 0.0;
  cfg_.max_speed = 0.0;
  // Pushed directly, not through push_leg: a fixed node generates no
  // legs, so its stats stay zero.
  legs_.push_back(Leg{sim::Time::zero(), sim::Time::zero(), sim::Time::max(),
                      fixed, fixed, 0.0});
}

Trajectory::Trajectory(const RandomWaypointConfig& cfg, sim::Rng rng)
    : cfg_(cfg), rng_(rng) {
  sim::require_config(cfg.max_speed > 0, "Trajectory: max_speed must be > 0");
  sim::require_config(cfg.min_speed > 0, "Trajectory: min_speed must be > 0");
  sim::require_config(cfg.min_speed <= cfg.max_speed,
                      "Trajectory: min_speed > max_speed");
  sim::require_config(cfg.pause >= sim::Time::zero(),
                      "Trajectory: negative pause");
  // Initial placement: uniform over the field.  The node starts paused,
  // then moves — matching the common ns-2 setdest initialization.
  Vec2 start{rng_.uniform(0.0, cfg_.field.width),
             rng_.uniform(0.0, cfg_.field.height)};
  Leg first;
  first.from = start;
  first.to = Vec2{rng_.uniform(0.0, cfg_.field.width),
                  rng_.uniform(0.0, cfg_.field.height)};
  first.speed = rng_.uniform(cfg_.min_speed, cfg_.max_speed);
  first.start = cfg_.pause;  // initial pause before first movement
  const double dist = distance(first.from, first.to);
  first.arrive = first.start + sim::Time::seconds(dist / first.speed);
  first.depart = first.arrive + cfg_.pause;
  push_leg(first);
}

void Trajectory::push_leg(Leg leg) const {
  // A degenerate config (0x0 field, zero pause) draws identical
  // waypoints, making depart == start; without a floor, extend_until
  // would append legs forever without advancing.  The clamp is
  // unreachable for any field with positive area, so it never perturbs
  // the RNG draw sequence of real scenarios.
  if (leg.depart <= leg.start) leg.depart = leg.start + sim::Time::ms(1);
  legs_.push_back(leg);
  ++stats_.generated;
  stats_.live = legs_.size();
  stats_.peak_live = std::max(stats_.peak_live, stats_.live);
}

void Trajectory::extend_until(sim::Time t) const {
  while (legs_.back().depart < t) {
    const Leg& prev = legs_.back();
    Leg next;
    next.from = prev.to;
    next.to = Vec2{rng_.uniform(0.0, cfg_.field.width),
                   rng_.uniform(0.0, cfg_.field.height)};
    next.speed = rng_.uniform(cfg_.min_speed, cfg_.max_speed);
    next.start = prev.depart;
    const double dist = distance(next.from, next.to);
    next.arrive = next.start + sim::Time::seconds(dist / next.speed);
    next.depart = next.arrive + cfg_.pause;
    push_leg(next);
  }
}

Vec2 Trajectory::position_at(sim::Time t) const {
  extend_until(t);
  // The channel queries at non-decreasing sim times, so the covering leg
  // is at or just past the cursor; arbitrary (test/metric) queries fall
  // back to binary search.
  std::size_t i;
  if (cursor_ < legs_.size() && legs_[cursor_].start <= t) {
    i = cursor_;
    while (i + 1 < legs_.size() && legs_[i + 1].start <= t) ++i;
  } else {
    auto it = std::upper_bound(
        legs_.begin(), legs_.end(), t,
        [](sim::Time tt, const Leg& leg) { return tt < leg.start; });
    if (it == legs_.begin()) {
      // Once history has been pruned, a query below the retained front
      // leg would silently resolve to that leg's origin — wrong data.
      // Only the un-pruned initial pause legitimately lands here.
      sim::require(stats_.pruned == 0,
                   "Trajectory: position_at precedes pruned history");
      return legs_.front().from;  // initial pause
    }
    i = static_cast<std::size_t>(it - legs_.begin()) - 1;
  }
  cursor_ = i;
  const Leg& leg = legs_[i];
  if (t >= leg.arrive) return leg.to;  // paused at the waypoint
  const double frac = (t - leg.start) / (leg.arrive - leg.start);
  return leg.from + (leg.to - leg.from) * frac;
}

void Trajectory::trim_history_before(sim::Time mark) const {
  // Keep the leg covering `mark` (last start <= mark) so every query at
  // t >= mark still resolves; drop everything older.
  std::size_t drop = 0;
  while (drop + 1 < legs_.size() && legs_[drop + 1].start <= mark) ++drop;
  if (drop == 0) return;
  legs_.erase(legs_.begin(),
              legs_.begin() + static_cast<std::ptrdiff_t>(drop));
  cursor_ = cursor_ > drop ? cursor_ - drop : 0;
  stats_.pruned += drop;
  stats_.live = legs_.size();
}

}  // namespace mts::mobility
