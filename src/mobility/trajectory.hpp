#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mobility/vec2.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mts::mobility {

/// The paper's mobility model (§IV-A): "random way point model (when the
/// node reaches its destination, it pauses for several seconds, e.g. 1s,
/// then randomly chooses another destination point within the field,
/// with a randomly selected constant velocity)".
///
/// Speeds are uniform in [min_speed, max_speed].  The paper draws from
/// [0, MAXSPEED]; a literal 0 makes a leg infinitely long (the classic
/// random-waypoint speed-decay pathology), so the default floor is
/// 0.1 m/s — negligible against MAXSPEED >= 2 but keeps every leg
/// finite.  Tests cover both floors.
struct RandomWaypointConfig {
  Field field;
  double min_speed = 0.1;  ///< m/s
  double max_speed = 2.0;  ///< m/s (the paper's MAXSPEED)
  sim::Time pause = sim::Time::sec(1);
};

/// One node's position as a function of time: a list of movement legs,
/// extended lazily as later times are queried.
///
/// A random-waypoint trajectory draws each leg from its own substream; a
/// fixed one (baselines, unit-test topologies) is a single leg parked at
/// its point from t = 0 until Time::max(), so it never extends, draws
/// nothing and reports zero stats.
///
/// position_at(t) is deterministic and may be queried for any t >= 0 in
/// any order.  A caller that knows a low-water mark below which no query
/// will ever come again (the channel, whose queries are bounded below by
/// the previous neighbour snapshot time) may trim_history_before() it.
/// The leg *covering* the mark is always kept, so any t >= mark keeps
/// answering identically — trimming never alters positions or the RNG
/// draw sequence.
class Trajectory {
 public:
  /// History bookkeeping: `live == generated - pruned` at all times.
  struct Stats {
    std::uint64_t generated = 0;
    std::uint64_t pruned = 0;
    std::size_t live = 0;
    std::size_t peak_live = 0;  ///< high-water mark of `live`
  };

  struct Leg {
    sim::Time start;      ///< movement begins (after the previous pause)
    sim::Time arrive;     ///< reaches `to`
    sim::Time depart;     ///< arrive + pause: next leg starts
    Vec2 from;
    Vec2 to;
    double speed = 0.0;   ///< m/s
  };

  /// A node that never moves.
  explicit Trajectory(Vec2 fixed);
  /// A random-waypoint node: uniform start, initial pause, then legs.
  Trajectory(const RandomWaypointConfig& cfg, sim::Rng rng);

  [[nodiscard]] Vec2 position_at(sim::Time t) const;

  /// Upper bound on instantaneous speed (m/s); the neighbour grid uses
  /// it to size its staleness margin.
  [[nodiscard]] double max_speed() const { return cfg_.max_speed; }

  /// Promise that no future position_at(t) call will have t < mark;
  /// legs strictly before the one covering `mark` are freed.
  void trim_history_before(sim::Time mark) const;

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Live legs (grows lazily as later times are queried; the front is
  /// dropped by trim_history_before).
  [[nodiscard]] const std::vector<Leg>& legs() const { return legs_; }

 private:
  void extend_until(sim::Time t) const;
  void push_leg(Leg leg) const;

  // The generator's ~2.5 KB of state goes last, so the fields every
  // query reads share the object's first cache lines.
  RandomWaypointConfig cfg_;
  mutable std::vector<Leg> legs_;
  mutable std::size_t cursor_ = 0;  ///< covering-leg hint for monotone queries
  mutable Stats stats_;
  mutable sim::Rng rng_;
};

}  // namespace mts::mobility
