#pragma once

#include <functional>

#include "mobility/vec2.hpp"
#include "net/node_id.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mts::sim {
class Scheduler;
}

namespace mts::security {

class SecrecyPlane;

/// Plumbing shared by the adversary and the defense: the harness fills
/// one of these, `AdversaryContext` inherits it and `Adversary` and
/// `Defense` are built from it, so the radio range / position oracle /
/// scheduler / RNG wiring exists in exactly one place.
struct SecurityContext {
  double radio_range = 250.0;
  /// Position oracle (bound to node mobility by the harness).
  std::function<mobility::Vec2(net::NodeId, sim::Time)> position_of;
  /// Event source for self-scheduled activity (families that never
  /// schedule leave it untouched).
  sim::Scheduler* sched = nullptr;
  /// Dedicated RNG substream; families that never draw leave it
  /// untouched, so passive families stay perturbation-free.
  sim::Rng rng{0};
  /// The scenario's threshold-secret-sharing plane, when the secrecy
  /// game is on (null otherwise).  Capture pools use it to materialize
  /// and parse real wire bytes.
  const SecrecyPlane* secrecy = nullptr;
};

}  // namespace mts::security
