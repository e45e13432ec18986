#pragma once

#include <stdexcept>
#include <string>

namespace mts::sim {

/// Thrown when a simulation-internal invariant is violated (a bug in the
/// simulator or a protocol module, never a property of the scenario).
class SimError : public std::logic_error {
 public:
  explicit SimError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when a user-supplied configuration is inconsistent (negative
/// durations, empty node sets, out-of-range indices, ...).  Raised at
/// scenario-build time, before any event executes.
class ConfigError : public std::invalid_argument {
 public:
  explicit ConfigError(const std::string& what) : std::invalid_argument(what) {}
};

/// Invariant check that survives NDEBUG builds: simulation correctness
/// depends on these, so they must not be compiled out in benchmarks.
inline void require(bool cond, const char* msg) {
  if (!cond) throw SimError(msg);
}

/// Configuration check; like `require`, the message string is built
/// only when the check fails.
inline void require_config(bool cond, const char* msg) {
  if (!cond) throw ConfigError(msg);
}

}  // namespace mts::sim
