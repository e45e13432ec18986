#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/headers.hpp"
#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace mts::routing {

/// Source-route path cache: full routes rooted at this node.
///
/// Deliberately has *no timeout* (the ns-2 DSR default): routes leave
/// the cache only when a RERR or a link failure names one of their
/// links.  This is the property behind the paper's Fig. 10 — at high
/// node speed, cached routes go stale faster than errors can evict
/// them, and DSR's delivery rate collapses.
class RouteCache {
 public:
  explicit RouteCache(std::size_t capacity = 64) : capacity_(capacity) {}

  /// Inserts a path (`self .. dst`, endpoints inclusive).  Duplicate
  /// paths refresh; capacity evicts least-recently-used.
  void add(net::RouteVec path, sim::Time now);

  /// Shortest cached path to `dst` (self first, dst last).
  [[nodiscard]] std::optional<net::RouteVec> find(
      net::NodeId dst, sim::Time now) const;

  /// Removes/truncates every path using directed link `from -> to`.
  /// Returns how many cached paths were affected.
  std::size_t remove_link(net::NodeId from, net::NodeId to);

  [[nodiscard]] std::size_t size() const { return paths_.size(); }

  /// All cached paths (tests / diagnostics).
  [[nodiscard]] const std::vector<net::RouteVec> snapshot() const;

 private:
  struct Entry {
    net::RouteVec path;
    sim::Time last_used;
  };

  std::size_t capacity_;
  mutable std::vector<Entry> paths_;
};

}  // namespace mts::routing
