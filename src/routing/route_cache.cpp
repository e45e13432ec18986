#include "routing/route_cache.hpp"

#include <algorithm>

namespace mts::routing {

void RouteCache::add(net::RouteVec path, sim::Time now) {
  if (path.size() < 2) return;
  for (auto& e : paths_) {
    if (e.path == path) {
      e.last_used = now;
      return;
    }
  }
  if (paths_.size() >= capacity_) {
    auto lru = std::min_element(paths_.begin(), paths_.end(),
                                [](const Entry& a, const Entry& b) {
                                  return a.last_used < b.last_used;
                                });
    paths_.erase(lru);
  }
  paths_.push_back(Entry{std::move(path), now});
}

std::optional<net::RouteVec> RouteCache::find(net::NodeId dst,
                                              sim::Time now) const {
  const Entry* best = nullptr;
  for (auto& e : paths_) {
    if (e.path.back() != dst) {
      // A prefix of a longer path also reaches intermediate nodes.
      auto it = std::find(e.path.begin(), e.path.end(), dst);
      if (it == e.path.end()) continue;
    }
    if (best == nullptr || e.path.size() < best->path.size()) best = &e;
  }
  if (best == nullptr) return std::nullopt;
  const_cast<Entry*>(best)->last_used = now;
  // Trim to the requested destination if it is interior.
  auto it = std::find(best->path.begin(), best->path.end(), dst);
  return net::RouteVec(best->path.begin(), it + 1);
}

std::size_t RouteCache::remove_link(net::NodeId from, net::NodeId to) {
  std::size_t affected = 0;
  for (auto it = paths_.begin(); it != paths_.end();) {
    auto& p = it->path;
    bool hit = false;
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      if (p[i] == from && p[i + 1] == to) {
        hit = true;
        // Keep the still-valid prefix if it is a useful route (>= 2 nodes).
        p.resize(i + 1);
        break;
      }
    }
    if (hit) {
      ++affected;
      if (p.size() < 2) {
        it = paths_.erase(it);
        continue;
      }
    }
    ++it;
  }
  return affected;
}

const std::vector<net::RouteVec> RouteCache::snapshot() const {
  std::vector<net::RouteVec> out;
  out.reserve(paths_.size());
  for (const auto& e : paths_) out.push_back(e.path);
  return out;
}

}  // namespace mts::routing
