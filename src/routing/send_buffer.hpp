#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "net/ring.hpp"
#include "sim/time.hpp"

namespace mts::routing {

/// Holds data packets while route discovery runs.
///
/// Mirrors ns-2's DSR "send buffer": bounded capacity, per-packet age
/// limit, FIFO drop of the oldest when full.  The discovery core in
/// `RoutingProtocol` owns one at the defaults (64 packets, 30 s) for
/// each of DSR, AODV, SMR and MTS.  The entries live in a `Ring`, so a
/// node that never waits for a route never allocates one.
class SendBuffer {
 public:
  explicit SendBuffer(std::size_t capacity = 64,
                      sim::Time max_age = sim::Time::sec(30))
      : capacity_(capacity), max_age_(max_age), entries_(capacity) {}

  /// Adds a packet; returns the evicted oldest packet when full.
  std::optional<net::Packet> push(net::Packet p, sim::Time now) {
    std::optional<net::Packet> evicted;
    if (entries_.size() >= capacity_) {
      evicted = entries_.pop_front().packet;
    }
    entries_.push_back(Entry{std::move(p), now});
    return evicted;
  }

  /// Moves every buffered packet destined to `dst` into `out` (previous
  /// contents are discarded).  Caller-owned scratch, like
  /// Channel::neighbors_of: route discovery resolves once per flow, and
  /// returning a fresh vector each time would allocate on that path.
  void take_for(net::NodeId dst, std::vector<net::Packet>& out) {
    out.clear();
    entries_.extract_if(
        [dst](const Entry& e) { return e.packet.common().dst == dst; },
        [&out](Entry&& e) { out.push_back(std::move(e.packet)); });
  }

  /// Drops packets older than the age limit, reporting each.
  void expire(sim::Time now,
              const std::function<void(const net::Packet&)>& on_expired) {
    while (!entries_.empty() && now - entries_.front().queued_at > max_age_) {
      on_expired(entries_.pop_front().packet);
    }
  }

  [[nodiscard]] bool has_packet_for(net::NodeId dst) const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].packet.common().dst == dst) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// Entry slots allocated (0 until the first push).
  [[nodiscard]] std::size_t reserved() const { return entries_.capacity(); }

 private:
  struct Entry {
    net::Packet packet;
    sim::Time queued_at;
  };
  std::size_t capacity_;
  sim::Time max_age_;
  net::Ring<Entry> entries_;
};

}  // namespace mts::routing
