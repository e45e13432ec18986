#pragma once

#include <cstddef>
#include <optional>

#include "net/node_id.hpp"
#include "net/packet.hpp"
#include "net/ring.hpp"

namespace mts::net {

/// An entry waiting at the link layer: the packet plus its MAC-level
/// next hop (kBroadcastId for floods).
struct QueueItem {
  Packet packet;
  NodeId next_hop = kBroadcastId;
};

/// Priority interface queue in the style of ns-2's `Queue/DropTail
/// PriQueue`: routing-control packets go to a high-priority band and are
/// never dropped in favour of data; the total occupancy is capped (ns-2
/// wireless default: 50 packets).
///
/// Drop policy when full:
///  * arriving data         -> dropped (classic drop-tail);
///  * arriving control      -> the *newest data* packet is evicted to
///                             make room; if the queue is all control,
///                             the arriving packet is dropped.
///
/// Both bands are `Ring`s: a queue that never carries a packet never
/// allocates.
class PriQueue {
 public:
  explicit PriQueue(std::size_t capacity = 50)
      : capacity_(capacity), control_(capacity), data_(capacity) {}

  /// Attempts to enqueue.  Returns the packet that was dropped to make
  /// room (which may be the offered one), or nullopt when nothing was
  /// dropped.
  std::optional<QueueItem> enqueue(QueueItem item);

  /// Removes and returns the next item: control band first, FIFO within
  /// a band.  Returns nullopt when empty.
  std::optional<QueueItem> dequeue();

  /// Removes every queued item satisfying `pred` and hands it to `sink`:
  /// the control band first, then data, each in FIFO order (e.g. every
  /// item bound for a next hop declared broken).  Returns the count.
  template <typename Pred, typename Sink>
  std::size_t extract_if(Pred pred, Sink sink) {
    return control_.extract_if(pred, sink) + data_.extract_if(pred, sink);
  }

  [[nodiscard]] std::size_t size() const {
    return control_.size() + data_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t control_size() const { return control_.size(); }
  [[nodiscard]] std::size_t data_size() const { return data_.size(); }
  /// Slots the two bands hold allocated (0 until the first enqueue).
  [[nodiscard]] std::size_t reserved() const {
    return control_.capacity() + data_.capacity();
  }

 private:
  std::size_t capacity_;
  Ring<QueueItem> control_;
  Ring<QueueItem> data_;
};

}  // namespace mts::net
