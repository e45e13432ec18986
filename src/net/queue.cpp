#include "net/queue.hpp"

#include <utility>

namespace mts::net {

std::optional<QueueItem> PriQueue::enqueue(QueueItem item) {
  const bool control = item.packet.is_control();
  if (size() < capacity_) {
    (control ? control_ : data_).push_back(std::move(item));
    return std::nullopt;
  }
  if (control && !data_.empty()) {
    // Evict the newest data packet; control must get through (it is what
    // will eventually fix whatever is congesting us).
    QueueItem victim = data_.pop_back();
    control_.push_back(std::move(item));
    return victim;
  }
  return item;  // drop the arrival
}

std::optional<QueueItem> PriQueue::dequeue() {
  if (!control_.empty()) return control_.pop_front();
  if (!data_.empty()) return data_.pop_front();
  return std::nullopt;
}

}  // namespace mts::net
