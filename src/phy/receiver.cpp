#include "phy/receiver.hpp"

#include <algorithm>

#include "phy/propagation.hpp"
#include "sim/error.hpp"

namespace mts::phy {

std::optional<Receiver::ReceptionEnd> Receiver::begin_reception(
    sim::Scheduler& sched, bool decodable, double distance) {
  const sim::Time now = sched.now();
  if (transmitting(now)) {
    // Deaf while keyed up; the energy passes unnoticed (it also cannot
    // corrupt anything: we are not receiving).
    return std::nullopt;
  }
  // Capture (ns-2 WirelessPhy): the newcomer is noise to any ongoing
  // reception that is >= kCaptureThreshold stronger; such receptions
  // survive.  Weaker or comparable ongoing receptions are corrupted.
  // The newcomer itself is decodable only if the medium was clear, so
  // it never needs its own power kept.  Powers are read only here, so
  // each is computed on first need; corruption is final, so a corrupt
  // reception needs none.
  const bool was_busy = !rx_.empty();
  double power = -1.0;
  for (Reception& rx : rx_) {
    if (rx.corrupt) continue;
    if (power < 0.0) power = capture_power(distance);
    if (!rx.powered) {
      rx.level = capture_power(rx.level);
      rx.powered = true;
    }
    if (rx.level < power * kCaptureThreshold) rx.corrupt = true;
  }
  const std::uint32_t id = next_rx_id_++;
  rx_.push_back(Reception{distance, id, was_busy, decodable, false});
  const ReceptionEnd end{id, sched.reserve_seqs(1)};
  if (!was_busy) medium_edge(false, now);
  return end;
}

void Receiver::end_reception(sim::Time now, std::uint32_t id,
                             const Frame& frame) {
  Reception* it = std::find_if(rx_.begin(), rx_.end(),
                               [id](const Reception& r) { return r.id == id; });
  sim::require(it != rx_.end(), "Receiver: reception record lost");
  // Swap-remove the record *before* running callbacks: a callback may
  // re-enter begin_reception (MAC responses), which must see a
  // consistent set.
  const Reception rec = *it;
  *it = rx_.back();
  rx_.pop_back();
  // A spill past the inline capacity lasts only until the node is quiet.
  if (rx_.empty() && rx_.on_heap()) rx_ = Receptions{};
  if (rec.corrupt) {
    ++collisions_;
    undecodable_end_ = now;
  } else if (rec.decodable && !transmitting(now)) {
    ++decoded_;
    undecodable_end_ = kNoMark;  // a clean decode ends any EIFS deferral
    if (listener_ != nullptr) listener_->on_frame(frame);
  } else if (!rec.decodable) {
    undecodable_end_ = now;
  }
  medium_edge(/*was_busy=*/true, now);
}

void Receiver::medium_edge(bool was_busy, sim::Time now) {
  const bool is_busy = busy(now);
  if (is_busy == was_busy) return;
  if (!is_busy) idle_since_ = now;
  if (edge_calls_ && listener_ != nullptr) {
    ++edges_reported_;
    listener_->on_medium_busy(is_busy);
  }
}

}  // namespace mts::phy
