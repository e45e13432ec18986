#include "phy/radio.hpp"

#include <algorithm>

#include "phy/channel.hpp"
#include "phy/propagation.hpp"
#include "sim/error.hpp"

namespace mts::phy {

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kData: return "DATA";
    case FrameType::kAck: return "ACK";
    case FrameType::kRts: return "RTS";
    case FrameType::kCts: return "CTS";
  }
  return "?";
}

void Radio::start_transmit(const Frame& frame, sim::Time airtime) {
  sim::require(channel_ != nullptr, "Radio: no channel attached");
  sim::require(!transmitting(), "Radio: start_transmit while transmitting");
  const bool was_busy = medium_busy();
  // Half duplex: anything being received is lost the instant we key up.
  for (Reception& rx : rx_) rx.corrupt = true;
  tx_end_ = sched_->now() + airtime;
  ++sent_;
  if (counters_ != nullptr) ++counters_->mac_tx_frames;
  channel_->transmit(id_, frame, airtime);
  tx_done_timer_.schedule_at(tx_end_);
  if (!was_busy) medium_edge(false);
}

void Radio::tx_done() {
  if (listener_ != nullptr) listener_->on_tx_done();
  medium_edge(/*was_busy=*/true);
}

std::optional<Radio::ReceptionEnd> Radio::begin_reception(bool decodable,
                                                          double distance) {
  if (transmitting()) {
    // Deaf while keyed up; the energy passes unnoticed (it also cannot
    // corrupt anything: we are not receiving).
    return std::nullopt;
  }
  const bool was_busy = medium_busy();
  // Capture (ns-2 WirelessPhy): the newcomer is noise to any ongoing
  // reception that is >= capture_threshold_ stronger; such receptions
  // survive.  Weaker or comparable ongoing receptions are corrupted.
  // The newcomer itself is decodable only if the medium was clear.
  // Powers are read only here, so each is computed on first need and
  // kept; corruption is final, so a corrupt reception needs none.
  const bool corrupt = !rx_.empty();
  double power = -1.0;
  for (Reception& rx : rx_) {
    if (rx.corrupt) continue;
    if (power < 0.0) power = capture_power(distance);
    if (rx.power < 0.0) rx.power = capture_power(rx.distance);
    if (rx.power < power * capture_threshold_) rx.corrupt = true;
  }
  const std::uint32_t id = next_rx_id_++;
  rx_.push_back(Reception{distance, power, id, corrupt, decodable});
  const ReceptionEnd end{id, sched_->reserve_seqs(1)};
  if (!was_busy) medium_edge(false);
  return end;
}

void Radio::end_reception(std::uint32_t id, const Frame& frame) {
  Reception* it = std::find_if(rx_.begin(), rx_.end(),
                               [id](const Reception& r) { return r.id == id; });
  sim::require(it != rx_.end(), "Radio: reception record lost");
  // Swap-remove the record *before* running callbacks: a callback may
  // re-enter begin_reception (MAC responses), which must see a
  // consistent set.
  const Reception rec = *it;
  *it = rx_.back();
  rx_.pop_back();
  if (rec.corrupt) {
    ++collisions_;
    if (counters_ != nullptr) counters_->drop(net::DropReason::kCollision);
    undecodable_end_ = sched_->now();
  } else if (rec.decodable && !transmitting()) {
    ++decoded_;
    if (counters_ != nullptr) ++counters_->mac_rx_frames;
    undecodable_end_.reset();  // a clean decode ends any EIFS deferral
    if (listener_ != nullptr) listener_->on_frame(frame);
  } else if (!rec.decodable) {
    undecodable_end_ = sched_->now();
  }
  medium_edge(/*was_busy=*/true);
}

void Radio::medium_edge(bool was_busy) {
  const bool busy = medium_busy();
  if (busy == was_busy) return;
  if (!busy) idle_since_ = sched_->now();
  if (edge_calls_ && listener_ != nullptr) {
    ++edges_reported_;
    listener_->on_medium_busy(busy);
  }
}

}  // namespace mts::phy
