#include "phy/radio.hpp"

#include <algorithm>

#include "phy/channel.hpp"
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
  for (const std::uint32_t idx : active_) slots_[idx].corrupt = true;
  tx_end_ = sched_->now() + airtime;
  ++sent_;
  if (counters_ != nullptr) ++counters_->mac_tx_frames;
  channel_->transmit(id_, frame, airtime);
  tx_done_timer_.schedule_at(tx_end_);
  if (!was_busy) medium_edge(false);
}

void Radio::tx_done() {
  if (cb_.on_tx_done) cb_.on_tx_done();
  medium_edge(/*was_busy=*/true);
}

std::optional<Radio::ReceptionEnd> Radio::begin_reception(
    const Frame& frame, sim::Time airtime, bool decodable, double rx_power) {
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
  bool corrupt = false;
  for (const std::uint32_t idx : active_) {
    corrupt = true;
    Reception& rx = slots_[idx];
    if (rx.power < rx_power * capture_threshold_) rx.corrupt = true;
  }
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  slots_[slot] =
      Reception{frame, sched_->now() + airtime, corrupt, decodable, rx_power};
  active_.push_back(slot);
  const ReceptionEnd end{slot, sched_->reserve_seqs(1)};
  if (!was_busy) medium_edge(false);
  return end;
}

void Radio::end_reception(std::uint32_t slot) {
  auto it = std::find(active_.begin(), active_.end(), slot);
  sim::require(it != active_.end(), "Radio: reception record lost");
  // Swap-remove from the active list, move the record out, and recycle
  // the slot *before* running callbacks: a callback may re-enter
  // begin_reception (MAC responses), which must see a consistent pool.
  // The move empties the slot's packet handle, so the pooled body is
  // released the moment the reception ends, not when the slot recycles.
  *it = active_.back();
  active_.pop_back();
  const Reception rec = std::move(slots_[slot]);
  free_.push_back(slot);
  if (rec.corrupt) {
    ++collisions_;
    if (counters_ != nullptr) counters_->drop(net::DropReason::kCollision);
    if (cb_.on_rx_garbage) cb_.on_rx_garbage();
  } else if (rec.decodable && !transmitting()) {
    ++decoded_;
    if (counters_ != nullptr) ++counters_->mac_rx_frames;
    if (cb_.on_frame) cb_.on_frame(rec.frame);
  } else if (!rec.decodable) {
    if (cb_.on_rx_garbage) cb_.on_rx_garbage();
  }
  medium_edge(/*was_busy=*/true);
}

void Radio::medium_edge(bool was_busy) {
  const bool busy = medium_busy();
  if (busy != was_busy && cb_.on_medium_busy) cb_.on_medium_busy(busy);
}

}  // namespace mts::phy
