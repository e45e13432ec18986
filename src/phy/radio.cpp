#include "phy/radio.hpp"

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

Radio::Radio(Channel& channel, net::NodeId id)
    : channel_(&channel),
      sched_(&channel.scheduler()),
      id_(id),
      tx_done_timer_(*sched_, sim::bind<&Radio::tx_done>(this),
                     sim::EventCategory::kPhy) {
  sim::require(id < channel.node_count(), "Radio: node not attached");
}

void Radio::start_transmit(const Frame& frame, sim::Time airtime) {
  Receiver& r = rx();
  const sim::Time now = sched_->now();
  sim::require(!r.transmitting(now), "Radio: start_transmit while transmitting");
  const bool was_busy = r.busy(now);
  r.key_up(now + airtime);
  ++sent_;
  channel_->transmit(id_, frame, airtime);
  tx_done_timer_.schedule_at(now + airtime);
  if (!was_busy) r.medium_edge(false, now);
}

void Radio::tx_done() {
  Receiver& r = rx();
  if (RadioListener* l = r.listener()) l->on_tx_done();
  r.medium_edge(/*was_busy=*/true, sched_->now());
}

}  // namespace mts::phy
