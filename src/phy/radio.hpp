#pragma once

#include <cstdint>
#include <optional>

#include "phy/channel.hpp"
#include "phy/frame.hpp"
#include "phy/receiver.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace mts::phy {

/// The MAC-facing transmit side of one node's half-duplex transceiver.
///
/// The reception side — in-flight receptions, capture, the carrier-sense
/// marks, the listener — is the node's `Receiver` record in the
/// channel's receiver table; the radio reads it there.  What stays here
/// is keying up and the timer that reports the end of our own
/// transmission, which always reaches the listener.
class Radio {
 public:
  /// Node `id` must already be attached to `channel`.
  Radio(Channel& channel, net::NodeId id);

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  void set_listener(RadioListener* l) { rx().set_listener(l); }
  /// Whether carrier-sense edges reach the listener (off at start).
  void set_edge_calls(bool on) { rx().set_edge_calls(on); }

  [[nodiscard]] net::NodeId id() const { return id_; }

  /// Physical carrier: busy while transmitting or any energy arrives.
  [[nodiscard]] bool medium_busy() const { return rx().busy(sched_->now()); }
  [[nodiscard]] bool transmitting() const {
    return rx().transmitting(sched_->now());
  }

  /// Time of the last busy->idle edge (zero before the first).
  [[nodiscard]] sim::Time idle_since() const { return rx().idle_since(); }
  /// End of the last undecodable reception, unless a clean decode has
  /// happened since.
  [[nodiscard]] std::optional<sim::Time> undecodable_end() const {
    return rx().undecodable_end();
  }

  /// MAC-facing: radiate `frame` for `airtime`.  Pre-condition: not
  /// already transmitting (the MAC's job to ensure).  Ongoing receptions
  /// are corrupted (half duplex).
  void start_transmit(const Frame& frame, sim::Time airtime);

  [[nodiscard]] std::uint64_t collisions() const { return rx().collisions(); }
  [[nodiscard]] std::uint64_t frames_decoded() const {
    return rx().frames_decoded();
  }
  [[nodiscard]] std::uint64_t frames_sent() const { return sent_; }
  /// Carrier-sense edges passed up to the listener.
  [[nodiscard]] std::uint64_t edges_reported() const {
    return rx().edges_reported();
  }

 private:
  [[nodiscard]] Receiver& rx() const { return channel_->receiver(id_); }
  void tx_done();

  Channel* channel_;
  sim::Scheduler* sched_;
  net::NodeId id_;
  /// Preallocated member timer for the end of our own transmission —
  /// one per radio instead of a fresh closure per frame.
  sim::Timer tx_done_timer_;
  std::uint64_t sent_ = 0;
};

}  // namespace mts::phy
