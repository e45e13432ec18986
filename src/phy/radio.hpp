#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/counters.hpp"
#include "net/small_vec.hpp"
#include "phy/frame.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace mts::phy {

class Channel;

/// Half-duplex radio transceiver attached to one node.
///
/// Reception model (ns-2 capture): an arrival during an ongoing
/// reception is itself undecodable, and corrupts the ongoing one unless
/// that one is at least the capture threshold stronger (10 dB);
/// transmitting makes the radio deaf; starting to transmit corrupts
/// anything being received.  Physical carrier sense is
/// `busy = transmitting || any reception in progress`, reported to the
/// MAC via edge-triggered callbacks.
///
/// The radio delivers *every* cleanly decoded frame to the MAC,
/// including frames addressed elsewhere — the MAC needs them for NAV,
/// and the security layer's promiscuous tap hangs off the same path.
class Radio {
 public:
  struct Callbacks {
    std::function<void(const Frame&)> on_frame;     ///< any decoded frame
    std::function<void(bool)> on_medium_busy;       ///< physical CS edges
    std::function<void()> on_tx_done;               ///< our frame finished
    /// A reception ended that could not be decoded (collision, or energy
    /// from beyond decode range) — the MAC's EIFS trigger.
    std::function<void()> on_rx_garbage;
  };

  Radio(sim::Scheduler& sched, net::NodeId id, net::Counters* counters)
      : sched_(&sched),
        id_(id),
        counters_(counters),
        tx_done_timer_(sched, [this] { tx_done(); },
                       sim::EventCategory::kPhy) {}

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  void set_channel(Channel* ch) { channel_ = ch; }
  void set_callbacks(Callbacks cb) { cb_ = std::move(cb); }

  [[nodiscard]] net::NodeId id() const { return id_; }

  /// Physical carrier: busy while transmitting or any energy arrives.
  [[nodiscard]] bool medium_busy() const {
    return transmitting() || !rx_.empty();
  }
  [[nodiscard]] bool transmitting() const { return sched_->now() < tx_end_; }

  /// MAC-facing: radiate `frame` for `airtime`.  Pre-condition: not
  /// already transmitting (the MAC's job to ensure).  Ongoing receptions
  /// are corrupted (half duplex).
  void start_transmit(const Frame& frame, sim::Time airtime);

  /// A started reception's end: the caller runs end_reception(id, ...)
  /// one airtime later in scheduler sequence `seq`.  begin_reception
  /// reserves `seq` before its callbacks run, so the end orders exactly
  /// as an event scheduled at that point would.
  struct ReceptionEnd {
    std::uint32_t id;
    std::uint64_t seq;
  };

  /// Channel-facing: energy begins arriving from `distance` metres away.
  /// `decodable` is false for frames inside carrier-sense range but
  /// beyond decode range.  The capture rule compares capture_power() of
  /// the distances, computed only when receptions overlap.  Returns the
  /// reception's end, or nullopt when the radio is deaf (transmitting).
  std::optional<ReceptionEnd> begin_reception(bool decodable,
                                              double distance);

  /// Channel-facing: reception `id` ends; `frame` is what it carried and
  /// must stay valid until the call returns.
  void end_reception(std::uint32_t id, const Frame& frame);

  /// ns-2 `WirelessPhy` capture rule: an ongoing reception survives a
  /// new arrival iff it is at least this power ratio stronger (10 dB);
  /// the newcomer is then discarded as noise.  Otherwise both corrupt.
  void set_capture_threshold(double ratio) { capture_threshold_ = ratio; }

  [[nodiscard]] std::uint64_t collisions() const { return collisions_; }
  [[nodiscard]] std::uint64_t frames_decoded() const { return decoded_; }
  [[nodiscard]] std::uint64_t frames_sent() const { return sent_; }

 private:
  struct Reception {
    double distance;
    double power;  ///< capture_power(distance) once read; < 0 until then
    std::uint32_t id;
    bool corrupt;
    bool decodable;
  };

  void tx_done();
  void medium_edge(bool was_busy);

  sim::Scheduler* sched_;
  net::NodeId id_;
  net::Counters* counters_;
  Channel* channel_ = nullptr;
  Callbacks cb_;

  /// Preallocated member timer for the end of our own transmission —
  /// one per radio instead of a fresh closure per frame.
  sim::Timer tx_done_timer_;
  sim::Time tx_end_ = sim::Time::zero();
  double capture_threshold_ = 10.0;
  /// The (tiny) set of in-flight receptions, inline, keyed by a
  /// per-radio id; the frames themselves stay in the channel's wave.
  net::SmallVec<Reception, 4> rx_;
  std::uint32_t next_rx_id_ = 0;
  std::uint64_t collisions_ = 0;
  std::uint64_t decoded_ = 0;
  std::uint64_t sent_ = 0;
};

}  // namespace mts::phy
