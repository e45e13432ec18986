#pragma once

#include <cstdint>
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
/// `busy = transmitting || any reception in progress`.
///
/// The radio keeps the two carrier-sense marks the MAC's deferral needs:
/// the time of the last busy->idle edge (DIFS counts from it) and the
/// end of the last undecodable reception — a collision, or energy from
/// beyond decode range — since the last clean decode (EIFS counts from
/// it).  It updates both on every reception, but reports edges to its
/// listener only while the listener asked for them
/// (`set_edge_calls`): the MAC asks only while it has something to
/// send, so the idle majority of a large field hears no edges at all
/// and reads the marks when it next contends.
///
/// The radio delivers *every* cleanly decoded frame to its listener,
/// including frames addressed elsewhere — the MAC needs them for NAV,
/// and the security layer's promiscuous tap hangs off the same path —
/// and always reports the end of its own transmissions.
class Radio {
 public:
  /// The radio's one client (the MAC).
  class Listener {
   public:
    virtual void on_frame(const Frame& f) = 0;   ///< any decoded frame
    virtual void on_medium_busy(bool busy) = 0;  ///< CS edges, if asked
    virtual void on_tx_done() = 0;               ///< our frame finished

   protected:
    ~Listener() = default;
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
  void set_listener(Listener* l) { listener_ = l; }
  /// Whether carrier-sense edges reach the listener (off at start).
  void set_edge_calls(bool on) { edge_calls_ = on; }

  [[nodiscard]] net::NodeId id() const { return id_; }

  /// Physical carrier: busy while transmitting or any energy arrives.
  [[nodiscard]] bool medium_busy() const {
    return transmitting() || !rx_.empty();
  }
  [[nodiscard]] bool transmitting() const { return sched_->now() < tx_end_; }

  /// Time of the last busy->idle edge (zero before the first).
  [[nodiscard]] sim::Time idle_since() const { return idle_since_; }
  /// End of the last undecodable reception, unless a clean decode has
  /// happened since.
  [[nodiscard]] std::optional<sim::Time> undecodable_end() const {
    return undecodable_end_;
  }

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
  /// Carrier-sense edges passed up to the listener.
  [[nodiscard]] std::uint64_t edges_reported() const { return edges_reported_; }

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
  Listener* listener_ = nullptr;
  bool edge_calls_ = false;

  /// Preallocated member timer for the end of our own transmission —
  /// one per radio instead of a fresh closure per frame.
  sim::Timer tx_done_timer_;
  sim::Time tx_end_ = sim::Time::zero();
  sim::Time idle_since_ = sim::Time::zero();
  std::optional<sim::Time> undecodable_end_;
  double capture_threshold_ = 10.0;
  /// The (tiny) set of in-flight receptions, inline, keyed by a
  /// per-radio id; the frames themselves stay in the channel's wave.
  net::SmallVec<Reception, 4> rx_;
  std::uint32_t next_rx_id_ = 0;
  std::uint64_t collisions_ = 0;
  std::uint64_t decoded_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t edges_reported_ = 0;
};

}  // namespace mts::phy
