#pragma once

#include <cstdint>
#include <optional>

#include "net/small_vec.hpp"
#include "phy/frame.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace mts::phy {

/// A node's one client of the medium (the MAC).
class RadioListener {
 public:
  virtual void on_frame(const Frame& f) = 0;   ///< any decoded frame
  virtual void on_medium_busy(bool busy) = 0;  ///< CS edges, if asked
  virtual void on_tx_done() = 0;               ///< our frame finished

 protected:
  ~RadioListener() = default;
};

/// One node's reception state: a record of the channel's receiver
/// table, indexed by node id.  A wave step at a node touches this record
/// and nothing else unless the node has something to report.
///
/// Reception model (ns-2 capture): an arrival during an ongoing
/// reception is itself undecodable, and corrupts the ongoing one unless
/// that one is at least the capture threshold stronger (10 dB);
/// transmitting makes the node deaf; starting to transmit corrupts
/// anything being received.  Physical carrier sense is
/// `busy = transmitting || any reception in progress`.
///
/// The record keeps the two carrier-sense marks the MAC's deferral
/// needs: the time of the last busy->idle edge (DIFS counts from it) and
/// the end of the last undecodable reception — a collision, or energy
/// from beyond decode range — since the last clean decode (EIFS counts
/// from it).  It updates both on every reception, but reports edges to
/// its listener only while the listener asked for them
/// (`set_edge_calls`): the MAC asks only while it has something to
/// send, so the idle majority of a large field hears no edges at all and
/// reads the marks when it next contends.
///
/// The record delivers *every* cleanly decoded frame to its listener,
/// including frames addressed elsewhere — the MAC needs them for NAV,
/// and the security layer's promiscuous tap hangs off the same path.
class alignas(64) Receiver {
 public:
  /// ns-2 `WirelessPhy` capture rule: an ongoing reception survives a
  /// new arrival iff it is at least this power ratio stronger (10 dB);
  /// the newcomer is then discarded as noise.  Otherwise both corrupt.
  static constexpr double kCaptureThreshold = 10.0;

  /// Receptions held inline.  Measured overlap depth (receptions in
  /// flight once an arrival joins, MTS at paper density): at most 3 for
  /// 99.9% of arrivals at 1k nodes and 99.3% at 10k.  Deeper overlaps
  /// spill to the heap until the node falls quiet again.
  static constexpr std::size_t kInlineReceptions = 3;

  /// A started reception's end: the caller runs end_reception(..., id,
  /// ...) one airtime later in scheduler sequence `seq`.  begin_reception
  /// reserves `seq` before its listener runs, so the end orders exactly
  /// as an event scheduled at that point would.
  struct ReceptionEnd {
    std::uint32_t id;
    std::uint64_t seq;
  };

  void set_listener(RadioListener* l) { listener_ = l; }
  [[nodiscard]] RadioListener* listener() const { return listener_; }
  /// Whether carrier-sense edges reach the listener (off at start).
  void set_edge_calls(bool on) { edge_calls_ = on; }

  [[nodiscard]] bool transmitting(sim::Time now) const { return now < tx_end_; }
  /// Physical carrier: busy while transmitting or any energy arrives.
  [[nodiscard]] bool busy(sim::Time now) const {
    return transmitting(now) || !rx_.empty();
  }
  /// Time of the last busy->idle edge (zero before the first).
  [[nodiscard]] sim::Time idle_since() const { return idle_since_; }
  /// End of the last undecodable reception, unless a clean decode has
  /// happened since.
  [[nodiscard]] std::optional<sim::Time> undecodable_end() const {
    if (undecodable_end_ == kNoMark) return std::nullopt;
    return undecodable_end_;
  }

  /// Half duplex: the node transmits until `tx_end`, and anything being
  /// received is lost the instant it keys up.
  void key_up(sim::Time tx_end) {
    for (Reception& rx : rx_) rx.corrupt = true;
    tx_end_ = tx_end;
  }

  /// Energy begins arriving from `distance` metres away.  `decodable` is
  /// false for frames inside carrier-sense range but beyond decode
  /// range.  The capture rule compares capture_power() of the distances,
  /// computed only when receptions overlap.  Returns the reception's
  /// end, or nullopt when the node is deaf (transmitting).
  std::optional<ReceptionEnd> begin_reception(sim::Scheduler& sched,
                                              bool decodable, double distance);

  /// Reception `id` ends at `now`; `frame` is what it carried and must
  /// stay valid until the call returns.
  void end_reception(sim::Time now, std::uint32_t id, const Frame& frame);

  /// Records a carrier-sense change at `now` (the medium was `was_busy`
  /// before the caller's step) and reports it if the listener asked.
  void medium_edge(bool was_busy, sim::Time now);

  [[nodiscard]] std::uint64_t collisions() const { return collisions_; }
  [[nodiscard]] std::uint64_t frames_decoded() const { return decoded_; }
  /// Carrier-sense edges passed up to the listener.
  [[nodiscard]] std::uint64_t edges_reported() const { return edges_reported_; }
  /// Whether the in-flight receptions spilled past the inline capacity.
  [[nodiscard]] bool receptions_on_heap() const { return rx_.on_heap(); }

 private:
  static constexpr sim::Time kNoMark = sim::Time::ns(-1);

  struct Reception {
    /// Distance (m) until the capture rule first needs this reception's
    /// power, then capture_power(distance).
    double level;
    std::uint32_t id;
    bool corrupt;
    bool decodable;
    bool powered;  ///< `level` holds the power
  };
  using Receptions = net::SmallVec<Reception, kInlineReceptions>;

  /// The in-flight receptions; the frames themselves stay in the
  /// channel's wave.
  Receptions rx_;
  sim::Time tx_end_ = sim::Time::zero();
  sim::Time idle_since_ = sim::Time::zero();
  sim::Time undecodable_end_ = kNoMark;
  RadioListener* listener_ = nullptr;
  std::uint64_t collisions_ = 0;
  std::uint64_t decoded_ = 0;
  std::uint64_t edges_reported_ = 0;
  std::uint32_t next_rx_id_ = 0;
  bool edge_calls_ = false;
};

static_assert(sizeof(Receiver) <= 128 && alignof(Receiver) == 64,
              "a receiver record must stay within two cache lines");

}  // namespace mts::phy
