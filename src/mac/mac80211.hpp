#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mac/dup_cache.hpp"
#include "net/counters.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "phy/channel.hpp"
#include "phy/receiver.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace mts::mac {

/// IEEE 802.11 DSSS timing and policy, at the ns-2 wireless defaults the
/// paper's simulations used (2 Mb/s PHY, long PLCP preamble).
struct MacConfig {
  double data_rate_bps = 2e6;    ///< unicast data payload rate
  double basic_rate_bps = 2e6;   ///< broadcast + control frames
  sim::Time slot = sim::Time::us(20);
  sim::Time sifs = sim::Time::us(10);
  sim::Time difs = sim::Time::us(50);      ///< SIFS + 2 * slot
  sim::Time plcp_overhead = sim::Time::us(192);  ///< preamble + PLCP header
  std::uint32_t cw_min = 31;
  std::uint32_t cw_max = 1023;
  std::uint32_t retry_limit = 7;           ///< short retry count
  std::uint32_t data_header_bytes = 28;    ///< MAC header (24) + FCS (4)
  std::uint32_t ack_bytes = 14;
  std::uint32_t rts_bytes = 20;
  std::uint32_t cts_bytes = 14;
  std::size_t queue_capacity = 50;         ///< ns-2 ifq default
  /// Frames at least this large (MAC payload bytes) use RTS/CTS;
  /// 0 disables the handshake entirely (paper-default basic access).
  std::uint32_t rts_threshold_bytes = 0;
  /// Allowance for propagation + turnaround when timing out responses.
  sim::Time timeout_slack = sim::Time::us(30);
};

/// Up-calls from a node's MAC to the layer above.  One listener may
/// serve every node of a run: each call names the MAC's own node.
class MacListener {
 public:
  /// A decoded frame addressed to `self` (or broadcast) carried a network
  /// packet; `from` is the MAC-level transmitter.
  virtual void on_mac_receive(net::NodeId self, net::Packet&& packet,
                              net::NodeId from) = 0;
  /// Unicast abandoned after the retry limit — the routing protocol's
  /// link-failure signal (paper §III-E "feedback from the MAC layer").
  virtual void on_unicast_failure(net::NodeId self, const net::Packet& packet,
                                  net::NodeId next_hop) = 0;
  /// Unicast acknowledged by the next hop.
  virtual void on_unicast_success(net::NodeId /*self*/,
                                  const net::Packet& /*packet*/,
                                  net::NodeId /*next_hop*/) {}
  /// Every cleanly decoded DATA frame, regardless of its addressee —
  /// promiscuous tap for the eavesdropper / relay census.  Called only
  /// by a MAC whose listener was set with `promiscuous`.
  virtual void on_sniff(net::NodeId /*self*/, const phy::Frame& /*frame*/) {}

 protected:
  ~MacListener() = default;
};

/// IEEE 802.11 DCF for one node of a `phy::Channel`.
///
/// Implements: physical + virtual (NAV) carrier sense, DIFS deferral,
/// EIFS deferral after an undecodable reception, freezing
/// binary-exponential backoff, post-transmission backoff, unicast
/// DATA->ACK with retry limit and link-failure callback, optional
/// RTS/CTS, broadcast without ACK, a priority interface queue, and
/// receive-side duplicate filtering.
///
/// The MAC keys up through `Channel::transmit` and listens to its
/// node's receiver record in the channel.  Carrier sense lives in that
/// record, not here: whether the node transmits or the medium is busy,
/// the last busy->idle edge, and the end of the last undecodable
/// reception (cleared by a clean decode).  `kick` derives the DIFS
/// start and `mark + EIFS` from the two marks when it contends.  So
/// the MAC needs edge up-calls only while it has work — a current
/// frame, a queued packet or an access phase: `enqueue` switches them
/// on and `kick` switches them off once the MAC falls idle.  Decoded
/// frames and the end of our own transmissions always reach it.
///
/// Not modelled (documented simplifications): fragmentation and rate
/// adaptation — neither of which the paper's 2005 study models either.
class Mac80211 : private phy::RadioListener {
 public:
  /// Node `id` must be one of `channel`'s nodes.  `cfg` is shared,
  /// not copied: one config serves every node of a run and must outlive
  /// the MAC.
  Mac80211(phy::Channel& channel, net::NodeId id, const MacConfig& cfg,
           sim::Rng rng, net::Counters* counters);
  Mac80211(phy::Channel&, net::NodeId, const MacConfig&&, sim::Rng,
           net::Counters*) = delete;

  Mac80211(const Mac80211&) = delete;
  Mac80211& operator=(const Mac80211&) = delete;

  /// Sets the up-call target (null: decoded packets go nowhere).  A
  /// `promiscuous` MAC also reports every DATA frame it decodes.
  void set_listener(MacListener* listener, bool promiscuous = false) {
    listener_ = listener;
    promiscuous_ = promiscuous && listener != nullptr;
  }

  [[nodiscard]] net::NodeId id() const { return id_; }
  [[nodiscard]] const MacConfig& config() const { return *cfg_; }

  /// Hands a packet to the link layer.  Returns false if it was dropped
  /// immediately (queue overflow); a queue drop is counted either way.
  bool enqueue(net::Packet packet, net::NodeId next_hop);

  /// Pulls every queued packet whose next hop is `hop` out of the
  /// interface queue (link declared dead by routing).  The in-flight
  /// frame, if any, is not touched — it will fail on its own.
  [[nodiscard]] std::vector<net::QueueItem> take_queued_for(net::NodeId hop);

  /// The receive-side duplicate filter (read-only introspection).
  [[nodiscard]] const RxDupCache& rx_dup_cache() const {
    return rx_seq_cache_;
  }
  [[nodiscard]] bool idle() const {
    return state_ == State::kIdle && queue_.empty();
  }

  /// Airtime of a MAC frame of `mac_bytes` total bytes at `rate`.
  [[nodiscard]] sim::Time airtime(std::uint32_t mac_bytes, double rate) const {
    return cfg_->plcp_overhead +
           sim::Time::seconds(static_cast<double>(mac_bytes) * 8.0 / rate);
  }

 private:
  enum class State : std::uint8_t { kIdle, kAccess, kWaitCts, kWaitAck };
  enum class TxKind : std::uint8_t { kNone, kBroadcast, kData, kRts, kResponse };
  enum class AccessPhase : std::uint8_t { kNone, kNav, kDifs, kBackoff };

  // Receiver-facing handlers.
  void on_frame(const phy::Frame& f) final;
  void on_medium_busy(bool busy) final;
  void on_tx_done() final;

  void handle_data(const phy::Frame& f);
  void handle_ack(const phy::Frame& f);
  void handle_rts(const phy::Frame& f);
  void handle_cts(const phy::Frame& f);

  /// Drives the contention state machine; safe to call whenever anything
  /// that gates transmission may have changed.
  void kick();
  void access_timer_fired();
  void response_timer_fired();
  void tx_defer_timer_fired();
  void transmit_current();
  void send_data_frame();
  void send_response(phy::FrameType type, net::NodeId to, sim::Time nav);
  void response_due(const phy::Frame& f);
  /// ACK or CTS timeout: back off and retry, or give up on the frame.
  void retry_or_fail();
  void finish_current();
  void draw_backoff() {
    bo_slots_ = static_cast<std::int32_t>(rng_.uniform_int(0, cw_));
  }

  [[nodiscard]] bool uses_rts(const net::QueueItem& item) const;
  [[nodiscard]] sim::Time ack_airtime() const {
    return airtime(cfg_->ack_bytes, cfg_->basic_rate_bps);
  }
  [[nodiscard]] sim::Time cts_airtime() const {
    return airtime(cfg_->cts_bytes, cfg_->basic_rate_bps);
  }
  [[nodiscard]] std::uint32_t frame_bytes(const net::Packet& p) const {
    return p.wire_bytes() + cfg_->data_header_bytes;
  }
  [[nodiscard]] phy::Receiver& rx() const { return channel_->receiver(id_); }
  /// Physical carrier: busy while transmitting or any energy arrives.
  [[nodiscard]] bool medium_busy() const { return rx().busy(sched_->now()); }
  [[nodiscard]] bool transmitting() const {
    return rx().transmitting(sched_->now());
  }

  phy::Channel* channel_;
  sim::Scheduler* sched_;
  const MacConfig* cfg_;
  /// EIFS deferral past an undecodable reception: SIFS + ACK + DIFS.
  sim::Time eifs_;
  sim::Rng rng_;
  net::Counters* counters_;
  MacListener* listener_ = nullptr;

  net::PriQueue queue_;
  std::optional<net::QueueItem> current_;
  State state_ = State::kIdle;
  TxKind tx_kind_ = TxKind::kNone;
  AccessPhase phase_ = AccessPhase::kNone;
  bool promiscuous_ = false;
  net::NodeId id_;

  std::uint16_t tx_seq_ = 0;
  std::uint32_t retries_ = 0;
  std::uint32_t cw_;
  std::int32_t bo_slots_ = -1;  ///< -1: no backoff pending
  sim::Time nav_end_ = sim::Time::zero();
  sim::Time backoff_countdown_start_ = sim::Time::zero();

  sim::Timer access_timer_;
  sim::Timer response_timer_;  ///< ACK / CTS timeout
  sim::Timer tx_defer_timer_;  ///< SIFS gap between CTS arrival and DATA

  /// Receive-side duplicate filter: last MAC seq per transmitter, in a
  /// fixed open-addressed table allocated on the first unicast DATA
  /// reception (no heap on the per-frame path after that).
  RxDupCache rx_seq_cache_;
};

static_assert(sizeof(Mac80211) <= 400,
              "Mac80211 grew: one per node, so per-node state must stay "
              "small (share configs, bind timers to member functions, "
              "keep tables most nodes never use behind a pointer)");

}  // namespace mts::mac
