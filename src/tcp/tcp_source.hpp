#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/counters.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"
#include "tcp/flow_stats.hpp"
#include "tcp/rtt_estimator.hpp"
#include "tcp/tcp_config.hpp"
#include "tcp/transport_listener.hpp"

namespace mts::tcp {

/// One-way TCP sender with an infinite (FTP-style) backlog, in the mould
/// of ns-2's `Agent/TCP` + `Application/FTP` pair the paper simulates.
///
/// Implements slow start, congestion avoidance, fast retransmit, and —
/// depending on `TcpConfig::variant` — Tahoe restart, Reno fast
/// recovery, or NewReno partial-ACK recovery.  RTO per RFC 6298 with
/// Karn's algorithm (timestamps echoed by the sink carry a retransmit
/// flag that suppresses the sample).
///
/// Segments leave through `listener.send`.  `cfg` is shared, not
/// copied: it must outlive the source.
class TcpSource {
 public:
  TcpSource(sim::Scheduler& sched, TransportListener& listener,
            net::NodeId self, net::NodeId dst, std::uint16_t flow_id,
            const TcpConfig& cfg, net::UidSource* uids,
            net::Counters* counters, FlowStats* stats);
  TcpSource(sim::Scheduler&, TransportListener&, net::NodeId, net::NodeId,
            std::uint16_t, TcpConfig&&, net::UidSource*, net::Counters*,
            FlowStats*) = delete;  // the source would outlive its config

  /// Begins transmitting at absolute time `at`.
  void start(sim::Time at);

  /// Caps the backlog at `segments` (sequence numbers 1..segments) and
  /// calls `listener.transfer_done` exactly once, when the final segment
  /// is cumulatively acknowledged.  Without it the source keeps its ns-2
  /// infinite-FTP behavior.
  void set_transfer(std::uint32_t segments);

  /// Hands an ACK packet (routed to this node) to the sender.
  void on_ack(const net::Packet& ack);

  // --- inspection -------------------------------------------------------
  [[nodiscard]] double cwnd() const { return cwnd_; }
  [[nodiscard]] std::uint32_t ssthresh() const { return ssthresh_; }
  [[nodiscard]] std::uint32_t snd_una() const { return snd_una_; }
  [[nodiscard]] std::uint32_t snd_nxt() const { return snd_nxt_; }
  [[nodiscard]] bool in_fast_recovery() const { return in_fr_; }
  [[nodiscard]] const RttEstimator& rtt() const { return rtt_; }
  [[nodiscard]] const std::vector<std::pair<sim::Time, double>>& cwnd_trace()
      const {
    return cwnd_trace_;
  }
  [[nodiscard]] net::NodeId destination() const { return dst_; }
  [[nodiscard]] std::uint16_t flow_id() const { return flow_id_; }

 private:
  void send_window();
  /// Sends segment `seq`; whether it is a retransmission is derived from
  /// the high-water mark of previously sent sequence numbers.
  void transmit_segment(std::uint32_t seq);
  void on_new_ack(std::uint32_t ack, const net::TcpHeader& h);
  void on_dup_ack();
  void enter_fast_retransmit();
  void on_rto();
  void arm_rto();
  void maybe_complete();
  void note_cwnd() {
    if (cfg_->trace_cwnd) cwnd_trace_.emplace_back(sched_->now(), cwnd_);
  }
  [[nodiscard]] std::uint32_t window() const {
    const auto w = static_cast<std::uint32_t>(cwnd_);
    return std::min(w, cfg_->max_window);
  }
  [[nodiscard]] std::uint32_t flight_size() const {
    return snd_nxt_ - snd_una_;
  }

  sim::Scheduler* sched_;
  TransportListener* listener_;
  net::NodeId self_;
  net::NodeId dst_;
  std::uint16_t flow_id_;
  const TcpConfig* cfg_;
  net::UidSource* uids_;
  net::Counters* counters_;
  FlowStats* stats_;

  // Sequence space in segments; 1-based so that ack==1 means "nothing
  // received yet, expecting segment 1".
  std::uint32_t snd_una_ = 1;
  std::uint32_t snd_nxt_ = 1;
  std::uint32_t max_seq_sent_ = 0;  ///< high-water mark (retx detection)
  double cwnd_ = 1.0;
  std::uint32_t ssthresh_;
  std::uint32_t dupacks_ = 0;
  bool in_fr_ = false;
  std::uint32_t recover_ = 0;  ///< NewReno recovery point
  std::uint32_t limit_ = 0;    ///< last segment of a finite transfer; 0 = FTP
  bool done_fired_ = false;

  RttEstimator rtt_;
  sim::Timer rto_timer_;
  sim::Timer start_timer_;  ///< defers the first window to `start(at)`
  std::vector<std::pair<sim::Time, double>> cwnd_trace_;
};

static_assert(sizeof(TcpSource) <= 272,
              "tcp::TcpSource grew: the user plane holds one per open "
              "session (share the config, up-call through the listener)");

}  // namespace mts::tcp
