#include "tcp/tcp_source.hpp"

#include <algorithm>

#include "sim/error.hpp"

namespace mts::tcp {

const char* tcp_variant_name(TcpVariant v) {
  switch (v) {
    case TcpVariant::kTahoe: return "Tahoe";
    case TcpVariant::kReno: return "Reno";
    case TcpVariant::kNewReno: return "NewReno";
  }
  return "?";
}

TcpSource::TcpSource(sim::Scheduler& sched, SendFn send, net::NodeId self,
                     net::NodeId dst, std::uint16_t flow_id, TcpConfig cfg,
                     net::UidSource* uids, net::Counters* counters,
                     FlowStats* stats)
    : sched_(&sched),
      send_(std::move(send)),
      self_(self),
      dst_(dst),
      flow_id_(flow_id),
      cfg_(cfg),
      uids_(uids),
      counters_(counters),
      stats_(stats),
      ssthresh_(cfg.max_window),
      rtt_(cfg_),
      rto_timer_(sched, sim::bind<&TcpSource::on_rto>(this),
                 sim::EventCategory::kTransport),
      start_timer_(sched, sim::bind<&TcpSource::send_window>(this),
                   sim::EventCategory::kTransport) {
  sim::require_config(cfg.segment_bytes > 0, "TcpConfig: segment_bytes == 0");
  sim::require_config(cfg.max_window >= 2, "TcpConfig: max_window < 2");
  sim::require_config(cfg.dupack_threshold >= 1,
                      "TcpConfig: dupack_threshold < 1");
}

void TcpSource::start(sim::Time at) { start_timer_.schedule_at(at); }

void TcpSource::set_transfer(std::uint32_t segments,
                             std::function<void()> done) {
  sim::require_config(segments >= 1, "TcpSource: zero-length transfer");
  limit_ = segments;
  on_done_ = std::move(done);
}

void TcpSource::send_window() {
  while (snd_nxt_ < snd_una_ + window() &&
         (limit_ == 0 || snd_nxt_ <= limit_)) {
    transmit_segment(snd_nxt_);
    ++snd_nxt_;
  }
  if (!rto_timer_.is_pending() && flight_size() > 0) arm_rto();
}

void TcpSource::transmit_segment(std::uint32_t seq) {
  const bool is_retx = seq <= max_seq_sent_;
  max_seq_sent_ = std::max(max_seq_sent_, seq);
  stats_->unique_segments_sent = max_seq_sent_;
  net::Packet p;
  auto& common = p.mutable_common();
  common.kind = net::PacketKind::kTcpData;
  common.src = self_;
  common.dst = dst_;
  common.uid = uids_->next();
  common.payload_bytes = cfg_.segment_bytes;
  common.originated = sched_->now();
  net::TcpHeader h;
  h.seq = seq;
  h.flow_id = flow_id_;
  h.ts = sched_->now();
  h.retransmit = is_retx;
  p.mutable_tcp() = h;
  ++stats_->data_packets_sent;
  if (is_retx) ++stats_->retransmits;
  if (counters_ != nullptr) ++counters_->sent_data;
  send_(std::move(p));
}

void TcpSource::on_ack(const net::Packet& ack) {
  sim::require(ack.has_tcp(), "TcpSource: ACK without TCP header");
  const net::TcpHeader& h = ack.tcp();
  if (h.flow_id != flow_id_) return;
  ++stats_->acks_received;
  if (h.ack > snd_una_) {
    on_new_ack(h.ack, h);
  } else if (h.ack == snd_una_ && flight_size() > 0) {
    on_dup_ack();
  }
  send_window();
}

void TcpSource::on_new_ack(std::uint32_t ack, const net::TcpHeader& h) {
  // Karn: sample only acks triggered by first transmissions.
  if (!h.retransmit && h.ts > sim::Time::zero()) {
    rtt_.sample(sched_->now() - h.ts);
  }
  if (in_fr_) {
    if (cfg_.variant == TcpVariant::kNewReno && ack <= recover_) {
      // Partial ACK: the next hole is lost too.  Retransmit it, deflate
      // by the amount acked, keep recovering.
      const double acked = ack - snd_una_;
      snd_una_ = ack;
      transmit_segment(snd_una_);
      cwnd_ = std::max(1.0, cwnd_ - acked + 1.0);
      arm_rto();
      note_cwnd();
      return;
    }
    // Full ACK (NewReno) or any new ACK (Reno): leave fast recovery.
    in_fr_ = false;
    cwnd_ = ssthresh_;
    dupacks_ = 0;
  } else {
    dupacks_ = 0;
    if (cwnd_ < ssthresh_) {
      cwnd_ += ack - snd_una_;  // slow start: +1 per acked segment
    } else {
      cwnd_ += static_cast<double>(ack - snd_una_) / cwnd_;  // AIMD
    }
  }
  cwnd_ = std::min(cwnd_, static_cast<double>(cfg_.max_window));
  snd_una_ = ack;
  if (flight_size() == 0) {
    rto_timer_.cancel();
  } else {
    arm_rto();
  }
  note_cwnd();
  maybe_complete();
}

void TcpSource::maybe_complete() {
  // A NewReno partial ACK can't complete the transfer (partial means
  // ack <= recover_ < limit_ + 1), so checking here covers every path
  // that advances snd_una_ past the limit.
  if (limit_ == 0 || done_fired_ || snd_una_ <= limit_) return;
  done_fired_ = true;
  if (on_done_) on_done_();
}

void TcpSource::on_dup_ack() {
  ++dupacks_;
  if (in_fr_) {
    if (cfg_.variant != TcpVariant::kTahoe) {
      cwnd_ += 1.0;  // window inflation while recovering
      cwnd_ = std::min(cwnd_, static_cast<double>(cfg_.max_window) +
                                  cfg_.dupack_threshold);
    }
    return;
  }
  if (dupacks_ == cfg_.dupack_threshold) enter_fast_retransmit();
}

void TcpSource::enter_fast_retransmit() {
  ++stats_->fast_retransmits;
  ssthresh_ = std::max<std::uint32_t>(flight_size() / 2, 2);
  recover_ = snd_nxt_ - 1;
  transmit_segment(snd_una_);
  if (cfg_.variant == TcpVariant::kTahoe) {
    cwnd_ = 1.0;
    dupacks_ = 0;
  } else {
    cwnd_ = static_cast<double>(ssthresh_) + cfg_.dupack_threshold;
    in_fr_ = true;
  }
  arm_rto();
  note_cwnd();
}

void TcpSource::on_rto() {
  if (flight_size() == 0) return;
  ++stats_->timeouts;
  ssthresh_ = std::max<std::uint32_t>(flight_size() / 2, 2);
  cwnd_ = 1.0;
  dupacks_ = 0;
  in_fr_ = false;
  rtt_.backoff();
  // Go-back-N (RFC 5681 §3.1 / ns-2 slowdown): everything past snd_una
  // is presumed lost; rewind and let slow start re-walk the window.
  // The sink's out-of-order buffer makes the cumulative ACKs jump over
  // whatever did survive.
  snd_nxt_ = snd_una_;
  send_window();
  arm_rto();
  note_cwnd();
}

void TcpSource::arm_rto() { rto_timer_.schedule_in(rtt_.rto()); }

}  // namespace mts::tcp
