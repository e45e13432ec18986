#include "tcp/tcp_sink.hpp"

#include "sim/error.hpp"

namespace mts::tcp {

void TcpSink::on_data(const net::Packet& data) {
  sim::require(data.has_tcp(), "TcpSink: data without TCP header");
  const net::TcpHeader& h = data.tcp();
  if (h.flow_id != flow_id_) return;
  ++stats_->data_packets_received;
  if (counters_ != nullptr) ++counters_->recv_data;

  const std::uint32_t seq = h.seq;
  const bool fresh = seq >= rcv_nxt_ && !ooo_.contains(seq);
  if (fresh) {
    ++stats_->unique_segments_delivered;
    const sim::Time delay = sched_->now() - data.common().originated;
    stats_->delay_sum_s += delay.to_seconds();
    ++stats_->delay_samples;
    stats_->first_delivery = std::min(stats_->first_delivery, sched_->now());
    stats_->last_delivery = std::max(stats_->last_delivery, sched_->now());
    stats_->record_delivery_second(sched_->now());
    listener_->delivered(flow_id_, delay);
    ooo_.insert(seq);
    while (ooo_.contains(rcv_nxt_)) {
      ooo_.erase(rcv_nxt_);
      ++rcv_nxt_;
    }
  }
  send_ack(h);
}

void TcpSink::send_ack(const net::TcpHeader& triggering) {
  net::Packet p;
  auto& common = p.mutable_common();
  common.kind = net::PacketKind::kTcpAck;
  common.src = self_;
  common.dst = peer_;
  common.uid = uids_->next();
  common.payload_bytes = 0;
  common.originated = sched_->now();
  net::TcpHeader h;
  h.ack = rcv_nxt_;
  h.flow_id = flow_id_;
  h.ts = triggering.ts;              // echoed for the sender's RTT sample
  h.retransmit = triggering.retransmit;  // Karn's rule travels with it
  p.mutable_tcp() = h;
  ++stats_->acks_sent;
  if (counters_ != nullptr) ++counters_->sent_data;
  listener_->send(self_, std::move(p));
}

}  // namespace mts::tcp
