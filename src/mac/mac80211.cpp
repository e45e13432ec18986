#include "mac/mac80211.hpp"

#include <algorithm>

#include "sim/error.hpp"

namespace mts::mac {

using phy::Frame;
using phy::FrameType;

Mac80211::Mac80211(phy::Channel& channel, net::NodeId id,
                   const MacConfig& cfg, sim::Rng rng, net::Counters* counters)
    : channel_(&channel),
      sched_(&channel.scheduler()),
      cfg_(&cfg),
      eifs_(cfg.sifs + ack_airtime() + cfg.difs),
      rng_(rng),
      counters_(counters),
      queue_(cfg.queue_capacity),
      id_(id),
      cw_(cfg.cw_min),
      access_timer_(*sched_, sim::bind<&Mac80211::access_timer_fired>(this),
                    sim::EventCategory::kMac),
      response_timer_(*sched_,
                      sim::bind<&Mac80211::response_timer_fired>(this),
                      sim::EventCategory::kMac),
      tx_defer_timer_(*sched_,
                      sim::bind<&Mac80211::tx_defer_timer_fired>(this),
                      sim::EventCategory::kMac) {
  sim::require_config(cfg.cw_min > 0 && cfg.cw_max >= cfg.cw_min,
                      "MacConfig: bad contention window");
  sim::require_config(cfg.data_rate_bps > 0 && cfg.basic_rate_bps > 0,
                      "MacConfig: bad rates");
  sim::require(id < channel.node_count(), "Mac: node not on the channel");
  rx().set_listener(this);
}

bool Mac80211::enqueue(net::Packet packet, net::NodeId next_hop) {
  rx().set_edge_calls(true);  // work to do: carrier sense matters now
  auto dropped = queue_.enqueue(net::QueueItem{std::move(packet), next_hop});
  if (dropped.has_value()) {
    if (counters_ != nullptr) counters_->drop(net::DropReason::kQueueFull);
  }
  kick();
  // "Accepted" unless the offered packet itself was the victim.
  return !dropped.has_value();
}

std::vector<net::QueueItem> Mac80211::take_queued_for(net::NodeId hop) {
  std::vector<net::QueueItem> out;
  queue_.extract_if(
      [hop](const net::QueueItem& i) { return i.next_hop == hop; },
      [&out](net::QueueItem&& i) { out.push_back(std::move(i)); });
  return out;
}

bool Mac80211::uses_rts(const net::QueueItem& item) const {
  if (cfg_->rts_threshold_bytes == 0) return false;
  if (item.next_hop == net::kBroadcastId) return false;
  return frame_bytes(item.packet) >= cfg_->rts_threshold_bytes;
}

// --------------------------------------------------------------------------
// Contention state machine.
// --------------------------------------------------------------------------

void Mac80211::kick() {
  if (state_ == State::kWaitAck || state_ == State::kWaitCts) return;
  if (tx_kind_ != TxKind::kNone) return;  // our frame is on the air
  if (!current_.has_value()) {
    auto next = queue_.dequeue();
    if (!next.has_value()) {
      state_ = State::kIdle;
      // Nothing to contend for: an edge could only rewrite marks the
      // receiver record keeps anyway, until `enqueue` brings work.
      sim::require(phase_ == AccessPhase::kNone &&
                       !access_timer_.is_pending() && !current_.has_value(),
                   "Mac: going quiet with contention pending");
      rx().set_edge_calls(false);
      return;
    }
    current_ = std::move(next);
    retries_ = 0;
    cw_ = cfg_->cw_min;
  }
  state_ = State::kAccess;

  if (medium_busy()) {
    // Frozen: the idle edge re-kicks us.
    access_timer_.cancel();
    phase_ = AccessPhase::kNone;
    return;
  }
  const sim::Time now = sched_->now();
  if (now < nav_end_) {
    // Virtual carrier: wake when the NAV expires.
    phase_ = AccessPhase::kNav;
    access_timer_.schedule_at(nav_end_);
    return;
  }
  const sim::Time idle_start = std::max(rx().idle_since(), nav_end_);
  sim::Time difs_end = idle_start + cfg_->difs;
  if (const auto garbage = rx().undecodable_end()) {
    // EIFS (802.11 §9.2.3.4): after an undecodable reception, defer
    // long enough for the frame's possible ACK to complete — the
    // hidden-ACK protection basic access depends on.
    difs_end = std::max(difs_end, *garbage + eifs_);
  }
  if (bo_slots_ < 0) {
    // No backoff pending: transmit as soon as the medium has been idle
    // for a full DIFS (802.11 immediate access).
    if (now >= difs_end) {
      transmit_current();
    } else {
      phase_ = AccessPhase::kDifs;
      access_timer_.schedule_at(difs_end);
    }
    return;
  }
  // Backoff counts down only after DIFS.
  const sim::Time resume = std::max(now, difs_end);
  backoff_countdown_start_ = resume;
  phase_ = AccessPhase::kBackoff;
  access_timer_.schedule_at(resume + cfg_->slot * std::int64_t{bo_slots_});
}

void Mac80211::access_timer_fired() {
  const AccessPhase phase = phase_;
  phase_ = AccessPhase::kNone;
  if (medium_busy() || transmitting()) {
    // A response frame of ours (ACK/CTS) or late energy got in the way;
    // re-contend.
    kick();
    return;
  }
  switch (phase) {
    case AccessPhase::kNav:
      kick();
      return;
    case AccessPhase::kDifs:
      transmit_current();
      return;
    case AccessPhase::kBackoff:
      bo_slots_ = -1;  // fully counted down
      transmit_current();
      return;
    case AccessPhase::kNone:
      return;  // stale fire; ignore
  }
}

void Mac80211::response_timer_fired() {
  if (state_ == State::kWaitAck || state_ == State::kWaitCts) retry_or_fail();
}

void Mac80211::tx_defer_timer_fired() {
  if (!current_.has_value() || transmitting()) return;
  send_data_frame();
}

void Mac80211::on_medium_busy(bool busy) {
  if (busy) {
    if (phase_ == AccessPhase::kBackoff) {
      // Freeze: bank the fully elapsed slots.
      const sim::Time elapsed = sched_->now() - backoff_countdown_start_;
      const auto consumed = static_cast<std::int32_t>(
          elapsed.nanoseconds() / cfg_->slot.nanoseconds());
      bo_slots_ = std::max(0, bo_slots_ - consumed);
    }
    if (phase_ != AccessPhase::kNone) {
      access_timer_.cancel();
      phase_ = AccessPhase::kNone;
    }
  } else {
    kick();
  }
}

void Mac80211::transmit_current() {
  sim::require(current_.has_value(), "Mac: transmit without a frame");
  if (medium_busy() || transmitting()) {
    kick();
    return;
  }
  if (uses_rts(*current_)) {
    Frame rts;
    rts.type = FrameType::kRts;
    rts.transmitter = id();
    rts.receiver = current_->next_hop;
    rts.bytes = cfg_->rts_bytes;
    // NAV covers CTS + DATA + ACK and the three SIFS gaps.
    rts.nav = cfg_->sifs * std::int64_t{3} + cts_airtime() +
              airtime(frame_bytes(current_->packet), cfg_->data_rate_bps) +
              ack_airtime();
    tx_kind_ = TxKind::kRts;
    state_ = State::kWaitCts;
    channel_->transmit(id_, rts,
                       airtime(cfg_->rts_bytes, cfg_->basic_rate_bps));
    return;
  }
  send_data_frame();
}

void Mac80211::send_data_frame() {
  const bool broadcast = current_->next_hop == net::kBroadcastId;
  Frame f;
  f.type = FrameType::kData;
  f.transmitter = id();
  f.receiver = current_->next_hop;
  f.bytes = frame_bytes(current_->packet);
  f.seq = (retries_ > 0) ? tx_seq_ : ++tx_seq_;
  f.retry = retries_ > 0;
  f.payload = current_->packet;
  const double rate = broadcast ? cfg_->basic_rate_bps : cfg_->data_rate_bps;
  if (!broadcast) f.nav = cfg_->sifs + ack_airtime();
  tx_kind_ = broadcast ? TxKind::kBroadcast : TxKind::kData;
  if (!broadcast) state_ = State::kWaitAck;
  channel_->transmit(id_, f, airtime(f.bytes, rate));
}

void Mac80211::on_tx_done() {
  const TxKind kind = tx_kind_;
  tx_kind_ = TxKind::kNone;
  switch (kind) {
    case TxKind::kBroadcast:
      // Broadcasts are fire-and-forget; no callback.
      finish_current();
      return;
    case TxKind::kData:
      // Wait for the ACK: SIFS + ACK airtime + slack.
      response_timer_.schedule_in(cfg_->sifs + ack_airtime() +
                                  cfg_->timeout_slack);
      return;
    case TxKind::kRts:
      response_timer_.schedule_in(cfg_->sifs + cts_airtime() +
                                  cfg_->timeout_slack);
      return;
    case TxKind::kResponse:
    case TxKind::kNone:
      // ACK/CTS sent (or stale); contention resumes via the medium edge.
      return;
  }
}

void Mac80211::retry_or_fail() {
  ++retries_;
  if (counters_ != nullptr) ++counters_->mac_retries;
  if (retries_ > cfg_->retry_limit) {
    if (counters_ != nullptr)
      counters_->drop(net::DropReason::kMacRetryExceeded);
    net::QueueItem failed = std::move(*current_);
    current_.reset();
    state_ = State::kIdle;
    cw_ = cfg_->cw_min;
    draw_backoff();
    if (listener_ != nullptr)
      listener_->on_unicast_failure(id(), failed.packet, failed.next_hop);
    kick();
    return;
  }
  cw_ = std::min((cw_ + 1) * 2 - 1, cfg_->cw_max);
  draw_backoff();
  state_ = State::kAccess;
  kick();
}

void Mac80211::finish_current() {
  current_.reset();
  state_ = State::kIdle;
  cw_ = cfg_->cw_min;
  draw_backoff();  // post-transmission backoff
  kick();
}

// --------------------------------------------------------------------------
// Receive path.
// --------------------------------------------------------------------------

void Mac80211::on_frame(const Frame& f) {
  const bool for_me = f.receiver == id() || f.is_broadcast();
  if (!for_me) {
    // Virtual carrier sense: honour the transmitter's reservation.
    if (f.nav > sim::Time::zero()) {
      nav_end_ = std::max(nav_end_, sched_->now() + f.nav);
    }
    if (f.type == FrameType::kData && f.has_payload() && promiscuous_) {
      listener_->on_sniff(id(), f);
    }
    return;
  }
  switch (f.type) {
    case FrameType::kData: handle_data(f); return;
    case FrameType::kAck: handle_ack(f); return;
    case FrameType::kRts: handle_rts(f); return;
    case FrameType::kCts: handle_cts(f); return;
  }
}

void Mac80211::handle_data(const Frame& f) {
  if (!f.is_broadcast()) {
    // ACK first (even duplicates get re-ACKed — the sender missed ours).
    response_due(f);
    if (rx_seq_cache_.is_duplicate_and_update(f.transmitter, f.seq, f.retry)) {
      return;
    }
  }
  if (listener_ == nullptr || !f.has_payload()) return;
  if (promiscuous_) listener_->on_sniff(id(), f);
  net::Packet copy = f.payload;
  listener_->on_mac_receive(id(), std::move(copy), f.transmitter);
}

void Mac80211::handle_ack(const Frame& f) {
  if (state_ != State::kWaitAck || !current_.has_value()) return;
  if (f.transmitter != current_->next_hop) return;
  response_timer_.cancel();
  retries_ = 0;
  net::QueueItem done = std::move(*current_);
  current_.reset();
  state_ = State::kIdle;
  if (listener_ != nullptr)
    listener_->on_unicast_success(id(), done.packet, done.next_hop);
  finish_current();
}

void Mac80211::handle_rts(const Frame& f) {
  // Respond with CTS unless our NAV says the medium is reserved.
  if (sched_->now() < nav_end_) return;
  response_due(f);
}

void Mac80211::handle_cts(const Frame& f) {
  if (state_ != State::kWaitCts || !current_.has_value()) return;
  if (f.transmitter != current_->next_hop) return;
  response_timer_.cancel();
  // DATA follows one SIFS after the CTS; the preallocated member timer
  // replaces a per-exchange closure (only one RTS/CTS exchange can be
  // outstanding — we are its initiator).
  tx_defer_timer_.schedule_in(cfg_->sifs);
  state_ = State::kWaitAck;  // send_data_frame keeps kWaitAck
}

void Mac80211::response_due(const Frame& request) {
  // ACK (for DATA) or CTS (for RTS) exactly one SIFS after the frame end
  // — SIFS access preempts all contention, so no carrier check beyond
  // "our own transmitter is free".
  const FrameType type =
      request.type == FrameType::kData ? FrameType::kAck : FrameType::kCts;
  const net::NodeId to = request.transmitter;
  sim::Time nav = sim::Time::zero();
  if (type == FrameType::kCts) {
    // Remaining reservation: the RTS told us how long the exchange runs.
    nav = request.nav - cfg_->sifs - cts_airtime();
    if (nav < sim::Time::zero()) nav = sim::Time::zero();
  }
  sched_->schedule_in(
      cfg_->sifs, [this, type, to, nav] { send_response(type, to, nav); },
      sim::EventCategory::kMac);
}

void Mac80211::send_response(FrameType type, net::NodeId to, sim::Time nav) {
  if (transmitting()) return;  // rare clash; requester will retry
  Frame f;
  f.type = type;
  f.transmitter = id();
  f.receiver = to;
  f.bytes = type == FrameType::kAck ? cfg_->ack_bytes : cfg_->cts_bytes;
  f.nav = nav;
  // Responses interrupt any pending access timer implicitly: the node
  // goes busy, and on_medium_busy(true) freezes the backoff.
  const TxKind saved = tx_kind_;
  tx_kind_ = TxKind::kResponse;
  channel_->transmit(id_, f, airtime(f.bytes, cfg_->basic_rate_bps));
  // If we clobbered a pending data tx marker something is wrong.
  sim::require(saved == TxKind::kNone, "Mac: response while frame on air");
}

}  // namespace mts::mac
