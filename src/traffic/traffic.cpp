#include "traffic/traffic.hpp"

#include <algorithm>

#include "sim/error.hpp"
#include "tcp/tcp_sink.hpp"
#include "tcp/tcp_source.hpp"

namespace mts::traffic {

const char* user_class_name(UserClass c) {
  switch (c) {
    case UserClass::kMessaging: return "msg";
    case UserClass::kBulk: return "bulk";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// ArrivalProcess
// ---------------------------------------------------------------------------

ArrivalProcess::ArrivalProcess(double base_rate, std::vector<double> curve,
                               sim::Time bucket, sim::Rng rng)
    : base_(base_rate),
      curve_(std::move(curve)),
      bucket_(bucket),
      peak_(0.0),
      rng_(rng) {
  sim::require_config(base_ > 0.0, "ArrivalProcess: session_rate <= 0");
  sim::require_config(bucket_ > sim::Time::zero(),
                      "ArrivalProcess: diurnal_bucket <= 0");
  double peak_mult = curve_.empty() ? 1.0 : 0.0;
  for (double w : curve_) {
    sim::require_config(w >= 0.0, "ArrivalProcess: negative diurnal weight");
    peak_mult = std::max(peak_mult, w);
  }
  sim::require_config(peak_mult > 0.0,
                      "ArrivalProcess: diurnal curve is all zero");
  peak_ = base_ * peak_mult;
}

double ArrivalProcess::rate_at(sim::Time t) const {
  if (curve_.empty()) return base_;
  const auto bucket = static_cast<std::size_t>(
      static_cast<std::uint64_t>(t.nanoseconds()) /
      static_cast<std::uint64_t>(bucket_.nanoseconds()));
  return base_ * curve_[bucket % curve_.size()];
}

sim::Time ArrivalProcess::next_after(sim::Time t) {
  // Lewis-Shedler thinning: candidates at the peak rate, each kept with
  // probability rate(t)/peak.  Exact for any piecewise-constant curve.
  for (;;) {
    t = t + sim::Time::seconds(rng_.exponential(1.0 / peak_));
    if (rng_.uniform() * peak_ <= rate_at(t)) return t;
  }
}

// ---------------------------------------------------------------------------
// TrafficPlane
// ---------------------------------------------------------------------------

/// One live user session.  The think timer doubles as the flow-teardown
/// trigger: a finished transfer's agents stay alive (idle) until the
/// think time elapses, so the completion callback never destroys the
/// TcpSource from inside its own ACK processing.
struct TrafficPlane::Session {
  Session(TrafficPlane* owner, std::size_t index, sim::Scheduler& sched)
      : plane(owner),
        slot(index),
        think(sched, sim::bind<&Session::on_think>(this),
              sim::EventCategory::kTransport) {}

  void on_think() { plane->advance(slot); }

  TrafficPlane* plane;
  std::size_t slot;

  UserClass cls = UserClass::kMessaging;
  net::NodeId gateway = 0;
  net::NodeId user = 0;
  std::size_t gateway_index = 0;
  std::uint32_t flows_left = 0;

  std::uint16_t flow_id = 0;  ///< active lane; 0 = between flows
  std::uint32_t flow_segments = 0;
  net::NodeId flow_src = 0;
  net::NodeId flow_dst = 0;
  sim::Time flow_start = sim::Time::zero();
  tcp::FlowStats stats;
  std::unique_ptr<tcp::TcpSource> source;
  std::unique_ptr<tcp::TcpSink> sink;

  sim::Timer think;
};

namespace {

void validate_class(const ClassSpec& cs, const char* name) {
  sim::require_config(cs.min_flows >= 1 && cs.max_flows >= cs.min_flows,
                      name);
  sim::require_config(cs.min_segments >= 1 &&
                          cs.max_segments >= cs.min_segments,
                      name);
  // Strictly positive think time is what guarantees the teardown event
  // fires strictly after the completion ACK's timestamp.
  sim::require_config(cs.think_min_s > 0.0 &&
                          cs.think_max_s >= cs.think_min_s,
                      name);
}

}  // namespace

TrafficPlane::TrafficPlane(const TrafficSpec& spec, TrafficContext ctx,
                           sim::Rng rng)
    : spec_(spec),
      ctx_(std::move(ctx)),
      rng_(rng.substream("sessions")),
      arrivals_(spec.session_rate, spec.diurnal, spec.diurnal_bucket,
                rng.substream("arrivals")),
      arrival_timer_(*ctx_.sched, sim::bind<&TrafficPlane::on_arrival>(this),
                     sim::EventCategory::kTransport),
      next_fresh_id_(ctx_.first_flow_id) {
  sim::require_config(ctx_.sched != nullptr && ctx_.uids != nullptr &&
                          ctx_.send != nullptr && ctx_.counters_of != nullptr,
                      "TrafficPlane: incomplete context");
  sim::require_config(spec_.gateway_count >= 1,
                      "TrafficSpec: gateway_count == 0");
  sim::require_config(ctx_.node_count > spec_.gateway_count,
                      "TrafficSpec: no non-gateway nodes left for users");
  sim::require_config(spec_.bulk_fraction >= 0.0 && spec_.bulk_fraction <= 1.0,
                      "TrafficSpec: bulk_fraction outside [0, 1]");
  sim::require_config(spec_.max_concurrent_flows >= 1,
                      "TrafficSpec: max_concurrent_flows == 0");
  sim::require_config(ctx_.first_flow_id >= 1,
                      "TrafficPlane: first_flow_id == 0 (0 is reserved)");
  validate_class(spec_.messaging, "TrafficSpec: bad messaging class spec");
  validate_class(spec_.bulk, "TrafficSpec: bad bulk class spec");

  // Gateways, then the attachment pool, all distinct (rejection draws
  // from the topology substream; deterministic for a given seed).
  sim::Rng topo = rng.substream("topology");
  std::unordered_set<net::NodeId> taken;
  while (gateways_.size() < spec_.gateway_count) {
    const auto id = static_cast<net::NodeId>(
        topo.uniform_int(0, static_cast<std::int64_t>(ctx_.node_count) - 1));
    if (taken.insert(id).second) gateways_.push_back(id);
  }
  const std::uint32_t non_gateways = ctx_.node_count - spec_.gateway_count;
  const std::uint32_t pool = spec_.user_pool == 0
                                 ? non_gateways
                                 : std::min(spec_.user_pool, non_gateways);
  while (users_.size() < pool) {
    const auto id = static_cast<net::NodeId>(
        topo.uniform_int(0, static_cast<std::int64_t>(ctx_.node_count) - 1));
    if (taken.insert(id).second) users_.push_back(id);
  }
  for (ClassAgg& a : agg_) a.delay_ms_by_gateway.resize(gateways_.size());
}

TrafficPlane::~TrafficPlane() = default;

void TrafficPlane::start(sim::Time horizon) {
  horizon_ = horizon;
  schedule_next_arrival();
}

void TrafficPlane::schedule_next_arrival() {
  const sim::Time t = arrivals_.next_after(ctx_.sched->now());
  if (t < horizon_) arrival_timer_.schedule_at(t);
}

void TrafficPlane::on_arrival() {
  const sim::Time now = ctx_.sched->now();
  const auto bucket = static_cast<std::size_t>(
      static_cast<std::uint64_t>(now.nanoseconds()) /
      static_cast<std::uint64_t>(spec_.diurnal_bucket.nanoseconds()));
  if (arrivals_per_bucket_.size() <= bucket) {
    arrivals_per_bucket_.resize(bucket + 1, 0);
  }
  ++arrivals_per_bucket_[bucket];

  // Fixed draw order (class, gateway, attachment, flow count) so the
  // session stream is a pure function of the traffic substream.
  const UserClass cls = rng_.bernoulli(spec_.bulk_fraction)
                            ? UserClass::kBulk
                            : UserClass::kMessaging;
  const auto gi = static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(gateways_.size()) - 1));
  const auto ui = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(users_.size()) - 1));
  const ClassSpec& cs = class_spec(cls);
  const auto flows = static_cast<std::uint32_t>(
      rng_.uniform_int(cs.min_flows, cs.max_flows));

  ++started_;
  ++agg_[static_cast<std::size_t>(cls)].sessions;

  std::size_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = slots_.size();
    slots_.emplace_back();
  }
  slots_[slot] = std::make_unique<Session>(this, slot, *ctx_.sched);
  Session& s = *slots_[slot];
  s.cls = cls;
  s.gateway = gateways_[gi];
  s.gateway_index = gi;
  s.user = users_[ui];
  s.flows_left = flows;
  start_flow(slot);
  schedule_next_arrival();
}

std::uint16_t TrafficPlane::alloc_flow_id() {
  if (live_flows_ >= spec_.max_concurrent_flows) return 0;
  if (!free_ids_.empty()) {
    const std::uint16_t id = free_ids_.front();
    free_ids_.pop_front();
    return id;
  }
  if (next_fresh_id_ > 0xFFFF) return 0;
  const auto id = static_cast<std::uint16_t>(next_fresh_id_++);
  if (ctx_.on_new_lane) ctx_.on_new_lane(id);
  return id;
}

void TrafficPlane::start_flow(std::size_t slot) {
  Session& s = *slots_[slot];
  const ClassSpec& cs = class_spec(s.cls);
  const auto segments = static_cast<std::uint32_t>(
      rng_.uniform_int(cs.min_segments, cs.max_segments));
  const std::uint16_t id = alloc_flow_id();
  if (id == 0) {
    // Lane space exhausted: the session is rejected, not queued —
    // bounded memory beats completeness under overload, and the count
    // makes the saturation visible instead of silent.
    ++rejected_;
    slots_[slot].reset();
    free_slots_.push_back(slot);
    return;
  }
  s.flow_id = id;
  s.flow_segments = segments;
  s.flow_src = cs.uplink ? s.user : s.gateway;
  s.flow_dst = cs.uplink ? s.gateway : s.user;
  s.stats = tcp::FlowStats{};
  s.flow_start = ctx_.sched->now();

  const net::NodeId src = s.flow_src;
  const net::NodeId dst = s.flow_dst;
  s.source = std::make_unique<tcp::TcpSource>(
      *ctx_.sched,
      [this, src](net::Packet&& p) { ctx_.send(src, std::move(p)); }, src,
      dst, id, ctx_.tcp, ctx_.uids, ctx_.counters_of(src), &s.stats);
  s.source->set_transfer(segments, [this, slot] { on_flow_done(slot); });
  s.sink = std::make_unique<tcp::TcpSink>(
      *ctx_.sched,
      [this, dst](net::Packet&& p) { ctx_.send(dst, std::move(p)); }, dst,
      src, id, ctx_.uids, ctx_.counters_of(dst), &s.stats);
  s.sink->set_delivery_observer(
      [this, cls = static_cast<std::size_t>(s.cls),
       gi = s.gateway_index](sim::Time delay) {
        agg_[cls].delay_ms_by_gateway[gi].add(delay.to_seconds() * 1000.0);
      });

  by_flow_[id] = slot;
  ++live_flows_;
  auto& seen = lane_seen_[static_cast<std::size_t>(s.cls)];
  if (seen.insert(id).second) {
    lanes_[static_cast<std::size_t>(s.cls)].push_back(id);
  }
  s.source->start(ctx_.sched->now());
}

void TrafficPlane::on_flow_done(std::size_t slot) {
  // Invoked from inside TcpSource::on_ack — record, then defer the
  // teardown to the think timer (see Session).
  Session& s = *slots_[slot];
  ClassAgg& a = agg_[static_cast<std::size_t>(s.cls)];
  ++a.flows_completed;
  const double duration = (ctx_.sched->now() - s.flow_start).to_seconds();
  if (duration > 0.0) {
    a.goodput_seg_s.add(static_cast<double>(s.flow_segments) / duration);
  }
  --s.flows_left;
  const ClassSpec& cs = class_spec(s.cls);
  s.think.schedule_in(
      sim::Time::seconds(rng_.uniform(cs.think_min_s, cs.think_max_s)));
}

void TrafficPlane::teardown_flow(Session& s) {
  if (s.flow_id == 0) return;
  by_flow_.erase(s.flow_id);
  free_ids_.push_back(s.flow_id);
  --live_flows_;
  s.flow_id = 0;
  s.source.reset();
  s.sink.reset();
}

void TrafficPlane::advance(std::size_t slot) {
  Session& s = *slots_[slot];
  teardown_flow(s);
  if (s.flows_left == 0) {
    ++completed_;
    slots_[slot].reset();
    free_slots_.push_back(slot);
  } else {
    start_flow(slot);
  }
}

bool TrafficPlane::deliver(net::NodeId node, const net::Packet& p) {
  const net::PacketKind kind = p.common().kind;
  if (kind != net::PacketKind::kTcpData && kind != net::PacketKind::kTcpAck) {
    return false;
  }
  if (!p.has_tcp()) return false;
  const auto it = by_flow_.find(p.tcp().flow_id);
  if (it == by_flow_.end()) return false;  // torn-down lane: stale packet
  Session* s = slots_[it->second].get();
  if (s == nullptr) return false;
  if (kind == net::PacketKind::kTcpData) {
    if (s->sink == nullptr || node != s->flow_dst) return false;
    s->sink->on_data(p);
  } else {
    if (s->source == nullptr || node != s->flow_src) return false;
    s->source->on_ack(p);
  }
  return true;
}

TrafficReport TrafficPlane::report() const {
  TrafficReport r;
  r.sessions_started = started_;
  r.sessions_completed = completed_;
  r.sessions_rejected = rejected_;
  r.arrivals_per_bucket = arrivals_per_bucket_;
  for (std::size_t c = 0; c < kUserClassCount; ++c) {
    const ClassAgg& a = agg_[c];
    ClassReport& out = r.classes[c];
    out.sessions = a.sessions;
    out.flows_completed = a.flows_completed;
    stats::PercentileDigest merged;
    for (const stats::PercentileDigest& d : a.delay_ms_by_gateway) {
      merged.merge(d);
    }
    out.delay_samples = merged.count();
    out.delay_p50_ms = merged.p50();
    out.delay_p95_ms = merged.p95();
    out.delay_p99_ms = merged.p99();
    out.goodput_p50_seg_s = a.goodput_seg_s.p50();
  }
  return r;
}

}  // namespace mts::traffic
