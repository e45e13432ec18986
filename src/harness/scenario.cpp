#include "harness/scenario.hpp"

#include <algorithm>
#include <unordered_set>

#include "phy/channel.hpp"
#include "routing/aodv/aodv.hpp"
#include "routing/dsr/dsr.hpp"
#include "routing/smr/smr.hpp"
#include "security/eavesdropper.hpp"
#include "security/relay_census.hpp"
#include "sim/scheduler.hpp"
#include "tcp/tcp_sink.hpp"
#include "tcp/tcp_source.hpp"

namespace mts::harness {

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kDsr: return "DSR";
    case Protocol::kAodv: return "AODV";
    case Protocol::kMts: return "MTS";
    case Protocol::kSmr: return "SMR";
  }
  return "?";
}

const char* run_status_name(RunStatus s) {
  switch (s) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kFailed: return "failed";
  }
  return "?";
}

namespace {

/// One node's full stack above the channel.  Construction order
/// matters: the channel holds the node before its MAC is built, and the
/// MAC comes before routing; destruction (reverse order) cancels all
/// timers before anything they reference dies.
struct Node {
  net::Counters counters;
  /// An insider attacker: transit data dies between its MAC and routing.
  bool insider = false;
  std::unique_ptr<mac::Mac80211> mac;
  std::unique_ptr<routing::RoutingProtocol> routing;
  core::Mts* mts = nullptr;  ///< non-owning view when protocol == kMts
  std::vector<tcp::TcpSource*> sources;  ///< agents homed here
  std::vector<tcp::TcpSink*> sinks;
};

struct Flow {
  FlowSpec spec;
  std::uint16_t id;
  tcp::FlowStats stats;
  std::unique_ptr<tcp::TcpSource> source;
  std::unique_ptr<tcp::TcpSink> sink;
};

/// Also every node's MAC and delivery listener, and the static flows'
/// transport listener: each up-call names its node, so one object
/// serves them all.
class Simulation final : private mac::MacListener,
                         private routing::DeliveryListener,
                         private tcp::TransportListener {
 public:
  explicit Simulation(const ScenarioConfig& cfg, net::TraceHub* trace)
      : cfg_(cfg), master_(cfg.seed), external_trace_(trace) {
    validate();
    build_defense();  // before the nodes: routing contexts hold the pointer
    build_nodes();
    build_flows();
    pick_eavesdropper();
    build_secrecy();   // before the adversary: capture pools hold the plane
    build_adversary();
    build_traffic();   // after secrecy: fresh lanes register with the plane
    wire();
  }

  RunMetrics run() {
    for (auto& n : nodes_) n.routing->start();
    for (auto& f : flows_) f->source->start(f->spec.start);
    if (adversary_ != nullptr) adversary_->on_start(cfg_.sim_time);
    if (traffic_ != nullptr) traffic_->start(cfg_.sim_time);
    sched_.run_until(cfg_.sim_time);
    return collect();
  }

 private:
  void validate() const {
    sim::require_config(cfg_.node_count >= 2, "Scenario: need >= 2 nodes");
    sim::require_config(cfg_.sim_time > sim::Time::zero(),
                        "Scenario: sim_time <= 0");
    sim::require_config(cfg_.radio_range > 0, "Scenario: radio_range <= 0");
    sim::require_config(
        cfg_.static_positions.empty() ||
            cfg_.static_positions.size() == cfg_.node_count,
        "Scenario: static_positions size != node_count");
    sim::require_config(cfg_.flow_count >= 1 || !cfg_.explicit_flows.empty(),
                        "Scenario: no flows");
    for (const auto& f : cfg_.explicit_flows) {
      sim::require_config(
          f.src < cfg_.node_count && f.dst < cfg_.node_count && f.src != f.dst,
          "Scenario: bad explicit flow endpoints");
    }
  }

  void build_nodes() {
    // Every trajectory, then the channel over them, then each node's
    // stack in id order.
    std::vector<mobility::Trajectory> trajectories(
        cfg_.static_positions.begin(), cfg_.static_positions.end());
    if (trajectories.empty()) {
      mobility::RandomWaypointConfig rwp;
      rwp.field = cfg_.field;
      rwp.min_speed = cfg_.min_speed;
      rwp.max_speed = cfg_.max_speed;
      rwp.pause = cfg_.pause;
      trajectories.reserve(cfg_.node_count);
      for_each_substream(master_.substream("mobility"),
                         [&](net::NodeId, sim::Rng rng) {
                           trajectories.emplace_back(rwp, std::move(rng));
                         });
    }
    std::optional<phy::Fading> fading;
    if (cfg_.fading_enabled) {
      fading.emplace(cfg_.fading, master_.substream("fading").seed());
    }
    channel_ = std::make_unique<phy::Channel>(
        sched_, std::move(trajectories), cfg_.radio_range, cfg_.channel,
        std::move(fading));
    nodes_.resize(cfg_.node_count);
    const sim::Rng mac_rng = master_.substream("mac");
    for_each_substream(master_.substream("routing"),
                       [&](net::NodeId i, sim::Rng routing_rng) {
                         build_node(i, mac_rng.substream(i),
                                    std::move(routing_rng));
                       });
  }

  /// Node `i`'s MAC and routing protocol.
  void build_node(net::NodeId i, sim::Rng mac_rng, sim::Rng routing_rng) {
    Node& n = nodes_[i];
    n.mac = std::make_unique<mac::Mac80211>(*channel_, i, cfg_.mac,
                                            std::move(mac_rng), &n.counters);
    routing::RoutingContext ctx;
    ctx.self = i;
    ctx.sched = &sched_;
    ctx.mac = n.mac.get();
    ctx.counters = &n.counters;
    ctx.trace = external_trace_;
    ctx.uids = &uids_;
    ctx.defense = defense_.get();
    ctx.deliver = this;
    switch (cfg_.protocol) {
      case Protocol::kDsr:
        n.routing = std::make_unique<routing::dsr::Dsr>(
            std::move(ctx), std::move(routing_rng));
        break;
      case Protocol::kAodv:
        n.routing = std::make_unique<routing::aodv::Aodv>(
            std::move(ctx), std::move(routing_rng));
        break;
      case Protocol::kMts: {
        auto mts = std::make_unique<core::Mts>(std::move(ctx), cfg_.mts,
                                               std::move(routing_rng));
        n.mts = mts.get();
        n.routing = std::move(mts);
        break;
      }
      case Protocol::kSmr:
        n.routing = std::make_unique<routing::smr::Smr>(
            std::move(ctx), std::move(routing_rng));
        break;
    }
  }

  /// Calls `use(i, rng.substream(i))` for every node `i` in id order.
  /// A stream's first draw sets up its cursors, a 156-step dependent
  /// chain; a build draws every node's routing stream and, unless the
  /// nodes stand still, its mobility stream, so those are set up
  /// `kMaxStart` at a time, their chains interleaved.  The MAC streams
  /// stay lazy: a build draws none of them.
  template <typename Use>
  void for_each_substream(const sim::Rng& rng, Use use) const {
    std::vector<sim::Rng> block;
    block.reserve(sim::CompactMt64::kMaxStart);
    for (net::NodeId first = 0; first < cfg_.node_count;
         first += sim::CompactMt64::kMaxStart) {
      const net::NodeId end = std::min<net::NodeId>(
          cfg_.node_count, first + sim::CompactMt64::kMaxStart);
      block.clear();
      for (net::NodeId i = first; i < end; ++i) {
        block.push_back(rng.substream(i));
      }
      sim::Rng::start(block);
      for (net::NodeId i = first; i < end; ++i) {
        use(i, std::move(block[i - first]));
      }
    }
  }

  void build_flows() {
    std::vector<FlowSpec> specs = cfg_.explicit_flows;
    if (specs.empty()) {
      sim::Rng frng = master_.substream("flows");
      std::unordered_set<net::NodeId> used;
      auto draw_unused = [&]() {
        net::NodeId n = 0;
        do {
          n = static_cast<net::NodeId>(frng.uniform_int(0, cfg_.node_count - 1));
        } while (used.contains(n));
        return n;
      };
      for (std::uint32_t k = 0; k < cfg_.flow_count; ++k) {
        // Distinct endpoints across flows keeps the census attribution
        // clean (every flow endpoint is excluded from "intermediate").
        const net::NodeId src = draw_unused();
        used.insert(src);
        net::NodeId dst = draw_unused();
        // Rejection-sample for a multihop pair; give up after a bounded
        // number of tries (tiny fields have no distant pairs).
        for (int tries = 0; tries < 200; ++tries) {
          const double d = mobility::distance(
              channel_->position_of(src, sim::Time::zero()),
              channel_->position_of(dst, sim::Time::zero()));
          if (d >= cfg_.min_flow_distance) break;
          dst = draw_unused();
        }
        used.insert(dst);
        specs.push_back(FlowSpec{
            src, dst, sim::Time::sec(1) + sim::Time::seconds(frng.uniform(0.0, 1.0))});
      }
    }
    tcp::TransportListener& transport = *this;
    std::uint16_t next_id = 1;
    for (const FlowSpec& spec : specs) {
      auto flow = std::make_unique<Flow>();
      flow->spec = spec;
      flow->id = next_id++;
      Node& src_node = nodes_[spec.src];
      Node& dst_node = nodes_[spec.dst];
      flow->source = std::make_unique<tcp::TcpSource>(
          sched_, transport, spec.src, spec.dst, flow->id, cfg_.tcp, &uids_,
          &src_node.counters, &flow->stats);
      flow->sink = std::make_unique<tcp::TcpSink>(
          sched_, transport, spec.dst, spec.src, flow->id, &uids_,
          &dst_node.counters, &flow->stats);
      src_node.sources.push_back(flow->source.get());
      dst_node.sinks.push_back(flow->sink.get());
      flows_.push_back(std::move(flow));
    }
  }

  void pick_eavesdropper() {
    if (!cfg_.eavesdropper_enabled) return;
    std::unordered_set<net::NodeId> endpoints;
    for (const auto& f : flows_) {
      endpoints.insert(f->spec.src);
      endpoints.insert(f->spec.dst);
    }
    if (endpoints.size() >= cfg_.node_count) return;  // no intermediate left
    sim::Rng erng = master_.substream("eavesdropper");
    net::NodeId pick = 0;
    do {
      pick = static_cast<net::NodeId>(erng.uniform_int(0, cfg_.node_count - 1));
    } while (endpoints.contains(pick));
    eavesdropper_ = std::make_unique<security::Eavesdropper>(pick);
  }

  /// Plumbing both security factories share (`SecurityContext`): radio
  /// range, the lazy position oracle (the channel owns every trajectory
  /// by the time any hook runs), the scheduler, and the secrecy plane
  /// when the game is on.  Filled once here so the two factory call
  /// sites can't drift.
  [[nodiscard]] security::SecurityContext security_base() {
    security::SecurityContext base;
    base.radio_range = cfg_.radio_range;
    base.position_of = [this](net::NodeId id, sim::Time t) {
      return channel_->position_of(id, t);
    };
    base.sched = &sched_;
    base.secrecy = secrecy_.get();
    return base;
  }

  void build_defense() {
    if (!cfg_.defense.enabled()) return;
    defense_ =
        std::make_unique<security::Defense>(cfg_.defense, security_base());
  }

  void build_secrecy() {
    if (!cfg_.secrecy.enabled) return;
    secrecy_ = std::make_unique<security::SecrecyPlane>(
        cfg_.secrecy, master_.substream("secrecy"));
    // One share per disjoint path the protocol can spread a flow over;
    // unipath protocols get a degenerate 1-of-1 split (capture any
    // segment of the flow and the key falls).
    const auto n = cfg_.protocol == Protocol::kMts
                       ? static_cast<std::uint32_t>(cfg_.mts.max_paths)
                       : 1U;
    for (const auto& f : flows_) secrecy_->register_flow(f->id, n);
  }

  void build_adversary() {
    if (!cfg_.adversary.enabled()) return;
    security::AdversaryContext ctx;
    static_cast<security::SecurityContext&>(ctx) = security_base();
    ctx.node_count = cfg_.node_count;
    ctx.field = cfg_.field;
    for (const auto& f : flows_) {
      ctx.excluded.insert(f->spec.src);
      ctx.excluded.insert(f->spec.dst);
    }
    ctx.rng = master_.substream("adversary");
    // Active-family hooks.  Passive families never touch them; active ones
    // use the scheduler for their own event slots, the channel for
    // out-of-band injection, and the MAC-bound callback for forged
    // control traffic through the "normal routing path".
    ctx.channel = channel_.get();
    switch (cfg_.protocol) {
      case Protocol::kAodv: ctx.rreq_kind = net::PacketKind::kAodvRreq; break;
      case Protocol::kDsr:
      case Protocol::kSmr: ctx.rreq_kind = net::PacketKind::kDsrRreq; break;
      case Protocol::kMts: ctx.rreq_kind = net::PacketKind::kMtsRreq; break;
    }
    ctx.inject_control = [this](net::NodeId member, net::Packet&& p) {
      auto& common = p.mutable_common();
      common.uid = uids_.next();
      ++nodes_[member].counters.sent_control;
      nodes_[member].mac->enqueue(std::move(p), net::kBroadcastId);
    };
    adversary_ = std::make_unique<security::Adversary>(cfg_.adversary, ctx);
    // Every family taps the channel at radiation time.  The tap itself is
    // observational; active families react to it only through their own
    // scheduled event slots, so passive families still leave the event
    // stream untouched.
    channel_->set_sniffer([a = adversary_.get()](
                              net::NodeId sender, const mobility::Vec2& pos,
                              const phy::Frame& f, sim::Time airtime,
                              sim::Time now) {
      a->on_transmission({sender, pos, airtime, now}, f);
    });
  }

  void build_traffic() {
    if (!cfg_.traffic.enabled) return;
    traffic::TrafficContext ctx;
    ctx.sched = &sched_;
    ctx.uids = &uids_;
    ctx.node_count = cfg_.node_count;
    // Static flows own ids 1..flows_.size(); traffic lanes live above.
    ctx.first_flow_id = static_cast<std::uint16_t>(flows_.size() + 1);
    ctx.tcp = cfg_.tcp;
    ctx.send = [this](net::NodeId node, net::Packet&& p) {
      send(node, std::move(p));
    };
    ctx.counters_of = [this](net::NodeId node) {
      return &nodes_[node].counters;
    };
    if (secrecy_ != nullptr) {
      const auto n = cfg_.protocol == Protocol::kMts
                         ? static_cast<std::uint32_t>(cfg_.mts.max_paths)
                         : 1U;
      ctx.on_new_lane = [this, n](std::uint16_t id) {
        secrecy_->register_flow(id, n);
      };
    }
    traffic_ = std::make_unique<traffic::TrafficPlane>(
        cfg_.traffic, std::move(ctx), master_.substream("traffic"));
  }

  void wire() {
    for (net::NodeId i = 0; i < cfg_.node_count; ++i) {
      Node& n = nodes_[i];
      n.insider = adversary_ != nullptr && adversary_->is_member(i);
      n.mac->set_listener(
          this, eavesdropper_ != nullptr && eavesdropper_->node() == i);
    }
  }

  void on_mac_receive(net::NodeId i, net::Packet&& p,
                      net::NodeId from) override {
    Node& n = nodes_[i];
    // Insider attackers sit between the MAC and the routing layer: the
    // MAC already ACKed the frame (upstream believes the hop succeeded),
    // then transit data silently dies here.
    if (n.insider && adversary_->absorbs(i, p, sched_.now())) {
      adversary_->on_absorb(p);
      n.counters.drop(net::DropReason::kAdversary);
      return;
    }
    n.routing->receive_from_mac(std::move(p), from);
  }

  void on_unicast_failure(net::NodeId i, const net::Packet& p,
                          net::NodeId next_hop) override {
    nodes_[i].routing->on_link_failure(p, next_hop);
  }

  void on_sniff(net::NodeId /*self*/, const phy::Frame& f) override {
    eavesdropper_->on_sniff(f);
  }

  void send(net::NodeId from, net::Packet&& p) override {
    nodes_[from].routing->send_from_transport(std::move(p));
  }

  void deliver_local(net::NodeId node, net::Packet&& p,
                     net::NodeId /*from*/) override {
    if (traffic_ != nullptr && traffic_->deliver(node, p)) return;
    Node& n = nodes_[node];
    if (p.common().kind == net::PacketKind::kTcpData) {
      for (tcp::TcpSink* s : n.sinks) s->on_data(p);
    } else if (p.common().kind == net::PacketKind::kTcpAck) {
      for (tcp::TcpSource* s : n.sources) s->on_ack(p);
    }
  }

  RunMetrics collect() {
    RunMetrics m;
    m.protocol = cfg_.protocol;
    m.max_speed = cfg_.max_speed;
    m.seed = cfg_.seed;
    m.events_executed = sched_.executed_count();
    m.event_order_hash = sched_.order_hash();
    for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
      m.events_by_category[c] =
          sched_.executed_count(static_cast<sim::EventCategory>(c));
    }
    const mobility::Trajectory::Stats mob = channel_->mobility_stats();
    m.mobility_legs_generated = mob.generated;
    m.mobility_legs_pruned = mob.pruned;
    m.mobility_peak_live_legs = mob.peak_live;
    m.neighbor_rebuilds = channel_->index().rebuild_count();
    m.neighbor_rebuild_allocs = channel_->index().alloc_count();

    // Relay census over intermediate nodes (flow endpoints excluded —
    // they originate/terminate, they don't "participate" as relays).
    std::unordered_set<net::NodeId> endpoints;
    for (const auto& f : flows_) {
      endpoints.insert(f->spec.src);
      endpoints.insert(f->spec.dst);
    }
    std::vector<std::pair<net::NodeId, std::uint64_t>> betas;
    for (net::NodeId i = 0; i < cfg_.node_count; ++i) {
      if (endpoints.contains(i)) continue;
      betas.emplace_back(i, nodes_[i].counters.forwarded_data);
    }
    const security::RelayReport census = security::analyze_relays(betas);
    m.participating_nodes = census.participating_nodes();
    m.relay_stddev = census.normalized_stddev;
    m.alpha = census.alpha;
    m.max_beta = census.max_beta;
    m.betas = census.participants;

    sim::Time earliest_start = sim::Time::max();
    double delay_sum = 0.0;
    std::uint64_t delay_n = 0;
    std::uint64_t arrivals = 0;
    for (const auto& f : flows_) {
      m.segments_delivered += f->stats.unique_segments_delivered;
      m.data_packets_sent += f->stats.data_packets_sent;
      m.retransmits += f->stats.retransmits;
      m.timeouts += f->stats.timeouts;
      m.acks_sent += f->stats.acks_sent;
      m.acks_received += f->stats.acks_received;
      if (cfg_.tcp.trace_cwnd) {
        m.cwnd_traces.push_back(f->source->cwnd_trace());
      }
      arrivals += f->stats.data_packets_received;
      delay_sum += f->stats.delay_sum_s;
      delay_n += f->stats.delay_samples;
      earliest_start = std::min(earliest_start, f->spec.start);
      if (m.deliveries_per_second.size() < f->stats.deliveries_per_second.size())
        m.deliveries_per_second.resize(f->stats.deliveries_per_second.size(), 0);
      for (std::size_t s = 0; s < f->stats.deliveries_per_second.size(); ++s)
        m.deliveries_per_second[s] += f->stats.deliveries_per_second[s];
    }
    m.pr = m.segments_delivered;
    m.avg_delay_s = delay_n == 0 ? 0.0 : delay_sum / static_cast<double>(delay_n);
    const double duration = (cfg_.sim_time - earliest_start).to_seconds();
    m.throughput_seg_s =
        duration > 0 ? static_cast<double>(m.segments_delivered) / duration : 0;
    m.throughput_kbps = m.throughput_seg_s *
                        static_cast<double>(cfg_.tcp.segment_bytes) * 8.0 / 1000.0;
    m.delivery_rate =
        m.data_packets_sent == 0
            ? 0.0
            : static_cast<double>(arrivals) / static_cast<double>(m.data_packets_sent);
    m.highest_interception_ratio = census.highest_interception_ratio(m.pr);

    if (eavesdropper_ != nullptr) {
      m.eavesdropper = eavesdropper_->node();
      m.pe = eavesdropper_->captured_segments();
      m.interception_ratio = eavesdropper_->interception_ratio(m.pr);
    }
    if (adversary_ != nullptr) {
      const security::AdversaryCounters& c = adversary_->counters();
      const security::SegmentPool& captured = adversary_->pool();
      m.adversary_kind = adversary_->kind();
      m.adversary_count =
          static_cast<std::uint32_t>(adversary_->member_count());
      m.coalition_captured = captured.captured_segments();
      m.coalition_interception_ratio = captured.interception_ratio(m.pr);
      m.fragments_missing = captured.fragments_missing(m.pr);
      m.blackhole_absorbed = c.absorbed;
      m.adversary_members = adversary_->members();
      m.wormhole_tunneled = c.tunneled;
      if (m.adversary_kind == security::AdversaryKind::kGrayhole) {
        m.grayhole_absorbed = c.absorbed;
      }
      m.flood_injected = c.injected;
      if (secrecy_ != nullptr) {
        if (const auto* pool = adversary_->key_recovery(); pool != nullptr) {
          const security::SecrecyPlane::Score s = secrecy_->score(*pool);
          m.shares_captured = s.shares_captured;
          m.keys_recovered = s.keys_recovered;
          m.key_recovery_rate = s.recovery_rate;
        }
      }
      const auto guesses = adversary_->inferred_endpoints(flows_.size());
      if (!guesses.empty() && !flows_.empty()) {
        std::size_t hit = 0;
        for (const auto& f : flows_) {
          for (const auto& g : guesses) {
            if (g.first == f->spec.src && g.second == f->spec.dst) {
              ++hit;
              break;
            }
          }
        }
        m.endpoint_inference_accuracy =
            static_cast<double>(hit) / static_cast<double>(flows_.size());
      }
    }
    if (secrecy_ != nullptr) {
      m.secrecy_shares = secrecy_->shares_per_flow();
      m.secrecy_threshold = secrecy_->threshold_per_flow();
    }
    if (traffic_ != nullptr) {
      const traffic::TrafficReport tr = traffic_->report();
      m.sessions_started = tr.sessions_started;
      m.sessions_completed = tr.sessions_completed;
      m.sessions_rejected = tr.sessions_rejected;
      const security::KeyRecoveryPool* pool =
          adversary_ != nullptr ? adversary_->key_recovery() : nullptr;
      for (std::size_t c = 0; c < traffic::kUserClassCount; ++c) {
        const traffic::ClassReport& cr = tr.classes[c];
        auto& out = m.traffic_classes[c];
        out.flows_completed = cr.flows_completed;
        out.delay_p50_ms = cr.delay_p50_ms;
        out.delay_p95_ms = cr.delay_p95_ms;
        out.delay_p99_ms = cr.delay_p99_ms;
        out.goodput_p50_seg_s = cr.goodput_p50_seg_s;
        if (secrecy_ != nullptr && pool != nullptr) {
          const auto& lanes =
              traffic_->lanes(static_cast<traffic::UserClass>(c));
          if (!lanes.empty()) {
            std::uint64_t recovered = 0;
            for (const std::uint16_t lane : lanes) {
              if (secrecy_->key_recovered(lane, *pool)) ++recovered;
            }
            out.key_exposure = static_cast<double>(recovered) /
                               static_cast<double>(lanes.size());
          }
        }
      }
    }
    if (defense_ != nullptr) {
      const security::DefenseCounters& dc = defense_->counters();
      m.defense_kind = defense_->kind();
      m.paths_quarantined = dc.quarantined;
      m.flood_suppressed = dc.suppressed;
      m.probes_sent = dc.probes_sent;
      const sim::Time det = dc.first_detection;
      m.detection_time_s = det.to_seconds();
      if (det > sim::Time::zero()) {
        // Recovery at the 1-s resolution of the delivery histogram: the
        // first whole second *strictly after* the detection second that
        // delivered.  The detection-second bucket is skipped — its
        // deliveries may predate the detection instant, and counting
        // them would report sub-second "recovery" in runs that never
        // delivered again.  Conservative: overstates by up to one
        // bucket when genuine recovery lands in the detection second.
        const auto& dps = m.deliveries_per_second;
        for (auto s = static_cast<std::size_t>(det.to_seconds()) + 1;
             s < dps.size(); ++s) {
          if (dps[s] > 0) {
            m.recovery_time_s =
                std::max(0.0, (static_cast<double>(s) + 1.0) - det.to_seconds());
            break;
          }
        }
      }
      if (!cfg_.adversary.enabled()) {
        // No attacker: every quarantine/suppression is a false alarm.
        const std::uint64_t events = dc.quarantined + dc.suppressed;
        const std::uint64_t opportunities =
            dc.validated + dc.rreqs_seen + dc.probes_sent;
        m.false_positive_rate =
            opportunities == 0 ? 0.0
                               : static_cast<double>(events) /
                                     static_cast<double>(opportunities);
      }
    }
    for (net::NodeId i = 0; i < cfg_.node_count; ++i) {
      m.drops[static_cast<std::size_t>(net::DropReason::kCollision)] +=
          channel_->receiver(i).collisions();
    }
    for (const Node& n : nodes_) {
      m.control_packets += n.counters.control_transmissions();
      for (std::size_t r = 0; r < m.drops.size(); ++r) {
        m.drops[r] += n.counters.drops[r];
      }
      if (n.mts != nullptr) {
        m.route_switches += n.mts->route_switches();
        m.checks_sent += n.mts->checks_sent();
      }
    }
    return m;
  }

  ScenarioConfig cfg_;
  sim::Rng master_;
  net::TraceHub* external_trace_;
  sim::Scheduler sched_;
  net::UidSource uids_;
  std::unique_ptr<phy::Channel> channel_;
  /// Declared before nodes_: every routing context holds a raw pointer,
  /// so the defense must outlive the protocols (reverse destruction).
  std::unique_ptr<security::Defense> defense_;
  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<Flow>> flows_;
  /// Declared after nodes_: the plane's timers and agents call back into
  /// routing, so it must be torn down first (reverse destruction).
  std::unique_ptr<traffic::TrafficPlane> traffic_;
  std::unique_ptr<security::Eavesdropper> eavesdropper_;
  /// Declared before adversary_: the adversary's capture pool holds the
  /// plane pointer, so the plane must outlive it.
  std::unique_ptr<security::SecrecyPlane> secrecy_;
  std::unique_ptr<security::Adversary> adversary_;
};

}  // namespace

RunMetrics run_scenario(const ScenarioConfig& cfg, net::TraceHub* trace) {
  Simulation sim(cfg, trace);
  return sim.run();
}

}  // namespace mts::harness
