#include "core/mts.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "security/defense/defense.hpp"

namespace mts::core {

using net::MtsCheckErrorHeader;
using net::MtsCheckHeader;
using net::MtsDataTag;
using net::MtsProbeHeader;
using net::MtsRerrHeader;
using net::MtsRreqHeader;
using net::MtsRrepHeader;
using net::NodeId;
using net::Packet;
using net::PacketKind;

namespace {

/// Position `k` of the destination->source walk along a stored path:
/// k = 0 is the destination, k = n+1 the source, interior positions
/// visit the intermediate list back to front.
NodeId walk_pos(const PathNodes& nodes, NodeId src, NodeId dst,
                std::size_t k) {
  const std::size_t n = nodes.size();
  if (k == 0) return dst;
  if (k <= n) return nodes[n - k];
  return src;
}

}  // namespace

Mts::Mts(routing::RoutingContext ctx, const MtsConfig& cfg, sim::Rng rng)
    : RoutingProtocol(std::move(ctx), rng, RetryPolicy::kGiveUpAfterThree),
      cfg_(&cfg),
      check_timer_(*ctx_.sched, sim::bind<&Mts::check_tick>(this),
                   sim::EventCategory::kRouting),
      probe_timer_(*ctx_.sched, sim::bind<&Mts::probe_tick>(this),
                   sim::EventCategory::kRouting) {
  sim::require_config(cfg.max_paths >= 1, "MtsConfig: max_paths < 1");
  sim::require_config(cfg.check_period > sim::Time::zero(),
                      "MtsConfig: check_period <= 0");
  sim::require_config(cfg.freshness_periods > 1.0,
                      "MtsConfig: freshness must exceed one check period");
}

void Mts::start() {
  // Stagger the first tick per node so destinations never beat in phase.
  check_timer_.start(cfg_->check_period,
                     cfg_->check_period * rng_.uniform(0.5, 1.0));
  RoutingProtocol::start();  // purge tick: draws its jitter second
  if (ctx_.defense != nullptr) {
    const sim::Time period = ctx_.defense->probe_period();
    if (period > sim::Time::zero()) {
      probe_timer_.start(period, period * rng_.uniform(0.5, 1.0));
    }
  }
}

// ---------------------------------------------------------------------------
// Forwarding state.
// ---------------------------------------------------------------------------

void Mts::install_hop(NodeId final_dst, std::uint16_t path_id,
                      NodeId next_hop) {
  hops_[hop_key(final_dst, path_id)] = HopEntry{next_hop, now()};
}

const Mts::HopEntry* Mts::any_hop(NodeId final_dst,
                                  std::uint16_t path_id) const {
  auto it = hops_.find(hop_key(final_dst, path_id));
  return it == hops_.end() ? nullptr : &it->second;
}

Mts::SourcePath* Mts::fresh_source_path(NodeId dst) {
  auto it = as_source_.find(dst);
  if (it == as_source_.end()) return nullptr;
  SourceState& ss = it->second;
  auto usable = [&](int id) -> SourcePath* {
    auto pit = ss.paths.find(static_cast<std::uint16_t>(id));
    if (pit == ss.paths.end()) return nullptr;
    SourcePath& sp = pit->second;
    if (!sp.alive || now() - sp.last_confirmed > freshness_limit())
      return nullptr;
    return &sp;
  };
  if (ss.current >= 0) {
    if (SourcePath* sp = usable(ss.current)) return sp;
  }
  // The active path lapsed: fall back to the most recently confirmed
  // live alternative, if any.
  SourcePath* best = nullptr;
  int best_id = -1;
  for (auto& [id, sp] : ss.paths) {
    if (!sp.alive || now() - sp.last_confirmed > freshness_limit()) continue;
    if (best == nullptr || sp.last_confirmed > best->last_confirmed) {
      best = &sp;
      best_id = id;
    }
  }
  if (best != nullptr && best_id != ss.current) {
    ss.current = best_id;
    ++switches_;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Transport-facing.
// ---------------------------------------------------------------------------

void Mts::send_from_transport(Packet packet) {
  const NodeId dst = packet.common().dst;
  if (dst == self()) {
    ctx_.deliver->deliver_local(self(), std::move(packet), self());
    return;
  }
  // Preferred: we are an MTS source for this destination.
  if (SourcePath* sp = fresh_source_path(dst)) {
    const auto pid = static_cast<std::uint16_t>(as_source_[dst].current);
    packet.mutable_routing() = MtsDataTag{pid};
    const HopEntry* hop = any_hop(dst, pid);
    const NodeId next =
        hop != nullptr ? hop->next_hop : first_hop(sp->nodes, dst);
    ctx_.mac->enqueue(std::move(packet), next);
    return;
  }
  // Sink side: route replies back along the path the peer's data last
  // arrived on (its per-hop reverse state is refreshed by that data).
  if (auto it = last_rx_path_.find(dst); it != last_rx_path_.end()) {
    if (const HopEntry* hop = any_hop(dst, it->second)) {
      packet.mutable_routing() = MtsDataTag{it->second};
      ctx_.mac->enqueue(std::move(packet), hop->next_hop);
      return;
    }
  }
  buffer_and_discover(std::move(packet));
}

// ---------------------------------------------------------------------------
// Route discovery (§III-B).
// ---------------------------------------------------------------------------

void Mts::send_rreq(NodeId dst, bool first) {
  if (first) {
    // New generation: drop the stale path set (the destination flushes
    // its side when our higher broadcast id reaches it).
    SourceState& ss = as_source_[dst];
    ss.paths.clear();
    ss.current = -1;
  }
  ++bcast_id_;
  MtsRreqHeader h;
  h.bcast_id = bcast_id_;
  h.orig = self();
  h.dst = dst;
  Packet p = originate(PacketKind::kMtsRreq, net::kBroadcastId,
                       cfg_->net_diameter_ttl);
  p.mutable_routing() = h;
  rreq_seen_.check_and_insert(self(), h.bcast_id);
  send_to_mac(std::move(p), net::kBroadcastId, /*originated_here=*/true);
}

void Mts::handle_rreq(Packet&& p, NodeId from) {
  const auto& h = p.header<MtsRreqHeader>();
  if (h.orig == self()) return;
  if (h.dst == self()) {
    // The destination consumes *every* copy (§III-B: "the copies of
    // RREQ are not simply discarded") — dedup applies to relays only.
    accept_path_at_destination(h.orig, h.nodes, h.bcast_id);
    return;
  }
  if (!rreq_seen_.check_and_insert(h.orig, h.bcast_id)) {
    drop(p, net::DropReason::kDuplicate);
    return;
  }
  // Rate-limit defense: after dedup, so copies of one genuine flood
  // never drain the origin's bucket — only novel (orig, id) floods do.
  if (ctx_.defense != nullptr &&
      !ctx_.defense->admit_rreq(self(), h.orig, now())) {
    drop(p, net::DropReason::kRateLimited);
    return;
  }
  if (std::find(h.nodes.begin(), h.nodes.end(), self()) != h.nodes.end()) {
    return;  // route record already contains us
  }
  if (p.hop().ttl <= 1) {
    drop(p, net::DropReason::kTtlExpired);
    return;
  }
  // Mutating tail: TTL + hop count are cell writes; the record append is
  // the one body mutation of the flood (`h` refers to the pre-clone body
  // from here on; do not use it).
  --p.mutable_hop().ttl;
  ++p.mutable_hop().hops;
  p.mutable_header<MtsRreqHeader>().nodes.push_back(self());
  (void)from;
  // "Even in the case where an intermediate node has a fresh route to
  // the destination node, it has to relay the received RREQ" (§III-B).
  rebroadcast_jittered(std::move(p));
}

void Mts::accept_path_at_destination(NodeId src, PathNodes nodes,
                                     std::uint32_t bcast_id) {
  // Destinations consume every copy of a flood, so the rate-limit
  // defense is charged once per *generation*: the first copy of a new
  // broadcast id pays a token, and a refused generation is remembered so
  // its stragglers neither re-drain the bucket nor sneak a path in.
  // This is what caps an RREQ flood's check spin-up — forged discoveries
  // that never pass admission never arm checking toward the flooder.
  if (ctx_.defense != nullptr) {
    if (suppressed_gens_.contains(src, bcast_id)) return;
    const auto it = as_dest_.find(src);
    const std::uint32_t seen_gen = it == as_dest_.end() ? 0 : it->second.bcast_id;
    const bool novel = bcast_id > seen_gen || it == as_dest_.end();
    if (novel && !ctx_.defense->admit_rreq(self(), src, now())) {
      suppressed_gens_.check_and_insert(src, bcast_id);
      ctx_.counters->drop(net::DropReason::kRateLimited);
      return;
    }
  }
  DestState& ds = as_dest_[src];
  if (bcast_id < ds.bcast_id) return;  // copy from an obsolete flood
  if (bcast_id > ds.bcast_id) {
    // §III-D: a new RREQ (larger broadcast ID) flushes every stored path.
    ds.paths.clear();
    ds.alive.clear();
    ds.bcast_id = bcast_id;
  }
  if (ds.paths.empty()) {
    // First copy: reply immediately, no disjoint-set computation delay.
    if (ctx_.defense != nullptr &&
        !ctx_.defense->admit_path(src, self(), nodes, now())) {
      return;  // leash: a later, feasible copy may still become "first"
    }
    ds.paths.push_back(nodes);
    ds.alive.push_back(true);
    ds.last_activity = now();
    send_rrep(src, nodes);
    return;
  }
  if (ds.paths.size() >= cfg_->max_paths) return;
  if (!admissible(ds.paths, nodes, src, self())) return;
  if (ctx_.defense != nullptr &&
      !ctx_.defense->admit_path(src, self(), nodes, now())) {
    return;
  }
  ds.paths.push_back(std::move(nodes));
  ds.alive.push_back(true);
}

void Mts::send_rrep(NodeId src, const PathNodes& nodes) {
  MtsRrepHeader h;
  h.rrep_id = ++rrep_id_;
  h.orig = src;
  h.dst = self();
  h.hop_count = static_cast<std::uint8_t>(nodes.size() + 1);
  h.nodes = nodes;
  const NodeId next = walk_pos(nodes, src, self(), 1);
  Packet p = originate(PacketKind::kMtsRrep, src, cfg_->net_diameter_ttl);
  p.mutable_hop().cursor = 1;  // walk position of the first receiver
  p.mutable_routing() = std::move(h);
  send_to_mac(std::move(p), next, /*originated_here=*/true);
}

void Mts::handle_rrep(Packet&& p, NodeId from) {
  const auto& h = p.header<MtsRrepHeader>();
  if (walk_pos(h.nodes, h.orig, h.dst, p.hop().cursor) != self()) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
  // The RREP seeds forward state for path 0, like a check packet would.
  install_hop(h.dst, /*path_id=*/0, from);
  if (self() == h.orig) {
    source_path_confirmed(h.dst, 0, h.nodes, /*round=*/0,
                          /*switch_allowed=*/false);
    return;
  }
  // Pure forwarding hop: only the cell's cursor moves; the body (route
  // list included) stays shared down the whole walk.
  const std::uint16_t pos = ++p.mutable_hop().cursor;
  const NodeId next = walk_pos(h.nodes, h.orig, h.dst, pos);
  send_to_mac(std::move(p), next, /*originated_here=*/false);
}

void Mts::source_path_confirmed(NodeId dst, std::uint16_t path_id,
                                const PathNodes& nodes, std::uint32_t round,
                                bool switch_allowed) {
  SourceState& ss = as_source_[dst];
  const auto pit = ss.paths.find(path_id);
  if (pit != ss.paths.end() && pit->second.quarantined) {
    // A quarantined path stays down: the destination keeps checking it
    // (it has no way to know), but the check must not resurrect it.
    return;
  }
  if (ctx_.defense != nullptr &&
      ctx_.defense->probe_period() > sim::Time::zero() && discovering(dst) &&
      switch_allowed) {
    // Quarantining a source's *only* path restarts discovery, which
    // clears the path map — including the quarantine marker.  A stale
    // check from the pre-flush generation arriving now would re-admit
    // the very path the estimator just condemned (with a reset
    // estimator) AND abort the re-discovery.  Under acked checking a
    // source in re-discovery therefore distrusts check-based
    // confirmations (switch_allowed) and waits for the fresh RREP; the
    // new generation's checks confirm normally once discovery closes.
    // Scoped to probing defenses: only the estimator creates the
    // clear-then-resurrect hazard (the leash re-rejects on its own).
    return;
  }
  const bool fresh_entry = pit == ss.paths.end();
  if (fresh_entry && ctx_.defense != nullptr) {
    // Leash admission, once per path: validated when first learned (node
    // drift is negligible then); re-confirmations of an admitted path
    // are not re-judged, or an honest hop near the radio range would be
    // falsely quarantined seconds later just because its ends kept
    // moving.
    if (!ctx_.defense->admit_path(self(), dst, nodes, now())) {
      // The advertised walk is physically implausible (a wormhole's
      // phantom hop).  Park it quarantined so repeat confirmations of
      // the same path id short-circuit above instead of re-validating.
      SourcePath& sp = ss.paths[path_id];
      sp.nodes = nodes;
      sp.alive = false;
      sp.quarantined = true;
      ++paths_quarantined_;
      if (ss.current == path_id) ss.current = -1;
      return;
    }
    // New path under this id (possibly a new discovery generation):
    // estimator state from the id's previous owner is stale.
    ctx_.defense->on_path_established(self(), dst, path_id);
  }
  SourcePath& sp = ss.paths[path_id];
  sp.nodes = nodes;
  sp.last_confirmed = now();
  sp.alive = true;
  if (ss.current < 0) {
    ss.current = path_id;
  } else if (switch_allowed && round > ss.last_switch_round) {
    // §III-E: "the route of the first arrived checking packet used is
    // considered the best" — first check of each round wins.
    ss.last_switch_round = round;
    if (ss.current != path_id) {
      ++switches_;
      ss.current = path_id;
      if (ctx_.trace != nullptr) {
        // Record (and its note string) built only when a sink listens.
        ctx_.trace->emit_lazy([&] {
          Packet dummy;
          auto& c = dummy.mutable_common();
          c.kind = PacketKind::kMtsCheck;
          c.src = self();
          c.dst = dst;
          return net::TraceRecord{
              now(), self(), net::TraceOp::kRouteSwitch, std::move(dummy),
              "switched to path " + std::to_string(path_id)};
        });
      }
    }
  }
  flush(dst);
}

// ---------------------------------------------------------------------------
// Route checking (§III-D).
// ---------------------------------------------------------------------------

void Mts::check_tick() {
  for (auto& [src, ds] : as_dest_) {
    if (ds.paths.empty()) continue;
    ++ds.check_round;
    // The round's checks go out "concurrently" (§III-D).  Randomising
    // the emission order (plus a hair of jitter) keeps the round winner
    // from being decided by queue position: among comparable paths the
    // first check to *arrive* then varies with the channel, which is
    // what rotates the source across its disjoint paths.
    std::vector<std::uint16_t> order;
    for (std::uint16_t pid = 0; pid < ds.paths.size(); ++pid) {
      if (ds.alive[pid]) order.push_back(pid);
    }
    rng_.shuffle(order.begin(), order.end());
    const net::NodeId source = src;
    for (std::uint16_t pid : order) {
      const sim::Time jitter = cfg_->check_jitter * rng_.uniform();
      ctx_.sched->schedule_in(
          jitter,
          [this, source, pid] {
            auto it = as_dest_.find(source);
            if (it == as_dest_.end()) return;
            DestState& state = it->second;
            if (pid >= state.paths.size() || !state.alive[pid]) return;
            send_check(source, state, pid);
          },
          sim::EventCategory::kRouting);
    }
  }
}

void Mts::send_check(NodeId src, DestState& ds, std::uint16_t path_id) {
  MtsCheckHeader h;
  h.check_id = ds.check_round;
  h.path_id = path_id;
  h.checker = self();
  h.source = src;
  h.hop_count = static_cast<std::uint8_t>(ds.paths[path_id].size() + 1);
  h.nodes = ds.paths[path_id];
  const NodeId next = walk_pos(h.nodes, src, self(), 1);
  Packet p = originate(PacketKind::kMtsCheck, src, cfg_->net_diameter_ttl);
  p.mutable_hop().cursor = 1;  // walk position of the first receiver
  p.mutable_routing() = std::move(h);
  ++checks_sent_;
  send_to_mac(std::move(p), next, /*originated_here=*/true);
}

void Mts::handle_check(Packet&& p, NodeId from) {
  const auto& h = p.header<MtsCheckHeader>();
  if (walk_pos(h.nodes, h.source, h.checker, p.hop().cursor) != self()) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
  // "When the intermediate node receives the checking packets, it caches
  // the checking packet ID as the entry ID to the destination" — the
  // forward path toward the checker runs through `from`.
  install_hop(h.checker, h.path_id, from);
  if (self() == h.source) {
    ++checks_recv_;
    source_path_confirmed(h.checker, h.path_id, h.nodes, h.check_id,
                          /*switch_allowed=*/true);
    return;
  }
  // Pure forwarding hop: only the cell's cursor moves; the body stays
  // shared down the whole walk.
  const std::uint16_t pos = ++p.mutable_hop().cursor;
  const NodeId next = walk_pos(h.nodes, h.source, h.checker, pos);
  send_to_mac(std::move(p), next, /*originated_here=*/false);
}

void Mts::send_check_error(const MtsCheckHeader& failed,
                           std::uint16_t hops_done, NodeId broken_to) {
  // Return route: retrace the walk back toward the checker from our
  // position (the failed check's hop cursor, which names us).
  MtsCheckErrorHeader h;
  h.path_id = failed.path_id;
  h.checker = failed.checker;
  h.flow_source = failed.source;
  h.reporter = self();
  h.broken_from = self();
  h.broken_to = broken_to;
  for (std::size_t k = hops_done; k-- > 0;) {
    h.nodes.push_back(walk_pos(failed.nodes, failed.source, failed.checker, k));
  }
  if (h.nodes.empty()) return;
  const NodeId next = h.nodes[0];
  Packet p = originate(PacketKind::kMtsCheckError, failed.checker,
                       cfg_->net_diameter_ttl);
  p.mutable_hop().cursor = 0;  // return-route index of the reporter
  p.mutable_routing() = std::move(h);
  send_to_mac(std::move(p), next, /*originated_here=*/true);
}

void Mts::handle_check_error(Packet&& p, NodeId from) {
  (void)from;
  const auto& h = p.header<MtsCheckErrorHeader>();
  const std::size_t pos = p.hop().cursor;
  if (pos >= h.nodes.size() || h.nodes[pos] != self()) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
  if (self() == h.checker) {
    // §III-D: "the destination node deletes the failed path".
    auto it = as_dest_.find(h.flow_source);
    if (it != as_dest_.end() && h.path_id < it->second.alive.size()) {
      it->second.alive[h.path_id] = false;
    }
    return;
  }
  // Pure forwarding hop: only the cell's cursor moves.
  const std::uint16_t ahead = ++p.mutable_hop().cursor;
  if (ahead >= h.nodes.size()) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
  const NodeId next = h.nodes[ahead];
  send_to_mac(std::move(p), next, /*originated_here=*/false);
}

// ---------------------------------------------------------------------------
// Data plane.
// ---------------------------------------------------------------------------

void Mts::handle_data(Packet&& p, NodeId from) {
  // Two data-plane shapes ride kTcpData/kTcpAck: the ordinary data tag
  // and the acked-checking probe.  Both carry a path id and follow the
  // same per-(dst, path) forwarding state; an intermediate node (and any
  // insider sitting at one) cannot tell them apart by kind.
  const auto* tag = p.header_if<MtsDataTag>();
  const auto* probe = p.header_if<MtsProbeHeader>();
  if (tag == nullptr && probe == nullptr) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
  const std::uint16_t path_id = tag != nullptr ? tag->path_id : probe->path_id;
  // Reverse state: packets back to p.src flow through `from`.
  install_hop(p.common().src, path_id, from);
  if (p.common().dst == self()) {
    if (probe != nullptr) {
      handle_probe(*probe, p.common().src);
      return;  // never delivered to transport
    }
    last_rx_path_[p.common().src] = path_id;
    if (auto it = as_dest_.find(p.common().src); it != as_dest_.end()) {
      it->second.last_activity = now();
    }
    trace(net::TraceOp::kDeliver, p);
    ctx_.deliver->deliver_local(self(), std::move(p), from);
    return;
  }
  if (p.hop().ttl <= 1) {
    drop(p, net::DropReason::kTtlExpired);
    return;
  }
  // Pure forwarding hop: the TTL decrement is a cell write; the body
  // (and its cached wire image) stays shared down the whole chain.
  --p.mutable_hop().ttl;
  // Forward on any installed state, fresh or not: liveness is the MAC's
  // call (§III-E), and a link that still ACKs is still a route.  The
  // freshness window only gates *path choice* at the source.
  if (const HopEntry* hop = any_hop(p.common().dst, path_id)) {
    send_to_mac(std::move(p), hop->next_hop, /*originated_here=*/false);
    return;
  }
  // No forwarding state at all mid-path: tell the source, drop the packet.
  send_rerr_to_source(p.common().src, p.common().dst, path_id, self(),
                      net::kNoNode);
  drop(p, net::DropReason::kStaleRoute);
}

// ---------------------------------------------------------------------------
// End-to-end acked checking (countermeasure subsystem).
//
// Stock MTS checking travels as control traffic, which an insider
// blackhole forwards faithfully — the mechanism provably cannot see the
// attack (pinned in the PR 4 fingerprints).  When a defense with a probe
// period is installed, the *source* additionally probes every stored
// path on the data plane: probes are kTcpData to the veto seam, so an
// attacker that eats the stream eats the probes, and the destination's
// echo completes the end-to-end loop.  The defense owns the
// per-path delivery estimator; this code sends probes, routes echoes,
// and honours demotion verdicts by quarantining paths.
// ---------------------------------------------------------------------------

void Mts::probe_tick() {
  if (ctx_.defense == nullptr) return;
  // Collect verdicts under a stable view first: quarantining can cascade
  // into a new discovery, which clears the very path map being walked.
  std::vector<std::pair<NodeId, std::uint16_t>> suspects;
  std::vector<std::pair<NodeId, std::uint16_t>> healthy;
  for (auto& [dst, ss] : as_source_) {
    for (auto& [path_id, sp] : ss.paths) {
      if (!sp.alive || sp.quarantined) continue;
      if (now() - sp.last_confirmed > freshness_limit()) continue;
      if (ctx_.defense->path_suspect(self(), dst, path_id)) {
        suspects.emplace_back(dst, path_id);
      } else {
        healthy.emplace_back(dst, path_id);
      }
    }
  }
  for (const auto& [dst, path_id] : suspects) quarantine_path(dst, path_id);
  for (const auto& [dst, path_id] : healthy) {
    // Re-look-up: a quarantine above may have restarted discovery and
    // replaced (or removed) this entry.
    auto it = as_source_.find(dst);
    if (it == as_source_.end()) continue;
    auto pit = it->second.paths.find(path_id);
    if (pit == it->second.paths.end() || !pit->second.alive ||
        pit->second.quarantined) {
      continue;
    }
    send_probe(dst, path_id, pit->second);
  }
}

void Mts::send_probe(NodeId dst, std::uint16_t path_id, const SourcePath& sp) {
  MtsProbeHeader h;
  h.path_id = path_id;
  h.probe_id = ++probe_seq_;
  h.echo = false;
  // kTcpData: data-plane camouflage.
  Packet p = originate(PacketKind::kTcpData, dst, cfg_->net_diameter_ttl);
  p.mutable_routing() = h;
  const HopEntry* hop = any_hop(dst, path_id);
  const NodeId next = hop != nullptr ? hop->next_hop : first_hop(sp.nodes, dst);
  ++probes_sent_;
  ctx_.defense->on_probe_sent(self(), dst, path_id);
  send_to_mac(std::move(p), next, /*originated_here=*/true);
}

void Mts::handle_probe(const MtsProbeHeader& h, NodeId peer) {
  if (h.echo) {
    // We are the prober: the destination's ack closed the loop.
    if (ctx_.defense != nullptr) {
      ctx_.defense->on_probe_echo(self(), peer, h.path_id);
    }
    return;
  }
  // We are the destination: turn the probe around on the reverse state
  // its forward trip just refreshed.  The echo is data-plane too — an
  // attacker on the return leg kills it and the estimator still sees the
  // loss (either direction of the path failing demotes it).
  const HopEntry* back = any_hop(peer, h.path_id);
  if (back == nullptr) return;
  MtsProbeHeader e;
  e.path_id = h.path_id;
  e.probe_id = h.probe_id;
  e.echo = true;
  Packet p = originate(PacketKind::kTcpData, peer, cfg_->net_diameter_ttl);
  p.mutable_routing() = e;
  send_to_mac(std::move(p), back->next_hop, /*originated_here=*/true);
}

void Mts::quarantine_path(NodeId dst, std::uint16_t path_id) {
  auto it = as_source_.find(dst);
  if (it == as_source_.end()) return;
  auto pit = it->second.paths.find(path_id);
  if (pit == it->second.paths.end() || pit->second.quarantined) return;
  pit->second.quarantined = true;
  ++paths_quarantined_;
  ctx_.defense->on_path_quarantined(self(), dst, path_id, now());
  // Demote like a routing failure: fail over to the best remaining live
  // path, or trigger a fresh discovery (§III-E's recovery machinery).
  mark_source_path_dead(dst, path_id);
}

// ---------------------------------------------------------------------------
// Failure handling (§III-E).
// ---------------------------------------------------------------------------

void Mts::send_rerr_to_source(NodeId src, NodeId dst, std::uint16_t path_id,
                              NodeId broken_from, NodeId broken_to) {
  if (src == self()) {
    mark_source_path_dead(dst, path_id);
    return;
  }
  const HopEntry* back = any_hop(src, path_id);
  if (back == nullptr) return;  // cannot route the report; give up
  MtsRerrHeader h;
  h.source = src;
  h.dst = dst;
  h.path_id = path_id;
  h.broken_from = broken_from;
  h.broken_to = broken_to;
  Packet p = originate(PacketKind::kMtsRerr, src, cfg_->net_diameter_ttl);
  p.mutable_routing() = h;
  send_to_mac(std::move(p), back->next_hop, /*originated_here=*/true);
}

void Mts::handle_rerr(Packet&& p, NodeId from) {
  (void)from;
  const auto& h = p.header<MtsRerrHeader>();
  if (h.source == self()) {
    mark_source_path_dead(h.dst, h.path_id);
    return;
  }
  const HopEntry* back = any_hop(h.source, h.path_id);
  if (back == nullptr) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
  if (p.hop().ttl <= 1) {
    drop(p, net::DropReason::kTtlExpired);
    return;
  }
  --p.mutable_hop().ttl;
  send_to_mac(std::move(p), back->next_hop, /*originated_here=*/false);
}

void Mts::mark_source_path_dead(NodeId dst, std::uint16_t path_id) {
  auto it = as_source_.find(dst);
  if (it == as_source_.end()) return;
  SourceState& ss = it->second;
  auto pit = ss.paths.find(path_id);
  if (pit != ss.paths.end()) pit->second.alive = false;
  if (ss.current == path_id) {
    ss.current = -1;
    // fresh_source_path() fails over to the best remaining live path on
    // the next send; if none, discovery restarts (§III-E: "the source
    // node then triggers a new route discovery procedure").
    if (fresh_source_path(dst) == nullptr) discover(dst);
  }
}

void Mts::on_link_failure(const Packet& packet, NodeId next_hop) {
  // Any state through the dead neighbour is untrustworthy: erase it so
  // forwarding falls through to the RERR path instead of re-trying it.
  for (auto it = hops_.begin(); it != hops_.end();) {
    it = it->second.next_hop == next_hop ? hops_.erase(it) : ++it;
  }
  auto handle_one = [this, next_hop](const Packet& pkt) {
    switch (pkt.common().kind) {
      case PacketKind::kMtsCheck: {
        // The node named by the hop cursor never got it; we hold the
        // cursor in the failed packet's own cell.
        send_check_error(pkt.header<MtsCheckHeader>(), pkt.hop().cursor,
                         next_hop);
        return;
      }
      case PacketKind::kTcpData:
      case PacketKind::kTcpAck: {
        const auto* tag = pkt.header_if<MtsDataTag>();
        if (tag == nullptr) return;
        if (pkt.common().src == self()) {
          mark_source_path_dead(pkt.common().dst, tag->path_id);
          Packet retry = pkt;
          retry.mutable_routing() = std::monostate{};
          send_from_transport(std::move(retry));
        } else {
          send_rerr_to_source(pkt.common().src, pkt.common().dst, tag->path_id,
                              self(), next_hop);
          drop(pkt, net::DropReason::kStaleRoute);
        }
        return;
      }
      default:
        // RREP / RERR / CHECK_ERROR losses are absorbed: periodic checks
        // and discovery retries recover the state.
        return;
    }
  };
  handle_one(packet);
  for (net::QueueItem& item : ctx_.mac->take_queued_for(next_hop)) {
    handle_one(item.packet);
  }
}

// ---------------------------------------------------------------------------
// Housekeeping.
// ---------------------------------------------------------------------------

void Mts::purge() {
  // Destinations stop probing a source that has been silent a long time.
  for (auto it = as_dest_.begin(); it != as_dest_.end();) {
    if (!it->second.paths.empty() &&
        now() - it->second.last_activity > sim::Time::sec(30)) {
      it = as_dest_.erase(it);
    } else {
      ++it;
    }
  }
  // Hop entries decay; drop anything long past freshness to bound the map.
  const sim::Time horizon = freshness_limit() * std::int64_t{2};
  for (auto it = hops_.begin(); it != hops_.end();) {
    if (now() - it->second.refreshed > horizon) {
      it = hops_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch and introspection.
// ---------------------------------------------------------------------------

void Mts::receive_from_mac(Packet packet, NodeId from) {
  switch (packet.common().kind) {
    case PacketKind::kMtsRreq: handle_rreq(std::move(packet), from); return;
    case PacketKind::kMtsRrep: handle_rrep(std::move(packet), from); return;
    case PacketKind::kMtsCheck: handle_check(std::move(packet), from); return;
    case PacketKind::kMtsCheckError:
      handle_check_error(std::move(packet), from);
      return;
    case PacketKind::kMtsRerr: handle_rerr(std::move(packet), from); return;
    case PacketKind::kTcpData:
    case PacketKind::kTcpAck: handle_data(std::move(packet), from); return;
    default:
      drop(packet, net::DropReason::kNoRoute);
      return;
  }
}

std::vector<PathNodes> Mts::stored_paths_for(NodeId src) const {
  auto it = as_dest_.find(src);
  if (it == as_dest_.end()) return {};
  std::vector<PathNodes> out;
  for (std::size_t i = 0; i < it->second.paths.size(); ++i) {
    if (it->second.alive[i]) out.push_back(it->second.paths[i]);
  }
  return out;
}

int Mts::current_path_id(NodeId dst) const {
  auto it = as_source_.find(dst);
  return it == as_source_.end() ? -1 : it->second.current;
}

}  // namespace mts::core
