#include "security/defense/defense.hpp"

#include <algorithm>

#include "sim/error.hpp"

namespace mts::security {

const char* defense_kind_name(DefenseKind k) {
  switch (k) {
    case DefenseKind::kNone: return "none";
    case DefenseKind::kAckedChecking: return "acked-checking";
    case DefenseKind::kWormholeLeash: return "wormhole-leash";
    case DefenseKind::kFloodRateLimit: return "flood-limit";
    case DefenseKind::kSuite: return "suite";
  }
  return "?";
}

Defense::Defense(const DefenseSpec& spec, const SecurityContext& ctx)
    : kind_(spec.kind),
      leashed_(kind_ == DefenseKind::kWormholeLeash ||
               kind_ == DefenseKind::kSuite),
      limiting_(kind_ == DefenseKind::kFloodRateLimit ||
                kind_ == DefenseKind::kSuite),
      alpha_(spec.ewma_alpha),
      threshold_(spec.demote_threshold),
      min_probes_(spec.min_probes),
      limit_sq_(ctx.radio_range * spec.leash_slack * ctx.radio_range *
                spec.leash_slack),
      rate_(spec.rreq_rate),
      burst_(spec.rreq_burst) {
  if (kind_ == DefenseKind::kAckedChecking || kind_ == DefenseKind::kSuite) {
    period_ = spec.probe_period;
    sim::require_config(period_ > sim::Time::zero(),
                        "Defense: probe_period <= 0");
    sim::require_config(alpha_ > 0.0 && alpha_ <= 1.0,
                        "Defense: ewma_alpha outside (0, 1]");
    sim::require_config(threshold_ > 0.0 && threshold_ < 1.0,
                        "Defense: demote_threshold outside (0, 1)");
    sim::require_config(min_probes_ >= 1, "Defense: min_probes < 1");
  }
  if (leashed_) {
    position_of_ = ctx.position_of;
    sim::require_config(ctx.radio_range > 0, "Defense: radio_range <= 0");
    sim::require_config(spec.leash_slack >= 1.0, "Defense: leash_slack < 1");
    sim::require_config(static_cast<bool>(position_of_),
                        "Defense: leash needs a position lookup");
  }
  if (limiting_) {
    sim::require_config(rate_ > 0, "Defense: rreq_rate <= 0");
    sim::require_config(burst_ >= 1.0, "Defense: rreq_burst < 1");
  }
}

void Defense::detected(sim::Time now) {
  if (counters_.first_detection.is_zero()) counters_.first_detection = now;
}

// --- flood rate limiting ---------------------------------------------------

bool Defense::admit_rreq(net::NodeId self, net::NodeId origin, sim::Time now) {
  if (!limiting_) return true;
  ++counters_.rreqs_seen;
  auto [it, fresh] =
      buckets_.try_emplace({self, origin}, Bucket{burst_, now});
  Bucket& b = it->second;
  if (!fresh) {
    b.tokens =
        std::min(burst_, b.tokens + (now - b.last).to_seconds() * rate_);
    b.last = now;
  }
  if (b.tokens >= 1.0) {
    b.tokens -= 1.0;
    return true;
  }
  ++counters_.suppressed;
  detected(now);
  return false;
}

// --- wormhole leash --------------------------------------------------------

bool Defense::admit_path(net::NodeId src, net::NodeId dst,
                         const net::RouteVec& intermediates, sim::Time now) {
  if (!leashed_) return true;
  ++counters_.validated;
  mobility::Vec2 prev = position_of_(src, now);
  bool feasible = true;
  for (net::NodeId n : intermediates) {
    const mobility::Vec2 p = position_of_(n, now);
    if (mobility::distance_sq(prev, p) > limit_sq_) {
      feasible = false;
      break;
    }
    prev = p;
  }
  if (feasible &&
      mobility::distance_sq(prev, position_of_(dst, now)) > limit_sq_) {
    feasible = false;
  }
  if (!feasible) {
    ++counters_.quarantined;
    detected(now);
  }
  return feasible;
}

// --- acked checking ----------------------------------------------------------
// Probing is off when `period_` is zero.  Then `on_probe_sent` and
// `on_path_quarantined` return at once, no estimator is ever created,
// and the other hooks find none.

void Defense::on_path_established(net::NodeId self, net::NodeId dst,
                                  std::uint16_t path_id) {
  // Path ids restart per discovery generation; a fresh path must not
  // inherit the estimator of the dead one that wore the id before it.
  estimators_.erase(PathKey{self, dst, path_id});
}

void Defense::on_probe_sent(net::NodeId self, net::NodeId dst,
                            std::uint16_t path_id) {
  if (period_.is_zero()) return;
  Estimator& e = estimators_[PathKey{self, dst, path_id}];
  if (e.outstanding) {
    // The previous probe never echoed within a full period: a loss.
    e.ewma = (1.0 - alpha_) * e.ewma;
  }
  e.outstanding = true;
  ++e.probes;
  ++counters_.probes_sent;
}

void Defense::on_probe_echo(net::NodeId self, net::NodeId dst,
                            std::uint16_t path_id) {
  auto it = estimators_.find(PathKey{self, dst, path_id});
  if (it == estimators_.end() || !it->second.outstanding) {
    return;  // duplicate or post-quarantine echo: no estimator to feed
  }
  Estimator& e = it->second;
  e.outstanding = false;
  e.ewma = (1.0 - alpha_) * e.ewma + alpha_;
  ++counters_.echoes;
}

bool Defense::path_suspect(net::NodeId self, net::NodeId dst,
                           std::uint16_t path_id) const {
  auto it = estimators_.find(PathKey{self, dst, path_id});
  if (it == estimators_.end()) return false;
  const Estimator& e = it->second;
  return e.probes >= min_probes_ && e.ewma < threshold_;
}

void Defense::on_path_quarantined(net::NodeId self, net::NodeId dst,
                                  std::uint16_t path_id, sim::Time now) {
  if (period_.is_zero()) return;
  ++counters_.quarantined;
  detected(now);
  estimators_.erase(PathKey{self, dst, path_id});
}

double Defense::ewma(net::NodeId self, net::NodeId dst,
                     std::uint16_t path_id) const {
  auto it = estimators_.find(PathKey{self, dst, path_id});
  return it == estimators_.end() ? 1.0 : it->second.ewma;
}

}  // namespace mts::security
