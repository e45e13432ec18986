#include "routing/protocol.hpp"

namespace mts::routing {

namespace {

constexpr sim::Time kPurgePeriod = sim::Time::sec(1);
constexpr sim::Time kPersistInitialWait = sim::Time::ms(500);
constexpr sim::Time kPersistMaxWait = sim::Time::sec(10);
constexpr sim::Time kGiveUpWait = sim::Time::sec(1);
constexpr std::uint32_t kGiveUpAttempts = 3;

/// How long to wait for a reply to the RREQ sent after `attempts`
/// unanswered ones.
sim::Time retry_wait(RoutingProtocol::RetryPolicy policy,
                     std::uint32_t attempts) {
  if (policy == RoutingProtocol::RetryPolicy::kGiveUpAfterThree) {
    return kGiveUpWait * (std::int64_t{1} << attempts);
  }
  // Double only up to the cap: doubling on regardless overflows int64
  // nanoseconds once a destination has been queried for ~5 minutes.
  sim::Time wait = kPersistInitialWait;
  for (; attempts > 0 && wait < kPersistMaxWait; --attempts) {
    wait = wait * std::int64_t{2};
  }
  return std::min(wait, kPersistMaxWait);
}

}  // namespace

RoutingProtocol::RoutingProtocol(RoutingContext ctx, sim::Rng rng,
                                 RetryPolicy retry)
    : ctx_(std::move(ctx)),
      rng_(rng),
      retry_(retry),
      purge_timer_(*ctx_.sched,
                   sim::bind<&RoutingProtocol::purge_tick>(this),
                   sim::EventCategory::kRouting) {}

void RoutingProtocol::purge_tick() {
  buffer_.expire(now(), [this](const net::Packet& p) {
    drop(p, net::DropReason::kSendBufferTimeout);
  });
  purge();
}

void RoutingProtocol::start() {
  // Small desync so all nodes don't purge on the same tick.
  purge_timer_.start(kPurgePeriod,
                     kPurgePeriod + sim::Time::seconds(rng_.uniform(0.0, 0.1)));
}

RoutingProtocol::PendingDiscovery* RoutingProtocol::pending_for(
    net::NodeId dst) {
  for (PendingDiscovery& d : pending_) {
    if (d.dst == dst) return &d;
  }
  return nullptr;
}

void RoutingProtocol::forget(PendingDiscovery& d) {
  d = pending_.back();
  pending_.pop_back();
}

void RoutingProtocol::buffer_and_discover(net::Packet packet) {
  const net::NodeId dst = packet.common().dst;
  if (auto evicted = buffer_.push(std::move(packet), now())) {
    drop(*evicted, net::DropReason::kSendBufferFull);
  }
  discover(dst);
}

void RoutingProtocol::discover(net::NodeId dst) {
  if (pending_for(dst) != nullptr) return;
  pending_.push_back(PendingDiscovery{dst});
  query(dst, /*first=*/true);
}

void RoutingProtocol::query(net::NodeId dst, bool first) {
  send_rreq(dst, first);
  // Found after the hook runs, so no reference into `pending_` is held
  // across protocol code.
  PendingDiscovery& d = *pending_for(dst);
  d.timer = ctx_.sched->schedule_in(
      retry_wait(retry_, d.attempts), [this, dst] { discovery_timeout(dst); },
      sim::EventCategory::kRouting);
}

void RoutingProtocol::discovery_timeout(net::NodeId dst) {
  // Still pending: only this timeout forgets a discovery without first
  // cancelling its timer.
  PendingDiscovery* d = pending_for(dst);
  if (retry_ == RetryPolicy::kGiveUpAfterThree) {
    if (d->attempts + 1 >= kGiveUpAttempts) {
      forget(*d);
      buffer_.take_for(dst, take_scratch_);
      for (net::Packet& p : take_scratch_) {
        drop(p, net::DropReason::kNoRoute);
      }
      return;
    }
    ++d->attempts;
  } else {
    ++d->attempts;
    if (!buffer_.has_packet_for(dst)) {
      // Nothing waiting any more; stop querying.
      forget(*d);
      return;
    }
  }
  query(dst, /*first=*/false);
}

void RoutingProtocol::flush(net::NodeId dst) {
  if (PendingDiscovery* d = pending_for(dst)) {
    ctx_.sched->cancel(d->timer);
    forget(*d);
  }
  buffer_.take_for(dst, take_scratch_);
  for (net::Packet& p : take_scratch_) {
    send_from_transport(std::move(p));
  }
}

}  // namespace mts::routing
