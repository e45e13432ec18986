#include "net/packet.hpp"

#include <memory>
#include <sstream>
#include <vector>

#include "sim/error.hpp"

namespace mts::net {

const char* packet_kind_name(PacketKind k) {
  switch (k) {
    case PacketKind::kTcpData: return "TCP_DATA";
    case PacketKind::kTcpAck: return "TCP_ACK";
    case PacketKind::kAodvRreq: return "AODV_RREQ";
    case PacketKind::kAodvRrep: return "AODV_RREP";
    case PacketKind::kAodvRerr: return "AODV_RERR";
    case PacketKind::kDsrRreq: return "DSR_RREQ";
    case PacketKind::kDsrRrep: return "DSR_RREP";
    case PacketKind::kDsrRerr: return "DSR_RERR";
    case PacketKind::kMtsRreq: return "MTS_RREQ";
    case PacketKind::kMtsRrep: return "MTS_RREP";
    case PacketKind::kMtsCheck: return "MTS_CHECK";
    case PacketKind::kMtsCheckError: return "MTS_CHECK_ERR";
    case PacketKind::kMtsRerr: return "MTS_RERR";
  }
  return "?";
}

namespace {

/// Thread-local pool of packet bodies: chunked storage (stable
/// addresses) threaded through an intrusive free list, mirroring the
/// scheduler's event slot pool.  Campaigns run concurrent scenarios in
/// forked worker processes, each with its own pool; thread-local keeps
/// any threads a host program adds apart too.  Within one scenario
/// every packet lives and dies on the same thread, so refcount traffic
/// needs no atomics.
class PacketPool {
 public:
  static PacketPool& local() {
    thread_local PacketPool pool;
    return pool;
  }

  PacketBody* acquire() {
    PacketBody* b = take_slot();
    b->common = CommonHeader{};
    b->tcp.reset();
    b->routing = std::monostate{};
    b->wire_payload.reset();
    b->refcount = 1;
    ++stats_.acquired;
    return b;
  }

  /// Deep copy for copy-on-write: called when a handle must mutate a
  /// body other handles still reference.  The wire-payload cache is
  /// deliberately not copied — a clone exists to be mutated, which
  /// invalidates the materialized image anyway.
  PacketBody* clone(const PacketBody& src) {
    PacketBody* b = take_slot();
    b->common = src.common;
    b->tcp = src.tcp;
    b->routing = src.routing;
    b->wire_payload.reset();
    b->refcount = 1;
    ++stats_.acquired;
    ++stats_.cow_clones;
    return b;
  }

  void release(PacketBody* b) {
    ++b->generation;  // invalidate any stale handle deterministically
    b->wire_payload.reset();  // drop the shared image with the body
    b->next_free = free_;
    free_ = b;
    ++stats_.released;
  }

  [[nodiscard]] const PacketPoolStats& stats() const { return stats_; }
  PacketPoolStats& mutable_stats() { return stats_; }

 private:
  static constexpr std::size_t kChunkSize = 64;

  PacketBody* take_slot() {
    if (free_ != nullptr) {
      PacketBody* b = free_;
      free_ = b->next_free;
      return b;
    }
    chunks_.push_back(std::make_unique<PacketBody[]>(kChunkSize));
    PacketBody* chunk = chunks_.back().get();
    // Thread all but the first fresh slot onto the free list.
    for (std::size_t i = kChunkSize - 1; i > 0; --i) {
      chunk[i].next_free = free_;
      free_ = &chunk[i];
    }
    stats_.slots += kChunkSize;
    return &chunk[0];
  }

  std::vector<std::unique_ptr<PacketBody[]>> chunks_;
  PacketBody* free_ = nullptr;
  PacketPoolStats stats_;
};

}  // namespace

PacketPoolStats packet_pool_stats() { return PacketPool::local().stats(); }

namespace detail {

void note_cell_acquired() { ++PacketPool::local().mutable_stats().cell_acquired; }

void note_wire_cache_hit() {
  ++PacketPool::local().mutable_stats().wire_cache_hits;
}

}  // namespace detail

void Packet::reset() {
  hop_ = HopState{};
  if (body_ == nullptr) return;
  // A stale handle must trip here too: decrementing a recycled body's
  // refcount would prematurely release its new owner's allocation and
  // corrupt the pool far from the actual bug.  (From a destructor this
  // terminates — still deterministic, unlike the corruption.)
  sim::require(body_->generation == gen_,
               "Packet: releasing a stale handle (body was recycled)");
  if (--body_->refcount == 0) PacketPool::local().release(body_);
  body_ = nullptr;
}

PacketBody& Packet::own() {
  if (body_ == nullptr) {
    body_ = PacketPool::local().acquire();
  } else {
    sim::require(body_->generation == gen_,
                 "Packet: stale handle (body was recycled)");
    if (body_->refcount > 1) {
      PacketBody* fresh = PacketPool::local().clone(*body_);
      --body_->refcount;
      body_ = fresh;
    }
  }
  gen_ = body_->generation;
  // Any write may change what the packet looks like on the air, so the
  // materialized image is stale from here; taps re-derive it on demand.
  body_->wire_payload.reset();
  return *body_;
}

std::string Packet::summary() const {
  const PacketBody& b = checked();
  std::ostringstream os;
  os << packet_kind_name(b.common.kind) << " uid=" << b.common.uid << " "
     << b.common.src << "->" << b.common.dst << " ttl=" << int{hop_.ttl}
     << " bytes=" << wire_bytes();
  if (b.tcp.has_value()) {
    os << " seq=" << b.tcp->seq << " ack=" << b.tcp->ack;
  }
  return os.str();
}

}  // namespace mts::net
