#pragma once

// Tracing for mts_perf: a SIGPROF sampler armed only inside spans
// that mts_perf opens around its calls into the simulator, a
// symbolizer that maps sampled PCs to layer buckets, and a counting
// global operator new.  Everything here observes the simulator from
// outside; nothing in src/ knows it exists.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace mts::perf {

/// Layer bucket of a demangled symbol name.  Parameter lists are
/// dropped first, then the last `mts::<module>::` qualifier left names
/// the layer, so an EventFn thunk instantiated for a `Channel::radiate`
/// lambda counts as `phy` and `std::vector<mts::net::Packet>` growth as
/// `net`.  Allocator entry points are `alloc`; any other name is
/// `unattributed`.  (Names resolved in shared libraries become `libc`
/// in `attribute_samples`, not here.)
std::string classify_symbol(std::string_view demangled);

/// Installs the SIGPROF handler and its preallocated PC buffer.  Call
/// once before the first span.
void install_sampler();

/// While alive, ITIMER_PROF fires and the handler records the
/// interrupted PC.  Spans do not nest.  Forked children inherit no
/// interval timer, so a span around a fabric call samples only the
/// supervisor.
class ProfSpan {
 public:
  explicit ProfSpan(bool enabled);
  ~ProfSpan();
  ProfSpan(const ProfSpan&) = delete;
  ProfSpan& operator=(const ProfSpan&) = delete;

 private:
  bool enabled_;
};

/// Resolves every PC recorded so far and returns the sample count per
/// bucket (`classify_symbol` buckets plus `libc`).
std::map<std::string, std::uint64_t> attribute_samples();

struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// Turns counting in the replaced global `operator new` on or off.
void count_allocations(bool on);
AllocCounts alloc_counts();

}  // namespace mts::perf
