#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string_view>
#include <vector>

#include "sim/error.hpp"

namespace mts::sim {

/// splitmix64: tiny, high-quality 64-bit mixer used to derive substream
/// seeds.  (Public-domain constants from Vigna's reference.)
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// FNV-1a over a string, for name-derived substreams.
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Exactly the std::mt19937_64 sequence, from 40 bytes of state instead
/// of 2,504.
///
/// MT19937-64 seeds its 312 words by the recurrence
///
///   x[0] = seed,   x[i] = f * (x[i-1] ^ x[i-1] >> 62) + i,
///
/// and its first twist rewrites word k < 156 as x[k+156] ^ twist(x[k],
/// x[k+1]), reading only seed words it has not rewritten yet.  So output
/// i < 156 is temper(x[i+156] ^ twist(x[i], x[i+1])): two running cursors
/// of the recurrence, at x[i] and x[i+156], give each of those outputs in
/// O(1) with no state array.  Setting the cursors up walks the
/// recurrence 156 steps, each waiting on the previous step's multiply.
/// The first draw does it, so a stream that is never drawn costs nothing
/// but its constructor; start() does it earlier for up to kMaxStart
/// fresh streams at once, stepping their chains side by side so that
/// their multiplies overlap.
///
/// From output 156 on, each output reads the twisted first block.  So the
/// 157th draw builds one heap std::mt19937_64 from the same seed, discards
/// the 156 outputs already given, and delegates to it from then on.  A copy
/// deep-copies that engine; a move hands it over and leaves the source
/// unusable: a draw from a moved-from stream fails a require.
class CompactMt64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Most streams one start() call takes: eight chains in flight hide
  /// the multiply's latency (docs/architecture/scale.md, "Block starts").
  static constexpr std::size_t kMaxStart = 8;

  explicit CompactMt64(result_type seed) : seed_(seed) {}
  CompactMt64(const CompactMt64& o)
      : seed_(o.seed_), lo_(o.lo_), hi_(o.hi_), drawn_(o.drawn_),
        started_(o.started_),
        tail_(o.tail_ ? std::make_unique<std::mt19937_64>(*o.tail_) : nullptr) {}
  CompactMt64(CompactMt64&& o) noexcept
      : seed_(o.seed_), lo_(o.lo_), hi_(o.hi_), drawn_(o.drawn_),
        started_(o.started_), tail_(std::move(o.tail_)) {
    o.drawn_ = kMovedFrom;
  }
  CompactMt64& operator=(const CompactMt64& o) {
    if (this != &o) *this = CompactMt64(o);
    return *this;
  }
  CompactMt64& operator=(CompactMt64&& o) noexcept {
    if (this != &o) {
      seed_ = o.seed_;
      lo_ = o.lo_;
      hi_ = o.hi_;
      drawn_ = o.drawn_;
      started_ = o.started_;
      tail_ = std::move(o.tail_);
      o.drawn_ = kMovedFrom;
    }
    return *this;
  }

  result_type operator()() {
    if (drawn_ >= kBlock) {
      if (!tail_) start_tail();
      return (*tail_)();
    }
    if (drawn_ == 0 && !started_) {  // drawn_ first: later draws skip the flag
      CompactMt64* const self = this;
      start({&self, 1});
    }
    const std::uint64_t next = step(lo_, drawn_ + 1);  // x[i+1]
    const std::uint64_t y = (lo_ & kUpperMask) | (next & kLowerMask);
    const std::uint64_t z = hi_ ^ (y >> 1) ^ ((y & 1) ? kXorMask : 0);
    lo_ = next;
    hi_ = step(hi_, drawn_ + kBlock + 1);  // x[i+157]
    ++drawn_;
    return temper(z);
  }

  /// Sets up the cursors of up to kMaxStart fresh streams (none drawn
  /// from or moved from) in one pass over their interleaved chains.  A
  /// started stream copies, moves and draws exactly as an unstarted one.
  /// A draw starts its own stream if nothing has.
  [[gnu::noinline]] static void start(std::span<CompactMt64* const> streams) {
    const std::size_t n = streams.size();
    require(n <= kMaxStart, "Rng: more than 8 streams started at once");
    std::uint64_t x[kMaxStart] = {};
    for (std::size_t k = 0; k < n; ++k) {
      require(streams[k]->drawn_ == 0, "Rng: start of a drawn or moved-from stream");
      x[k] = streams[k]->seed_;
    }
    for (std::uint64_t i = 1; i <= kBlock; ++i) {
      for (std::size_t k = 0; k < n; ++k) x[k] = step(x[k], i);
    }
    for (std::size_t k = 0; k < n; ++k) {
      CompactMt64& s = *streams[k];
      s.lo_ = s.seed_;
      s.hi_ = x[k];
      s.started_ = true;
    }
  }

 private:
  // MT19937-64's parameters (n = 312, m = 156, r = 31).
  static constexpr std::uint32_t kBlock = 156;  ///< n - m: outputs before the hand-over
  static constexpr std::uint32_t kMovedFrom = ~std::uint32_t{0};
  static constexpr std::uint64_t kMultiplier = 6364136223846793005ULL;
  static constexpr std::uint64_t kXorMask = 0xB5026F5AA96619E9ULL;
  static constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
  static constexpr std::uint64_t kLowerMask = ~kUpperMask;

  static constexpr std::uint64_t step(std::uint64_t x, std::uint64_t i) {
    return kMultiplier * (x ^ (x >> 62)) + i;
  }
  static constexpr std::uint64_t temper(std::uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  // start() and start_tail() each run once per stream.  Out of line,
  // they keep the draw short where every distribution inlines it;
  // inline, they made a draw after the hand-over slower than
  // std::mt19937_64's (see docs/architecture/scale.md, "Compact RNG
  // substreams").
  [[gnu::noinline]] void start_tail() {
    require(drawn_ == kBlock, "Rng: draw from a moved-from stream");
    tail_ = std::make_unique<std::mt19937_64>(seed_);
    tail_->discard(kBlock);
  }

  std::uint64_t seed_;
  std::uint64_t lo_ = 0;     ///< x[i] for the next output i < 156
  std::uint64_t hi_ = 0;     ///< x[i+156]
  std::uint32_t drawn_ = 0;  ///< outputs given, saturating at kBlock; kMovedFrom once moved from
  bool started_ = false;     ///< lo_ and hi_ set up (in drawn_'s padding)
  std::unique_ptr<std::mt19937_64> tail_;  ///< the engine from output 156 on
};

/// Deterministic random source with named substreams.
///
/// Every stochastic component takes its own substream, derived from the
/// master seed and a stable name (or index), so the sequence one
/// component sees never depends on how often another component draws.
/// This is what makes protocol A vs protocol B comparisons paired: both
/// see the same mobility, same placement, same TCP start times.
///
/// The sequence is std::mt19937_64's, seeded with splitmix64(seed), so
/// every distribution below draws the values it would from that engine.
/// The stream holds no state array until its 157th draw (CompactMt64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(splitmix64(seed)), seed_(seed) {}

  /// Starts up to 8 fresh streams in one interleaved pass
  /// (CompactMt64::start).  They draw what they would have drawn anyway;
  /// only the set-up moves here.
  static void start(std::span<Rng> streams) {
    require(streams.size() <= CompactMt64::kMaxStart,
            "Rng: more than 8 streams started at once");
    CompactMt64* gens[CompactMt64::kMaxStart] = {};
    for (std::size_t k = 0; k < streams.size(); ++k) gens[k] = &streams[k].gen_;
    CompactMt64::start({gens, streams.size()});
  }

  /// Child stream derived from this stream's seed and a name.
  [[nodiscard]] Rng substream(std::string_view name) const {
    return Rng(splitmix64(seed_ ^ fnv1a(name)));
  }
  /// Child stream derived from this stream's seed and an index.
  [[nodiscard]] Rng substream(std::uint64_t index) const {
    return Rng(splitmix64(seed_ ^ splitmix64(index + 0x517CC1B727220A95ULL)));
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Uniform double in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(gen_);
  }
  /// Uniform double in [a, b).
  double uniform(double a, double b) {
    require(b >= a, "Rng::uniform: b < a");
    return std::uniform_real_distribution<double>(a, b)(gen_);
  }
  /// Uniform integer in [a, b] (inclusive).
  std::int64_t uniform_int(std::int64_t a, std::int64_t b) {
    require(b >= a, "Rng::uniform_int: b < a");
    return std::uniform_int_distribution<std::int64_t>(a, b)(gen_);
  }
  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    require(mean > 0, "Rng::exponential: mean <= 0");
    return std::exponential_distribution<double>(1.0 / mean)(gen_);
  }
  double normal(double mu, double sigma) {
    return std::normal_distribution<double>(mu, sigma)(gen_);
  }
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(gen_);
  }

  /// Uniformly chosen element of a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    require(!v.empty(), "Rng::pick: empty vector");
    return v[static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
  }

  template <typename It>
  void shuffle(It first, It last) {
    std::shuffle(first, last, gen_);
  }

 private:
  CompactMt64 gen_;
  std::uint64_t seed_;
};
static_assert(sizeof(Rng) <= 64,
              "Rng: every node holds several; keep it within one cache line");

}  // namespace mts::sim
