#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <set>
#include <utility>

namespace mts::sim {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NamedSubstreamsAreIndependentAndStable) {
  Rng master(7);
  Rng a1 = master.substream("mobility");
  Rng a2 = master.substream("mobility");
  Rng b = master.substream("mac");
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a1.uniform(), a2.uniform());
  Rng a3 = master.substream("mobility");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a3.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, IndexedSubstreams) {
  Rng master(7);
  Rng n0 = master.substream(std::uint64_t{0});
  Rng n1 = master.substream(std::uint64_t{1});
  EXPECT_NE(n0.seed(), n1.seed());
  Rng n0b = master.substream(std::uint64_t{0});
  EXPECT_EQ(n0.seed(), n0b.seed());
}

TEST(RngTest, SubstreamInsulation) {
  // Drawing from one substream must not affect a sibling: this is the
  // property that keeps protocol comparisons paired across runs.
  Rng master(9);
  Rng a = master.substream("a");
  Rng b1 = master.substream("b");
  const double first = b1.uniform();
  for (int i = 0; i < 1000; ++i) a.uniform();
  Rng b2 = master.substream("b");
  EXPECT_DOUBLE_EQ(b2.uniform(), first);
}

TEST(RngTest, UniformInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformRejectsInvertedRange) {
  Rng r(3);
  EXPECT_THROW(r.uniform(5.0, 2.0), SimError);
  EXPECT_THROW(r.uniform_int(5, 2), SimError);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng r(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t x = r.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values hit
}

TEST(RngTest, ExponentialMeanApproximately) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(RngTest, ExponentialRejectsNonPositiveMean) {
  Rng r(1);
  EXPECT_THROW(r.exponential(0.0), SimError);
}

TEST(RngTest, BernoulliFrequency) {
  Rng r(13);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, PickCoversAllElements) {
  Rng r(17);
  const std::vector<int> v{10, 20, 30};
  std::set<int> seen;
  for (int i = 0; i < 300; ++i) seen.insert(r.pick(v));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, PickEmptyThrows) {
  Rng r(1);
  const std::vector<int> empty;
  EXPECT_THROW(r.pick(empty), SimError);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng r(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v.begin(), v.end());
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

// --- Differential tests against std::mt19937_64 --------------------------
//
// CompactMt64 claims to be std::mt19937_64 bit for bit.  Its first 156
// outputs come from two cursors of the seeding recurrence and the rest
// from a heap engine built at draw 157, so every comparison below runs
// well past that hand-over.

constexpr int kDraws = 2000;

std::vector<std::uint64_t> differential_seeds() {
  std::vector<std::uint64_t> seeds{0, 1, 42, 0xdeadbeef, ~std::uint64_t{0}};
  std::uint64_t s = 0x5EED;
  for (int i = 0; i < 8; ++i) seeds.push_back(s = splitmix64(s));
  return seeds;
}

TEST(CompactMt64Test, RawDrawsMatchReference) {
  for (const std::uint64_t seed : differential_seeds()) {
    CompactMt64 eng(splitmix64(seed));
    std::mt19937_64 ref(splitmix64(seed));
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(eng(), ref()) << "seed " << seed << " draw " << i;
    }
  }
}

// The distributions read the engine's range, so it must be the reference's.
static_assert(CompactMt64::min() == std::mt19937_64::min());
static_assert(CompactMt64::max() == std::mt19937_64::max());

// Each Rng method against the same distribution on the reference engine.
TEST(RngDifferentialTest, EveryMethodMatchesReference) {
  const std::vector<int> pool{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  for (const std::uint64_t seed : differential_seeds()) {
    Rng r(seed);
    std::mt19937_64 ref(splitmix64(seed));
    std::vector<int> a(23), b(23);
    for (int i = 0; i < kDraws / 8; ++i) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " round " << i);
      ASSERT_EQ(r.uniform(), std::uniform_real_distribution<double>(0.0, 1.0)(ref));
      ASSERT_EQ(r.uniform(-3.0, 7.5),
                std::uniform_real_distribution<double>(-3.0, 7.5)(ref));
      ASSERT_EQ(r.uniform_int(-5, 1000),
                std::uniform_int_distribution<std::int64_t>(-5, 1000)(ref));
      ASSERT_EQ(r.exponential(0.25),
                std::exponential_distribution<double>(4.0)(ref));
      ASSERT_EQ(r.normal(1.0, 2.0), std::normal_distribution<double>(1.0, 2.0)(ref));
      ASSERT_EQ(r.bernoulli(0.3), std::bernoulli_distribution(0.3)(ref));
      ASSERT_EQ(r.pick(pool),
                pool[static_cast<std::size_t>(std::uniform_int_distribution<std::int64_t>(
                    0, static_cast<std::int64_t>(pool.size()) - 1)(ref))]);
      std::iota(a.begin(), a.end(), 0);
      std::iota(b.begin(), b.end(), 0);
      r.shuffle(a.begin(), a.end());
      std::shuffle(b.begin(), b.end(), ref);
      ASSERT_EQ(a, b);
    }
  }
}

// Copies and moves at, around and past the 156-draw hand-over continue
// the reference sequence.
TEST(CompactMt64Test, CopyAndMoveContinueReference) {
  for (const int before : {0, 1, 155, 156, 157, 1000}) {
    SCOPED_TRACE(testing::Message() << "after " << before << " draws");
    const std::uint64_t seed = splitmix64(before);
    CompactMt64 eng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < before; ++i) ASSERT_EQ(eng(), ref());

    CompactMt64 copy(eng);
    CompactMt64 assigned(0);
    assigned = eng;
    std::mt19937_64 ref_copy = ref;
    std::mt19937_64 ref_assigned = ref;
    for (int i = 0; i < 400; ++i) {
      ASSERT_EQ(copy(), ref_copy());
      ASSERT_EQ(assigned(), ref_assigned());
    }
    CompactMt64 moved(std::move(eng));
    CompactMt64 move_assigned(0);
    move_assigned = std::move(copy);
    std::mt19937_64 ref_moved = ref;
    for (int i = 0; i < 400; ++i) {
      ASSERT_EQ(moved(), ref_moved());
      ASSERT_EQ(move_assigned(), ref_copy());
    }
  }
}

// --- Block starts ----------------------------------------------------------
//
// CompactMt64::start sets up several streams' cursors in one interleaved
// pass.  Whatever it is handed, each stream must then give exactly the
// reference sequence, past the hand-over too.

// `n` streams with distinct seeds derived from `seed`.
std::vector<CompactMt64> block_of(std::uint64_t seed, std::size_t n) {
  std::vector<CompactMt64> block;
  for (std::size_t k = 0; k < n; ++k) block.emplace_back(splitmix64(seed + k));
  return block;
}

void start_all(std::vector<CompactMt64>& block) {
  std::vector<CompactMt64*> ptrs;
  for (auto& s : block) ptrs.push_back(&s);
  CompactMt64::start(ptrs);
}

TEST(CompactMt64BlockStartTest, EveryBlockSizeMatchesReference) {
  for (std::size_t n = 1; n <= CompactMt64::kMaxStart; ++n) {
    for (const std::uint64_t seed : differential_seeds()) {
      std::vector<CompactMt64> block = block_of(seed, n);
      start_all(block);
      for (std::size_t k = 0; k < n; ++k) {
        std::mt19937_64 ref(splitmix64(seed + k));
        for (int i = 0; i < kDraws; ++i) {
          ASSERT_EQ(block[k](), ref())
              << "block of " << n << ", seed " << seed << ", stream " << k
              << ", draw " << i;
        }
      }
    }
  }
}

TEST(CompactMt64BlockStartTest, InterleavedDrawsMatchReference) {
  for (const std::uint64_t seed : differential_seeds()) {
    std::vector<CompactMt64> block = block_of(seed, CompactMt64::kMaxStart);
    std::vector<std::mt19937_64> refs;
    for (std::size_t k = 0; k < block.size(); ++k) refs.emplace_back(splitmix64(seed + k));
    start_all(block);
    for (int i = 0; i < kDraws; ++i) {
      // Round-robin, visiting the streams in a different order each round.
      for (std::size_t j = 0; j < block.size(); ++j) {
        const std::size_t k = (j * 3 + static_cast<std::size_t>(i)) % block.size();
        ASSERT_EQ(block[k](), refs[k]()) << "seed " << seed << ", stream " << k
                                         << ", draw " << i;
      }
    }
  }
}

TEST(CompactMt64BlockStartTest, StartedStreamCopiesAndMovesBeforeItsFirstDraw) {
  for (const std::uint64_t seed : differential_seeds()) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    std::vector<CompactMt64> block = block_of(seed, 4);
    start_all(block);
    CompactMt64 copy(block[0]);
    CompactMt64 assigned(0);
    assigned = block[0];
    CompactMt64 moved(std::move(block[1]));
    CompactMt64 move_assigned(0);
    move_assigned = std::move(block[2]);
    std::mt19937_64 ref0(splitmix64(seed));
    std::mt19937_64 ref0_again = ref0;
    std::mt19937_64 ref1(splitmix64(seed + 1));
    std::mt19937_64 ref2(splitmix64(seed + 2));
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(copy(), ref0());
      ASSERT_EQ(assigned(), ref0_again());
      ASSERT_EQ(moved(), ref1());
      ASSERT_EQ(move_assigned(), ref2());
    }
    // The copied-from original is untouched by its copies' draws.
    std::mt19937_64 ref0_original(splitmix64(seed));
    for (int i = 0; i < kDraws; ++i) ASSERT_EQ(block[0](), ref0_original());
  }
}

TEST(CompactMt64BlockStartTest, StartedButUndrawnStreamDrawsAsAnUnstartedOne) {
  for (const std::uint64_t seed : differential_seeds()) {
    CompactMt64 started(seed);
    CompactMt64* const one = &started;
    CompactMt64::start({&one, 1});
    CompactMt64 lazy(seed);
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(started(), lazy()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngBlockStartTest, StartedStreamsDrawWhatUnstartedOnesDo) {
  for (const std::uint64_t seed : differential_seeds()) {
    const Rng master(seed);
    std::vector<Rng> block;
    for (std::uint64_t k = 0; k < CompactMt64::kMaxStart; ++k) {
      block.push_back(master.substream(k));
    }
    Rng::start(block);
    for (std::uint64_t k = 0; k < block.size(); ++k) {
      Rng lazy = master.substream(k);
      for (int i = 0; i < kDraws / 4; ++i) {
        ASSERT_EQ(block[k].uniform(), lazy.uniform())
            << "seed " << seed << ", stream " << k << ", draw " << i;
      }
    }
  }
}

// Starting a stream twice over a draw would rewind its cursors; starting
// a moved-from one would revive a stream whose successor owns the rest.
TEST(CompactMt64BlockStartTest, StartOfANonFreshStreamThrows) {
  for (const int before : {1, 155, 156, 157}) {
    SCOPED_TRACE(testing::Message() << "after " << before << " draws");
    CompactMt64 drawn(7);
    for (int i = 0; i < before; ++i) drawn();
    CompactMt64 fresh(8);
    CompactMt64* const both[] = {&fresh, &drawn};
    EXPECT_THROW(CompactMt64::start(both), SimError);
  }
  CompactMt64 source(7);
  CompactMt64 taken(std::move(source));
  CompactMt64* const moved_from = &source;  // NOLINT(bugprone-use-after-move)
  EXPECT_THROW(CompactMt64::start({&moved_from, 1}), SimError);

  Rng r(7);
  r.uniform();
  EXPECT_THROW(Rng::start({&r, 1}), SimError);
  Rng s(9);
  Rng t = std::move(s);
  EXPECT_THROW(Rng::start({&s, 1}), SimError);  // NOLINT(bugprone-use-after-move)
}

TEST(RngBlockStartTest, MoreThanEightStreamsThrow) {
  std::vector<Rng> block;
  for (std::uint64_t k = 0; k <= CompactMt64::kMaxStart; ++k) block.emplace_back(k);
  EXPECT_THROW(Rng::start(block), SimError);
}

// A moved-from stream must not quietly replay or skip part of the
// sequence its successor now owns.
TEST(RngDifferentialTest, DrawFromMovedFromStreamThrows) {
  for (const int before : {0, 1, 155, 156, 157, 1000}) {
    SCOPED_TRACE(testing::Message() << "after " << before << " draws");
    Rng r(7);
    for (int i = 0; i < before; ++i) r.uniform();
    Rng taken = std::move(r);
    EXPECT_THROW(r.uniform(), SimError);  // NOLINT(bugprone-use-after-move)
    EXPECT_THROW(r.uniform_int(0, 9), SimError);
    // Its seed survives, and assigning a live stream revives it.
    EXPECT_EQ(r.seed(), 7u);
    r = Rng(7);
    EXPECT_EQ(r.uniform(), Rng(7).uniform());
    EXPECT_NO_THROW(taken.uniform());
  }
}

TEST(SplitMix64Test, AdjacentInputsDisperse) {
  const auto a = splitmix64(1);
  const auto b = splitmix64(2);
  EXPECT_NE(a, b);
  EXPECT_NE(a >> 32, b >> 32);
}

TEST(Fnv1aTest, DistinctStringsDistinctHashes) {
  EXPECT_NE(fnv1a("mobility"), fnv1a("mac"));
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  EXPECT_EQ(fnv1a("x"), fnv1a("x"));
}

}  // namespace
}  // namespace mts::sim
