#include "sim/event_fn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/scheduler.hpp"

namespace mts::sim {
namespace {

/// A closure of exactly `kBytes` bytes.
template <std::size_t kBytes>
auto closure_of_size() {
  return [pad = std::array<unsigned char, kBytes>{}] { (void)pad; };
}

struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(const ThrowingMove&) = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
};

auto throwing_move_closure() {
  return [t = ThrowingMove{}] { (void)t; };
}

template <typename F>
constexpr bool kSchedulable = requires(Scheduler& s, F f) {
  s.schedule_at(Time::zero(), std::move(f));
};

using Fits = decltype(closure_of_size<EventFn::kInlineBytes>());
using TooBig = decltype(closure_of_size<EventFn::kInlineBytes + 8>());
using Throws = decltype(throwing_move_closure());

static_assert(sizeof(Fits) == 48 && std::is_nothrow_move_constructible_v<Fits>);
static_assert(std::is_convertible_v<Fits, EventFn> && kSchedulable<Fits>);

static_assert(sizeof(TooBig) == 56);
static_assert(!std::is_constructible_v<EventFn, TooBig>);
static_assert(!kSchedulable<TooBig>);

static_assert(sizeof(Throws) <= EventFn::kInlineBytes &&
              !std::is_nothrow_move_constructible_v<Throws>);
static_assert(!std::is_constructible_v<EventFn, Throws>);
static_assert(!kSchedulable<Throws>);

TEST(EventFnTest, NonTrivialClosureRelocatesAndDiesOnce) {
  auto token = std::make_shared<int>(0);
  EventFn a([token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  EventFn b(std::move(a));
  EXPECT_FALSE(a);
  EXPECT_EQ(token.use_count(), 2);
  b();
  EXPECT_EQ(*token, 1);
  b.reset();
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace mts::sim
