#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace mts::sim {

/// Move-only type-erased `void()` callable stored in a fixed inline
/// buffer.
///
/// The scheduler stores one of these per pending event, inside the
/// event slot itself, so schedule/cancel never allocate: `std::function`
/// heap-allocates for anything beyond ~2 pointers on libstdc++.  A
/// closure must fit `kInlineBytes` and move without throwing; one that
/// does not is a compile error at the scheduling call, not a silent heap
/// allocation.
class EventFn {
 public:
  /// Inline capture budget.  48 bytes fits six pointers — comfortably
  /// above every scheduling closure in the phy/mac/routing/tcp layers
  /// (the largest captures `this` + a node id + two Time values).
  static constexpr std::size_t kInlineBytes = 48;

  /// Whether a closure of type `Fn` can be stored.
  template <typename Fn>
  static constexpr bool fits_inline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  EventFn() noexcept : vt_(nullptr) {}

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&> &&
             fits_inline<std::remove_cvref_t<F>>)
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors std::function
  EventFn(F&& f) : vt_(nullptr) {
    using Fn = std::remove_cvref_t<F>;
    // Null std::function / function pointer => empty EventFn, so the
    // scheduler's empty-callback check keeps working.
    if constexpr (requires(const Fn& g) { static_cast<bool>(g); }) {
      if (!static_cast<bool>(f)) return;
    }
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    vt_ = &kVTable<Fn>;
  }

  EventFn(EventFn&& other) noexcept : vt_(other.vt_) {
    if (vt_ == nullptr) return;
    // Trivially relocatable targets (every hot-path closure: `this` plus
    // a few scalars) move as a plain copy — no indirect call.  The copy
    // deliberately spans the whole inline buffer: the tail beyond the
    // stored closure is indeterminate but never read back, and a fixed
    // 48-byte memcpy beats a size-dispatched one (GCC's -Wuninitialized
    // can't see that, hence the suppression).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
    if (vt_->trivial) {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    } else {
      vt_->relocate(buf_, other.buf_);
    }
#pragma GCC diagnostic pop
    other.vt_ = nullptr;
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      ::new (static_cast<void*>(this)) EventFn(std::move(other));
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { vt_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vt_ != nullptr;
  }

  void reset() noexcept {
    if (vt_ != nullptr) {
      if (!vt_->trivial) vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Destroys the target in place; unused when `trivial`.
    void (*destroy)(void*) noexcept;
    /// Move-constructs dst from src and destroys src; unused when
    /// `trivial`.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Trivially copyable and destructible: moved by memcpy, never
    /// destroyed.
    bool trivial;
  };

  template <typename Fn>
  static constexpr VTable kVTable{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>,
  };

  const VTable* vt_;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace mts::sim
