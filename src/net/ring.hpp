#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <utility>

#include "sim/error.hpp"

namespace mts::net {

/// FIFO ring buffer that allocates nothing until its first push.
///
/// Every node owns three bounded queues (the interface queue's two
/// bands and the route-discovery send buffer), and at scale most of them
/// stay empty for the whole run.  A `std::deque` allocates a map and a
/// chunk on construction, empty or not; this ring holds a null pointer
/// and its counters until something is pushed, then grows its storage by
/// doubling (1, 2, 4, ...) up to `limit` slots — the owning queue's
/// capacity.  Storage is never shrunk: a queue that was busy once is
/// likely to be busy again.
///
/// Elements are addressed front-to-back by index; `extract_if` is the
/// one ordered removal, and keeps the relative order of both the
/// elements it removes and the ones it keeps.
template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t limit)
      : limit_(static_cast<std::uint32_t>(
            std::min<std::size_t>(limit, kMaxLimit))) {}
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  ~Ring() { release(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slots currently allocated (0 until the first push).
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  /// The `i`-th element from the front.
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return buf_[slot(i)];
  }
  [[nodiscard]] T& front() { return buf_[head_]; }

  void push_back(T value) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(buf_ + slot(size_))) T(std::move(value));
    ++size_;
  }
  void push_front(T value) {
    if (size_ == cap_) grow();
    const std::uint32_t h = head_ == 0 ? cap_ - 1 : head_ - 1;
    ::new (static_cast<void*>(buf_ + h)) T(std::move(value));
    head_ = h;
    ++size_;
  }

  /// Removes and returns the front element.  Pre-condition: not empty.
  T pop_front() {
    T out = std::move(buf_[head_]);
    buf_[head_].~T();
    head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
    --size_;
    return out;
  }
  /// Removes and returns the back element.  Pre-condition: not empty.
  T pop_back() {
    T& last = buf_[slot(size_ - 1)];
    T out = std::move(last);
    last.~T();
    --size_;
    return out;
  }

  /// Removes every element satisfying `pred`, handing each to `sink` in
  /// front-to-back order; the elements kept stay in their order.
  /// Returns the number removed.  `sink` must not touch this ring.
  template <typename Pred, typename Sink>
  std::size_t extract_if(Pred&& pred, Sink&& sink) {
    // Every slot in [0, size_) stays constructed throughout (moved-from
    // at worst), so an exception from `sink` leaves a valid ring.
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < size_; ++i) {
      T& x = buf_[slot(i)];
      if (pred(static_cast<const T&>(x))) {
        sink(std::move(x));
      } else {
        if (kept != i) buf_[slot(kept)] = std::move(x);
        ++kept;
      }
    }
    const std::size_t removed = size_ - kept;
    while (size_ > kept) buf_[slot(--size_)].~T();
    return removed;
  }

 private:
  static constexpr std::uint32_t kMaxLimit =
      std::numeric_limits<std::uint32_t>::max() / 2;

  [[nodiscard]] std::uint32_t slot(std::size_t i) const {
    const std::size_t s = head_ + i;
    return static_cast<std::uint32_t>(s >= cap_ ? s - cap_ : s);
  }

  void grow() {
    sim::require(cap_ < limit_, "Ring: push beyond the queue's capacity");
    const std::uint32_t cap = cap_ == 0 ? 1 : std::min(cap_ * 2, limit_);
    T* buf = std::allocator<T>().allocate(cap);
    for (std::uint32_t i = 0; i < size_; ++i) {
      T& x = buf_[slot(i)];
      ::new (static_cast<void*>(buf + i)) T(std::move(x));
      x.~T();
    }
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, cap_);
    buf_ = buf;
    head_ = 0;
    cap_ = cap;
  }

  void release() {
    if (buf_ == nullptr) return;
    while (size_ > 0) buf_[slot(--size_)].~T();
    std::allocator<T>().deallocate(buf_, cap_);
  }

  T* buf_ = nullptr;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
  std::uint32_t limit_;
};

}  // namespace mts::net
