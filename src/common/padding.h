// Cache-line isolation for per-thread hot data.
#pragma once

#include <cstddef>
#include <new>
#include <utility>

namespace psnap {

// We hard-code 64 bytes rather than std::hardware_destructive_interference_
// size: GCC warns on ABI-affecting uses of the latter, and 64 is correct for
// every x86-64 and most AArch64 parts; 128 would only pad further.
inline constexpr std::size_t kCachelineBytes = 64;

// Wraps T so adjacent array elements never share a cache line.  Used for
// per-process counters and announcement slots, where false sharing would
// distort the wall-clock benchmarks (step counts are unaffected either way).
template <class T>
struct alignas(kCachelineBytes) CachelinePadded {
  T value{};

  CachelinePadded() = default;
  template <class... Args>
  explicit CachelinePadded(Args&&... args) : value(std::forward<Args>(args)...) {}

  T& operator*() { return value; }
  const T& operator*() const { return value; }
  T* operator->() { return &value; }
  const T* operator->() const { return &value; }
};

// CachelinePadded's accessors without the padding: T's own size and
// alignment, so adjacent array elements pack densely.  Lets a storage
// alias pick padded or dense slots by trait while every call site
// (`*slot`, `slot->f()`, `slot.value`) stays the same.
template <class T>
struct Unpadded {
  T value{};

  T& operator*() { return value; }
  const T& operator*() const { return value; }
  T* operator->() { return &value; }
  const T* operator->() const { return &value; }
};

}  // namespace psnap
