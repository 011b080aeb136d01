// Global operator new/delete replacements that count allocations.
//
// Shared by the allocation-freedom suites (scan_alloc_test,
// update_alloc_test), each of which is its own test binary precisely so
// it can own the global allocator.  Include this header in EXACTLY ONE
// translation unit per binary: it defines (not just declares) the
// replacement operators, which the standard requires to be non-inline
// definitions with external linkage.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace psnap::test {

// Total allocations since process start (relaxed; the suites read deltas
// around single-threaded measurement windows).
inline std::atomic<std::uint64_t> g_allocations{0};
// Total bytes those allocations asked for.
inline std::atomic<std::uint64_t> g_allocated_bytes{0};

inline void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

inline void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(align, (size + align - 1) / align * align))
    return p;
  throw std::bad_alloc();
}

}  // namespace psnap::test

void* operator new(std::size_t size) {
  return psnap::test::counted_alloc(size);
}
void* operator new[](std::size_t size) {
  return psnap::test::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return psnap::test::counted_aligned_alloc(size,
                                            static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return psnap::test::counted_aligned_alloc(size,
                                            static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
