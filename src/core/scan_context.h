// Reusable per-operation scratch state for the scan hot path.
//
// Every snapshot operation needs transient working storage: collect
// buffers (one record pointer per argument component, double-buffered),
// condition-(2) bookkeeping tables, the canonicalized index set, and the
// embedded-scan result view.  The seed implementation allocated all of it
// with fresh std::vectors on every call, which the benches measured as
// allocator noise on top of the step counts the paper's theorems are
// stated in.
//
// A ScanContext owns that storage and is threaded through
// PartialSnapshot::scan and each implementation's embedded scan/collect
// loops.  Buffers are cleared-but-kept between operations, so a steady
// state scan (same thread, same argument-set shape) performs no heap
// allocation at all -- asserted by tests/core/scan_alloc_test.cpp with a
// counting global allocator.
//
// Callers that do not care pass nothing: the two-argument
// PartialSnapshot::scan overload forwards the calling pid's context.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "core/record.h"

namespace psnap::core {

// Chunked bump allocator for one operation's trivially-copyable scratch
// arrays.  take<T>(n) returns a zero-filled span valid until the next
// reset(); blocks are never shrunk, so after warm-up an operation of the
// same shape takes from existing blocks without touching the heap.
// Chunking (rather than one growable buffer) keeps previously returned
// spans valid when a later take() has to grow the arena.
class ScanArena {
 public:
  template <class T>
  std::span<T> take(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "arena storage is memset-initialized and never destroyed");
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "block bases are new[]-aligned; over-aligned types (e.g. "
                  "CachelinePadded) would come back misaligned");
    if (n == 0) return {};
    void* p = take_bytes(n * sizeof(T), alignof(T));
    std::memset(p, 0, n * sizeof(T));
    return std::span<T>(static_cast<T*>(p), n);
  }

  // Invalidates all outstanding spans; keeps every block's capacity.
  void reset();

  // Observability for tests.
  std::size_t allocated_bytes() const;

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* take_bytes(std::size_t bytes, std::size_t align);

  std::vector<Block> blocks_;
  std::size_t current_ = 0;  // index of the block being bumped
};

// Scratch buffers shared by every PartialSnapshot implementation.  One
// context serves one operation at a time; operations by the same pid
// reuse it (via pid_scan_context()) so capacity accumulates to the
// steady-state watermark and stays there.
struct ScanContext {
  // Canonicalized (sorted, duplicate-free) argument indices of a scan.
  std::vector<std::uint32_t> canonical;
  // Update path: getSet result and the union of announced index sets.
  std::vector<std::uint32_t> scanners;
  std::vector<std::uint32_t> union_args;
  // Value scratch for the full-snapshot baseline's complete view.
  std::vector<std::uint64_t> values;
  // The embedded scan's result view (condition (1) builds it here;
  // condition (2) copies the borrowed view into it).
  View view;
  // Blob-plane twin of `view` (primitives/value_plane.h): a context
  // serves either plane, so the one pid_scan_context() covers direct and
  // indirect objects alike.  Blob entries retain their byte buffers'
  // capacity across operations, keeping the indirect steady state
  // allocation-free too.
  BlobView blob_view;
  // Collect buffers and condition-(2) tables live here.
  ScanArena arena;

  // Called once at the start of every operation.
  void begin() { arena.reset(); }
};

// Plane-generic access to the context's view scratch, keyed by the value
// plane's payload type (std::uint64_t or value::Blob).
template <class V>
ViewT<V>& view_for(ScanContext& ctx);
template <>
inline View& view_for<std::uint64_t>(ScanContext& ctx) { return ctx.view; }
template <>
inline BlobView& view_for<value::Blob>(ScanContext& ctx) {
  return ctx.blob_view;
}

// The context used by the convenience PartialSnapshot::scan overload and
// by update()'s embedded machinery: the calling pid's entry in one static
// table of exec::kMaxPidCapacity contexts.  Aborts on a thread without a
// pid.
ScanContext& pid_scan_context();

}  // namespace psnap::core
