// Monotone component count with in-order publication.
//
// add_components(k) on a snapshot object has two halves: reserving a block
// of indices (a CAS on the reservation watermark, so concurrent growers
// get disjoint blocks and a block past the limit is refused) and
// publishing the new count once the block's slots are initialized.
// Publication must be IN ORDER -- the count may only advance past a block
// whose slots are ready, or a concurrent scan of index < num_components()
// could read an uninitialized slot.  A grower whose predecessor block is
// still initializing therefore waits for the count to reach its own first
// index before swinging it forward.
//
// The wait is a scheduling point: each retry performs one exec::on_step,
// so under the deterministic simulator a waiting grower parks and lets the
// predecessor run instead of livelocking the cooperative scheduler (the
// same reason every potentially-waiting loop in this library steps).
// Growth is memory management, not one of the paper's measured operations,
// so the extra steps never land inside a theorem bench's measurement.
//
// Readers call load(): one seq_cst load (plain mov on x86, ldar on
// AArch64), once per operation.  seq_cst rather than acquire so counts
// observed by different operations are ordered consistently with the
// Instrumented runtime's step order -- the full-snapshot borrow argument
// compares the counts captured by two racing operations (see
// baseline/full_snapshot.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/assert.h"
#include "exec/exec.h"
#include "segarray/segmented_array.h"

namespace psnap::core {

// Components per storage segment.  Doubles as the sharded reclamation
// plane's shard-mapping unit (reclaim::Plane groups whole segments into
// EBR shards), so the reclamation topology follows the same boundaries
// that make growth reader-safe.
inline constexpr std::uint32_t kComponentSegmentSize = 1024;

// Grow-only storage for per-component state: stable addresses forever (a
// concurrent reader's pointer is never invalidated by growth), two loads
// on the hot path (segment directory + slot).  Capacity 4M components,
// the same envelope as Figure 2's slot array.
template <class T>
using ComponentStorage =
    segarray::SegmentedArray<T, kComponentSegmentSize,
                             (std::size_t{1} << 12)>;

// The most components an object holds: ComponentStorage's capacity, and
// the one limit every implementation enforces (the lock baseline's vector
// included).
inline constexpr std::uint32_t kMaxComponents =
    static_cast<std::uint32_t>(ComponentStorage<char>::capacity());

// Throws std::length_error unless `have` components plus `adding` more fit
// within kMaxComponents.
inline void require_component_room(std::uint64_t have, std::uint64_t adding) {
  if (have + adding > kMaxComponents) {
    throw std::length_error(
        "component limit: " + std::to_string(have) + " + " +
        std::to_string(adding) + " components exceed the limit of " +
        std::to_string(kMaxComponents));
  }
}

// Grow-only storage for per-pid state (announcement registers, publication
// counters, active-set flags).  Pids are dense -- the thread registry
// hands out the lowest free pid -- and bounded by its capacity, so the
// segments are small and only the low ones ever materialize.
template <class T>
using PerPidStorage = segarray::SegmentedArray<T, 64, 64>;

class GrowableSize {
 public:
  // Throws std::length_error past kMaxComponents.  Declared first in every
  // owner, so an oversized object is refused before it allocates.
  explicit GrowableSize(std::uint32_t initial)
      : reserved_((require_component_room(0, initial), initial)),
        ready_(initial) {}

  GrowableSize(const GrowableSize&) = delete;
  GrowableSize& operator=(const GrowableSize&) = delete;

  // The published component count; monotone.
  std::uint32_t load() const {
    return ready_.load(std::memory_order_seq_cst);
  }

  // Reserves k fresh indices; returns the first.  The caller must
  // initialize slots [first, first+k) and then publish(first, k).  A
  // block past kMaxComponents throws std::length_error and reserves
  // nothing: the CAS only moves the watermark for a block that fits, so a
  // refused request can neither leave it advanced nor wrap it.
  std::uint32_t reserve(std::uint32_t k) {
    PSNAP_ASSERT(k > 0);
    std::uint32_t first = reserved_.load(std::memory_order_relaxed);
    do {
      require_component_room(first, k);
    } while (!reserved_.compare_exchange_strong(first, first + k,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed));
    return first;
  }

  // Publishes the reserved block, waiting out any unfinished predecessor
  // block (each retry is one schedule step; see the header comment).
  void publish(std::uint32_t first, std::uint32_t k) {
    // compare_exchange_strong, not weak: a spurious failure would inject a
    // schedule point that breaks the DFS explorer's deterministic replay.
    std::uint32_t expected = first;
    while (!ready_.compare_exchange_strong(expected, first + k,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed)) {
      expected = first;
      exec::on_step(exec::ObjKind::kRegister, exec::kNoLabel);
      std::this_thread::yield();
    }
  }

 private:
  std::atomic<std::uint32_t> reserved_;
  std::atomic<std::uint32_t> ready_;
};

// The one add_components body shared by every segmented implementation:
// reserve a block, build its slots with build(first, count) -- the call
// the constructor makes for [0, m), so a grown object and one constructed
// at its size hold the same storage -- publish in order, and return the
// first index.  Keeping the protocol here means a fix to the ordering or
// the limit lands everywhere at once.
template <class BuildFn>
std::uint32_t grow_components(GrowableSize& size, std::uint32_t count,
                              BuildFn&& build) {
  const std::uint32_t first = size.reserve(count);
  build(first, count);
  size.publish(first, count);
  return first;
}

}  // namespace psnap::core
