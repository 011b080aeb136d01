// Per-thread slot layout shared by every reclamation domain.
//
// Both reclamation substrates (reclaim::EbrDomain, reclaim::HazardDomain)
// and the free-list pools on top of them (reclaim::Pool) key per-thread
// state by the same slot index:
//
//   * slots [0, kPidSlots): the caller's registered pid (the slot IS the
//     pid).  Derived from exec::kMaxPidCapacity -- the one constant the
//     thread registry sizes its bitmap from -- so any pid the registry
//     can hand out has a slot in every domain by construction.
//   * slots [kPidSlots, kTotalSlots): sticky CAS-claimed slots for
//     threads without a pid (direct reclaim tests, bookkeeping threads).
//
// Keying by pid (rather than per-domain claims) is what lets one Pool
// serve several domains: a registered thread resolves to the SAME slot in
// every domain, so nodes retired through any shard's domain surface on the
// retiring thread's one free list.
#pragma once

#include <atomic>
#include <cstdint>

#include "exec/capacity.h"

namespace psnap::reclaim {

inline constexpr std::uint32_t kPidSlots = exec::kMaxPidCapacity;
inline constexpr std::uint32_t kAnonSlots = 32;
inline constexpr std::uint32_t kTotalSlots = kPidSlots + kAnonSlots;

// The counter idiom for operation paths: a counter lives in the slot of
// the thread that bumps it, so it has exactly one writer (the slot's
// owner; a quiescent destructor is the one exception) and an increment is
// a relaxed load + store, never a shared read-modify-write.  Readers sum
// every slot's counter; a sum is exact once writers are quiescent.
class SlotCounter {
 public:
  void add(std::uint64_t n = 1) {
    value_.store(value_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }
  std::uint64_t get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

}  // namespace psnap::reclaim
