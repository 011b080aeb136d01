// Per-process slot layout shared by every reclamation domain.
//
// Both reclamation substrates (reclaim::EbrDomain, reclaim::HazardDomain)
// and the free-list pools on top of them (reclaim::Pool) key per-process
// state by the caller's registered pid: the slot IS the pid, so a domain
// has exec::kMaxPidCapacity slots -- the one constant the thread registry
// sizes its bitmap from -- and any pid the registry can hand out has a
// slot in every domain by construction.  A thread without a pid has no
// slot: it must register through exec::ThreadHandle or exec::ScopedPid
// before it pins, protects or retires (exec/exec.h's contract).
//
// Keying by pid (rather than per-domain claims) is what lets one Pool
// serve several domains: a thread resolves to the SAME slot in every
// domain, so nodes retired through any shard's domain surface on the
// retiring thread's one free list.
#pragma once

#include <atomic>
#include <cstdint>

#include "exec/capacity.h"

namespace psnap::reclaim {

// What a slot lookup on a thread without a pid aborts with.
inline constexpr const char* kNoPidMessage =
    "reclamation needs a pid below exec::kMaxPidCapacity: register the "
    "thread through exec::ThreadHandle or exec::ScopedPid first";

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
