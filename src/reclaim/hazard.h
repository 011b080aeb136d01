// Hazard pointers (Michael, 2004).
//
// The library's second reclamation substrate, selectable per snapshot
// instance through the registry's `reclaim=hp` option.  EBR's pins are
// operation-scoped: one stalled (or deliberately parked) reader freezes
// reclamation for every record retired after its pinned epoch.  Hazard
// pointers instead protect individual records -- a stalled reader blocks
// reclamation of AT MOST kHazardsPerThread records, which is what bounds
// pool residency under the RCL bench's parked-scanner workload.
//
// Per-thread slots use the shared reclaim/slots.h layout (the slot is the
// registered pid, with CAS-claimed anonymous slots above the pid range),
// so reclaim::Pool can key free lists the same way it does for EBR
// domains.
//
// Two usage styles:
//   * protect(src, index): the classic self-validating protect loop.
//   * set(index, p) + caller-side validation: for protocols that must
//     validate against something other than a plain reload of `src`
//     (reclaim::Plane::Op validates against a seq_cst peek of the source
//     register, so the retry read is not a counted step).
//
// Like EBR, hazard publication and retirement are memory management, not
// shared-object "steps" in the paper's model; nothing here calls
// exec::on_step().  The retire/free counters follow EBR's counter rule
// (reclaim/ebr.h): per-slot single-writer SlotCounters, summed on read.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/padding.h"
#include "reclaim/slots.h"

namespace psnap::reclaim {

class HazardDomain {
 public:
  static constexpr std::uint32_t kHazardsPerThread = 4;

  HazardDomain();
  // Precondition: quiescent.  Frees all retired nodes, passing each node's
  // own slot index to its recycle callback (the destroying thread may own
  // no slot).
  ~HazardDomain();

  HazardDomain(const HazardDomain&) = delete;
  HazardDomain& operator=(const HazardDomain&) = delete;

  // Repeatedly loads src and publishes the value as hazardous until the
  // publication is stable (classic protect loop).  index selects one of the
  // calling thread's hazard slots.
  template <class T>
  T* protect(const std::atomic<T*>& src, std::uint32_t index) {
    return static_cast<T*>(protect_raw(
        reinterpret_cast<const std::atomic<void*>&>(src), index));
  }

  void* protect_raw(const std::atomic<void*>& src, std::uint32_t index);

  // Publishes p in one of the calling thread's hazard slots WITHOUT
  // validation: the caller must re-read the source pointer afterwards and
  // retry if it moved (see the header comment).  seq_cst so the
  // publication is ordered before the caller's validating reload.
  void set(std::uint32_t index, const void* p);

  // Clears one hazard slot of the calling thread.
  void clear(std::uint32_t index);
  // Clears all hazard slots of the calling thread.
  void clear_all();

  // Grace callback: receives the node, the context registered with it, and
  // the slot index that held the retired node (so pooled recycling can
  // index per-slot free lists; the domain destructor may flush from a
  // thread that owns no slot).
  using RecycleFn = void (*)(void* node, void* ctx, std::uint32_t slot);

  template <class T>
  void retire(T* node) {
    retire_raw(node, nullptr, [](void* p, void*, std::uint32_t) {
      delete static_cast<T*>(p);
    });
  }

  // Hands the node to the domain; the callback runs once no published
  // hazard covers it.  The node must already be unreachable from the
  // shared structure (standard hazard-pointer contract).
  void retire_raw(void* node, void* ctx, RecycleFn fn);

  // Frees every retired node of the calling thread not currently
  // protected.  Called automatically on retire pressure; exposed for
  // tests.
  void scan_and_free();

  // Per-thread slot index in [0, kTotalSlots): the caller's registered pid
  // when it has one, a sticky anonymous slot otherwise.  Shared layout
  // with EbrDomain::thread_slot() so one Pool serves both substrates.
  std::uint32_t thread_slot() { return slot_for_this_thread(); }

  std::uint64_t retired_count() const;
  std::uint64_t freed_count() const;
  std::uint64_t outstanding() const { return retired_count() - freed_count(); }

 private:
  struct RetiredNode {
    void* ptr;
    void* ctx;
    RecycleFn fn;
  };

  struct alignas(kCachelineBytes) Slot {
    std::atomic<void*> hazards[kHazardsPerThread] = {};
    std::atomic<bool> in_use{false};
    // Owner-thread-only state (the destructor is the one exception, and it
    // runs without concurrency by precondition).
    std::vector<RetiredNode> retired;
    // Reusable scratch for scan_and_free: scans must not allocate once
    // warm, or the zero-allocation steady-state proofs
    // (tests/core/update_alloc_test.cpp) would fail on the hp plane.
    std::vector<void*> scan_scratch;
    // Nodes this slot retired, and nodes freed from its retired list.
    SlotCounter retired_count;
    SlotCounter freed_count;
  };

  std::uint32_t slot_for_this_thread();

  const std::uint64_t domain_id_;
  // Slots ever claimed (pid or anonymous); drives the adaptive scan
  // threshold.  Michael's 2*capacity*K bound with the full kTotalSlots
  // capacity (~1800 nodes) would never trigger inside a short test's
  // warmup; scaling by slots actually claimed keeps garbage proportional
  // to the real thread population.
  std::atomic<std::uint32_t> claimed_{0};
  std::vector<Slot> slots_;
};

}  // namespace psnap::reclaim
