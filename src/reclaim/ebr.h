// Epoch-based reclamation (EBR).
//
// The snapshot algorithms publish immutable heap records through atomic
// pointers (the paper's "large registers", or its explicit small-register
// variant that stores "a pointer to a set of registers").  A reader that
// loads such a pointer must be able to dereference it even if a concurrent
// update has already replaced it; EBR provides that guarantee.
//
// Scheme (Fraser-style, three logical generations):
//  * A global epoch counter advances when every pinned thread has observed
//    the current epoch.
//  * Threads pin the current epoch for the duration of one operation
//    (operations here are wait-free and short, so epochs advance quickly).
//  * A node retired in epoch e is freed once the global epoch reaches e+2:
//    at that point no pinned thread can still hold a reference from e.
//
// EBR pins and retires are memory management, not shared-object "steps" in
// the paper's model, so they deliberately do not call exec::on_step().
//
// Counter rule (shared by every counter on an operation path): a counter
// is per-slot and single-writer (reclaim::SlotCounter in the owner's
// padded Slot) and summed on read.  The only shared read-modify-writes an
// operation performs are the paper's base objects and the EBR epoch CAS;
// bookkeeping never adds one.  retired_count()/freed_count() therefore
// cost a walk over kTotalSlots and are exact once writers are quiescent.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/padding.h"
#include "reclaim/slots.h"

namespace psnap::reclaim {

class EbrDomain {
 public:
  // Per-thread state is keyed by the caller's *registered pid* when it has
  // one (exec::ThreadRegistry hands out pids below kPidSlots and reuses
  // them after release), so a churning thread population of any size works
  // as long as at most kPidSlots pids are live at once.  The release/
  // acquire CAS pair in the registry orders the hand-off, so a pid's
  // retired list simply transfers to the slot's next holder.  Threads
  // without a pid (direct reclaim tests, bookkeeping threads) fall back to
  // sticky CAS-claimed slots in [kPidSlots, kTotalSlots).  The layout is
  // the shared one in reclaim/slots.h, derived from the thread registry's
  // capacity constant; the aliases below are kept for existing callers.
  static constexpr std::uint32_t kPidSlots = reclaim::kPidSlots;
  static constexpr std::uint32_t kAnonSlots = reclaim::kAnonSlots;
  static constexpr std::uint32_t kTotalSlots = reclaim::kTotalSlots;

  EbrDomain();
  // Precondition: no thread is pinned and no operation is in flight.
  // Frees every outstanding retired node.
  ~EbrDomain();

  EbrDomain(const EbrDomain&) = delete;
  EbrDomain& operator=(const EbrDomain&) = delete;

  // RAII pin.  Reentrant: nested guards on the same thread are no-ops, so
  // an update may pin and call helper code that also pins.
  class Guard {
   public:
    explicit Guard(EbrDomain& domain);
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EbrDomain& domain_;
    std::uint32_t slot_;
  };

  Guard pin() { return Guard(*this); }

  // Non-RAII pin protocol, for holders that pin a DYNAMIC set of domains
  // (reclaim::Plane::Op, which pins shards as an operation reaches them,
  // and the parked reader built on it).  enter() runs the Guard entry protocol and returns the
  // caller's slot; every enter() must be matched by an exit(slot) on the
  // same thread.  Reentrant like Guard: nested enters on the same thread
  // are depth-counted no-ops.
  std::uint32_t enter();
  void exit(std::uint32_t slot);

  // Grace-period callback: receives the node, the context registered with
  // it, the domain, and the EBR slot index that held the retired node (so
  // pooled recycling can index per-slot structures without claiming a
  // slot for the calling thread -- the domain DESTRUCTOR may flush from a
  // thread that never operated on the domain and so owns no slot).  Runs
  // either on the slot's owning thread or in the quiescent destructor.
  using RecycleFn = void (*)(void* node, void* ctx, EbrDomain& domain,
                             std::uint32_t slot);

  // Hands the node to the domain; it is deleted once no pinned thread can
  // still reference it.  May be called while pinned.
  template <class T>
  void retire(T* node) {
    retire_raw(node, nullptr, [](void* p, void*, EbrDomain&, std::uint32_t) {
      delete static_cast<T*>(p);
    });
  }

  // Generalized form: instead of deleting, the grace-period callback
  // decides what to do with the node.  reclaim::Pool uses this to recycle
  // nodes into a typed free list rather than returning them to the heap.
  void retire_raw(void* node, void* ctx, RecycleFn fn);

  // Per-thread slot index in [0, kTotalSlots) for this domain: the
  // caller's registered pid when it has one, a sticky anonymous slot
  // otherwise.  Used by Pool to give each thread its own free list without
  // a second thread-registration mechanism.
  std::uint32_t thread_slot() { return slot_for_this_thread(); }

  // Attempts to advance the epoch and free eligible nodes.  Called
  // automatically on retire-list pressure; exposed for tests.
  void try_reclaim();

  // --- observability (tests and the micro bench) ---
  std::uint64_t global_epoch() const {
    return global_epoch_.load(std::memory_order_relaxed);
  }
  std::uint64_t retired_count() const;
  std::uint64_t freed_count() const;
  std::uint64_t outstanding() const { return retired_count() - freed_count(); }

 private:
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

  struct RetiredNode {
    void* ptr;
    void* ctx;
    RecycleFn fn;
    std::uint64_t epoch;
  };

  struct alignas(kCachelineBytes) Slot {
    std::atomic<std::uint64_t> epoch{kIdle};
    std::atomic<bool> in_use{false};
    // Owner-thread-only state (the destructor is the one exception, and it
    // runs without concurrency by precondition).
    std::uint32_t depth = 0;
    std::vector<RetiredNode> retired;
    // Nodes this slot retired, and nodes freed from its retired list.
    SlotCounter retired_count;
    SlotCounter freed_count;
  };

  std::uint32_t slot_for_this_thread();
  void free_eligible(std::uint32_t slot_index, std::uint64_t safe_epoch);

  std::atomic<std::uint64_t> global_epoch_{0};
  const std::uint64_t domain_id_;
  std::vector<Slot> slots_;
};

}  // namespace psnap::reclaim
