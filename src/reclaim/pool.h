// Typed free-list pooling on top of the reclamation substrates.
//
// The snapshot algorithms publish one immutable heap record per update and
// one announcement per scan-shape change.  With plain reclamation those
// nodes are `delete`d after their grace period and the next operation
// `new`s a fresh one -- two allocator round-trips on every hot-path
// operation, and (for Record) the loss of the embedded view vector's grown
// capacity each time.
//
// A Pool<T> replaces delete/new with recycle/acquire:
//
//   * recycle(domain, node) retires the node through the domain exactly
//     like the domain's own retire, but when the grace period expires the
//     node is pushed onto a free list instead of deleted.  Nodes are NOT
//     destroyed: a recycled Record keeps its view vector's capacity, so
//     re-filling it on the next acquire allocates nothing.
//   * acquire(domain) pops the calling thread's free list, falling back to
//     `new T()` only while the pool is still warming up.
//
// Free lists are per (shard, pid slot).  Pid slots use the shared
// reclaim/slots.h layout -- a registered thread resolves to the SAME slot
// index in every EbrDomain and HazardDomain -- so one Pool serves every
// shard of a reclaim::Plane (or its hazard domain): nodes retired through
// shard s surface on the retiring thread's list for shard s, and
// acquire(d, s) pops that same list.  Every list stays owner-thread-only:
// no atomics, no cross-thread free list, and therefore no Treiber-stack
// ABA problem to solve.  The flux is balanced in steady state because each
// update acquires exactly one record and retires exactly one (the one it
// replaced).
//
// ABA / tag-uniqueness: recycling reuses ADDRESSES no earlier than delete
// would have handed them back to malloc -- only after the grace period (or
// hazard scan) -- so the algorithms' pointer-identity arguments (records
// observed while protected are never reused under the reader's feet) are
// unchanged.  The paper's (pid, counter) content-uniqueness argument is
// also unchanged: counters increase monotonically per process, so a
// recycled Record is always republished with a tag no prior record
// carried.  tests/reclaim/pool_test.cpp drives this under the sim
// scheduler.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/padding.h"
#include "reclaim/ebr.h"
#include "reclaim/hazard.h"

namespace psnap::reclaim {

template <class T>
class Pool {
 public:
  // One bank of per-thread free lists per reclamation shard.  Owners that
  // reclaim through a single domain (the default everywhere) use the
  // one-bank default and never pass a shard index.
  explicit Pool(std::uint32_t shards = 1)
      : lists_(std::size_t{shards} * exec::kMaxPidCapacity),
        shard_ctx_(shards) {
    PSNAP_ASSERT(shards >= 1);
    for (std::uint32_t s = 0; s < shards; ++s) {
      shard_ctx_[s] = ShardCtx{this, s * exec::kMaxPidCapacity};
    }
  }

  // Precondition (same as the domains'): quiescent.  The domain whose
  // nodes recycle into this pool must be destroyed FIRST -- its destructor
  // flushes outstanding retired nodes into these lists -- so declare the
  // Pool before the domain in the owning class.
  ~Pool() {
    for (auto& padded : lists_) {
      for (void* p : padded.value.free) dispose(static_cast<T*>(p));
    }
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  // Owns a node from acquisition until publication.  On unwind (CAS
  // failure, injected halt before the publishing store) the node returns
  // to the acquiring thread's free list, skipping the grace period: no
  // other thread ever saw the pointer.  The flat list index is resolved
  // once at acquisition and cached, so the acquire/unwind round trip costs
  // one slot lookup, not three.  Single-operation scope on one thread;
  // movable (so reclaim::Plane::acquire can return one) but not copyable.
  class Handle {
   public:
    ~Handle() {
      if (node_ != nullptr) pool_.put_at(index_, node_);
    }
    Handle(Handle&& other) noexcept
        : pool_(other.pool_), index_(other.index_), node_(other.node_) {
      other.node_ = nullptr;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    Handle& operator=(Handle&&) = delete;

    T* get() const { return node_; }
    T* operator->() const { return node_; }
    // Hands ownership to the caller (the publishing store).
    T* release() {
      T* node = node_;
      node_ = nullptr;
      return node;
    }

   private:
    friend class Pool;
    Handle(Pool& pool, std::size_t index, T* node)
        : pool_(pool), index_(index), node_(node) {}

    Pool& pool_;
    std::size_t index_;
    T* node_;
  };

  // Pops a recycled node, or heap-allocates while warming up.  The node is
  // whatever state its previous life left it in; callers overwrite every
  // field before publication.  Domain is EbrDomain or HazardDomain (both
  // expose the shared thread_slot()).
  template <class Domain>
  Handle acquire(Domain& domain, std::uint32_t shard = 0) {
    std::size_t index = flat_index(shard, domain.thread_slot());
    PerThread& mine = lists_[index].value;
    T* node;
    if (!mine.free.empty()) {
      node = static_cast<T*>(mine.free.back());
      mine.free.pop_back();
      ++mine.reused;
    } else {
      ++mine.fresh;
      node = new T();
    }
    return Handle(*this, index, node);
  }

  // Returns a node that was never published: it skips the grace period
  // and is immediately reusable (see Handle; exposed for tests).
  template <class Domain>
  void put_local(Domain& domain, T* node, std::uint32_t shard = 0) {
    put_at(flat_index(shard, domain.thread_slot()), node);
  }

  // Retires a *published* node through `domain`: it joins the free list
  // once the domain proves no reader still references it (an EBR grace
  // period, or a hazard scan that finds no hazard on it).  `shard` names
  // the bank the node returns to (its reclaim::Plane shard; 0 for a lone
  // domain).  The callback files the node under its retiring slot's list
  // in that bank.  The slot is supplied by the domain, so the flushing
  // thread (possibly a domain destructor running on a thread that owns no
  // slot) never has to claim one; the bank base rides in ctx.
  void recycle(EbrDomain& domain, T* node, std::uint32_t shard = 0) {
    domain.retire_raw(node, &shard_ctx_[shard],
                      [](void* p, void* ctx, EbrDomain&, std::uint32_t slot) {
                        file(p, ctx, slot);
                      });
  }
  void recycle(HazardDomain& domain, T* node, std::uint32_t shard = 0) {
    domain.retire_raw(node, &shard_ctx_[shard],
                      [](void* p, void* ctx, std::uint32_t slot) {
                        file(p, ctx, slot);
                      });
  }

  // --- observability (tests; aggregate reads are quiescent-only) ---
  std::uint64_t reused_count() const {
    std::uint64_t total = 0;
    for (const auto& padded : lists_) total += padded.value.reused;
    return total;
  }
  std::uint64_t fresh_count() const {
    std::uint64_t total = 0;
    for (const auto& padded : lists_) total += padded.value.fresh;
    return total;
  }
  std::size_t pooled_count() const {
    std::size_t total = 0;
    for (const auto& padded : lists_) total += padded.value.free.size();
    return total;
  }

 private:
  struct PerThread {
    std::vector<void*> free;
    std::uint64_t reused = 0;
    std::uint64_t fresh = 0;
  };

  // Stable per-shard retire context: the recycle callbacks receive only a
  // slot index, so the bank base must ride in ctx.  The vector is sized in
  // the constructor and never resized, so the addresses stay valid for the
  // pool's lifetime.
  struct ShardCtx {
    Pool* pool;
    std::uint32_t base;
  };

  // Frees a pooled node at teardown: `delete`, unless T states its own
  // disposal rule as a static T::dispose(node) -- core::RecordT does, since
  // its initial records live in their object's storage, not on the heap.
  static void dispose(T* node) {
    if constexpr (requires { T::dispose(node); }) {
      T::dispose(node);
    } else {
      delete node;
    }
  }

  std::size_t flat_index(std::uint32_t shard, std::uint32_t slot) const {
    return std::size_t{shard} * exec::kMaxPidCapacity + slot;
  }

  void put_at(std::size_t index, T* node) {
    lists_[index].value.free.push_back(node);
  }

  // The grace callbacks' shared body.
  static void file(void* p, void* ctx, std::uint32_t slot) {
    auto* sc = static_cast<ShardCtx*>(ctx);
    sc->pool->put_at(sc->base + slot, static_cast<T*>(p));
  }

  std::vector<CachelinePadded<PerThread>> lists_;
  std::vector<ShardCtx> shard_ctx_;
};

}  // namespace psnap::reclaim
