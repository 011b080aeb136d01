// The reclamation plane: the one seam between a snapshot algorithm and
// memory reclamation.
//
// The paper's Figures 1-3 assume garbage-collected registers: a reader
// that loads a record pointer may dereference it however late.  A Plane
// keeps that promise through ONE of two substrates, chosen at
// construction:
//
//   * EBR (reclaim/ebr.h), in 1..kMaxShards shards.  Each shard owns an
//     independent EbrDomain.  Component i lives in segment
//     i / segment_components, and segments round-robin over the shards, so
//     shard_of(i) = (i / segment_components) % shards; round-robin (rather
//     than block) keeps every shard warm while the component space grows.
//     An operation pins only the shards its components map to, so a
//     stalled reader freezes reclamation of its own shards' records only.
//     Shard 0 doubles as the META shard: state that is not per-component
//     (announcements, batch descriptors) retires through it.  One shard is
//     the classic single global domain.
//   * Hazard pointers (reclaim/hazard.h): a reader protects each record
//     before it dereferences it, so a stalled reader blocks at most the
//     records its hazards name.
//
// An operation holds one Op from start to finish.  On EBR the Op's pins
// are the protection and protect() is one plain load; on hp the pins are
// no-ops and protect() publishes and validates a hazard.  What the plane
// cannot hide is validates_each_read(): on hp a record may be touched only
// while its own validated hazard stands, so a read loop cannot load a
// block of heads before dereferencing them, and a record reached through
// another record's pointer needs a hazard of its own.
//
// Pins, hazards and retires are memory management, not shared-object
// steps.  The one counted step here is protect()'s load; its validating
// re-reads are non-step peek_syncs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "reclaim/ebr.h"
#include "reclaim/hazard.h"
#include "reclaim/pool.h"

namespace psnap::reclaim {

class Plane {
 public:
  static constexpr std::uint32_t kMaxShards = 16;

  enum class Kind { kEbr, kHazard };

  // kEbr: `shards` EBR domains over segments of `segment_components`
  // components (the snapshot passes core::kComponentSegmentSize, so shards
  // follow the storage segments).  kHazard: one HazardDomain, and shards
  // must be 1.
  explicit Plane(Kind kind = Kind::kEbr, std::uint32_t shards = 1,
                 std::uint32_t segment_components = 1024);

  Plane(const Plane&) = delete;
  Plane& operator=(const Plane&) = delete;

  bool validates_each_read() const { return hp_ != nullptr; }
  std::string_view name() const { return hp_ ? "hp" : "ebr"; }
  std::uint32_t num_shards() const { return shards_; }
  std::uint32_t shard_of(std::uint32_t component) const {
    return (component / segment_components_) % shards_;
  }
  // Retired but not yet freed, over every domain (exact once quiescent).
  std::uint64_t outstanding() const;

  // The substrates, for tests: domain() exists on EBR, hazards() on hp.
  EbrDomain& domain(std::uint32_t shard) { return *ebr_[shard]; }
  HazardDomain& hazards() { return *hp_; }

  // Pooled nodes.  acquire() pops the calling thread's free list in the
  // bank of `component`'s shard; recycle() retires a published node
  // through that shard's domain (or the hazard domain), and the node
  // rejoins the list once no reader can still hold it.  The pool needs one
  // bank per shard.  The _meta forms serve state that is not
  // per-component.
  template <class T>
  typename Pool<T>::Handle acquire(Pool<T>& pool, std::uint32_t component) {
    if (hp_) return pool.acquire(*hp_);
    const std::uint32_t s = shard_of(component);
    return pool.acquire(*ebr_[s], s);
  }
  template <class T>
  void recycle(Pool<T>& pool, const T* node, std::uint32_t component) {
    T* p = const_cast<T*>(node);
    if (hp_) return pool.recycle(*hp_, p);
    const std::uint32_t s = shard_of(component);
    pool.recycle(*ebr_[s], p, s);
  }
  template <class T>
  typename Pool<T>::Handle acquire_meta(Pool<T>& pool) {
    return acquire(pool, 0);
  }
  template <class T>
  void recycle_meta(Pool<T>& pool, const T* node) {
    recycle(pool, node, 0);
  }

  // One operation's protection.  Construct and destroy on one thread.  The
  // destructor drops the EBR pins or clears every hazard of the thread --
  // on exception unwinds too (the crash sweep injects halts mid-operation),
  // so a halted operation leaves nothing protected and a later operation
  // on the reused pid starts clean.
  class Op {
   public:
    explicit Op(Plane& plane) : plane_(plane), hp_(plane.hp_.get()) {}
    ~Op() {
      if (hp_ != nullptr) {
        hp_->clear_all();
        return;
      }
      for (std::uint32_t s = 0; s < plane_.shards_; ++s) {
        if (engaged_[s]) plane_.ebr_[s]->exit(slots_[s]);
      }
    }
    Op(const Op&) = delete;
    Op& operator=(const Op&) = delete;

    // EBR pins, no-ops on hp.  Idempotent per shard (at most one enter per
    // shard per Op), so an operation can pin as it learns its components.
    void pin(std::uint32_t shard) {
      if (hp_ != nullptr || engaged_[shard]) return;
      slots_[shard] = plane_.ebr_[shard]->enter();
      engaged_[shard] = true;
    }
    void pin_meta() { pin(0); }
    void pin_component(std::uint32_t component) {
      pin(plane_.shard_of(component));
    }
    // On one shard every component maps to shard 0, so a non-empty span
    // is a single pin -- no per-index shard_of divisions on the scan path.
    void pin_components(std::span<const std::uint32_t> components) {
      if (components.empty()) return;
      if (plane_.shards_ == 1) {
        pin(0);
        return;
      }
      for (std::uint32_t c : components) pin_component(c);
    }

    // Reads the pointer `src` holds (a primitives Register or CasObject)
    // with exactly ONE counted load, and returns it safe to dereference:
    // on EBR while the caller's pin on src's shard stands, on hp until
    // hazard slot `slot` is reused or the Op ends.
    template <class Src>
    auto protect(const Src& src, std::uint32_t slot) {
      auto p = src.load();
      if (hp_ == nullptr) return p;
      while (true) {
        hp_->set(slot, p);
        // Michael's protect protocol: republish until the location still
        // holds the published pointer AFTER the hazard store is visible
        // (both seq_cst), so a reclaimer's scan that missed our hazard ran
        // before we could have read its victim.  The re-read is a non-step
        // peek_sync: under the sim scheduler no schedule point separates
        // the store from the validation, so this exits first try and step
        // counts are the same on both planes.
        const auto q = src.peek_sync();
        if (q == p) return p;
        // The location moved before our hazard settled; adopt the newer
        // pointer.  That is sound: the read linearizes at the validating
        // re-read, which is still inside this operation.
        p = q;
      }
    }

    // Whether `p`, reached other than by loading `src`, may be
    // dereferenced: always on EBR (the pins cover it); on hp, `p` is
    // published in hazard slot `slot` and is safe iff `src` still holds
    // `expected` once the publication is visible (one non-step peek_sync),
    // because only the update that moves `src` off `expected` can retire
    // `p`.
    template <class Src, class T>
    bool hold(const void* p, std::uint32_t slot, const Src& src,
              T expected) {
      if (hp_ == nullptr) return true;
      hp_->set(slot, p);
      return src.peek_sync() == expected;
    }

   private:
    Plane& plane_;
    HazardDomain* const hp_;
    std::uint32_t slots_[kMaxShards] = {};
    bool engaged_[kMaxShards] = {};
  };

  // A deliberately stalled reader, for the residency tests and bench: it
  // loads its protection and then goes silent.  On EBR it pins the meta
  // shard plus the shards of `components`, freezing exactly those shards'
  // reclamation; on hp it protects what `src_of(c)` holds for up to
  // kHazardsPerThread of the components, blocking exactly those records.
  // Construct and destroy on one thread, and run no operation on that
  // thread while parked (it would reuse the hazard slots or stack another
  // pin depth).
  class Parked {
   public:
    template <class SrcOf>
    Parked(Plane& plane, std::span<const std::uint32_t> components,
           SrcOf&& src_of)
        : op_(plane) {
      if (!plane.validates_each_read()) {
        op_.pin_meta();
        op_.pin_components(components);
        return;
      }
      const std::size_t count = std::min<std::size_t>(
          components.size(), HazardDomain::kHazardsPerThread);
      for (std::uint32_t k = 0; k < count; ++k) {
        (void)op_.protect(src_of(components[k]), k);
      }
    }

   private:
    Op op_;
  };

 private:
  std::uint32_t shards_;
  std::uint32_t segment_components_;
  // One per shard on EBR, none on hp.  unique_ptr: an EbrDomain is neither
  // movable nor copyable, and its slot table is too big to hold inline.
  std::vector<std::unique_ptr<EbrDomain>> ebr_;
  // Null on EBR.
  std::unique_ptr<HazardDomain> hp_;
};

}  // namespace psnap::reclaim
