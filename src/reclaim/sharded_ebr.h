// Sharded epoch-based reclamation: one EbrDomain per component-segment
// group.
//
// A single process-global EbrDomain funnels every pin, every grace period,
// and every retire through one epoch counter and one slot table: at large
// component counts and thread counts, one long-pinned reader (a parked
// scan) freezes reclamation for EVERYTHING, and unrelated writers contend
// on the same epoch cacheline.  ShardedEbr splits the domain by the
// component space's natural boundary -- the segmented storage's segments
// (core::kComponentSegmentSize components each) -- so:
//
//   * a single-segment operation (the common update) pins only its own
//     shard's epoch: one cheap shard-local pin, no interaction with other
//     shards' readers or grace periods;
//   * a cross-segment scan pins exactly the shards its argument set
//     touches, through the MultiGuard below;
//   * a stalled pin delays reclamation only for its own shard's records --
//     the blast radius the RCL bench measures.
//
// Shard mapping: component i lives in segment i / segment_components, and
// segments round-robin over the shards, so shard_of(i) =
// (i / segment_components) % num_shards.  Round-robin (rather than block)
// keeps all shards warm while the component space grows.
//
// Shard 0 doubles as the META shard: state that is not per-component
// (announcement IndexSets, batch descriptors) retires through it.
//
// Like the underlying domains, pins and retires here are memory
// management, not shared-object steps; nothing calls exec::on_step().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "reclaim/ebr.h"

namespace psnap::reclaim {

class ShardedEbr {
 public:
  static constexpr std::uint32_t kMaxShards = 16;

  // `shards` domains over segments of `segment_components` components
  // (callers pass core::kComponentSegmentSize so reclamation shards follow
  // the storage segments).  shards == 1 degenerates to the classic single
  // global domain.
  explicit ShardedEbr(std::uint32_t shards = 1,
                      std::uint32_t segment_components = 1024);

  ShardedEbr(const ShardedEbr&) = delete;
  ShardedEbr& operator=(const ShardedEbr&) = delete;

  std::uint32_t num_shards() const { return shards_; }
  std::uint32_t shard_of(std::uint32_t component) const {
    return (component / segment_components_) % shards_;
  }

  EbrDomain& domain(std::uint32_t shard) { return *domains_[shard]; }
  EbrDomain& domain_of(std::uint32_t component) {
    return *domains_[shard_of(component)];
  }
  // The meta shard: non-component state (announcements, descriptors).
  EbrDomain& meta() { return *domains_[0]; }

  // Pins a dynamic set of shards for one operation.  pin() is idempotent
  // per shard (at most one enter per shard per guard), so a scan can pin
  // progressively as it resolves its argument set.  Construct and destroy
  // on the same thread.
  class MultiGuard {
   public:
    explicit MultiGuard(ShardedEbr& sharded) : sharded_(sharded) {}
    ~MultiGuard() {
      for (std::uint32_t s = 0; s < sharded_.shards_; ++s) {
        if (engaged_[s]) sharded_.domains_[s]->exit(slots_[s]);
      }
    }

    MultiGuard(const MultiGuard&) = delete;
    MultiGuard& operator=(const MultiGuard&) = delete;

    void pin(std::uint32_t shard) {
      if (engaged_[shard]) return;
      slots_[shard] = sharded_.domains_[shard]->enter();
      engaged_[shard] = true;
    }
    void pin_meta() { pin(0); }
    void pin_component(std::uint32_t component) {
      pin(sharded_.shard_of(component));
    }
    // On one shard every component maps to shard 0, so a non-empty span
    // is a single pin -- no per-index shard_of divisions on the scan path.
    void pin_components(std::span<const std::uint32_t> components) {
      if (components.empty()) return;
      if (sharded_.shards_ == 1) {
        pin(0);
        return;
      }
      for (std::uint32_t c : components) pin_component(c);
    }
    void pin_all() {
      for (std::uint32_t s = 0; s < sharded_.shards_; ++s) pin(s);
    }

   private:
    ShardedEbr& sharded_;
    std::uint32_t slots_[kMaxShards] = {};
    bool engaged_[kMaxShards] = {};
  };

  // --- observability (aggregates over the shards) ---
  std::uint64_t retired_count() const;
  std::uint64_t freed_count() const;
  std::uint64_t outstanding() const {
    return retired_count() - freed_count();
  }

 private:
  std::uint32_t shards_;
  std::uint32_t segment_components_;
  // unique_ptr: EbrDomain is neither movable nor copyable, and the slot
  // tables are big enough that inline storage would bloat every owner.
  std::vector<std::unique_ptr<EbrDomain>> domains_;
};

}  // namespace psnap::reclaim
