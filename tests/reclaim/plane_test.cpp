#include "reclaim/plane.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "primitives/primitives.h"
#include "reclaim/pool.h"

namespace psnap::reclaim {
namespace {

struct Node {
  static std::atomic<int> live;
  Node() { live.fetch_add(1); }
  ~Node() { live.fetch_sub(1); }
  std::uint64_t payload = 0;
};
std::atomic<int> Node::live{0};

using Kind = Plane::Kind;

std::uint64_t retired(Plane& plane) {
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < plane.num_shards(); ++s) {
    total += plane.domain(s).retired_count();
  }
  return total;
}

TEST(Plane, ShardMappingFollowsSegments) {
  Plane plane(Kind::kEbr, 4, /*segment_components=*/8);
  // Components within one segment share a shard...
  EXPECT_EQ(plane.shard_of(0), plane.shard_of(7));
  // ...and consecutive segments round-robin over the shards.
  EXPECT_EQ(plane.shard_of(8), 1u);
  EXPECT_EQ(plane.shard_of(16), 2u);
  EXPECT_EQ(plane.shard_of(24), 3u);
  EXPECT_EQ(plane.shard_of(32), 0u);  // wraps
  EXPECT_NE(&plane.domain(0), &plane.domain(1));
}

TEST(Plane, SingleShardDegeneratesToOneDomain) {
  Plane plane;  // defaults: EBR, 1 shard
  EXPECT_EQ(plane.name(), "ebr");
  EXPECT_FALSE(plane.validates_each_read());
  EXPECT_EQ(plane.num_shards(), 1u);
  EXPECT_EQ(plane.shard_of(0), 0u);
  EXPECT_EQ(plane.shard_of(123456), 0u);
}

TEST(Plane, ParkedPinStallsOnlyItsOwnShard) {
  // The point of sharding: a reader parked in shard 0 freezes shard 0's
  // reclamation but leaves every other shard advancing freely.  With one
  // global domain the same parked pin would freeze ALL of it.
  Node::live = 0;
  {
    Plane plane(Kind::kEbr, 2, /*segment_components=*/1);
    std::uint32_t parked_slot = plane.domain(0).enter();  // park in shard 0

    // Retire through both shards, then push both past the reclaim
    // threshold so try_reclaim runs.
    for (int round = 0; round < 200; ++round) {
      plane.domain(0).retire(new Node);
      plane.domain(1).retire(new Node);
    }
    plane.domain(1).try_reclaim();
    plane.domain(1).try_reclaim();
    plane.domain(1).try_reclaim();

    // Shard 1 reclaimed; shard 0 is frozen behind the parked pin.
    EXPECT_GT(plane.domain(1).freed_count(), 0u);
    EXPECT_EQ(plane.domain(0).freed_count(), 0u);

    // Unpark: shard 0 catches up.
    plane.domain(0).exit(parked_slot);
    plane.domain(0).try_reclaim();
    plane.domain(0).try_reclaim();
    plane.domain(0).try_reclaim();
    EXPECT_GT(plane.domain(0).freed_count(), 0u);

    // The aggregate covers all shards.
    EXPECT_EQ(retired(plane), 400u);
    EXPECT_EQ(plane.outstanding(), plane.domain(0).outstanding() +
                                       plane.domain(1).outstanding());
  }
  EXPECT_EQ(Node::live.load(), 0);  // destructors drained everything
}

TEST(Plane, OpPinsOnDemandAndIsIdempotent) {
  Plane plane(Kind::kEbr, 4, /*segment_components=*/2);
  {
    Plane::Op op(plane);
    op.pin_component(0);                // shard 0
    op.pin_component(1);                // shard 0 again: no second enter
    op.pin_component(2);                // shard 1
    std::array<std::uint32_t, 3> comps{4, 5, 6};  // shards 2, 2, 3
    op.pin_components(comps);
    op.pin_meta();                      // shard 0, already pinned

    // A pinned shard's epoch cannot advance past the pin.
    std::uint64_t before = plane.domain(0).global_epoch();
    plane.domain(0).try_reclaim();
    EXPECT_LE(plane.domain(0).global_epoch(), before + 1);
  }
  // All pins released: every shard can advance normally again.
  for (std::uint32_t s = 0; s < 4; ++s) {
    std::uint64_t before = plane.domain(s).global_epoch();
    plane.domain(s).try_reclaim();
    plane.domain(s).try_reclaim();
    EXPECT_GT(plane.domain(s).global_epoch(), before);
  }
}

// try_reclaim() calls made on `shard`; returns how far its epoch moved.
std::uint64_t advance(Plane& plane, std::uint32_t shard, int calls) {
  const std::uint64_t before = plane.domain(shard).global_epoch();
  for (int k = 0; k < calls; ++k) plane.domain(shard).try_reclaim();
  return plane.domain(shard).global_epoch() - before;
}

TEST(Plane, SingleShardPinComponentsPinsShardZeroOnce) {
  Plane plane;  // 1 shard
  {
    // An empty span pins nothing: the epoch advances on every call.
    Plane::Op op(plane);
    op.pin_components({});
    EXPECT_EQ(advance(plane, 0, 4), 4u);
  }
  std::vector<std::uint32_t> comps(4096);
  std::iota(comps.begin(), comps.end(), 0u);
  {
    // A whole-segment-spanning set is one pin of shard 0: the epoch can
    // move past the pinned generation at most once.
    Plane::Op op(plane);
    op.pin_components(comps);
    EXPECT_LE(advance(plane, 0, 4), 1u);
  }
  // Released: the shard advances freely again.
  EXPECT_EQ(advance(plane, 0, 4), 4u);
}

TEST(Plane, MultiShardPinComponentsHoldsExactlyTheirShards) {
  Plane plane(Kind::kEbr, 8, /*segment_components=*/1024);
  // Segments 0, 1 and 9: shards 0, 1 and 9 % 8 == 1.
  const std::array<std::uint32_t, 3> comps{5, 1030, 9300};
  {
    Plane::Op op(plane);
    op.pin_components(comps);
    for (std::uint32_t s = 0; s < 8; ++s) {
      if (s <= 1) {
        EXPECT_LE(advance(plane, s, 4), 1u) << "shard " << s;
      } else {
        EXPECT_EQ(advance(plane, s, 4), 4u) << "shard " << s;
      }
    }
  }
  for (std::uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(advance(plane, s, 4), 4u) << "shard " << s;
  }
}

TEST(Plane, OpNestsWithPlainGuards) {
  // Op uses the domains' reentrant enter/exit protocol, so nesting with
  // EbrDomain::Guard (either order) must be safe and must not unpin early.
  Plane plane(Kind::kEbr, 2, /*segment_components=*/1);
  {
    EbrDomain::Guard outer(plane.domain(0));
    {
      Plane::Op op(plane);
      op.pin(0);
      op.pin(1);
    }
    // Inner Op gone; the outer pin still holds shard 0.
    plane.domain(0).retire(new Node);
    std::uint64_t epoch_before = plane.domain(0).global_epoch();
    plane.domain(0).try_reclaim();
    plane.domain(0).try_reclaim();
    // Epoch may advance at most once past the pinned generation.
    EXPECT_LE(plane.domain(0).global_epoch(), epoch_before + 1);
  }
}

TEST(Plane, OnePoolServesAllShards) {
  // The slots.h invariant in action: a thread resolves to the same slot in
  // every shard's domain, so a single Pool with per-shard banks recycles
  // nodes retired through any shard back to the retiring thread.
  Node::live = 0;
  {
    Plane plane(Kind::kEbr, 2, /*segment_components=*/1);
    Pool<Node> pool(plane.num_shards());

    // Components 0 and 1 map to shards 0 and 1.
    Node* n0 = plane.acquire(pool, 0).release();
    Node* n1 = plane.acquire(pool, 1).release();
    EXPECT_EQ(pool.fresh_count(), 2u);

    plane.recycle(pool, n0, 0);
    plane.recycle(pool, n1, 1);
    for (int i = 0; i < 3; ++i) {
      plane.domain(0).try_reclaim();
      plane.domain(1).try_reclaim();
    }
    EXPECT_EQ(pool.pooled_count(), 2u);

    // Reacquire from each shard's bank: both hits, no fresh allocation.
    auto r0 = plane.acquire(pool, 0);
    auto r1 = plane.acquire(pool, 1);
    EXPECT_EQ(r0.get(), n0);
    EXPECT_EQ(r1.get(), n1);
    EXPECT_EQ(pool.reused_count(), 2u);
    EXPECT_EQ(pool.fresh_count(), 2u);
    // Handles return the nodes to the banks on scope exit; the pool
    // destructor deletes them.
  }
  EXPECT_EQ(Node::live.load(), 0);
}

TEST(Plane, ConcurrentShardTrafficIsIndependent) {
  // Writers hammering distinct shards never touch each other's epochs or
  // retired lists; everything is freed by the end.
  Node::live = 0;
  {
    Plane plane(Kind::kEbr, 4, /*segment_components=*/1);
    std::array<std::thread, 4> threads;
    for (std::uint32_t s = 0; s < 4; ++s) {
      threads[s] = std::thread([&plane, s] {
        for (int i = 0; i < 2000; ++i) {
          Plane::Op op(plane);
          op.pin_component(s);
          plane.domain(s).retire(new Node);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(retired(plane), 8000u);
    // Each shard saw only its own writer, so reclamation kept up: far
    // fewer than the full population can still be outstanding.
    EXPECT_LT(plane.outstanding(), 8000u);
  }
  EXPECT_EQ(Node::live.load(), 0);
}

TEST(Plane, HpOpUnwoundAfterProtectLeavesNoHazard) {
  // The hp half of the guard: pins are no-ops, protect() publishes a
  // validated hazard, and the Op's destructor clears it even when an
  // exception unwinds the operation (the crash sweep's injected halts).
  Node::live = 0;
  {
    Plane plane(Kind::kHazard);
    EXPECT_EQ(plane.name(), "hp");
    EXPECT_TRUE(plane.validates_each_read());
    EXPECT_EQ(plane.num_shards(), 1u);
    Pool<Node> pool;
    Node* node = plane.acquire(pool, 0).release();
    primitives::Register<const Node*, primitives::Release> src(node);
    try {
      Plane::Op op(plane);
      op.pin_meta();  // no-op on hp
      EXPECT_EQ(op.protect(src, 2), node);
      // Unlink and retire the protected node: the hazard holds it.
      src.store(nullptr);
      plane.recycle(pool, node, 0);
      plane.hazards().scan_and_free();
      EXPECT_EQ(pool.pooled_count(), 0u);
      EXPECT_EQ(plane.outstanding(), 1u);
      throw std::runtime_error("halted mid-operation");
    } catch (const std::runtime_error&) {
    }
    // The unwound Op left no hazard: the next scan frees the node.
    plane.hazards().scan_and_free();
    EXPECT_EQ(pool.pooled_count(), 1u);
    EXPECT_EQ(plane.outstanding(), 0u);
  }
  EXPECT_EQ(Node::live.load(), 0);
}

}  // namespace
}  // namespace psnap::reclaim
