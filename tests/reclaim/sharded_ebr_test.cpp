#include "reclaim/sharded_ebr.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

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

TEST(ShardedEbr, ShardMappingFollowsSegments) {
  ShardedEbr sharded(4, /*segment_components=*/8);
  // Components within one segment share a shard...
  EXPECT_EQ(sharded.shard_of(0), sharded.shard_of(7));
  // ...and consecutive segments round-robin over the shards.
  EXPECT_EQ(sharded.shard_of(8), 1u);
  EXPECT_EQ(sharded.shard_of(16), 2u);
  EXPECT_EQ(sharded.shard_of(24), 3u);
  EXPECT_EQ(sharded.shard_of(32), 0u);  // wraps
  EXPECT_EQ(&sharded.domain_of(9), &sharded.domain(1));
  EXPECT_EQ(&sharded.meta(), &sharded.domain(0));
}

TEST(ShardedEbr, SingleShardDegeneratesToOneDomain) {
  ShardedEbr sharded;  // defaults: 1 shard
  EXPECT_EQ(sharded.num_shards(), 1u);
  EXPECT_EQ(sharded.shard_of(0), 0u);
  EXPECT_EQ(sharded.shard_of(123456), 0u);
}

TEST(ShardedEbr, ParkedPinStallsOnlyItsOwnShard) {
  // The tentpole property: a reader parked in shard 0 freezes shard 0's
  // reclamation but leaves every other shard advancing freely.  With one
  // global domain the same parked pin would freeze ALL of it.
  Node::live = 0;
  {
    ShardedEbr sharded(2, /*segment_components=*/1);
    std::uint32_t parked_slot = sharded.domain(0).enter();  // park in shard 0

    // Retire through both shards, then push both past the reclaim
    // threshold so try_reclaim runs.
    for (int round = 0; round < 200; ++round) {
      sharded.domain(0).retire(new Node);
      sharded.domain(1).retire(new Node);
    }
    sharded.domain(1).try_reclaim();
    sharded.domain(1).try_reclaim();
    sharded.domain(1).try_reclaim();

    // Shard 1 reclaimed; shard 0 is frozen behind the parked pin.
    EXPECT_GT(sharded.domain(1).freed_count(), 0u);
    EXPECT_EQ(sharded.domain(0).freed_count(), 0u);

    // Unpark: shard 0 catches up.
    sharded.domain(0).exit(parked_slot);
    sharded.domain(0).try_reclaim();
    sharded.domain(0).try_reclaim();
    sharded.domain(0).try_reclaim();
    EXPECT_GT(sharded.domain(0).freed_count(), 0u);

    // Aggregates cover all shards.
    EXPECT_EQ(sharded.retired_count(), 400u);
    EXPECT_EQ(sharded.outstanding(),
              sharded.retired_count() - sharded.freed_count());
  }
  EXPECT_EQ(Node::live.load(), 0);  // destructors drained everything
}

TEST(ShardedEbr, MultiGuardPinsOnDemandAndIsIdempotent) {
  ShardedEbr sharded(4, /*segment_components=*/2);
  {
    ShardedEbr::MultiGuard guard(sharded);
    guard.pin_component(0);             // shard 0
    guard.pin_component(1);             // shard 0 again: no second enter
    guard.pin_component(2);             // shard 1
    std::array<std::uint32_t, 3> comps{4, 5, 6};  // shards 2, 2, 3
    guard.pin_components(comps);
    guard.pin_meta();                   // shard 0, already pinned

    // A pinned shard's epoch cannot advance past the pin.
    std::uint64_t before = sharded.domain(0).global_epoch();
    sharded.domain(0).try_reclaim();
    EXPECT_LE(sharded.domain(0).global_epoch(), before + 1);
  }
  // All pins released: every shard can advance normally again.
  for (std::uint32_t s = 0; s < 4; ++s) {
    std::uint64_t before = sharded.domain(s).global_epoch();
    sharded.domain(s).try_reclaim();
    sharded.domain(s).try_reclaim();
    EXPECT_GT(sharded.domain(s).global_epoch(), before);
  }
}

// try_reclaim() calls made on `shard`; returns how far its epoch moved.
std::uint64_t advance(ShardedEbr& sharded, std::uint32_t shard, int calls) {
  const std::uint64_t before = sharded.domain(shard).global_epoch();
  for (int k = 0; k < calls; ++k) sharded.domain(shard).try_reclaim();
  return sharded.domain(shard).global_epoch() - before;
}

TEST(ShardedEbr, SingleShardPinComponentsPinsShardZeroOnce) {
  ShardedEbr sharded;  // 1 shard
  {
    // An empty span pins nothing: the epoch advances on every call.
    ShardedEbr::MultiGuard guard(sharded);
    guard.pin_components({});
    EXPECT_EQ(advance(sharded, 0, 4), 4u);
  }
  std::vector<std::uint32_t> comps(4096);
  std::iota(comps.begin(), comps.end(), 0u);
  {
    // A whole-segment-spanning set is one pin of shard 0: the epoch can
    // move past the pinned generation at most once.
    ShardedEbr::MultiGuard guard(sharded);
    guard.pin_components(comps);
    EXPECT_LE(advance(sharded, 0, 4), 1u);
  }
  // Released: the shard advances freely again.
  EXPECT_EQ(advance(sharded, 0, 4), 4u);
}

TEST(ShardedEbr, MultiShardPinComponentsHoldsExactlyTheirShards) {
  ShardedEbr sharded(8, /*segment_components=*/1024);
  // Segments 0, 1 and 9: shards 0, 1 and 9 % 8 == 1.
  const std::array<std::uint32_t, 3> comps{5, 1030, 9300};
  {
    ShardedEbr::MultiGuard guard(sharded);
    guard.pin_components(comps);
    for (std::uint32_t s = 0; s < 8; ++s) {
      if (s <= 1) {
        EXPECT_LE(advance(sharded, s, 4), 1u) << "shard " << s;
      } else {
        EXPECT_EQ(advance(sharded, s, 4), 4u) << "shard " << s;
      }
    }
  }
  for (std::uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(advance(sharded, s, 4), 4u) << "shard " << s;
  }
}

TEST(ShardedEbr, MultiGuardNestsWithPlainGuards) {
  // MultiGuard uses the domains' reentrant enter/exit protocol, so nesting
  // with Guard (either order) must be safe and must not unpin early.
  ShardedEbr sharded(2, /*segment_components=*/1);
  {
    EbrDomain::Guard outer(sharded.domain(0));
    {
      ShardedEbr::MultiGuard guard(sharded);
      guard.pin(0);
      guard.pin(1);
    }
    // Inner multi-guard gone; the outer pin still holds shard 0.
    sharded.domain(0).retire(new Node);
    std::uint64_t epoch_before = sharded.domain(0).global_epoch();
    sharded.domain(0).try_reclaim();
    sharded.domain(0).try_reclaim();
    // Epoch may advance at most once past the pinned generation.
    EXPECT_LE(sharded.domain(0).global_epoch(), epoch_before + 1);
  }
}

TEST(ShardedEbr, OnePoolServesAllShards) {
  // The slots.h invariant in action: a thread resolves to the same slot in
  // every shard's domain, so a single Pool with per-shard banks recycles
  // nodes retired through any shard back to the retiring thread.
  Node::live = 0;
  {
    ShardedEbr sharded(2, /*segment_components=*/1);
    Pool<Node> pool(sharded.num_shards());

    auto h0 = pool.acquire(sharded.domain(0), 0);
    auto h1 = pool.acquire(sharded.domain(1), 1);
    Node* n0 = h0.release();
    Node* n1 = h1.release();
    EXPECT_EQ(pool.fresh_count(), 2u);

    pool.recycle(sharded.domain(0), n0, 0);
    pool.recycle(sharded.domain(1), n1, 1);
    for (int i = 0; i < 3; ++i) {
      sharded.domain(0).try_reclaim();
      sharded.domain(1).try_reclaim();
    }
    EXPECT_EQ(pool.pooled_count(), 2u);

    // Reacquire from each shard's bank: both hits, no fresh allocation.
    auto r0 = pool.acquire(sharded.domain(0), 0);
    auto r1 = pool.acquire(sharded.domain(1), 1);
    EXPECT_EQ(r0.get(), n0);
    EXPECT_EQ(r1.get(), n1);
    EXPECT_EQ(pool.reused_count(), 2u);
    EXPECT_EQ(pool.fresh_count(), 2u);
    // Handles return the nodes to the banks on scope exit; the pool
    // destructor deletes them.
  }
  EXPECT_EQ(Node::live.load(), 0);
}

TEST(ShardedEbr, ConcurrentShardTrafficIsIndependent) {
  // Writers hammering distinct shards never touch each other's epochs or
  // retired lists; everything is freed by the end.
  Node::live = 0;
  {
    ShardedEbr sharded(4, /*segment_components=*/1);
    std::array<std::thread, 4> threads;
    for (std::uint32_t s = 0; s < 4; ++s) {
      threads[s] = std::thread([&sharded, s] {
        EbrDomain& d = sharded.domain(s);
        for (int i = 0; i < 2000; ++i) {
          std::uint32_t slot = d.enter();
          d.retire(new Node);
          d.exit(slot);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(sharded.retired_count(), 8000u);
    // Each shard saw only its own writer, so reclamation kept up: far
    // fewer than the full population can still be outstanding.
    EXPECT_LT(sharded.outstanding(), 8000u);
  }
  EXPECT_EQ(Node::live.load(), 0);
}

}  // namespace
}  // namespace psnap::reclaim
