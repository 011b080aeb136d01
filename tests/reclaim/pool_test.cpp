// reclaim::Pool -- the EBR-backed typed free list.
//
// Three properties are load-bearing for the allocation-free update path:
//
//   1. Grace periods still apply: a recycled node must not become
//      acquirable while any thread could hold a pre-retire reference
//      (otherwise the snapshot algorithms' pointer-identity reasoning --
//      "a record observed while pinned is never reused under my feet" --
//      would break, the classic ABA).
//   2. put_local really is immediate: unpublished nodes (CAS-failure path)
//      skip the grace period, because no other thread ever saw them.
//   3. Nodes keep their contents between lives (that is the whole point:
//      the embedded view vector's capacity survives), and everything is
//      freed exactly once at shutdown.
//
// The sim-scheduler section is the ABA regression: it drives Figure 3
// through interleavings where records retire, recycle, and republish while
// scans are mid-collect, and checks linearizability plus that reuse
// actually happened (so the test cannot silently pass by never pooling).
#include "reclaim/pool.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/cas_psnap.h"
#include "core/partial_snapshot.h"
#include "exec/exec.h"
#include "reclaim/ebr.h"
#include "runtime/explore.h"
#include "runtime/sim_scheduler.h"
#include "verify/lin_checker.h"
#include "verify/recording.h"

namespace psnap::reclaim {
namespace {

struct Node {
  std::vector<std::uint64_t> payload;
};

TEST(PoolTest, RecycleWaitsForTheGracePeriod) {
  exec::ScopedPid pid(0);
  EbrDomain domain;
  Pool<Node> pool;
  Node* node = pool.acquire(domain).release();
  EXPECT_EQ(pool.fresh_count(), 1u);

  {
    // A pinned reader: the node must not resurface while the pin could
    // still dereference it.
    auto guard = domain.pin();
    pool.recycle(domain, node);
    domain.try_reclaim();
    domain.try_reclaim();
    EXPECT_EQ(pool.pooled_count(), 0u);
  }
  // Unpinned: two epoch advances later the node is reusable.
  domain.try_reclaim();
  domain.try_reclaim();
  domain.try_reclaim();
  EXPECT_EQ(pool.pooled_count(), 1u);
  Node* again = pool.acquire(domain).release();
  EXPECT_EQ(again, node);
  EXPECT_EQ(pool.reused_count(), 1u);
  pool.put_local(domain, again);  // pool owns it at destruction
}

TEST(PoolTest, PutLocalSkipsTheGracePeriodAndKeepsContents) {
  exec::ScopedPid pid(0);
  EbrDomain domain;
  Pool<Node> pool;
  Node* node = pool.acquire(domain).release();
  node->payload.assign(100, 7);
  std::size_t capacity = node->payload.capacity();

  pool.put_local(domain, node);
  EXPECT_EQ(pool.pooled_count(), 1u);
  Node* again = pool.acquire(domain).release();
  EXPECT_EQ(again, node);
  // Contents survive recycling -- callers overwrite, and vector capacity
  // is exactly what they want to inherit.
  EXPECT_GE(again->payload.capacity(), capacity);
  pool.put_local(domain, again);
}

TEST(PoolTest, DomainDestructionFlushesRetiredNodesIntoThePool) {
  exec::ScopedPid pid(0);
  Pool<Node> pool;
  {
    EbrDomain domain;
    for (int i = 0; i < 5; ++i) {
      pool.recycle(domain, pool.acquire(domain).release());
    }
    // No epoch advance was forced; ~EbrDomain must flush them.
  }
  EXPECT_EQ(pool.pooled_count(), 5u);
  // ~Pool deletes them (ASan would catch a leak or double free here).
}

// ---------------------------------------------------------------------------
// ABA regression under the deterministic scheduler.
// ---------------------------------------------------------------------------

// Two updaters hammering ONE component of Figure 3 force CAS failures --
// whose records return to the pool immediately via put_local and get
// REUSED by that process's next update -- while a scanner's collects
// interleave at every step.  If pooled reuse could resurrect a pointer a
// pinned scan still reasons about, the borrowed-view/condition-(2) logic
// or the linearizability check would trip.
TEST(PoolAbaSimTest, CasFailureRecyclingStaysLinearizable) {
  constexpr std::uint32_t kM = 2;
  std::uint64_t reused_total = 0;
  runtime::explore_random(
      [&](std::uint64_t seed) {
        auto snap = std::make_unique<core::CasPartialSnapshot>(kM, 3);
        verify::History history;
        verify::RecordingSnapshot recorded(*snap, history);

        runtime::SimScheduler::Options options;
        options.policy = runtime::SimScheduler::Policy::kRandom;
        options.seed = seed;
        runtime::SimScheduler sched(options);
        sched.add_process([&] {
          for (std::uint64_t k = 1; k <= 3; ++k) recorded.update(0, 10 + k);
        });
        sched.add_process([&] {
          for (std::uint64_t k = 1; k <= 3; ++k) recorded.update(0, 20 + k);
        });
        sched.add_process([&] {
          std::vector<std::uint64_t> out;
          recorded.scan(std::vector<std::uint32_t>{0, 1}, out);
          recorded.scan(std::vector<std::uint32_t>{0, 1}, out);
        });
        sched.run();

        verify::LinCheckOptions lin;
        lin.num_components = kM;
        auto outcome =
            verify::check_snapshot_linearizable(history.operations(), lin);
        ASSERT_EQ(outcome.result, verify::LinResult::kLinearizable)
            << outcome.diagnosis << "\nhistory:\n"
            << history.to_string();
        reused_total += snap->record_pool().reused_count();
      },
      /*runs=*/120);
  // Across 120 random schedules, contention MUST have produced CAS
  // failures whose records were recycled and reused; a zero here means the
  // pool is not actually pooling and the test lost its teeth.
  EXPECT_GT(reused_total, 0u);
}

// Long-haul churn: enough updates that records flow through full EBR
// grace periods (retire threshold 64) and recycle many times over, with a
// scanner running mid-stream.  Values are checked against the sequential
// outcome at the end; the per-operation invariants (collect bounds,
// view-coverage asserts) run throughout.
TEST(PoolAbaSimTest, GracePeriodRecyclingUnderChurn) {
  constexpr std::uint32_t kM = 2;
  constexpr std::uint64_t kUpdates = 300;
  auto snap = std::make_unique<core::CasPartialSnapshot>(kM, 3);

  runtime::SimScheduler::Options options;
  options.policy = runtime::SimScheduler::Policy::kRandom;
  options.seed = 42;
  runtime::SimScheduler sched(options);
  sched.add_process([&] {
    for (std::uint64_t k = 1; k <= kUpdates; ++k) snap->update(0, k);
  });
  sched.add_process([&] {
    for (std::uint64_t k = 1; k <= kUpdates; ++k) {
      snap->update(1, 1000 + k);
    }
  });
  std::optional<std::vector<std::uint64_t>> mid_scan;
  sched.add_process([&] {
    std::vector<std::uint64_t> out;
    for (int s = 0; s < 20; ++s) {
      snap->scan(std::vector<std::uint32_t>{0, 1}, out);
      // Scanned values never run backwards (each component's published
      // values are increasing in this scenario).
      if (mid_scan.has_value()) {
        EXPECT_GE(out[0], (*mid_scan)[0]);
        EXPECT_GE(out[1], (*mid_scan)[1]);
      }
      mid_scan = out;
    }
  });
  sched.run();

  exec::ScopedPid pid(0);
  EXPECT_EQ(snap->scan_all(),
            (std::vector<std::uint64_t>{kUpdates, 1000 + kUpdates}));
  // 600 updates against a 64-node retire threshold: grace-period recycling
  // must have fired many times.
  EXPECT_GT(snap->record_pool().reused_count(), 100u);
}

}  // namespace
}  // namespace psnap::reclaim
