// Steady-state updates must not touch the heap.
//
// PR 1 made the scan path allocation-free (scan_alloc_test.cpp); this
// suite closes the other half of the operation surface.  An update used to
// pay one allocation for its Record, one for the record's embedded view
// vector, and -- through EBR -- one deallocation per replaced record.  The
// reclaim::Pool free lists recycle retired Records (and announcement
// IndexSets) with their vector capacity intact, so after warm-up an update
// performs ZERO heap allocations: the record comes from the pool, its view
// is a capacity-reusing copy, and the replaced record goes back to the
// pool after its grace period.
//
// Like scan_alloc_test this is its own binary: it replaces the global
// operator new/delete with the shared counting versions.
//
// Warm-up is what makes "steady state" precise: the pool only starts
// serving once retired records have flowed through an EBR grace period
// (retire threshold 64, two epoch generations), and every reusable buffer
// (retired lists, free lists, ScanContext scratch, view capacity) must
// reach its watermark.  A couple thousand operations covers all of it.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/cas_psnap.h"
#include "core/op_stats.h"
#include "core/partial_snapshot.h"
#include "core/register_psnap.h"
#include "exec/exec.h"
#include "registry/registry.h"
#include "tests/support/counting_allocator.h"
#include "tests/support/registry_params.h"

namespace psnap::core {
namespace {

using test::g_allocations;

constexpr std::uint32_t kM = 64;
constexpr std::uint32_t kN = 4;

// Runs `updates` round-robin updates and returns how many heap allocations
// they performed in total.
std::uint64_t allocations_during_updates(PartialSnapshot& snap,
                                         int updates) {
  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int k = 0; k < updates; ++k) {
    snap.update(static_cast<std::uint32_t>(k % kM), 5000 + k);
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// Drives updates (and a few scans, so announcement machinery is live) far
// past every warm-up watermark: pool fill, EBR retired-list capacity,
// ScanContext scratch, per-record view capacity.
void warm_up(PartialSnapshot& snap) {
  std::vector<std::uint64_t> out;
  const std::vector<std::uint32_t> idx{3, 9, 17, 40};
  for (int round = 0; round < 8; ++round) {
    for (std::uint32_t i = 0; i < kM; ++i) snap.update(i, 1000 + i);
    snap.scan(idx, out);
  }
  // End on a long pure-update run: the first getSet after the scans'
  // join/leave churn publishes the vacated slots (Figure 3 only; the
  // skip-list node comes from the active set's pool, which allocates only
  // while it warms up), after which updates are steady-state.
  for (int k = 0; k < 512; ++k) {
    snap.update(static_cast<std::uint32_t>(k % kM), 2000 + k);
  }
}

// Every wait-free implementation -- both runtimes -- must reach an
// allocation-free update steady state.
class UpdateAllocTest
    : public ::testing::TestWithParam<registry::SnapshotVariant> {};

TEST_P(UpdateAllocTest, SteadyStateUpdatesAreAllocationFree) {
  exec::ScopedPid pid(0);
  auto snap = test::make_snapshot(GetParam(), kM, kN);
  warm_up(*snap);
  EXPECT_EQ(allocations_during_updates(*snap, 512), 0u);
  // The updates still publish real data.
  EXPECT_EQ(snap->scan({static_cast<std::uint32_t>(511 % kM)}),
            (std::vector<std::uint64_t>{5000 + 511}));
}

INSTANTIATE_TEST_SUITE_P(
    WaitFreeImplementations, UpdateAllocTest,
    ::testing::ValuesIn(test::snapshot_impls(
        [](const registry::SnapshotVariant& v) { return v.is_wait_free; })),
    test::snapshot_param_name);

// The helping path: with a scanner announced AND active, every update's
// getSet returns it and the embedded scan collects the announced set.
// That whole machinery -- getSet, announcement reads, union building,
// collect buffers, the record's non-empty view -- must also be
// allocation-free in steady state.  Driven through the concrete types
// because joining without scanning needs the active-set accessor.
template <class Snap>
void run_helping_update_test(Snap& snap) {
  {
    // A scan under pid 1 announces {3, 9, 17, 40}; the manual join keeps
    // pid 1 in the active set afterwards, like a scanner parked mid-scan.
    exec::ScopedPid scanner(1);
    std::vector<std::uint64_t> out;
    snap.scan(std::vector<std::uint32_t>{3, 9, 17, 40}, out);
    snap.active_set().join();
  }
  {
    exec::ScopedPid updater(0);
    warm_up(snap);
    EXPECT_EQ(allocations_during_updates(snap, 512), 0u);
    EXPECT_GT(tls_op_stats().getset_size, 0u)
        << "helping path was not exercised";
  }
  {
    exec::ScopedPid scanner(1);
    snap.active_set().leave();
  }
}

TEST(UpdateAllocHelpingTest, CasSnapshotHelpingUpdatesAreAllocationFree) {
  CasPartialSnapshot snap(kM, kN);
  run_helping_update_test(snap);
}

TEST(UpdateAllocHelpingTest,
     CasSnapshotFastHelpingUpdatesAreAllocationFree) {
  CasPartialSnapshotFast snap(kM, kN);
  run_helping_update_test(snap);
}

// The hazard-pointer plane's helping path: hazard publications, the
// validated announcement loop, and protected collects must all reach the
// same allocation-free steady state (retired lists and the per-slot scan
// scratch warm up like EBR's).
TEST(UpdateAllocHelpingTest, CasSnapshotHpHelpingUpdatesAreAllocationFree) {
  CasSnapshotOptions options;
  options.use_hp = true;
  CasPartialSnapshot snap(kM, kN, options);
  run_helping_update_test(snap);
}

TEST(UpdateAllocHelpingTest,
     CasSnapshotShardedHelpingUpdatesAreAllocationFree) {
  CasSnapshotOptions options;
  options.reclaim_shards = 4;
  CasPartialSnapshot snap(kM, kN, options);
  run_helping_update_test(snap);
}

TEST(UpdateAllocHelpingTest,
     RegisterSnapshotHelpingUpdatesAreAllocationFree) {
  RegisterPartialSnapshot snap(kM, kN);
  run_helping_update_test(snap);
}

TEST(UpdateAllocHelpingTest,
     RegisterSnapshotFastHelpingUpdatesAreAllocationFree) {
  RegisterPartialSnapshotFast snap(kM, kN);
  run_helping_update_test(snap);
}

// Growth: after add_components, updates across the enlarged range must
// return to the allocation-free steady state (the grow itself and the
// first lap over the new components are the one-time warm-up: fresh
// initial records, a possible segment install, first retirements flowing
// through the grace period into the pool).
TEST(UpdateAllocTestExtras, GrowthKeepsSteadyStateUpdatesAllocationFree) {
  exec::ScopedPid pid(0);
  for (const char* spec :
       {"fig3_cas", "fig1_register", "fig3_cas_fast", "fig1_register_fast",
        "full_snapshot", "fig3_cas:reclaim=hp", "fig3_cas:shards=4"}) {
    auto snap = registry::make_snapshot(spec, kM, kN);
    warm_up(*snap);
    std::uint32_t first = snap->add_components(16);
    EXPECT_EQ(first, kM) << spec;
    const std::uint32_t grown = kM + 16;
    // Re-warm over the full grown range: the full-snapshot baseline's
    // views are larger now, so its pooled records must regrow their
    // capacity once; the local algorithms' records are shape-independent.
    for (int k = 0; k < 1024; ++k) {
      snap->update(static_cast<std::uint32_t>(k % grown), 3000 + k);
    }
    std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int k = 0; k < 512; ++k) {
      snap->update(static_cast<std::uint32_t>(k % grown), 5000 + k);
    }
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
        << spec;
    EXPECT_EQ(snap->scan({static_cast<std::uint32_t>(511 % grown)}),
              (std::vector<std::uint64_t>{5000 + 511}))
        << spec;
  }
}

// Announcement pooling: scans that keep CHANGING shape used to allocate a
// fresh IndexSet on every re-announcement.  With the announce pool, the
// retired announcements recycle and alternating between shapes reaches an
// allocation-free steady state too.
TEST(UpdateAllocTestExtras, AlternatingScanShapesAreAllocationFree) {
  exec::ScopedPid pid(0);
  for (const char* spec :
       {"fig3_cas", "fig1_register", "fig3_cas_fast", "fig1_register_fast",
        "fig3_cas:reclaim=hp", "fig3_cas:shards=4"}) {
    auto snap = registry::make_snapshot(spec, kM, kN);
    const std::vector<std::uint32_t> a{3, 9, 17, 40};
    const std::vector<std::uint32_t> b{5, 21};
    std::vector<std::uint64_t> out;
    for (std::uint32_t i = 0; i < kM; ++i) snap->update(i, 1000 + i);
    // Warm-up: several hundred announcement round-trips flow through the
    // EBR grace period into the announce pool.  The total join count (900
    // scans) stays inside the Figure-2 slot array's first 1024-slot
    // segment, so its amortized growth cannot fire mid-measurement (same
    // budgeting as scan_alloc_test).
    for (int k = 0; k < 300; ++k) {
      snap->scan(a, out);
      snap->scan(b, out);
    }
    std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int k = 0; k < 150; ++k) {
      snap->scan(a, out);
      snap->scan(b, out);
    }
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
        << spec;
  }
}

// Figure 3 under scanner churn: every scan joins and leaves the Figure 2
// active set, so every update's getSet finds a freshly vacated slot and
// publishes a new skip list.  That list is built in place in a node
// recycled through the active set's pool, so once the pool is warm (past
// two EBR grace periods) scan+update rounds allocate nothing either.  The
// shape stays stable: every join lands inside the first 1024-slot segment.
template <class Snap>
void run_scan_churn_update_test(Snap& snap) {
  exec::ScopedPid pid(0);
  std::vector<std::uint64_t> out;
  const std::vector<std::uint32_t> idx{3, 9, 17, 40};
  int k = 0;
  auto round = [&] {
    snap.scan(idx, out);
    snap.update(static_cast<std::uint32_t>(k % kM), 7000 + k);
    ++k;
  };
  for (int i = 0; i < 300; ++i) round();
  constexpr int kRounds = 400;
  std::uint64_t publications = snap.active_set().skip_list_publications();
  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kRounds; ++i) round();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(snap.active_set().skip_list_publications() - publications,
            std::uint64_t{kRounds});
  EXPECT_LT(snap.active_set().slots_used(), 1024u);
}

TEST(UpdateAllocScanChurnTest, CasSnapshotChurnUpdatesAreAllocationFree) {
  CasPartialSnapshot snap(kM, kN);
  run_scan_churn_update_test(snap);
}

TEST(UpdateAllocScanChurnTest,
     CasSnapshotFastChurnUpdatesAreAllocationFree) {
  CasPartialSnapshotFast snap(kM, kN);
  run_scan_churn_update_test(snap);
}

}  // namespace
}  // namespace psnap::core
