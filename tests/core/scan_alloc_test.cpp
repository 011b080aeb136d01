// Steady-state scans must not touch the heap.
//
// The ScanContext refactor moved every per-operation buffer (collect
// arrays, condition-(2) tables, the canonical index set, the result view,
// and the announcement) into reusable storage.  This suite replaces the
// global operator new/delete with counting versions -- which is why it is
// its own test binary -- warms a snapshot up to its steady state, and then
// asserts that scanning performs ZERO allocations.
//
// Warm-up is what makes "steady state" precise: the first scan of a shape
// allocates its announcement IndexSet, grows the thread-local context to
// its watermark, and (for Figure 3) installs the active set's first slot
// segment.  After that, repeated scans of the same shape -- the hot path
// every bench measures -- reuse all of it.  The measured window stays
// well inside one slot segment (1024 joins) so the amortized Figure-2
// segment growth cannot fire mid-measurement.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/partial_snapshot.h"
#include "core/scan_context.h"
#include "exec/exec.h"
#include "registry/registry.h"
#include "tests/support/counting_allocator.h"

namespace psnap::core {
namespace {

using test::g_allocations;

// Runs `scans` identical scans and returns how many heap allocations they
// performed in total.
std::uint64_t allocations_during_scans(PartialSnapshot& snap,
                                       const std::vector<std::uint32_t>& idx,
                                       int scans) {
  std::vector<std::uint64_t> out;
  snap.scan(idx, out);  // make sure `out` has its capacity
  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < scans; ++i) {
    snap.scan(idx, out);
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

class ScanAllocTest : public ::testing::Test {
 protected:
  // Builds a snapshot, populates it, and warms the scan path.
  std::unique_ptr<PartialSnapshot> warmed(const char* spec) {
    auto snap = registry::make_snapshot(spec, 64, 4);
    for (std::uint32_t i = 0; i < 64; ++i) snap->update(i, 1000 + i);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 16; ++i) snap->scan(kIndices, out);
    return snap;
  }

  const std::vector<std::uint32_t> kIndices{3, 9, 17, 40};
};

TEST_F(ScanAllocTest, CasSnapshotSteadyStateScanIsAllocationFree) {
  exec::ScopedPid pid(0);
  auto snap = warmed("fig3_cas");
  // 400 scans consume 400 Figure-2 slots; with the 17 warm-up joins that
  // stays far inside the first 1024-slot segment.
  EXPECT_EQ(allocations_during_scans(*snap, kIndices, 400), 0u);
  // The scans still return real data.
  EXPECT_EQ(snap->scan({3}), (std::vector<std::uint64_t>{1003}));
}

TEST_F(ScanAllocTest, RegisterSnapshotSteadyStateScanIsAllocationFree) {
  exec::ScopedPid pid(0);
  auto snap = warmed("fig1_register");
  EXPECT_EQ(allocations_during_scans(*snap, kIndices, 400), 0u);
}

TEST_F(ScanAllocTest, BaselineSteadyStateScansAreAllocationFree) {
  exec::ScopedPid pid(0);
  for (const char* spec : {"double_collect", "seqlock", "lock"}) {
    auto snap = warmed(spec);
    EXPECT_EQ(allocations_during_scans(*snap, kIndices, 100), 0u) << spec;
  }
}

TEST_F(ScanAllocTest, ChangingTheScanShapeReusesGrownCapacity) {
  exec::ScopedPid pid(0);
  auto snap = warmed("fig3_cas");
  // A smaller subset of the warmed shape fits in every grown buffer; a
  // fresh announcement is the one allowed allocation when the set changes.
  std::vector<std::uint32_t> narrow{9, 17};
  std::vector<std::uint64_t> out;
  snap->scan(narrow, out);  // announce the new set (may allocate)
  EXPECT_EQ(allocations_during_scans(*snap, narrow, 200), 0u);
}

TEST_F(ScanAllocTest, GrowingTheObjectKeepsSteadyStateScansAllocationFree) {
  exec::ScopedPid pid(0);
  for (const char* spec : {"fig3_cas", "fig1_register"}) {
    auto snap = warmed(spec);
    // Grow past the warmed range (the grow itself may allocate: new
    // records, a segment install) and publish into the new components.
    std::uint32_t first = snap->add_components(16);
    EXPECT_EQ(first, 64u);
    EXPECT_EQ(snap->num_components(), 80u);
    for (std::uint32_t i = first; i < first + 16; ++i) {
      snap->update(i, 2000 + i);
    }
    // A scan shape straddling old and new components: the changed
    // announcement and the wider collect buffers are the one-time warm-up,
    // after which scans must be allocation-free again.
    const std::vector<std::uint32_t> straddle{3, 40, 70, 79};
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 16; ++i) snap->scan(straddle, out);
    EXPECT_EQ(allocations_during_scans(*snap, straddle, 200), 0u) << spec;
    EXPECT_EQ(snap->scan({70}), (std::vector<std::uint64_t>{2070})) << spec;
  }
}

TEST_F(ScanAllocTest, ExplicitContextIsReusableAcrossSnapshots) {
  // The context parameter is part of the public API: one context threaded
  // through scans of two different objects keeps both allocation-free
  // once warmed.
  exec::ScopedPid pid(0);
  auto a = warmed("fig3_cas");
  auto b = warmed("fig1_register");
  ScanContext ctx;
  std::vector<std::uint64_t> out;
  for (int i = 0; i < 4; ++i) {
    a->scan(kIndices, out, ctx);
    b->scan(kIndices, out, ctx);
  }
  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    a->scan(kIndices, out, ctx);
    b->scan(kIndices, out, ctx);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
}

TEST_F(ScanAllocTest, IncreasingScansNeverFillTheCanonicalCopy) {
  // A strictly increasing index set is read in place: the context's
  // canonical copy is only for unsorted or repeating sets.
  exec::ScopedPid pid(0);
  for (const char* spec : {"fig3_cas", "fig1_register", "double_collect"}) {
    auto snap = warmed(spec);
    ScanContext ctx;
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 8; ++i) snap->scan(kIndices, out, ctx);
    snap->scan(std::vector<std::uint32_t>{5, 6, 63}, out, ctx);
    EXPECT_EQ(ctx.canonical.capacity(), 0u) << spec;
    EXPECT_EQ(out, (std::vector<std::uint64_t>{1005, 1006, 1063})) << spec;
    snap->scan(std::vector<std::uint32_t>{6, 5, 5}, out, ctx);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{1006, 1005, 1005})) << spec;
    EXPECT_GT(ctx.canonical.capacity(), 0u) << spec;
  }
}

TEST_F(ScanAllocTest, BlobPlaneUpdatesBetweenScansAreAllocationFree) {
  // An update with no scanner embeds a scan of no components.  The pid's
  // scan scratch -- on the blob plane, one byte buffer per view entry --
  // must survive it, or the next scan allocates a buffer per component.
  exec::ScopedPid pid(0);
  std::vector<std::uint32_t> wide(37);
  std::iota(wide.begin(), wide.end(), 20u);
  for (const char* spec :
       {"fig1_register:value=blob", "fig1_register_fast:value=blob",
        "fig3_cas:value=blob", "fig3_cas_fast:value=blob"}) {
    auto snap = registry::make_snapshot(spec, 64, 4);
    std::vector<std::uint64_t> out;
    auto round = [&](int k) {
      snap->update(static_cast<std::uint32_t>(k % 64), 3000 + k);
      snap->scan(wide, out);
    };
    for (int k = 0; k < 300; ++k) round(k);
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int k = 300; k < 600; ++k) round(k);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
        << spec;
    EXPECT_EQ(out.size(), wide.size()) << spec;
  }
}

TEST(ScanArenaTest, ReusesBlocksAcrossResets) {
  ScanArena arena;
  auto first = arena.take<std::uint64_t>(100);
  first[0] = 7;
  std::size_t watermark = arena.allocated_bytes();
  EXPECT_GT(watermark, 0u);
  for (int round = 0; round < 50; ++round) {
    arena.reset();
    auto span = arena.take<std::uint64_t>(100);
    // Zero-filled every time, same capacity.
    EXPECT_EQ(span[0], 0u);
    span[0] = 9;
    EXPECT_EQ(arena.allocated_bytes(), watermark);
  }
}

TEST(ScanArenaTest, GrowingTakesKeepEarlierSpansValid) {
  ScanArena arena;
  auto small = arena.take<std::uint32_t>(4);
  small[0] = 42;
  // Force additional blocks; the first span must stay intact (chunked
  // arena, no realloc).
  for (int i = 0; i < 8; ++i) {
    auto big = arena.take<std::uint64_t>(4096);
    big[0] = 1;
  }
  EXPECT_EQ(small[0], 42u);
}

}  // namespace
}  // namespace psnap::core
