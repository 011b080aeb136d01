// Batched updates must amortize, not just aggregate: one announcement,
// one helping round, and ZERO steady-state heap allocations per batch.
//
// Three oracles pin the tentpole's cost model down:
//
//   * allocation: after warm-up, an update_batch of k entries performs no
//     heap allocations on any plane -- records and batch descriptors come
//     from the reclaim::Pool free lists, the duplicate-merge scratch from
//     the ScanContext arena, and retired nodes recycle;
//   * helping round: on the collect planes the batch performs exactly ONE
//     embedded scan (OpStats::collects equals a singleton update's),
//     where k singletons would perform k;
//   * steps: with a scanner parked (helping live), a k=16 batch costs
//     less than half the base-object steps of 16 singleton updates --
//     the announcement/getSet/embedded-scan cost amortizes, only the k
//     publishes scale.
//
// Own binary: replaces global operator new/delete with the counting
// versions (tests/support/counting_allocator.h).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baseline/full_snapshot.h"
#include "core/cas_psnap.h"
#include "core/op_stats.h"
#include "core/partial_snapshot.h"
#include "exec/exec.h"
#include "registry/registry.h"
#include "tests/support/counting_allocator.h"
#include "tests/support/registry_params.h"

namespace psnap::ingest {
namespace {

using core::tls_op_stats;
using test::g_allocations;

constexpr std::uint32_t kM = 64;
constexpr std::uint32_t kN = 4;
constexpr std::uint32_t kK = 8;  // batch width for the allocation oracle

std::vector<core::BatchEntry> make_batch(std::uint32_t k, int round) {
  std::vector<core::BatchEntry> entries;
  entries.reserve(k);
  for (std::uint32_t j = 0; j < k; ++j) {
    entries.push_back({(static_cast<std::uint32_t>(round) + j * 7) % kM,
                       4000 + static_cast<std::uint64_t>(round) + j});
  }
  return entries;
}

// Past every warm-up watermark: pool fill (records AND batch
// descriptors), EBR retired-list capacity, ScanContext scratch, view
// capacity -- via singletons, batches, and scans.
void warm_up(core::PartialSnapshot& snap) {
  std::vector<std::uint64_t> out;
  const std::vector<std::uint32_t> idx{3, 9, 17, 40};
  for (int round = 0; round < 8; ++round) {
    for (std::uint32_t i = 0; i < kM; ++i) snap.update(i, 1000 + i);
    snap.scan(idx, out);
  }
  for (int round = 0; round < 256; ++round) {
    auto entries = make_batch(kK, round);
    snap.update_batch(
        std::span<const core::BatchEntry>(entries.data(), entries.size()));
  }
}

// Every batch-capable implementation except the double-collect baseline,
// which deliberately heap-allocates its plain records on every update
// (it predates pooling and stays that way as the unpooled contrast).
std::vector<registry::SnapshotVariant> pooled_batch_impls() {
  return test::snapshot_impls([](const registry::SnapshotVariant& variant) {
    return variant.supports_batch && variant.entry != "double_collect";
  });
}

class BatchAllocTest
    : public ::testing::TestWithParam<registry::SnapshotVariant> {};

TEST_P(BatchAllocTest, SteadyStateBatchesAreAllocationFree) {
  exec::ScopedPid pid(0);
  auto snap = test::make_snapshot(GetParam(), kM, kN);
  warm_up(*snap);
  // Pre-built entry spans: the measurement covers the snapshot, not the
  // harness's argument vectors.
  std::vector<std::vector<core::BatchEntry>> batches;
  for (int round = 0; round < 256; ++round) {
    batches.push_back(make_batch(kK, round));
  }
  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (const auto& entries : batches) {
    snap->update_batch(
        std::span<const core::BatchEntry>(entries.data(), entries.size()));
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
      << GetParam().name;
  // The batches still publish real data.
  const core::BatchEntry last = batches.back().back();
  EXPECT_EQ(snap->scan({last.index}),
            (std::vector<std::uint64_t>{last.value}));
}

INSTANTIATE_TEST_SUITE_P(PooledBatchImpls, BatchAllocTest,
                         ::testing::ValuesIn(pooled_batch_impls()),
                         test::snapshot_param_name);

// The helping path: with a scanner announced and parked in the active
// set, every batch's getSet returns it and the embedded scan runs over
// the announced set -- and the whole machinery must still be
// allocation-free, once per batch.
template <class Snap>
void run_helping_batch_test(Snap& snap) {
  {
    exec::ScopedPid scanner(1);
    std::vector<std::uint64_t> out;
    snap.scan(std::vector<std::uint32_t>{3, 9, 17, 40}, out);
    snap.active_set().join();
  }
  {
    exec::ScopedPid updater(0);
    warm_up(snap);
    std::vector<std::vector<core::BatchEntry>> batches;
    for (int round = 0; round < 128; ++round) {
      batches.push_back(make_batch(kK, round));
    }
    std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (const auto& entries : batches) {
      snap.update_batch(
          std::span<const core::BatchEntry>(entries.data(), entries.size()));
    }
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
    EXPECT_GT(tls_op_stats().getset_size, 0u)
        << "helping path was not exercised";
    EXPECT_EQ(tls_op_stats().batch_size, kK);
  }
  {
    exec::ScopedPid scanner(1);
    snap.active_set().leave();
  }
}

TEST(BatchAllocHelpingTest, CasSnapshotHelpingBatchesAreAllocationFree) {
  core::CasPartialSnapshot snap(kM, kN);
  run_helping_batch_test(snap);
}

TEST(BatchAllocHelpingTest, CasSnapshotFastHelpingBatchesAreAllocationFree) {
  core::CasPartialSnapshotFast snap(kM, kN);
  run_helping_batch_test(snap);
}

// ---------------------------------------------------------------------------
// Amortization: one helping round, sublinear steps.
// ---------------------------------------------------------------------------

std::vector<core::BatchEntry> distinct_batch(std::uint32_t k) {
  std::vector<core::BatchEntry> entries;
  for (std::uint32_t j = 0; j < k; ++j) entries.push_back({j, 7000 + j});
  return entries;
}

// Figure 3 with a parked scanner: 16 singleton updates perform 16
// getSet + embedded-scan rounds; one 16-entry batch performs ONE.  The
// batch must cost less than half the steps.
TEST(BatchAmortization, Fig3BatchHalvesStepsUnderHelping) {
  core::CasPartialSnapshot snap(kM, kN);
  {
    exec::ScopedPid scanner(1);
    std::vector<std::uint64_t> out;
    snap.scan(std::vector<std::uint32_t>{3, 9, 17, 40}, out);
    snap.active_set().join();
  }
  {
    exec::ScopedPid updater(0);
    warm_up(snap);
    auto entries = distinct_batch(16);

    std::uint64_t t0 = exec::ctx().steps.total;
    for (const core::BatchEntry& e : entries) snap.update(e.index, e.value);
    std::uint64_t singleton_steps = exec::ctx().steps.total - t0;
    std::uint64_t single_collects = tls_op_stats().collects;
    ASSERT_GT(tls_op_stats().getset_size, 0u);

    std::uint64_t t1 = exec::ctx().steps.total;
    snap.update_batch(
        std::span<const core::BatchEntry>(entries.data(), entries.size()));
    std::uint64_t batch_steps = exec::ctx().steps.total - t1;

    EXPECT_LT(batch_steps * 2, singleton_steps)
        << "batch=" << batch_steps << " singletons=" << singleton_steps;
    // One helping round: the batch's embedded scan collected no more than
    // the last singleton's did.
    EXPECT_LE(tls_op_stats().collects, single_collects);
    EXPECT_EQ(tls_op_stats().batch_size, 16u);
  }
  exec::ScopedPid scanner(1);
  snap.active_set().leave();
}

// The complete-scan baseline: a singleton update pays a full Theta(m)
// embedded scan; a k-entry batch pays exactly one.
TEST(BatchAmortization, FullSnapshotBatchRunsOneEmbeddedScan) {
  baseline::FullSnapshot snap(kM, kN);
  exec::ScopedPid pid(0);
  warm_up(snap);

  snap.update(0, 1);
  std::uint64_t single_collects = tls_op_stats().collects;
  ASSERT_GT(single_collects, 0u);

  auto entries = distinct_batch(16);
  std::uint64_t t0 = exec::ctx().steps.total;
  for (const core::BatchEntry& e : entries) snap.update(e.index, e.value);
  std::uint64_t singleton_steps = exec::ctx().steps.total - t0;

  std::uint64_t t1 = exec::ctx().steps.total;
  snap.update_batch(
      std::span<const core::BatchEntry>(entries.data(), entries.size()));
  std::uint64_t batch_steps = exec::ctx().steps.total - t1;

  // Exactly one embedded scan's worth of collecting for the whole batch.
  EXPECT_EQ(tls_op_stats().collects, single_collects);
  EXPECT_LT(batch_steps * 2, singleton_steps)
      << "batch=" << batch_steps << " singletons=" << singleton_steps;
}

// Versioned plane: the batch resolves ONE shared stamp for all members
// (stats.epoch reports it), and stays allocation-free -- descriptors are
// pooled like records.
TEST(BatchAmortization, VersionedBatchSharesOneStamp) {
  exec::ScopedPid pid(0);
  auto snap = registry::make_snapshot("fig3_cas:value=versioned", kM, kN);
  warm_up(*snap);

  auto entries = distinct_batch(16);
  snap->update_batch(
      std::span<const core::BatchEntry>(entries.data(), entries.size()));
  std::uint64_t stamp = tls_op_stats().epoch;
  EXPECT_GT(stamp, 0u);
  EXPECT_EQ(tls_op_stats().batch_size, 16u);

  // A scan at an epoch at or past the stamp sees the WHOLE batch (the
  // all-or-nothing face of the shared stamp).
  std::vector<std::uint64_t> out;
  std::vector<std::uint32_t> idx;
  for (const core::BatchEntry& e : entries) idx.push_back(e.index);
  std::uint64_t epoch = snap->scan_versioned(idx, out);
  EXPECT_GE(epoch, stamp);
  for (std::uint32_t j = 0; j < 16; ++j) {
    EXPECT_EQ(out[j], entries[j].value);
  }
}

}  // namespace
}  // namespace psnap::ingest
