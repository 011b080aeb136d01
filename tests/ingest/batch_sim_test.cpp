// Batched updates: semantics, atomicity tier, and crash safety.
//
// update_batch applies k component writes as one protocol instance
// (core/partial_snapshot.h).  What a concurrent scan may observe is the
// implementation's batch_atomicity() tier, and this suite is the oracle:
//
//   * kAtomic     -- no schedule may show a scan SOME of a batch's writes
//                    without the others (a "torn batch");
//   * kAmortized  -- entries linearize individually in argument order, so
//                    a scan may see a prefix of a batch, but never a value
//                    that was not written.
//
// The writer publishes batches that set every probed component to the
// same value, so a torn batch is directly visible as a mixed-value scan.
// Crash sweeps halt a writer at every step of its update_batch: survivors
// must complete (helpers finish or ignore the orphaned batch), the
// atomicity tier must still hold, and destruction must free the orphaned
// descriptor and its never-installed records (the ASan job proves the
// sweep leak-free).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/op_stats.h"
#include "core/partial_snapshot.h"
#include "exec/exec.h"
#include "registry/registry.h"
#include "runtime/explore.h"
#include "runtime/sim_scheduler.h"
#include "tests/support/registry_params.h"

namespace psnap::ingest {
namespace {

using core::BatchAtomicity;
using runtime::ExploreOptions;
using runtime::SimScheduler;

std::vector<registry::SnapshotVariant> sim_batch_impls() {
  return test::snapshot_impls([](const registry::SnapshotVariant& variant) {
    return variant.sim_safe && variant.supports_batch;
  });
}

std::vector<registry::SnapshotVariant> all_batch_impls() {
  return test::snapshot_impls([](const registry::SnapshotVariant& variant) {
    return variant.supports_batch;
  });
}

// ---------------------------------------------------------------------------
// Sequential contract (every batch-capable implementation, including the
// non-sim-safe lock/seqlock baselines).
// ---------------------------------------------------------------------------

class BatchContractTest
    : public ::testing::TestWithParam<registry::SnapshotVariant> {};

TEST_P(BatchContractTest, BatchWritesLandAndEmptyBatchIsNoOp) {
  exec::ScopedPid pid(0);
  auto snap = test::make_snapshot(GetParam(), 4, 2);
  ASSERT_NE(snap->batch_atomicity(), BatchAtomicity::kUnsupported);
  snap->update_batch({{0, 10}, {2, 30}, {3, 40}});
  EXPECT_EQ(snap->scan({0, 1, 2, 3}),
            (std::vector<std::uint64_t>{10, 0, 30, 40}));
  snap->update_batch(std::span<const core::BatchEntry>{});
  EXPECT_EQ(snap->scan({0, 1, 2, 3}),
            (std::vector<std::uint64_t>{10, 0, 30, 40}));
}

TEST_P(BatchContractTest, DuplicateIndicesCoalesceLastWins) {
  exec::ScopedPid pid(0);
  auto snap = test::make_snapshot(GetParam(), 4, 2);
  snap->update_batch({{1, 5}, {3, 6}, {1, 7}, {1, 8}});
  // batch_size reports DISTINCT components after coalescing.  Read it
  // before the scan below resets the thread's op stats.
  const std::uint32_t merged = core::tls_op_stats().batch_size;
  EXPECT_EQ(snap->scan({1, 3}), (std::vector<std::uint64_t>{8, 6}));
  if (GetParam().counts_steps) {
    EXPECT_EQ(merged, 2u);
  }
}

TEST_P(BatchContractTest, BatchReachesGrownComponents) {
  exec::ScopedPid pid(0);
  auto snap = test::make_snapshot(GetParam(), 2, 2);
  std::uint32_t first = snap->add_components(2);
  snap->update_batch({{first, 1}, {first + 1, 2}, {0, 3}});
  EXPECT_EQ(snap->scan({0, first, first + 1}),
            (std::vector<std::uint64_t>{3, 1, 2}));
}

INSTANTIATE_TEST_SUITE_P(BatchCapableImpls, BatchContractTest,
                         ::testing::ValuesIn(all_batch_impls()),
                         test::snapshot_param_name);

TEST(BatchContract, UnsupportedImplementationsThrow) {
  exec::ScopedPid pid(0);
  auto snap = registry::make_snapshot("fig1_register", 4, 2);
  EXPECT_EQ(snap->batch_atomicity(), BatchAtomicity::kUnsupported);
  EXPECT_THROW(snap->update_batch({{0, 1}}), std::logic_error);
  std::vector<core::BlobBatchEntry> blobs;
  EXPECT_THROW(
      snap->update_batch_blob(std::span<const core::BlobBatchEntry>(blobs)),
      std::logic_error);
}

// ---------------------------------------------------------------------------
// The atomicity oracle under explored schedules.
// ---------------------------------------------------------------------------

// The writer runs batch g setting ALL of components {0,1} to g, for
// g = 1, 2.  Under kAtomic the only observable states are (0,0), (1,1),
// (2,2); under kAmortized entries apply in order, so the prefix states
// (1,0) and (2,1) join the set.  Anything else is a bug regardless of
// tier.
void expect_batch_consistent(const std::vector<std::uint64_t>& out,
                             BatchAtomicity tier, const std::string& name) {
  ASSERT_EQ(out.size(), 2u);
  const bool uniform = out[0] == out[1] && out[0] <= 2;
  const bool prefix =
      (out[0] == 1 && out[1] == 0) || (out[0] == 2 && out[1] == 1);
  if (tier == BatchAtomicity::kAtomic) {
    EXPECT_TRUE(uniform) << name << " tore a batch: saw (" << out[0] << ", "
                         << out[1] << ")";
  } else {
    EXPECT_TRUE(uniform || prefix)
        << name << " saw impossible state (" << out[0] << ", " << out[1]
        << ")";
  }
}

class BatchAtomicityTest
    : public ::testing::TestWithParam<registry::SnapshotVariant> {};

TEST_P(BatchAtomicityTest, ScansNeverObserveTornBatchesDfs) {
  auto stats = runtime::explore_dfs(
      [&](const std::vector<std::uint32_t>& script) {
        auto snap = test::make_snapshot(GetParam(), 2, 2);
        const BatchAtomicity tier = snap->batch_atomicity();

        SimScheduler::Options options;
        options.script = script;
        SimScheduler sched(options);
        sched.add_process([&] {
          snap->update_batch({{0, 1}, {1, 1}});
          snap->update_batch({{0, 2}, {1, 2}});
        });
        sched.add_process([&] {
          std::vector<std::uint64_t> out;
          snap->scan(std::vector<std::uint32_t>{0, 1}, out);
          expect_batch_consistent(out, tier, GetParam().name);
        });
        return sched.run();
      },
      ExploreOptions{.max_schedules = 600});
  EXPECT_TRUE(stats.exhausted || stats.schedules_run >= 100u);
}

TEST_P(BatchAtomicityTest, ConcurrentBatchesFromTwoWritersStayWhole) {
  runtime::explore_random(
      [&](std::uint64_t seed) {
        auto snap = test::make_snapshot(GetParam(), 2, 3);
        const BatchAtomicity tier = snap->batch_atomicity();

        SimScheduler::Options options;
        options.policy = SimScheduler::Policy::kRandom;
        options.seed = seed;
        SimScheduler sched(options);
        // Both writers write BOTH components, so under kAtomic every scan
        // still sees a uniform pair no matter how the batches interleave.
        sched.add_process([&] { snap->update_batch({{0, 1}, {1, 1}}); });
        sched.add_process([&] { snap->update_batch({{0, 2}, {1, 2}}); });
        sched.add_process([&] {
          std::vector<std::uint64_t> out;
          for (int s = 0; s < 2; ++s) {
            snap->scan(std::vector<std::uint32_t>{0, 1}, out);
            ASSERT_EQ(out.size(), 2u);
            EXPECT_LE(out[0], 2u) << GetParam().name;
            EXPECT_LE(out[1], 2u) << GetParam().name;
            if (tier == BatchAtomicity::kAtomic) {
              EXPECT_EQ(out[0], out[1])
                  << GetParam().name << " tore a batch";
            }
          }
        });
        sched.run();
      },
      /*runs=*/80);
}

INSTANTIATE_TEST_SUITE_P(SimSafeImpls, BatchAtomicityTest,
                         ::testing::ValuesIn(sim_batch_impls()),
                         test::snapshot_param_name);

// ---------------------------------------------------------------------------
// Crash sweeps: a writer halts at every step of its update_batch.
// ---------------------------------------------------------------------------

class BatchCrashTest
    : public ::testing::TestWithParam<registry::SnapshotVariant> {};

// The survivor must keep scanning and batching; its scans must still
// respect the atomicity tier (a crashed kAtomic batch is all-or-nothing:
// helpers either complete it or never see it); and destroying the
// snapshot right after must reclaim the orphaned descriptor and its
// never-installed records -- the unwind returns unpublished pool nodes
// immediately, the destructor sweep frees what the halt stranded (the
// ASan preset runs this binary, so a leak fails CI).
TEST_P(BatchCrashTest, CrashMidBatchNeverTearsAndNeverLeaks) {
  for (std::uint64_t crash_step = 1; crash_step <= 30; ++crash_step) {
    auto snap = test::make_snapshot(GetParam(), 2, 2);
    const BatchAtomicity tier = snap->batch_atomicity();
    bool survivor_finished = false;

    SimScheduler::Options options;
    options.crashes = {{0, crash_step}};
    SimScheduler sched(options);
    sched.add_process([&] { snap->update_batch({{0, 7}, {1, 7}}); });
    sched.add_process([&] {
      std::vector<std::uint64_t> out;
      auto check = [&] {
        ASSERT_EQ(out.size(), 2u);
        for (std::uint64_t v : out) {
          EXPECT_TRUE(v == 0 || v == 7 || v == 9)
              << GetParam().name << " invented value " << v;
        }
        if (tier == BatchAtomicity::kAtomic && out[0] != 9 && out[1] != 9) {
          EXPECT_EQ(out[0], out[1])
              << GetParam().name << " tore the crashed batch";
        }
      };
      // First scan may race or help the dying batch.
      snap->scan(std::vector<std::uint32_t>{0, 1}, out);
      check();
      // The survivor's own batch must complete despite the orphan.
      snap->update_batch({{0, 9}, {1, 9}});
      snap->scan(std::vector<std::uint32_t>{0, 1}, out);
      check();
      survivor_finished = true;
    });
    sched.run();

    ASSERT_TRUE(survivor_finished)
        << GetParam().name << " crash at step " << crash_step;
  }
}

INSTANTIATE_TEST_SUITE_P(SimSafeImpls, BatchCrashTest,
                         ::testing::ValuesIn(sim_batch_impls()),
                         test::snapshot_param_name);

}  // namespace
}  // namespace psnap::ingest
