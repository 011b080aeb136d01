// Baseline-specific behaviours: starvation caps, seqlock writer mutual
// exclusion, full-snapshot helping and its collect bound under batches.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "baseline/double_collect.h"
#include "baseline/full_snapshot.h"
#include "baseline/lock_snapshot.h"
#include "baseline/seqlock_snapshot.h"
#include "core/op_stats.h"
#include "runtime/explore.h"
#include "runtime/sim_scheduler.h"
#include "exec/exec.h"
#include "verify/fuzz/oracles.h"
#include "verify/lin_checker.h"
#include "verify/recording.h"

namespace psnap::baseline {
namespace {

TEST(DoubleCollect, UncontendedScanIsTwoCollects) {
  DoubleCollectSnapshot snap(8, 2);
  exec::ScopedPid pid(0);
  std::vector<std::uint64_t> out;
  snap.scan(std::vector<std::uint32_t>{0, 1}, out);
  EXPECT_EQ(core::tls_op_stats().collects, 2u);
}

TEST(DoubleCollect, StarvationCapThrows) {
  // With a cap of 1 collect, any scan must starve (two identical collects
  // are impossible within one).
  DoubleCollectSnapshot snap(4, 2, /*max_collects_per_scan=*/1);
  exec::ScopedPid pid(0);
  std::vector<std::uint64_t> out;
  EXPECT_THROW(snap.scan(std::vector<std::uint32_t>{0}, out),
               StarvationError);
}

TEST(DoubleCollect, StarvationUnderContendedSchedules) {
  // A scanner with a minimal collect cap racing a fast updater must starve
  // at least occasionally -- this is the non-wait-freedom the paper's
  // helping mechanism eliminates (ABL-2 measures the rate).  Cap 2 means
  // "succeed only if the very first double collect is clean".  Driven
  // under the deterministic scheduler biased toward the updater (instead
  // of native threads) so the adversarial interleaving is produced on any
  // host, including single-core CI runners where OS threads rarely
  // preempt mid-scan.
  std::atomic<std::uint64_t> starved{0};
  runtime::explore_random(
      [&](std::uint64_t seed) {
        DoubleCollectSnapshot snap(2, 2, /*max_collects_per_scan=*/2);
        runtime::SimScheduler::Options options;
        options.policy = runtime::SimScheduler::Policy::kRandomBiased;
        options.bias_pid = 0;
        options.bias_probability = 0.85;
        options.seed = seed;
        runtime::SimScheduler sched(options);
        sched.add_process([&] {
          for (std::uint64_t k = 1; k <= 10; ++k) snap.update(0, k);
        });
        sched.add_process([&] {
          std::vector<std::uint64_t> out;
          try {
            snap.scan(std::vector<std::uint32_t>{0, 1}, out);
          } catch (const StarvationError&) {
            starved.fetch_add(1);
          }
        });
        sched.run();
      },
      /*runs=*/100);
  EXPECT_GT(starved.load(), 0u);
}

TEST(DoubleCollect, NoCapNeverThrows) {
  DoubleCollectSnapshot snap(2, 2);  // cap 0 = unlimited
  exec::ScopedPid pid(0);
  std::vector<std::uint64_t> out;
  for (int i = 0; i < 100; ++i) {
    snap.update(0, std::uint64_t(i));
    snap.scan(std::vector<std::uint32_t>{0, 1}, out);
    EXPECT_EQ(out[0], std::uint64_t(i));
  }
}

TEST(Seqlock, WritersAreMutuallyExclusive) {
  // Each writer batches the pair {0: v, 1: v} with values no other writer
  // uses.  A writer that entered another's critical section would leave a
  // mixed pair, which a concurrent scan or the final scan would return.
  SeqlockSnapshot snap(4);
  constexpr std::uint32_t kWriters = 4;
  constexpr std::uint64_t kWritesEach = 20000;
  std::atomic<std::uint32_t> finished{0};
  std::atomic<std::uint64_t> scans{0};
  std::atomic<std::uint64_t> mixed{0};
  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&snap, &finished, w] {
      exec::ScopedPid pid(w);
      for (std::uint64_t k = 1; k <= kWritesEach; ++k) {
        const std::uint64_t v = w * kWritesEach + k;
        const core::BatchEntry pair[] = {{0, v}, {1, v}};
        snap.update_batch(pair);
      }
      finished.fetch_add(1);
    });
  }
  threads.emplace_back([&] {
    exec::ScopedPid pid(kWriters);
    std::vector<std::uint64_t> out;
    do {
      snap.scan(std::vector<std::uint32_t>{0, 1}, out);
      scans.fetch_add(1);
      if (out[0] != out[1]) mixed.fetch_add(1);
    } while (finished.load() < kWriters);
  });
  for (auto& t : threads) t.join();
  EXPECT_GT(scans.load(), 0u);
  EXPECT_EQ(mixed.load(), 0u);
  exec::ScopedPid pid(0);
  std::vector<std::uint64_t> out;
  snap.scan(std::vector<std::uint32_t>{0, 1}, out);
  EXPECT_EQ(out[0], out[1]);
  EXPECT_NE(out[0], 0u);
}

// Runs a capped seqlock scan of `scan_indices` against an updater
// hammering component 0 under updater-biased deterministic schedules;
// returns how many scans starved.  Shared by the two starvation tests so
// both exercise the identical adversary.
std::uint64_t seqlock_starvation_count(
    const std::vector<std::uint32_t>& scan_indices) {
  std::atomic<std::uint64_t> starved{0};
  runtime::explore_random(
      [&](std::uint64_t seed) {
        SeqlockSnapshot snap(2, /*max_attempts_per_scan=*/2);
        runtime::SimScheduler::Options options;
        options.policy = runtime::SimScheduler::Policy::kRandomBiased;
        options.bias_pid = 0;
        options.bias_probability = 0.85;
        options.seed = seed;
        runtime::SimScheduler sched(options);
        sched.add_process([&] {
          for (std::uint64_t k = 1; k <= 10; ++k) snap.update(0, k);
        });
        sched.add_process([&] {
          std::vector<std::uint64_t> out;
          try {
            snap.scan(scan_indices, out);
          } catch (const StarvationError&) {
            starved.fetch_add(1);
          }
        });
        sched.run();
      },
      /*runs=*/100);
  return starved.load();
}

TEST(Seqlock, ScanRetryCapThrows) {
  EXPECT_GT(seqlock_starvation_count({0, 1}), 0u);
}

TEST(Seqlock, GlobalConflictDomainStarvesUnrelatedScans) {
  // Contrast with per-component conflicts: updates to component 0 starve a
  // scan of component 1 under seqlock, because the version counter is one
  // global conflict domain.  (The CMP bench quantifies this.)
  EXPECT_GT(seqlock_starvation_count({1}), 0u);
}

TEST(FullSnapshot, HelpingBorrowsUnderAdversarialSchedule) {
  // The full snapshot uses the same moved-twice helping rule as Figure 1;
  // under a scheduler biased toward the updater, the scanner's collects
  // are separated by whole updates and the borrow path must fire.
  std::atomic<std::uint64_t> borrowed{0};
  runtime::explore_random(
      [&](std::uint64_t seed) {
        FullSnapshot snap(2, 2);
        runtime::SimScheduler::Options options;
        options.policy = runtime::SimScheduler::Policy::kRandomBiased;
        options.bias_pid = 0;
        options.bias_probability = 0.85;
        options.seed = seed;
        runtime::SimScheduler sched(options);
        sched.add_process([&] {
          for (std::uint64_t k = 1; k <= 10; ++k) snap.update(0, k);
        });
        sched.add_process([&] {
          std::vector<std::uint64_t> out;
          snap.scan(std::vector<std::uint32_t>{0, 1}, out);
          if (core::tls_op_stats().borrowed) borrowed.fetch_add(1);
        });
        sched.run();
      },
      /*runs=*/100);
  EXPECT_GT(borrowed.load(), 0u);
}

TEST(FullSnapshot, BatchPublishedBetweenCollectsStaysInsideTheBound) {
  // One writer's update_batch publishes kM records under one counter, and
  // the schedule lands each publication between two of the scanner's
  // collects.  Every collect then differs from the one before, yet all
  // the changes belong to one operation, so no borrow fires: the scan
  // takes about kM + 2 collects, more than 2n+3 for n = 2.  The collect
  // bound must admit that, and the history must linearize.
  constexpr std::uint32_t kM = 12;
  constexpr std::uint32_t kN = 2;
  std::vector<core::BatchEntry> batch;
  for (std::uint32_t i = 0; i < kM; ++i) batch.push_back({i, 100 + i});

  // The writer's steps run alone: its embedded scan, then one exchange
  // per entry.
  std::uint64_t writer_steps = 0;
  {
    FullSnapshot solo(kM, kN);
    exec::ScopedPid pid(1);
    const std::uint64_t before = exec::ctx().steps.total;
    solo.update_batch(batch);
    writer_steps = exec::ctx().steps.total - before;
  }
  ASSERT_GT(writer_steps, kM);
  // Ranks while both run: 0 = the scanner (pid 0), 1 = the writer.  The
  // writer finishes its embedded scan, then publishes once per kM scanner
  // steps, one collect's worth.
  runtime::SimScheduler::Options options;
  options.script.assign(writer_steps - kM, 1);
  for (std::uint32_t k = 0; k < kM; ++k) {
    options.script.insert(options.script.end(), kM, 0);
    options.script.push_back(1);
  }

  FullSnapshot snap(kM, kN);
  verify::History history;
  verify::RecordingSnapshot recorded(snap, history);
  std::uint64_t collects = 0;
  bool borrowed = true;
  runtime::SimScheduler sched(options);
  sched.add_process([&] {
    std::vector<std::uint32_t> all(kM);
    std::iota(all.begin(), all.end(), 0u);
    std::vector<std::uint64_t> out;
    recorded.scan(all, out);
    collects = core::tls_op_stats().collects;
    borrowed = core::tls_op_stats().borrowed;
  });
  sched.add_process([&] { recorded.update_batch(batch); });
  sched.run();

  EXPECT_GT(collects, 2 * kN + 3);
  EXPECT_FALSE(borrowed);
  verify::LinCheckOptions lin;
  lin.num_components = kM;
  auto outcome = verify::check_snapshot_linearizable(
      verify::fuzz::expand_batches_for_lin(history.operations(),
                                           snap.batch_atomicity()),
      lin);
  EXPECT_EQ(outcome.result, verify::LinResult::kLinearizable)
      << outcome.diagnosis << "\n"
      << history.to_string();
}

TEST(Lock, SequentiallyCorrectUnderConcurrency) {
  LockSnapshot snap(4);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&snap, t] {
      exec::ScopedPid pid(static_cast<std::uint32_t>(t));
      std::vector<std::uint64_t> out;
      for (std::uint64_t k = 0; k < 5000; ++k) {
        snap.update(static_cast<std::uint32_t>(t), k);
        snap.scan(std::vector<std::uint32_t>{std::uint32_t(t)}, out);
        ASSERT_EQ(out[0], k);
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace psnap::baseline
