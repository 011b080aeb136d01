// Linearizability of the snapshot implementations under systematically
// explored and randomized schedules, checked by the Wing-Gong searcher.
//
// These scenarios are small by design (the checker is exponential), but the
// DFS explorer drives them through hundreds-to-thousands of distinct
// interleavings, including the helping paths: the "borrow coverage" tests
// assert that condition (2) actually fired somewhere in the exploration,
// so the helping machinery is exercised, not just present.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>

#include "core/cas_psnap.h"
#include "core/op_stats.h"
#include "core/partial_snapshot.h"
#include "registry/registry.h"
#include "runtime/explore.h"
#include "runtime/sim_scheduler.h"
#include "tests/support/registry_params.h"
#include "verify/lin_checker.h"
#include "verify/recording.h"

namespace psnap::core {
namespace {

using runtime::ExploreOptions;
using runtime::SimScheduler;
using verify::check_snapshot_linearizable;
using verify::History;
using verify::LinCheckOptions;
using verify::LinResult;
using verify::RecordingSnapshot;

// Every registered implementation that is safe to drive under the
// deterministic scheduler (the mutex and seqlock baselines block/spin
// outside the step-instrumented model).
std::vector<registry::SnapshotVariant> checked_impls() {
  return test::snapshot_impls(
      [](const registry::SnapshotVariant& v) { return v.sim_safe; });
}

void expect_linearizable(const History& history, std::uint32_t m) {
  LinCheckOptions options;
  options.num_components = m;
  auto outcome = check_snapshot_linearizable(history.operations(), options);
  ASSERT_NE(outcome.result, LinResult::kNotLinearizable)
      << outcome.diagnosis << "\nhistory:\n"
      << history.to_string();
  ASSERT_EQ(outcome.result, LinResult::kLinearizable)
      << "checker budget exceeded on:\n"
      << history.to_string();
}

class SnapshotLinSimTest
    : public ::testing::TestWithParam<registry::SnapshotVariant> {};

// Scenario A: one updater racing one scanner on two components.
TEST_P(SnapshotLinSimTest, UpdaterVsScannerDfs) {
  constexpr std::uint32_t kM = 2;
  auto stats = runtime::explore_dfs(
      [&](const std::vector<std::uint32_t>& script) {
        auto snap = test::make_snapshot(GetParam(), kM, 2);
        History history;
        RecordingSnapshot recorded(*snap, history);

        SimScheduler::Options options;
        options.script = script;
        SimScheduler sched(options);
        sched.add_process([&] {
          recorded.update(0, 1);
          recorded.update(1, 2);
        });
        sched.add_process([&] {
          std::vector<std::uint64_t> out;
          recorded.scan(std::vector<std::uint32_t>{0, 1}, out);
        });
        auto result = sched.run();
        expect_linearizable(history, kM);
        return result;
      },
      ExploreOptions{.max_schedules = 800});
  EXPECT_TRUE(stats.exhausted || stats.schedules_run >= 100u);
}

// Scenario B: two updaters on the SAME component racing a scanner
// (exercises the multi-writer paths and, for Figure 3, CAS failures).
TEST_P(SnapshotLinSimTest, WriteContentionDfs) {
  constexpr std::uint32_t kM = 2;
  auto stats = runtime::explore_dfs(
      [&](const std::vector<std::uint32_t>& script) {
        auto snap = test::make_snapshot(GetParam(), kM, 3);
        History history;
        RecordingSnapshot recorded(*snap, history);

        SimScheduler::Options options;
        options.script = script;
        SimScheduler sched(options);
        sched.add_process([&] { recorded.update(0, 10); });
        sched.add_process([&] { recorded.update(0, 20); });
        sched.add_process([&] {
          std::vector<std::uint64_t> out;
          recorded.scan(std::vector<std::uint32_t>{0, 1}, out);
        });
        auto result = sched.run();
        expect_linearizable(history, kM);
        return result;
      },
      ExploreOptions{.max_schedules = 800});
  EXPECT_TRUE(stats.exhausted || stats.schedules_run >= 100u);
}

// Scenario C: randomized, heavier -- three updaters, two scanners, three
// components, several ops each.
TEST_P(SnapshotLinSimTest, RandomSchedulesHeavier) {
  constexpr std::uint32_t kM = 3;
  runtime::explore_random(
      [&](std::uint64_t seed) {
        auto snap = test::make_snapshot(GetParam(), kM, 5);
        History history;
        RecordingSnapshot recorded(*snap, history);

        SimScheduler::Options options;
        options.policy = SimScheduler::Policy::kRandom;
        options.seed = seed;
        SimScheduler sched(options);
        for (std::uint32_t u = 0; u < 3; ++u) {
          sched.add_process([&, u] {
            recorded.update(u, 100 + u);
            recorded.update((u + 1) % kM, 200 + u);
          });
        }
        for (int s = 0; s < 2; ++s) {
          sched.add_process([&] {
            std::vector<std::uint64_t> out;
            recorded.scan(std::vector<std::uint32_t>{0, 2}, out);
            recorded.scan(std::vector<std::uint32_t>{0, 1, 2}, out);
          });
        }
        sched.run();
        expect_linearizable(history, kM);
      },
      /*runs=*/80);
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, SnapshotLinSimTest,
                         ::testing::ValuesIn(checked_impls()),
                         test::snapshot_param_name);

// ---------------------------------------------------------------------------
// Scans that cross read blocks.
// ---------------------------------------------------------------------------

// Figure 3's read loops gather kReadBlock heads before dereferencing them,
// and the versioned scan gathers block k+1 before reading block k.  The
// scenarios above keep m <= 3, so no explored schedule ever crosses a
// block boundary; this one does, on every sim-safe plane of the two
// Figure 3 entries (u64, blob and versioned; ebr and hp).
std::vector<registry::SnapshotVariant> fig3_impls() {
  return test::snapshot_impls([](const registry::SnapshotVariant& v) {
    return v.sim_safe && (v.entry == "fig3_cas" || v.entry == "fig3_cas_batch");
  });
}

class SnapshotReadBlockSimTest
    : public ::testing::TestWithParam<registry::SnapshotVariant> {};

// m = 40 is two full blocks and a partial one.  Scanner s reads the 37
// components [3s, 3s + 37), and each writer updates one component in
// every block of both windows, twice, so writes land while a scan sits
// between two blocks.  The schedule favours writer 0, whose updates then
// often run whole between two of a scanner's steps.  16 ops per history,
// well inside the checker's 64.
TEST_P(SnapshotReadBlockSimTest, WideScansAcrossReadBlocksRandomBiased) {
  constexpr std::uint32_t kM = 40;
  constexpr std::uint32_t kR = 37;
  static_assert(kR > 2 * CasPartialSnapshot::kReadBlock,
                "the scans must reach a third read block");
  // Positions in scanner 0's window: blocks 0, 1, 2; in scanner 1's:
  // the same blocks, three positions earlier.
  constexpr std::uint32_t kWritten[2][3] = {{5, 20, 36}, {10, 26, 35}};
  runtime::explore_random(
      [&](std::uint64_t seed) {
        auto snap = test::make_snapshot(GetParam(), kM, 4);
        History history;
        RecordingSnapshot recorded(*snap, history);

        SimScheduler::Options options;
        options.policy = SimScheduler::Policy::kRandomBiased;
        options.bias_pid = 0;
        options.bias_probability = 0.7;
        options.seed = seed;
        SimScheduler sched(options);
        for (std::uint32_t w = 0; w < 2; ++w) {
          sched.add_process([&, w] {
            for (std::uint64_t round = 1; round <= 2; ++round) {
              for (std::uint32_t c : kWritten[w]) {
                recorded.update(c, 1000 * round + c);
              }
            }
          });
        }
        for (std::uint32_t s = 0; s < 2; ++s) {
          sched.add_process([&, s] {
            std::vector<std::uint32_t> window(kR);
            for (std::uint32_t k = 0; k < kR; ++k) window[k] = 3 * s + k;
            std::vector<std::uint64_t> out;
            recorded.scan(window, out);
            recorded.scan(window, out);
          });
        }
        sched.run();
        expect_linearizable(history, kM);
      },
      /*runs=*/8);
}

INSTANTIATE_TEST_SUITE_P(Fig3Planes, SnapshotReadBlockSimTest,
                         ::testing::ValuesIn(fig3_impls()),
                         test::snapshot_param_name);

// ---------------------------------------------------------------------------
// Helping-path (condition (2)) coverage.
// ---------------------------------------------------------------------------

// The fig1/fig3 variants whose scans extract their result from a view (the
// versioned plane's scans walk version chains instead and never borrow).
std::vector<registry::SnapshotVariant> view_scan_impls() {
  return test::snapshot_impls([](const registry::SnapshotVariant& v) {
    return v.sim_safe && v.value != "versioned" &&
           (v.entry.starts_with("fig1_") || v.entry.starts_with("fig3_"));
  });
}

struct BorrowProbe {
  std::uint64_t scans_borrowed = 0;
  std::uint64_t scans_total = 0;
  // Borrowed scans that ended within two collects.
  std::uint64_t borrowed_within_two = 0;
  // Result positions whose value does not encode the index asked for
  // there, and scans whose positions of one repeated index disagree.
  std::uint64_t wrong_component = 0;
  std::uint64_t duplicates_disagree = 0;
};

// Runs a borrow-inducing scenario (one busy updater, one scanner) across
// random schedules.  Every value written to component c is 1000 k + c, so
// a value names its component.  The scanner asks for `asked` through
// scan() and, on the blob plane, scan_blobs(), and the probe reports how
// many scans terminated via condition (2), after how many collects, and
// what each returned.
BorrowProbe probe_borrows(const registry::SnapshotVariant& variant,
                          const std::vector<std::uint32_t>& asked,
                          std::uint64_t runs) {
  constexpr std::uint32_t kM = 3;
  std::atomic<std::uint64_t> borrowed{0}, total{0}, early{0}, wrong{0},
      disagree{0};
  auto check = [&](const std::vector<std::uint64_t>& values) {
    total.fetch_add(1);
    if (tls_op_stats().borrowed) {
      borrowed.fetch_add(1);
      if (tls_op_stats().collects < 3) early.fetch_add(1);
    }
    if (values.size() != asked.size()) {
      wrong.fetch_add(1);
      return;
    }
    for (std::size_t k = 0; k < asked.size(); ++k) {
      if (values[k] % 1000 != asked[k]) wrong.fetch_add(1);
      for (std::size_t l = k + 1; l < asked.size(); ++l) {
        if (asked[l] == asked[k] && values[l] != values[k]) {
          disagree.fetch_add(1);
        }
      }
    }
  };
  runtime::explore_random(
      [&](std::uint64_t seed) {
        const std::vector<std::uint64_t> initial{0, 1, 2};
        auto snap =
            test::make_snapshot(variant, InitialVector(initial), 2);
        SimScheduler::Options options;
        // Bias toward the updater (pid 0): the scanner's collects are then
        // separated by whole updates, which is the adversary that forces
        // the helping path.
        options.policy = SimScheduler::Policy::kRandomBiased;
        options.bias_pid = 0;
        options.bias_probability = 0.85;
        options.seed = seed;
        SimScheduler sched(options);
        sched.add_process([&] {
          for (std::uint32_t k = 1; k <= 10; ++k) {
            snap->update(k % kM, 1000 * k + k % kM);
          }
        });
        sched.add_process([&] {
          std::vector<std::uint64_t> values;
          snap->scan(asked, values);
          check(values);
          if (variant.value == "blob") {
            std::vector<value::Blob> blobs;
            snap->scan_blobs(asked, blobs);
            values.clear();
            for (const value::Blob& b : blobs) {
              values.push_back(value::IndirectBlob::decode(b));
            }
            check(values);
          }
        });
        sched.run();
      },
      runs);
  return BorrowProbe{borrowed.load(), total.load(), early.load(),
                     wrong.load(), disagree.load()};
}

class SnapshotBorrowSimTest
    : public ::testing::TestWithParam<registry::SnapshotVariant> {};

// Condition (2) must actually fire, and a borrowed view must serve the
// scanner's components in its own order, repeats included: descending with
// one index repeated (the order in which extraction cannot walk the view
// forward), the exact set (extracted by position), and a subset (a
// borrowed view then covers more than the scan's set).
TEST_P(SnapshotBorrowSimTest, BorrowedViewsServeEveryCallerOrder) {
  constexpr std::uint64_t kRuns = 200;
  const std::uint64_t scans_per_run = GetParam().value == "blob" ? 2 : 1;
  for (const std::vector<std::uint32_t>& asked :
       {std::vector<std::uint32_t>{2, 1, 1, 0}, {0, 1, 2}, {0, 2}}) {
    SCOPED_TRACE(::testing::Message() << "scan of " << asked.size());
    const BorrowProbe probe = probe_borrows(GetParam(), asked, kRuns);
    EXPECT_EQ(probe.scans_total, kRuns * scans_per_run);
    EXPECT_GT(probe.scans_borrowed, 0u);
    // Figure 3 borrows a location's third distinct tag, which takes three
    // collects; its condition-(2) table is built only when a third starts.
    // Figure 1's moved-twice rule can fire after two: one collect pair can
    // show two locations changed to the same process's records.
    if (GetParam().entry.starts_with("fig3_")) {
      EXPECT_EQ(probe.borrowed_within_two, 0u);
    }
    EXPECT_EQ(probe.wrong_component, 0u);
    EXPECT_EQ(probe.duplicates_disagree, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(ViewScans, SnapshotBorrowSimTest,
                         ::testing::ValuesIn(view_scan_impls()),
                         test::snapshot_param_name);

TEST(SnapshotHelpingCoverage, Fig3CasFailureExercised) {
  // Two updaters hammering one component must produce CAS failures in some
  // schedule; a failed update still linearizes (checked by scenario B).
  std::atomic<std::uint64_t> failures{0};
  runtime::explore_random(
      [&](std::uint64_t seed) {
        CasPartialSnapshot snap(2, 2);
        SimScheduler::Options options;
        options.policy = SimScheduler::Policy::kRandom;
        options.seed = seed;
        SimScheduler sched(options);
        for (int u = 0; u < 2; ++u) {
          sched.add_process([&] {
            for (std::uint64_t k = 1; k <= 3; ++k) {
              snap.update(0, k);
              if (tls_op_stats().cas_failed) failures.fetch_add(1);
            }
          });
        }
        sched.run();
      },
      100);
  EXPECT_GT(failures.load(), 0u);
}

}  // namespace
}  // namespace psnap::core
