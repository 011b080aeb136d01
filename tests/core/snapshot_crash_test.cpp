// Halting-failure tolerance (paper Section 2: "Processes run at
// arbitrarily varying speeds and may experience halting failures").
//
// The scheduler crashes a process at a chosen base-object step: the step
// never executes and the process never runs again.  The wait-free
// implementations must then still
//   * let every surviving process finish (wait-freedom does not depend on
//     cooperation -- unlike a lock, a dead process cannot block anyone),
//   * produce a history that is linearizable with the crashed operation
//     pending (it may have taken effect or not).
//
// Crash points are swept across every step of the victim's operation, so
// the "just before publish" and "mid embedded-scan" windows are all hit.
//
// Note on memory: the simulated crash unwinds RAII state, so EBR pins are
// released; a real deployment would need crash-robust reclamation, which
// is outside the paper's model (it assumes garbage-collected registers).
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "baseline/double_collect.h"
#include "core/partial_snapshot.h"
#include "registry/registry.h"
#include "runtime/explore.h"
#include "runtime/sim_scheduler.h"
#include "tests/support/registry_params.h"
#include "verify/lin_checker.h"
#include "verify/recording.h"

namespace psnap::core {
namespace {

using runtime::SimScheduler;
using verify::check_snapshot_linearizable;
using verify::History;
using verify::LinCheckOptions;
using verify::LinResult;
using verify::RecordingSnapshot;

// Crash tolerance is a wait-freedom property, so the sweep covers every
// registered wait-free, sim-safe implementation.
std::vector<registry::SnapshotVariant> crash_impls() {
  return test::snapshot_impls([](const registry::SnapshotVariant& variant) {
    return variant.is_wait_free && variant.sim_safe;
  });
}

void expect_linearizable(const History& history, std::uint32_t m) {
  LinCheckOptions options;
  options.num_components = m;
  auto outcome = check_snapshot_linearizable(history.operations(), options);
  ASSERT_EQ(outcome.result, LinResult::kLinearizable)
      << outcome.diagnosis << "\nhistory:\n"
      << history.to_string();
}

class SnapshotCrashTest
    : public ::testing::TestWithParam<registry::SnapshotVariant> {};

// Crash the updater at every possible step of its operation; the scanner
// must always complete and the history must stay linearizable.
TEST_P(SnapshotCrashTest, UpdaterCrashSweep) {
  constexpr std::uint32_t kM = 2;
  for (std::uint64_t crash_step = 1; crash_step <= 40; ++crash_step) {
    auto snap = test::make_snapshot(GetParam(), kM, 2);
    History history;
    RecordingSnapshot recorded(*snap, history);
    bool scanner_finished = false;

    SimScheduler::Options options;
    options.crashes = {{0, crash_step}};
    SimScheduler sched(options);
    sched.add_process([&] {
      recorded.update(0, 11);
      recorded.update(1, 22);  // only reached if crash_step is past op 1
    });
    sched.add_process([&] {
      std::vector<std::uint64_t> out;
      recorded.scan(std::vector<std::uint32_t>{0, 1}, out);
      recorded.scan(std::vector<std::uint32_t>{0, 1}, out);
      scanner_finished = true;
    });
    sched.run();

    ASSERT_TRUE(scanner_finished)
        << GetParam().name << " crash at step " << crash_step;
    expect_linearizable(history, kM);
  }
}

// Crash the scanner mid-scan; updaters must keep completing (the dead
// scanner stays "announced" and joined forever -- updaters keep helping
// it, which costs steps but never blocks).
TEST_P(SnapshotCrashTest, ScannerCrashSweep) {
  constexpr std::uint32_t kM = 2;
  for (std::uint64_t crash_step = 1; crash_step <= 12; ++crash_step) {
    auto snap = test::make_snapshot(GetParam(), kM, 2);
    History history;
    RecordingSnapshot recorded(*snap, history);
    int updates_done = 0;

    SimScheduler::Options options;
    options.crashes = {{1, crash_step}};
    SimScheduler sched(options);
    sched.add_process([&] {
      for (std::uint64_t k = 1; k <= 5; ++k) {
        recorded.update(0, k);
        ++updates_done;
      }
    });
    sched.add_process([&] {
      std::vector<std::uint64_t> out;
      recorded.scan(std::vector<std::uint32_t>{0, 1}, out);
    });
    sched.run();

    ASSERT_EQ(updates_done, 5)
        << GetParam().name << " crash at step " << crash_step;
    expect_linearizable(history, kM);
  }
}

// Two crashes: an updater and a scanner die; the surviving scanner still
// finishes with a consistent view.
TEST_P(SnapshotCrashTest, DoubleCrashSurvivorCompletes) {
  constexpr std::uint32_t kM = 2;
  for (std::uint64_t c1 : {2ull, 5ull, 9ull}) {
    for (std::uint64_t c2 : {1ull, 3ull, 7ull}) {
      auto snap = test::make_snapshot(GetParam(), kM, 3);
      History history;
      RecordingSnapshot recorded(*snap, history);
      bool survivor_finished = false;

      SimScheduler::Options options;
      options.crashes = {{0, c1}, {1, c2}};
      SimScheduler sched(options);
      sched.add_process([&] {
        recorded.update(0, 1);
        recorded.update(1, 2);
      });
      sched.add_process([&] {
        std::vector<std::uint64_t> out;
        recorded.scan(std::vector<std::uint32_t>{0, 1}, out);
      });
      sched.add_process([&] {
        std::vector<std::uint64_t> out;
        recorded.scan(std::vector<std::uint32_t>{0, 1}, out);
        recorded.scan(std::vector<std::uint32_t>{1}, out);
        survivor_finished = true;
      });
      sched.run();

      ASSERT_TRUE(survivor_finished) << GetParam().name;
      expect_linearizable(history, kM);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WaitFreeImpls, SnapshotCrashTest,
                         ::testing::ValuesIn(crash_impls()),
                         test::snapshot_param_name);

// Contrast: the double-collect baseline is NOT crash-tolerant for
// scanners in general -- but a crashed *updater* cannot block it either
// (it only loops while values keep changing).  What a dead process CAN do
// to the lock baseline is block everyone forever; we do not run that as a
// test, for obvious reasons.
TEST(SnapshotCrashContrast, DoubleCollectSurvivesQuietCrash) {
  baseline::DoubleCollectSnapshot snap(2, 2);
  History history;
  RecordingSnapshot recorded(snap, history);
  bool scanner_finished = false;

  SimScheduler::Options options;
  options.crashes = {{0, 2}};  // updater dies mid-operation
  SimScheduler sched(options);
  sched.add_process([&] { recorded.update(0, 5); });
  sched.add_process([&] {
    std::vector<std::uint64_t> out;
    recorded.scan(std::vector<std::uint32_t>{0, 1}, out);
    scanner_finished = true;
  });
  sched.run();
  EXPECT_TRUE(scanner_finished);

  LinCheckOptions check;
  check.num_components = 2;
  EXPECT_EQ(check_snapshot_linearizable(history.operations(), check).result,
            LinResult::kLinearizable);
}

}  // namespace
}  // namespace psnap::core
