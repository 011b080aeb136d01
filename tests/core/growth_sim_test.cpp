// Concurrent component growth under the deterministic scheduler.
//
// add_components races scans and updates through systematically explored
// and randomized schedules, for every sim-safe implementation.  The
// specification being checked: a scan that began before a grow may or may
// not observe the enlarged count, but everything it returns must be
// linearizable against the FINAL component count (new components behave as
// if they had always existed at the initial value); concurrent growers get
// disjoint index blocks and the count converges to the sum.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "core/partial_snapshot.h"
#include "exec/exec.h"
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

class GrowthSimTest
    : public ::testing::TestWithParam<registry::SnapshotVariant> {};

// Scenario A (DFS): a grower-updater races a scanner.  The scanner first
// scans the original components, then -- if it already observes the grown
// count -- scans a set that includes the new component.  Checked against
// the final count of 3.
TEST_P(GrowthSimTest, GrowRacesScannerDfs) {
  constexpr std::uint32_t kM0 = 2;
  auto stats = runtime::explore_dfs(
      [&](const std::vector<std::uint32_t>& script) {
        auto snap = test::make_snapshot(GetParam(), kM0, 2);
        History history;
        RecordingSnapshot recorded(*snap, history);

        SimScheduler::Options options;
        options.script = script;
        SimScheduler sched(options);
        sched.add_process([&] {
          recorded.update(0, 1);
          std::uint32_t first = recorded.add_components(1);
          EXPECT_EQ(first, kM0);
          recorded.update(first, 5);
        });
        sched.add_process([&] {
          std::vector<std::uint64_t> out;
          recorded.scan(std::vector<std::uint32_t>{0, 1}, out);
          // num_components is monotone; once the grow is visible the new
          // index is scannable mid-run.
          if (recorded.num_components() >= 3) {
            recorded.scan(std::vector<std::uint32_t>{0, 2}, out);
          }
        });
        auto result = sched.run();
        expect_linearizable(history, 3);
        return result;
      },
      ExploreOptions{.max_schedules = 800});
  EXPECT_TRUE(stats.exhausted || stats.schedules_run >= 100u);
}

// Scenario B (random, heavier): two updaters, one scanner, and a grower
// interleaving two grows; scans chase the current count.
TEST_P(GrowthSimTest, RepeatedGrowthRandomSchedules) {
  constexpr std::uint32_t kM0 = 2;
  runtime::explore_random(
      [&](std::uint64_t seed) {
        auto snap = test::make_snapshot(GetParam(), kM0, 4);
        History history;
        RecordingSnapshot recorded(*snap, history);

        SimScheduler::Options options;
        options.policy = SimScheduler::Policy::kRandom;
        options.seed = seed;
        SimScheduler sched(options);
        sched.add_process([&] {
          recorded.update(0, 10);
          recorded.update(1, 11);
        });
        sched.add_process([&] {
          std::uint32_t a = recorded.add_components(1);
          recorded.update(a, 100);
          std::uint32_t b = recorded.add_components(1);
          recorded.update(b, 200);
        });
        sched.add_process([&] {
          std::vector<std::uint64_t> out;
          recorded.scan(std::vector<std::uint32_t>{0, 1}, out);
          std::uint32_t m = recorded.num_components();
          recorded.scan(std::vector<std::uint32_t>{0, m - 1}, out);
        });
        sched.run();
        EXPECT_EQ(recorded.num_components(), kM0 + 2);
        expect_linearizable(history, kM0 + 2);
      },
      /*runs=*/60);
}

// Scenario C: concurrent growers receive disjoint blocks, the count
// converges, and the grown components hold updates written through the
// returned indices.
TEST_P(GrowthSimTest, ConcurrentGrowersGetDisjointBlocks) {
  constexpr std::uint32_t kM0 = 2;
  runtime::explore_random(
      [&](std::uint64_t seed) {
        auto snap = test::make_snapshot(GetParam(), kM0, 3);
        std::uint32_t first_a = 0, first_b = 0;

        SimScheduler::Options options;
        options.policy = SimScheduler::Policy::kRandom;
        options.seed = seed;
        SimScheduler sched(options);
        sched.add_process([&] {
          first_a = snap->add_components(2);
          snap->update(first_a, 1000);
          snap->update(first_a + 1, 1001);
        });
        sched.add_process([&] {
          first_b = snap->add_components(1);
          snap->update(first_b, 2000);
        });
        sched.run();

        EXPECT_EQ(snap->num_components(), kM0 + 3);
        // Disjoint blocks: one of the two orders, never overlapping.
        EXPECT_TRUE((first_a == kM0 && first_b == kM0 + 2) ||
                    (first_b == kM0 && first_a == kM0 + 1))
            << "first_a=" << first_a << " first_b=" << first_b;

        exec::ScopedPid pid(2);
        EXPECT_EQ(snap->scan({first_a}), (std::vector<std::uint64_t>{1000}));
        EXPECT_EQ(snap->scan({first_a + 1}),
                  (std::vector<std::uint64_t>{1001}));
        EXPECT_EQ(snap->scan({first_b}), (std::vector<std::uint64_t>{2000}));
      },
      /*runs=*/60);
}

INSTANTIATE_TEST_SUITE_P(AllSimSafeImplementations, GrowthSimTest,
                         ::testing::ValuesIn(checked_impls()),
                         test::snapshot_param_name);

}  // namespace
}  // namespace psnap::core
