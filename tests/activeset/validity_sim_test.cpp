// Active-set validity (Section 2.1's specification) under systematically
// explored schedules, for every implementation.  This is the property the
// snapshot algorithms' correctness proof consumes, checked directly from
// recorded histories rather than via linearization (the spec is weaker).
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "registry/registry.h"
#include "runtime/explore.h"
#include "runtime/sim_scheduler.h"
#include "tests/support/registry_params.h"
#include "verify/activeset_checker.h"
#include "verify/recording.h"

namespace psnap::activeset {
namespace {

using runtime::ExploreOptions;
using runtime::SimScheduler;
using verify::check_active_set_validity;
using verify::History;
using verify::RecordingActiveSet;

class ActiveSetValiditySimTest
    : public ::testing::TestWithParam<test::ActiveSetCase> {};

// Scenario A: two churners and one observer running getSets.
TEST_P(ActiveSetValiditySimTest, ChurnersAndObserverAllSchedules) {
  auto stats = runtime::explore_dfs(
      [&](const std::vector<std::uint32_t>& script) {
        auto as = GetParam().make(3);
        History history;
        RecordingActiveSet recorded(*as, history);

        SimScheduler::Options options;
        options.script = script;
        SimScheduler sched(options);
        sched.add_process([&] {
          recorded.join();
          recorded.leave();
        });
        sched.add_process([&] {
          recorded.join();
          recorded.leave();
        });
        sched.add_process([&] {
          std::vector<std::uint32_t> out;
          recorded.get_set(out);
          recorded.get_set(out);
        });
        auto result = sched.run();

        auto outcome = check_active_set_validity(history.operations());
        EXPECT_TRUE(outcome.ok) << outcome.diagnosis << "\nschedule size "
                                << script.size() << "\n"
                                << history.to_string();
        return result;
      },
      ExploreOptions{.max_schedules = 3000});
  // Either the space was fully explored or we used the whole budget.
  EXPECT_TRUE(stats.exhausted || stats.schedules_run >= 100u);
}

// Scenario B: rejoin churn -- a process leaves and immediately rejoins
// while the observer is mid-getSet (exercises the duplicate-slot path and
// the mid-join kEmpty handling in the Figure 2 algorithm).
TEST_P(ActiveSetValiditySimTest, RejoinDuringGetSetAllSchedules) {
  auto stats = runtime::explore_dfs(
      [&](const std::vector<std::uint32_t>& script) {
        auto as = GetParam().make(2);
        History history;
        RecordingActiveSet recorded(*as, history);

        SimScheduler::Options options;
        options.script = script;
        SimScheduler sched(options);
        sched.add_process([&] {
          recorded.join();
          recorded.leave();
          recorded.join();
          recorded.leave();
        });
        sched.add_process([&] {
          std::vector<std::uint32_t> out;
          recorded.get_set(out);
        });
        auto result = sched.run();

        auto outcome = check_active_set_validity(history.operations());
        EXPECT_TRUE(outcome.ok) << outcome.diagnosis << "\n"
                                << history.to_string();
        return result;
      },
      ExploreOptions{.max_schedules = 3000});
  EXPECT_TRUE(stats.exhausted || stats.schedules_run >= 50u);
}

// Scenario C: randomized larger runs.
TEST_P(ActiveSetValiditySimTest, RandomSchedulesLargerScenario) {
  runtime::explore_random(
      [&](std::uint64_t seed) {
        auto as = GetParam().make(4);
        History history;
        RecordingActiveSet recorded(*as, history);

        SimScheduler::Options options;
        options.policy = SimScheduler::Policy::kRandom;
        options.seed = seed;
        SimScheduler sched(options);
        for (int p = 0; p < 3; ++p) {
          sched.add_process([&] {
            for (int round = 0; round < 3; ++round) {
              recorded.join();
              recorded.leave();
            }
          });
        }
        sched.add_process([&] {
          std::vector<std::uint32_t> out;
          for (int i = 0; i < 4; ++i) recorded.get_set(out);
        });
        sched.run();

        auto outcome = check_active_set_validity(history.operations());
        EXPECT_TRUE(outcome.ok)
            << outcome.diagnosis << "\nseed " << seed << "\n"
            << history.to_string();
      },
      /*runs=*/60);
}

INSTANTIATE_TEST_SUITE_P(
    AllImplementations, ActiveSetValiditySimTest,
    ::testing::ValuesIn(test::active_set_impls(
        [](const test::ActiveSetCase& v) { return v.sim_safe; })),
    test::active_set_case_name);

// Native-thread churn with validity checking via the recorded history.
class ActiveSetValidityNativeTest
    : public ::testing::TestWithParam<test::ActiveSetCase> {};

TEST_P(ActiveSetValidityNativeTest, NativeChurnValidity) {
  auto as = GetParam().make(6);
  History history;
  RecordingActiveSet recorded(*as, history);
  constexpr int kChurners = 4;
  constexpr int kRounds = 300;

  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < kChurners; ++p) {
    threads.emplace_back([&recorded, p] {
      exec::ScopedPid pid(p);
      for (int i = 0; i < kRounds; ++i) {
        recorded.join();
        recorded.leave();
      }
    });
  }
  threads.emplace_back([&recorded] {
    exec::ScopedPid pid(5);
    std::vector<std::uint32_t> out;
    for (int i = 0; i < kRounds; ++i) recorded.get_set(out);
  });
  for (auto& t : threads) t.join();

  auto outcome = check_active_set_validity(history.operations());
  EXPECT_TRUE(outcome.ok) << outcome.diagnosis;
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, ActiveSetValidityNativeTest,
                         ::testing::ValuesIn(test::active_set_impls()),
                         test::active_set_case_name);

}  // namespace
}  // namespace psnap::activeset
