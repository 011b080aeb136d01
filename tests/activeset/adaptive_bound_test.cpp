// Population-adaptive walk bounds (exec/pid_bound.h): the PidBound
// contract, the step-count semantics of watermark-bounded collects in the
// Instrumented runtime, and Figure 1 on the full-range walk that
// bench_adaptive_collect A/Bs against -- its active set walking Figure 1's
// bound, functionally across add_components growth and pid churn, and
// under the deterministic scheduler.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "activeset/register_active_set.h"
#include "core/register_psnap.h"
#include "exec/exec.h"
#include "exec/pid_bound.h"
#include "exec/thread_registry.h"
#include "runtime/explore.h"
#include "runtime/sim_scheduler.h"
#include "verify/lin_checker.h"
#include "verify/recording.h"

namespace psnap::activeset {
namespace {

using exec::PidBound;
using exec::ThreadRegistry;

std::uint64_t steps_during(const std::function<void()>& op) {
  std::uint64_t before = exec::ctx().steps.total;
  op();
  return exec::ctx().steps.total - before;
}

TEST(PidBoundTest, FixedBoundClampsToCapacity) {
  EXPECT_EQ(PidBound::fixed(16).get(64), 16u);
  EXPECT_EQ(PidBound::fixed(128).get(64), 64u);
  EXPECT_FALSE(PidBound::fixed(16).is_adaptive());
}

TEST(PidBoundTest, AdaptiveBoundTracksTheRegistryWatermark) {
  ThreadRegistry registry(32);
  PidBound bound = PidBound::watermark_of(registry);
  EXPECT_TRUE(bound.is_adaptive());
  EXPECT_EQ(bound.get(32), 0u);
  std::uint32_t a = registry.acquire();
  std::uint32_t b = registry.acquire();
  EXPECT_EQ(bound.get(32), 2u);
  // Monotone through churn: releases do not shrink the bound, low-pid
  // reuse does not grow it.
  registry.release(a);
  registry.release(b);
  EXPECT_EQ(bound.get(32), 2u);
  std::uint32_t c = registry.acquire();
  EXPECT_EQ(c, 0u);
  EXPECT_EQ(bound.get(32), 2u);
  // The object capacity still clamps.
  EXPECT_EQ(bound.get(1), 1u);
  registry.release(c);
}

TEST(PidBoundTest, DefaultBoundFollowsTheProcessWideRegistry) {
  std::uint32_t mark = ThreadRegistry::process_wide().high_watermark();
  PidBound bound;
  EXPECT_EQ(bound.get(ThreadRegistry::kMaxCapacity), mark);
  if (mark >= ThreadRegistry::kMaxCapacity) {
    GTEST_SKIP() << "watermark already at capacity in this process";
  }
  exec::ScopedPid pid(mark);  // manual pid: ScopedPid raises the watermark
  EXPECT_EQ(bound.get(ThreadRegistry::kMaxCapacity), mark + 1);
}

// The documented Instrumented-runtime semantics: each slot the bounded
// walk reads is exactly one step, the bound read is bookkeeping -- so
// getSet step counts equal the walked prefix, i.e. they track the live
// population instead of max_processes.
TEST(AdaptiveStepCountTest, RegisterGetSetStepsEqualTheWalkedPrefix) {
  ThreadRegistry registry(64);
  RegisterActiveSet adaptive(64, PidBound::watermark_of(registry));
  RegisterActiveSet full(64, PidBound::fixed(64));
  std::uint32_t a = registry.acquire();
  std::uint32_t b = registry.acquire();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);

  exec::ScopedPid pid(0);
  adaptive.join();
  full.join();
  std::vector<std::uint32_t> out;
  EXPECT_EQ(steps_during([&] { adaptive.get_set(out); }), 2u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(steps_during([&] { full.get_set(out); }), 64u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
  registry.release(a);
  registry.release(b);
}

// Figure 1's bound reaches the register active set it owns: with the
// full-range bound the update's getSet walks all n=64 slots, with a
// watermark bound only the pids its registry has issued.
TEST(Fig1WalkBoundTest, OwnActiveSetWalksFigure1sBound) {
  exec::ScopedPid pid(0);
  auto getset_steps = [](core::RegisterPartialSnapshot& snap) {
    std::vector<std::uint32_t> out;
    return steps_during([&] { snap.active_set().get_set(out); });
  };
  ThreadRegistry registry(64);
  std::uint32_t a = registry.acquire();
  std::uint32_t b = registry.acquire();
  core::RegisterPartialSnapshot full(4, 64, PidBound::fixed(64));
  core::RegisterPartialSnapshot adaptive(4, 64,
                                         PidBound::watermark_of(registry));
  EXPECT_EQ(getset_steps(full), 64u);
  EXPECT_EQ(getset_steps(adaptive), 2u);
  registry.release(a);
  registry.release(b);
}

// Figure 1 on the full-range walk: functional across growth and pid
// churn.
TEST(Fig1WalkBoundTest, FullRangeScanUpdateGrowthAndChurn) {
  auto snap = std::make_unique<core::RegisterPartialSnapshot>(
      8, 4, PidBound::fixed(4));
  {
    exec::ScopedPid pid(0);
    for (std::uint32_t i = 0; i < 8; ++i) snap->update(i, 100 + i);
    EXPECT_EQ(snap->scan({1, 6}), (std::vector<std::uint64_t>{101, 106}));
  }
  // Growth: new components visible to scans straddling old and new.
  {
    exec::ScopedPid pid(1);
    std::uint32_t first = snap->add_components(4);
    EXPECT_EQ(first, 8u);
    snap->update(10, 42);
    EXPECT_EQ(snap->scan({3, 10}), (std::vector<std::uint64_t>{103, 42}));
  }
  // Pid churn: fresh thread lifetimes (simulated by scoped pids) keep
  // operating; the adaptive walk keeps covering whoever announces.
  for (int life = 0; life < 20; ++life) {
    exec::ScopedPid pid(life % 4);
    snap->update(life % 12, 1000 + life);
    EXPECT_EQ(snap->scan({static_cast<std::uint32_t>(life % 12)}),
              (std::vector<std::uint64_t>{1000u + life}));
  }
}

// The same object under the deterministic scheduler: updater-vs-scanner
// linearizability across every DFS schedule, the helping path included
// (the update's getSet walks every slot).
TEST(Fig1WalkBoundTest, FullRangeUpdaterVsScannerDfsLinearizable) {
  constexpr std::uint32_t kM = 2;
  auto stats = runtime::explore_dfs(
      [&](const std::vector<std::uint32_t>& script) {
        core::RegisterPartialSnapshot snap(kM, 2, PidBound::fixed(2));
        verify::History history;
        verify::RecordingSnapshot recorded(snap, history);

        runtime::SimScheduler::Options options;
        options.script = script;
        runtime::SimScheduler sched(options);
        sched.add_process([&] {
          recorded.update(0, 1);
          recorded.update(1, 2);
        });
        sched.add_process([&] {
          std::vector<std::uint64_t> out;
          recorded.scan(std::vector<std::uint32_t>{0, 1}, out);
        });
        auto result = sched.run();

        verify::LinCheckOptions check;
        check.num_components = kM;
        auto outcome =
            verify::check_snapshot_linearizable(history.operations(), check);
        EXPECT_EQ(outcome.result, verify::LinResult::kLinearizable)
            << outcome.diagnosis << "\n"
            << history.to_string();
        return result;
      },
      runtime::ExploreOptions{.max_schedules = 800});
  EXPECT_TRUE(stats.exhausted || stats.schedules_run >= 100u);
}

}  // namespace
}  // namespace psnap::activeset
