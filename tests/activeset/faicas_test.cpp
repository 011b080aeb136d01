// Figure-2-specific properties: O(1) join/leave, interval publication,
// coalescing, the bounded variant, and amortized getSet behaviour
// (Theorem 2's measurable content; the full sweep lives in bench T2).
#include "activeset/faicas_active_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "exec/exec.h"
#include "exec/thread_registry.h"

namespace psnap::activeset {
namespace {

std::uint64_t steps_now() { return exec::ctx().steps.total; }

TEST(FaiCas, JoinIsExactlyTwoSteps) {
  // Figure 2: join = one fetch&increment + one register write.
  FaiCasActiveSet as(4);
  exec::ScopedPid pid(0);
  for (int round = 0; round < 10; ++round) {
    std::uint64_t before = steps_now();
    as.join();
    EXPECT_EQ(steps_now() - before, 2u) << "round " << round;
    as.leave();
  }
}

TEST(FaiCas, LeaveIsExactlyOneStep) {
  // Figure 2: leave = one register write (I[l] <- 0).
  FaiCasActiveSet as(4);
  exec::ScopedPid pid(0);
  for (int round = 0; round < 10; ++round) {
    as.join();
    std::uint64_t before = steps_now();
    as.leave();
    EXPECT_EQ(steps_now() - before, 1u) << "round " << round;
  }
}

TEST(FaiCas, JoinLeaveStepsIndependentOfHistoryLength) {
  // The O(1) worst case bound holds no matter how much churn happened:
  // this is the paper's headline improvement over the collect-based
  // active set of [3].
  FaiCasActiveSet as(4);
  exec::ScopedPid pid(0);
  for (int i = 0; i < 5000; ++i) {
    as.join();
    as.leave();
  }
  std::uint64_t before = steps_now();
  as.join();
  EXPECT_EQ(steps_now() - before, 2u);
  before = steps_now();
  as.leave();
  EXPECT_EQ(steps_now() - before, 1u);
}

TEST(FaiCas, SlotsAreNeverRecycled) {
  FaiCasActiveSet as(2);
  exec::ScopedPid pid(0);
  for (int i = 0; i < 100; ++i) {
    as.join();
    as.leave();
  }
  EXPECT_EQ(as.slots_used(), 100u);  // one fresh slot per join
}

TEST(FaiCas, GetSetPublishesVacatedIntervals) {
  FaiCasActiveSet as(2);
  exec::ScopedPid pid(0);
  for (int i = 0; i < 50; ++i) {
    as.join();
    as.leave();
  }
  EXPECT_EQ(as.skip_list_publications(), 0u);
  EXPECT_TRUE(as.get_set().empty());
  EXPECT_EQ(as.skip_list_publications(), 1u);
  // All 50 vacated slots are adjacent -> coalesced into one interval.
  EXPECT_EQ(as.published_intervals(), 1u);
}

TEST(FaiCas, SecondGetSetSkipsPublishedIntervals) {
  FaiCasActiveSet as(2);
  exec::ScopedPid pid(0);
  for (int i = 0; i < 50; ++i) {
    as.join();
    as.leave();
  }
  (void)as.get_set();  // publishes the skip list
  std::uint64_t before = steps_now();
  (void)as.get_set();
  std::uint64_t cost = steps_now() - before;
  // Second getSet: load C, read H, and nothing else to scan.
  EXPECT_LE(cost, 4u);
}

TEST(FaiCas, GetSetWithoutPublicationRescansEverything) {
  FaiCasActiveSet::Options options;
  options.publish_skip_list = false;
  FaiCasActiveSet as(2, options);
  exec::ScopedPid pid(0);
  for (int i = 0; i < 50; ++i) {
    as.join();
    as.leave();
  }
  (void)as.get_set();
  std::uint64_t before = steps_now();
  (void)as.get_set();
  std::uint64_t cost = steps_now() - before;
  // Must rescan all 50 vacated slots every time (the ABL-1 ablation's
  // point): 50 slot reads plus the C and H loads.
  EXPECT_GE(cost, 50u);
}

TEST(FaiCas, NoCoalesceKeepsFragmentedList) {
  // Two processes interleave joins; one leaves, the other stays, so the
  // vacated slots alternate and cannot form runs even with coalescing.
  // With coalescing disabled every vacated slot is its own interval.
  FaiCasActiveSet::Options options;
  options.coalesce = false;
  FaiCasActiveSet as(2, options);
  constexpr int kRounds = 20;
  for (int i = 0; i < kRounds; ++i) {
    {
      exec::ScopedPid pid(0);
      as.join();
    }
    {
      exec::ScopedPid pid(1);
      as.join();
    }
    {
      exec::ScopedPid pid(0);
      as.leave();
    }
    // pid 1 stays active, splitting the vacated runs.
    {
      exec::ScopedPid pid(1);
      as.leave();
    }
    {
      exec::ScopedPid pid(1);
      as.join();
    }
    {
      exec::ScopedPid pid(1);
      (void)as.get_set();
    }
    {
      exec::ScopedPid pid(1);
      as.leave();
    }
  }
  exec::ScopedPid pid(0);
  (void)as.get_set();
  EXPECT_GT(as.published_intervals(), std::size_t(kRounds));
}

TEST(FaiCas, CoalescedListStaysShort) {
  // Same churn as above but with coalescing: adjacent vacated slots merge,
  // so the list stays near-constant.  (Section 4.1: "coalesced into a
  // single interval in order to keep the length of the list as small as
  // possible".)
  FaiCasActiveSet as(2);
  for (int i = 0; i < 50; ++i) {
    {
      exec::ScopedPid pid(0);
      as.join();
      as.leave();
    }
    if (i % 10 == 0) {
      exec::ScopedPid pid(1);
      (void)as.get_set();
    }
  }
  exec::ScopedPid pid(1);
  (void)as.get_set();
  EXPECT_LE(as.published_intervals(), 2u);
}

TEST(FaiCasDeathTest, LeaveWithoutJoinAborts) {
  FaiCasActiveSet as(2);
  exec::ScopedPid pid(0);
  EXPECT_DEATH(as.leave(), "without a preceding join");
}

TEST(FaiCas, AmortizedGetSetBoundedUnderChurn) {
  // Theorem 2: amortized O(C) per getSet.  Here contention is constant
  // (two processes), so average getSet cost must stay bounded no matter
  // how long the execution runs: total steps across the run divided by
  // the number of getSets must not grow with the churn volume.
  FaiCasActiveSet as(2);
  double prev_avg = 0;
  for (int epoch = 1; epoch <= 3; ++epoch) {
    std::uint64_t total = 0;
    constexpr int kOps = 300;
    for (int i = 0; i < kOps; ++i) {
      {
        exec::ScopedPid pid(0);
        as.join();
        as.leave();
      }
      exec::ScopedPid pid(1);
      std::uint64_t before = steps_now();
      (void)as.get_set();
      total += steps_now() - before;
    }
    double avg = double(total) / kOps;
    if (epoch > 1) {
      // Average cost in later epochs must not blow up (slots keep
      // accumulating, the skip list keeps them out of the scan).
      EXPECT_LE(avg, prev_avg * 2 + 16);
    }
    prev_avg = avg;
  }
}

TEST(FaiCas, GetSetSeesActiveAcrossManySlots) {
  FaiCasActiveSet as(3);
  // Burn 70 slots with churn from pid 0.
  {
    exec::ScopedPid pid(0);
    for (int i = 0; i < 70; ++i) {
      as.join();
      as.leave();
    }
  }
  {
    exec::ScopedPid pid(2);
    as.join();
  }
  exec::ScopedPid pid(1);
  EXPECT_EQ(as.get_set(), (std::vector<std::uint32_t>{2}));
}

// Real-thread join/leave/getSet churn, on both runtimes: racing getSets
// build their lists in recycled nodes and publish them with competing
// CASes.  While joined, a process must see itself (it is active for the
// whole getSet).  After quiescence every slot is vacated, so one final
// getSet returns {} and leaves the published list covering exactly [1, h].
template <class Policy>
void run_real_thread_churn() {
  constexpr std::uint32_t kThreads = 4;
  constexpr int kRounds = 2000;
  FaiCasActiveSetT<Policy> as(kThreads);
  exec::ThreadRegistry registry(kThreads);
  std::atomic<int> missed_self{0};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      exec::ThreadHandle handle(registry);
      std::vector<std::uint32_t> out;
      for (int round = 0; round < kRounds; ++round) {
        as.join();
        as.get_set(out);
        if (std::find(out.begin(), out.end(), handle.pid()) == out.end()) {
          missed_self.fetch_add(1);
        }
        as.leave();
        if (round % 3 == 0) as.get_set(out);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(missed_self.load(), 0);

  exec::ScopedPid pid(0);
  EXPECT_TRUE(as.get_set().empty());
  std::uint64_t h = as.slots_used();
  EXPECT_EQ(h, std::uint64_t{kThreads} * kRounds);
  EXPECT_EQ(as.published_list(), intervals::IntervalSet::from_intervals(
                                     {intervals::Interval{1, h}}));
  EXPECT_GE(as.skip_list_publications(), 1u);
}

TEST(FaiCas, RealThreadChurnLeavesEverySlotSkipListed) {
  run_real_thread_churn<primitives::Instrumented>();
}

TEST(FaiCas, RealThreadChurnLeavesEverySlotSkipListedFast) {
  run_real_thread_churn<primitives::Release>();
}

}  // namespace
}  // namespace psnap::activeset
