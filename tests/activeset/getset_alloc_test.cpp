// Steady-state collects must not touch the heap.
//
// scan_alloc_test and update_alloc_test close the snapshot operation
// surface; this suite audits the remaining hot entry point, ActiveSet::
// get_set, for every registered implementation.  The contract under test:
//
//   * the caller's output vector is reserved once (at the population
//     bound) and its capacity is reused -- never shrunk -- by every later
//     collect;
//   * with a stable membership, repeated getSets perform ZERO heap
//     allocations, for every implementation;
//   * under membership churn the register set stays allocation-free too
//     (its per-pid flags are written in place), and
//     so does Figure 2 once its skip-list pool is warm: each publication
//     builds the new interval list in place in a recycled node, and the
//     vacated-slot gathering reuses a capacity-retaining scratch.  Its one
//     remaining allocation is the slot-segment install every 1024 joins,
//     which the measured window stays clear of.
//
// Its own binary, like the other allocation suites: it owns the global
// operator new/delete.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "activeset/active_set.h"
#include "activeset/faicas_active_set.h"
#include "exec/exec.h"
#include "registry/registry.h"
#include "tests/support/counting_allocator.h"
#include "tests/support/registry_params.h"

namespace psnap::activeset {
namespace {

using test::g_allocations;

constexpr std::uint32_t kN = 8;

std::uint64_t allocations_during_getsets(ActiveSet& as,
                                         std::vector<std::uint32_t>& out,
                                         int calls) {
  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < calls; ++i) as.get_set(out);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

class GetSetAllocTest
    : public ::testing::TestWithParam<test::ActiveSetCase> {};

TEST_P(GetSetAllocTest, StableMembershipCollectsAreAllocationFree) {
  // Three members spread across the pid range, installed before the
  // measurement; the observer then collects repeatedly.
  auto as = GetParam().make(kN);
  for (std::uint32_t p : {1u, 3u, 6u}) {
    exec::ScopedPid pid(p);
    as->join();
  }
  exec::ScopedPid pid(0);
  std::vector<std::uint32_t> out;
  for (int i = 0; i < 8; ++i) as->get_set(out);  // warm-up: capacity, EBR
  EXPECT_EQ(allocations_during_getsets(*as, out, 400), 0u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 3, 6}));
}

TEST_P(GetSetAllocTest, OutputCapacityIsReservedOnceAndNeverShrunk) {
  auto as = GetParam().make(kN);
  {
    exec::ScopedPid pid(5);
    as->join();
  }
  exec::ScopedPid pid(0);
  std::vector<std::uint32_t> out;
  as->get_set(out);
  std::size_t capacity = out.capacity();
  EXPECT_GE(capacity, out.size());
  for (int i = 0; i < 200; ++i) {
    as->get_set(out);
    EXPECT_EQ(out.capacity(), capacity) << "collect shrank or regrew the "
                                           "caller's capacity at call "
                                        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, GetSetAllocTest,
                         ::testing::ValuesIn(test::active_set_impls()),
                         test::active_set_case_name);

// Churn-phase allocation freedom for the flag-per-pid register set, in
// both runtimes: join/leave write per-pid state in place, so even
// collects interleaved with membership churn must stay off the heap.
// (Figure 2 has its own churn test below: its skip-list pool needs a
// warm-up past two EBR grace periods, longer than this one.)
class GetSetChurnAllocTest
    : public ::testing::TestWithParam<test::ActiveSetCase> {};

TEST_P(GetSetChurnAllocTest, ChurningCollectsAreAllocationFree) {
  auto as = GetParam().make(kN);
  std::vector<std::uint32_t> out;
  // Warm everything the churn loop touches: every pid's flag slot (the
  // first join may install a per-pid segment), the observer's capacity.
  for (std::uint32_t p : {1u, 2u, 3u}) {
    exec::ScopedPid pid(p);
    as->join();
    as->leave();
  }
  {
    exec::ScopedPid pid(0);
    for (int i = 0; i < 4; ++i) as->get_set(out);
  }
  // Built outside the measured loop: the comparison literal must not be
  // charged to the collects.
  const std::vector<std::uint32_t> expected{1, 2, 3};
  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 200; ++round) {
    for (std::uint32_t p : {1u, 2u, 3u}) {
      exec::ScopedPid pid(p);
      as->join();
    }
    {
      exec::ScopedPid pid(0);
      as->get_set(out);
      EXPECT_EQ(out, expected);
    }
    for (std::uint32_t p : {1u, 2u, 3u}) {
      exec::ScopedPid pid(p);
      as->leave();
    }
    {
      exec::ScopedPid pid(0);
      as->get_set(out);
      EXPECT_TRUE(out.empty());
    }
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    FlagPerPidImplementations, GetSetChurnAllocTest,
    ::testing::ValuesIn(test::active_set_impls(
        [](const test::ActiveSetCase& v) {
          return v.entry == "register";
        })),
    test::active_set_case_name);

// Figure 2 under churn: every round vacates a slot and the getSet
// publishes it, building the new list in a node recycled through the
// active set's pool.  Once the pool is warm -- recycled nodes only come
// back after an EBR grace period (retire threshold 64, two epoch
// generations) -- a publishing getSet allocates nothing.  Both runtimes;
// every join stays inside the first 1024-slot segment.
template <class Policy>
void run_faicas_churn_alloc_test() {
  FaiCasActiveSetT<Policy> as(kN);
  std::vector<std::uint32_t> out;
  auto churn_round = [&] {
    exec::ScopedPid pid(1);
    as.join();
    as.leave();
    as.get_set(out);  // gathers + publishes the vacated slot
  };
  // Warm: well past two grace periods, so the pool, the retired list and
  // every recycled node's interval capacity reach their watermarks.
  for (int round = 0; round < 300; ++round) churn_round();
  constexpr int kRounds = 200;
  std::uint64_t publications = as.skip_list_publications();
  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < kRounds; ++round) churn_round();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  // Every round really published: the zero is not a skipped publication.
  EXPECT_EQ(as.skip_list_publications() - publications,
            std::uint64_t{kRounds});
  EXPECT_LT(as.slots_used(), 1024u);
}

TEST(FaiCasChurnAlloc, ChurnGetSetsAreAllocationFree) {
  run_faicas_churn_alloc_test<primitives::Instrumented>();
}

TEST(FaiCasChurnAlloc, ChurnGetSetsAreAllocationFreeFast) {
  run_faicas_churn_alloc_test<primitives::Release>();
}

}  // namespace
}  // namespace psnap::activeset
