#include "reclaim/ebr.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "exec/exec.h"
#include "tests/support/pid_handover.h"

namespace psnap::reclaim {
namespace {

struct Tracked {
  static std::atomic<int> live;
  Tracked() { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
  int payload = 0;
};
std::atomic<int> Tracked::live{0};

TEST(Ebr, RetiredNodesFreedAfterQuiescence) {
  Tracked::live = 0;
  {
    EbrDomain domain;
    for (int i = 0; i < 10; ++i) {
      domain.retire(new Tracked);
    }
    EXPECT_EQ(domain.retired_count(), 10u);
    // Force several epochs; nothing is pinned so everything reclaims.
    for (int i = 0; i < 5; ++i) domain.try_reclaim();
    EXPECT_EQ(domain.outstanding(), 0u);
    EXPECT_EQ(Tracked::live.load(), 0);
  }
}

TEST(Ebr, DestructorDrainsOutstanding) {
  Tracked::live = 0;
  {
    EbrDomain domain;
    for (int i = 0; i < 7; ++i) domain.retire(new Tracked);
    // No try_reclaim: nodes still outstanding at destruction.
  }
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Ebr, PinBlocksReclamation) {
  Tracked::live = 0;
  EbrDomain domain;
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};

  std::thread reader([&] {
    auto guard = domain.pin();
    pinned = true;
    while (!release) std::this_thread::yield();
  });
  while (!pinned) std::this_thread::yield();

  for (int i = 0; i < 10; ++i) domain.retire(new Tracked);
  for (int i = 0; i < 10; ++i) domain.try_reclaim();
  // The reader pinned an epoch before the retirements; the retired nodes
  // must not all be freed while it remains pinned.
  EXPECT_GT(domain.outstanding(), 0u);

  release = true;
  reader.join();
  for (int i = 0; i < 5; ++i) domain.try_reclaim();
  EXPECT_EQ(domain.outstanding(), 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Ebr, GuardIsReentrant) {
  EbrDomain domain;
  auto outer = domain.pin();
  {
    auto inner = domain.pin();  // must not deadlock or double-advance
  }
  // Epoch can still advance after full unpin.
  SUCCEED();
}

TEST(Ebr, EpochAdvancesWhenUnpinned) {
  EbrDomain domain;
  std::uint64_t e0 = domain.global_epoch();
  domain.try_reclaim();
  domain.try_reclaim();
  EXPECT_GT(domain.global_epoch(), e0);
}

TEST(Ebr, EpochFrozenWhilePinnedBehind) {
  EbrDomain domain;
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    auto guard = domain.pin();
    pinned = true;
    while (!release) std::this_thread::yield();
  });
  while (!pinned) std::this_thread::yield();
  // One advance may still happen (the reader pinned the current epoch and
  // the rule only requires all pinned epochs to equal the global); after
  // that the global is ahead of the pinned epoch and must freeze.
  domain.try_reclaim();
  std::uint64_t e1 = domain.global_epoch();
  for (int i = 0; i < 5; ++i) domain.try_reclaim();
  EXPECT_EQ(domain.global_epoch(), e1);
  release = true;
  reader.join();
}

TEST(Ebr, StressManyThreads) {
  Tracked::live = 0;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 5000;
  {
    EbrDomain domain;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&domain] {
        for (int i = 0; i < kOpsPerThread; ++i) {
          auto guard = domain.pin();
          domain.retire(new Tracked);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(domain.retired_count(),
              std::uint64_t(kThreads) * kOpsPerThread);
  }
  // Domain destruction frees everything that was still outstanding.
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Ebr, SlotCountersExactAcrossThreadsAndPidHandover) {
  // The retire/free counters are per-slot single-writer (no RMW), so their
  // sums are exact only if every slot really has one writer at a time,
  // including across a mid-run pid release and re-acquire.
  Tracked::live = 0;
  constexpr std::uint32_t kThreads = 4;
  constexpr int kPerThread = 3000;
  EbrDomain domain;
  test::run_threads_with_pid_handover(kThreads, kPerThread, [&](int count) {
    for (int i = 0; i < count; ++i) {
      auto guard = domain.pin();
      domain.retire(new Tracked);
    }
  });

  constexpr std::uint64_t kTotal = std::uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(domain.retired_count(), kTotal);
  EXPECT_EQ(domain.freed_count() + domain.outstanding(),
            domain.retired_count());
  // Quiescent drain: a slot frees only its own list, so visit every pid.
  for (std::uint32_t p = 0; p < kThreads; ++p) {
    exec::ScopedPid pid(p);
    for (int i = 0; i < 3; ++i) domain.try_reclaim();
  }
  EXPECT_EQ(domain.retired_count(), kTotal);
  EXPECT_EQ(domain.freed_count(), kTotal);
  EXPECT_EQ(domain.outstanding(), 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Ebr, ManyDomainsIndependent) {
  Tracked::live = 0;
  std::vector<std::unique_ptr<EbrDomain>> domains;
  for (int d = 0; d < 20; ++d) {
    domains.push_back(std::make_unique<EbrDomain>());
    domains.back()->retire(new Tracked);
  }
  domains.clear();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(EbrDeathTest, DestroyWhilePinnedAborts) {
  EXPECT_DEATH(
      {
        auto* domain = new EbrDomain;
        auto guard = domain->pin();
        delete domain;
      },
      "pinned");
}

}  // namespace
}  // namespace psnap::reclaim
