#include "reclaim/hazard.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "exec/exec.h"
#include "reclaim/slots.h"
#include "tests/support/pid_handover.h"

namespace psnap::reclaim {
namespace {

struct Node {
  static std::atomic<int> live;
  Node() { live.fetch_add(1); }
  ~Node() { live.fetch_sub(1); }
  int value = 0;
};
std::atomic<int> Node::live{0};

TEST(Hazard, ProtectReturnsCurrentPointer) {
  HazardDomain domain;
  std::atomic<Node*> src{new Node};
  Node* p = domain.protect(src, 0);
  EXPECT_EQ(p, src.load());
  domain.clear(0);
  delete src.load();
}

TEST(Hazard, ProtectedNodeSurvivesScan) {
  Node::live = 0;
  HazardDomain domain;
  std::atomic<Node*> src{new Node};
  Node* p = domain.protect(src, 0);
  domain.retire(p);
  domain.scan_and_free();
  EXPECT_EQ(Node::live.load(), 1);  // still protected
  domain.clear(0);
  domain.scan_and_free();
  EXPECT_EQ(Node::live.load(), 0);
}

TEST(Hazard, UnprotectedNodesFreedByScan) {
  Node::live = 0;
  HazardDomain domain;
  for (int i = 0; i < 50; ++i) domain.retire(new Node);
  domain.scan_and_free();
  EXPECT_EQ(Node::live.load(), 0);
  EXPECT_EQ(domain.outstanding(), 0u);
}

TEST(Hazard, DestructorDrains) {
  Node::live = 0;
  {
    HazardDomain domain;
    for (int i = 0; i < 9; ++i) domain.retire(new Node);
  }
  EXPECT_EQ(Node::live.load(), 0);
}

TEST(Hazard, ProtectFollowsConcurrentSwaps) {
  // The protect loop must re-validate: after it returns, the returned
  // pointer was both the source value and published as hazardous at one
  // instant, so it can never be freed under us.
  Node::live = 0;
  {
    HazardDomain domain;
    std::atomic<Node*> src{new Node};
    std::atomic<bool> stop{false};

    std::thread swapper([&] {
      while (!stop) {
        Node* fresh = new Node;
        Node* old = src.exchange(fresh);
        domain.retire(old);
      }
    });

    for (int i = 0; i < 2000; ++i) {
      Node* p = domain.protect(src, 0);
      // Touching the node must be safe.
      EXPECT_GE(p->value, 0);
      domain.clear(0);
    }
    stop = true;
    swapper.join();
    delete src.load();
    // Retired nodes sit in the swapper's per-thread list; only the domain
    // destructor drains other threads' lists.
  }
  EXPECT_EQ(Node::live.load(), 0);
}

TEST(Hazard, MultipleIndicesIndependent) {
  HazardDomain domain;
  std::atomic<Node*> a{new Node}, b{new Node};
  Node* pa = domain.protect(a, 0);
  Node* pb = domain.protect(b, 1);
  domain.retire(pa);
  domain.retire(pb);
  domain.clear(0);
  domain.scan_and_free();
  // Only b remains protected.
  EXPECT_EQ(domain.outstanding(), 1u);
  domain.clear_all();
  domain.scan_and_free();
  EXPECT_EQ(domain.outstanding(), 0u);
}

TEST(Hazard, AdaptiveRetirePressureTriggersAutomaticScan) {
  Node::live = 0;
  HazardDomain domain;
  // With one claimed slot the adaptive threshold bottoms out at the floor
  // (64), not Michael's fixed 2 * kTotalSlots * K (~1800) -- a
  // single-thread workload must not be able to pile up thousands of nodes
  // before the first automatic scan.
  for (int i = 0; i < 200; ++i) domain.retire(new Node);
  EXPECT_LT(domain.outstanding(), 200u);
}

TEST(Hazard, RegisteredThreadUsesItsPidSlot) {
  // Shared slot layout with EbrDomain: a registered thread's slot IS its
  // pid, so one Pool keyed by these indices serves both substrates.
  HazardDomain domain;
  {
    exec::ScopedPid pid(7);
    EXPECT_EQ(domain.thread_slot(), 7u);
  }
  // Without a pid the thread falls back to a sticky anonymous slot above
  // the pid range.
  std::uint32_t anon = domain.thread_slot();
  EXPECT_GE(anon, kPidSlots);
  EXPECT_LT(anon, kTotalSlots);
  EXPECT_EQ(domain.thread_slot(), anon);  // sticky
}

TEST(Hazard, SetPlusCallerValidationProtects) {
  // The raw set() + caller-side validation style reclaim::Plane::Op uses:
  // publish, re-read, and the pointer is protected.
  Node::live = 0;
  HazardDomain domain;
  std::atomic<Node*> src{new Node};
  Node* p = src.load();
  domain.set(0, p);
  ASSERT_EQ(src.load(), p);  // validation succeeded: p is protected
  domain.retire(p);
  domain.scan_and_free();
  EXPECT_EQ(Node::live.load(), 1);
  domain.clear(0);
  domain.scan_and_free();
  EXPECT_EQ(Node::live.load(), 0);
}

TEST(Hazard, RecycleCallbackReceivesRetiringSlot) {
  // The slot-carrying retire_raw contract reclaim::Pool depends on: the
  // callback is told WHICH per-thread list the node belongs to, whether it
  // runs from a scan on the retiring thread or from the destructor on a
  // thread that owns no slot.
  static std::vector<std::uint32_t> seen_slots;
  seen_slots.clear();
  Node* a = new Node;
  Node* b = new Node;
  {
    HazardDomain domain;
    std::uint32_t my_slot;
    {
      exec::ScopedPid pid(3);
      my_slot = domain.thread_slot();
      auto fn = [](void* p, void*, std::uint32_t slot) {
        seen_slots.push_back(slot);
        delete static_cast<Node*>(p);
      };
      domain.retire_raw(a, nullptr, fn);
      domain.retire_raw(b, nullptr, fn);
      domain.scan_and_free();  // frees both from slot 3, on the owner
    }
    EXPECT_EQ(my_slot, 3u);
  }
  ASSERT_EQ(seen_slots.size(), 2u);
  EXPECT_EQ(seen_slots[0], 3u);
  EXPECT_EQ(seen_slots[1], 3u);
  EXPECT_EQ(Node::live.load(), 0);
}

TEST(Hazard, SlotCountersExactAcrossThreadsAndPidHandover) {
  // Same counter idiom as EbrDomain: per-slot single-writer counters whose
  // sums stay exact across real threads and a mid-run pid hand-over.
  // Every thread also protects a shared node, so the automatic scans
  // racing the retirements see live hazards.
  Node::live = 0;
  constexpr std::uint32_t kThreads = 4;
  constexpr int kPerThread = 3000;
  HazardDomain domain;
  std::atomic<Node*> shared{new Node};
  test::run_threads_with_pid_handover(kThreads, kPerThread, [&](int count) {
    for (int i = 0; i < count; ++i) {
      (void)domain.protect(shared, 0);
      domain.retire(new Node);
    }
    domain.clear_all();
  });

  constexpr std::uint64_t kTotal = std::uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(domain.retired_count(), kTotal);
  EXPECT_EQ(domain.freed_count() + domain.outstanding(),
            domain.retired_count());
  // Quiescent drain: a slot frees only its own list, so visit every pid.
  for (std::uint32_t p = 0; p < kThreads; ++p) {
    exec::ScopedPid pid(p);
    domain.scan_and_free();
  }
  EXPECT_EQ(domain.retired_count(), kTotal);
  EXPECT_EQ(domain.freed_count(), kTotal);
  EXPECT_EQ(domain.outstanding(), 0u);
  delete shared.load();
  EXPECT_EQ(Node::live.load(), 0);
}

TEST(Hazard, ParkedReaderBlocksOnlyProtectedRecords) {
  // THE property that distinguishes hp from EBR, and the reason the
  // registry grew a reclaim=hp plane: a reader parked on specific records
  // does not stall reclamation of anything else.  Under EBR the same
  // parked reader would pin its entry epoch and freeze every later
  // retirement in the domain.
  Node::live = 0;
  HazardDomain domain;
  std::atomic<Node*> held{new Node};
  Node* parked = domain.protect(held, 0);  // the parked reader's record

  // A writer churns through many other records while the reader stays
  // parked; every one of them must be reclaimed promptly.
  std::thread writer([&] {
    for (int i = 0; i < 500; ++i) domain.retire(new Node);
    domain.scan_and_free();
  });
  writer.join();

  // Everything except the one protected record is gone.
  EXPECT_EQ(domain.outstanding(), 0u);
  EXPECT_EQ(Node::live.load(), 1);

  domain.retire(parked);
  domain.scan_and_free();
  EXPECT_EQ(Node::live.load(), 1);  // still parked
  domain.clear(0);
  domain.scan_and_free();
  EXPECT_EQ(Node::live.load(), 0);
}

}  // namespace
}  // namespace psnap::reclaim
