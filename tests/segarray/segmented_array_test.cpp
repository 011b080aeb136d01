#include "segarray/segmented_array.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

namespace psnap::segarray {
namespace {

TEST(SegmentedArray, ElementsValueInitialized) {
  SegmentedArray<std::atomic<std::uint64_t>, 16, 8> arr;
  EXPECT_EQ(arr.at(0).load(), 0u);
  EXPECT_EQ(arr.at(100).load(), 0u);
}

TEST(SegmentedArray, WriteReadAcrossSegments) {
  SegmentedArray<std::atomic<std::uint64_t>, 16, 8> arr;
  for (std::uint64_t i = 0; i < 100; ++i) {
    arr.at(i).store(i * 3);
  }
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(arr.at(i).load(), i * 3);
  }
}

TEST(SegmentedArray, SegmentsAllocatedLazily) {
  SegmentedArray<std::atomic<std::uint64_t>, 16, 8> arr;
  EXPECT_EQ(arr.allocated_segments(), 0u);
  arr.at(0).store(1);
  EXPECT_EQ(arr.allocated_segments(), 1u);
  arr.at(17).store(1);  // second segment
  EXPECT_EQ(arr.allocated_segments(), 2u);
  arr.at(1).store(1);  // existing segment
  EXPECT_EQ(arr.allocated_segments(), 2u);
}

TEST(SegmentedArray, TryAtDoesNotAllocate) {
  SegmentedArray<std::atomic<std::uint64_t>, 16, 8> arr;
  EXPECT_EQ(arr.try_at(5), nullptr);
  EXPECT_EQ(arr.allocated_segments(), 0u);
  arr.at(5).store(7);
  ASSERT_NE(arr.try_at(5), nullptr);
  EXPECT_EQ(arr.try_at(5)->load(), 7u);
}

TEST(SegmentedArray, ReferencesAreStable) {
  SegmentedArray<std::atomic<std::uint64_t>, 16, 8> arr;
  auto& slot = arr.at(3);
  slot.store(11);
  // Touch many other segments; the original reference must stay valid.
  for (std::uint64_t i = 16; i < 128; i += 16) arr.at(i).store(1);
  EXPECT_EQ(arr.at(3).load(), 11u);
  EXPECT_EQ(&arr.at(3), &slot);
}

TEST(SegmentedArray, CapacityComputed) {
  using Small = SegmentedArray<std::atomic<std::uint64_t>, 16, 8>;
  EXPECT_EQ(Small::capacity(), 128u);
}

TEST(SegmentedArrayDeathTest, OutOfCapacityAborts) {
  SegmentedArray<std::atomic<std::uint64_t>, 16, 8> arr;
  EXPECT_DEATH(arr.at(128), "capacity");
}

TEST(SegmentedArray, ConcurrentInstallRace) {
  // Many threads hammer the same fresh segments; each slot must end up
  // with exactly the values written (no lost segment, no double install).
  constexpr int kThreads = 4;
  constexpr std::uint64_t kSlots = 512;
  SegmentedArray<std::atomic<std::uint64_t>, 64, 16> arr;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arr, t] {
      for (std::uint64_t i = 0; i < kSlots; ++i) {
        arr.at(i).fetch_add(std::uint64_t(t) + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Sum of 1..kThreads added once per slot.
  constexpr std::uint64_t kExpected = kThreads * (kThreads + 1) / 2;
  for (std::uint64_t i = 0; i < kSlots; ++i) {
    ASSERT_EQ(arr.at(i).load(), kExpected) << "slot " << i;
  }
}

TEST(SegmentedArray, ConcurrentDisjointWriters) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPer = 1000;
  SegmentedArray<std::atomic<std::uint64_t>, 128, 64> arr;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arr, t] {
      for (std::uint64_t i = 0; i < kPer; ++i) {
        std::uint64_t idx = std::uint64_t(t) * kPer + i;
        arr.at(idx).store(idx + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::uint64_t i = 0; i < kThreads * kPer; ++i) {
    ASSERT_EQ(arr.at(i).load(), i + 1);
  }
}

// build(): init runs once per in-range index, in increasing order, and
// every other slot of a segment it installs is value-initialized.
TEST(SegmentedArrayBuild, PartialFirstAndLastSegments) {
  SegmentedArray<std::atomic<std::uint64_t>, 16, 8> arr;
  std::vector<std::uint64_t> order;
  arr.build(5, 30, [&](std::atomic<std::uint64_t>& slot, std::uint64_t i) {
    slot.store(i + 100);
    order.push_back(i);
  });
  EXPECT_EQ(arr.allocated_segments(), 3u);  // [5,16) [16,32) [32,35)
  ASSERT_EQ(order.size(), 30u);
  for (std::size_t k = 0; k < order.size(); ++k) EXPECT_EQ(order[k], 5 + k);
  for (std::uint64_t i = 0; i < 48; ++i) {
    const bool in = i >= 5 && i < 35;
    EXPECT_EQ(arr.try_at(i)->load(), in ? i + 100 : 0) << "slot " << i;
  }
}

TEST(SegmentedArrayBuild, StartsInsideAnInstalledSegment) {
  SegmentedArray<std::atomic<std::uint64_t>, 16, 8> arr;
  arr.at(3).store(7);  // installs segment 0
  std::atomic<std::uint64_t>* installed = &arr.at(0);
  arr.build(10, 10, [](std::atomic<std::uint64_t>& slot, std::uint64_t i) {
    slot.fetch_add(i + 1);
  });
  EXPECT_EQ(arr.allocated_segments(), 2u);
  EXPECT_EQ(&arr.at(0), installed);  // initialized in place, not replaced
  for (std::uint64_t i = 0; i < 32; ++i) {
    const std::uint64_t want = i == 3 ? 7 : (i >= 10 && i < 20 ? i + 1 : 0);
    EXPECT_EQ(arr.at(i).load(), want) << "slot " << i;
  }
}

// Two threads build disjoint halves of one absent segment, racing to
// install it.  Whichever loses initializes its half in the winner's
// segment (after discarding its own), so every in-range slot of the
// installed segment is initialized exactly once and every slot outside
// both ranges stays value-initialized.
TEST(SegmentedArrayBuild, TwoThreadsBuildDisjointHalvesOfOneSegment) {
  constexpr std::uint64_t kSlots = 256;
  constexpr std::uint64_t kLo = 8, kMid = 128, kHi = 250;
  std::uint64_t discards = 0;
  for (int round = 0; round < 200; ++round) {
    SegmentedArray<std::atomic<std::uint64_t>, kSlots, 2> arr;
    std::atomic<std::uint64_t> discarded{0};
    std::barrier start(2);
    auto build = [&](std::uint64_t first, std::uint64_t count) {
      start.arrive_and_wait();
      arr.build(
          first, count,
          [](std::atomic<std::uint64_t>& slot, std::uint64_t) {
            slot.fetch_add(1);
          },
          [&](std::atomic<std::uint64_t>& slot) {
            EXPECT_EQ(slot.load(), 1u);
            discarded.fetch_add(1);
          });
    };
    std::thread a(build, kLo, kMid - kLo);
    std::thread b(build, kMid, kHi - kMid);
    a.join();
    b.join();
    ASSERT_EQ(arr.allocated_segments(), 1u);
    for (std::uint64_t i = 0; i < kSlots; ++i) {
      const bool in = i >= kLo && i < kHi;
      ASSERT_EQ(arr.at(i).load(), in ? 1u : 0u) << "round " << round
                                                 << " slot " << i;
    }
    // Only a lost install discards, and then exactly the loser's range.
    const std::uint64_t d = discarded.load();
    ASSERT_TRUE(d == 0 || d == kMid - kLo || d == kHi - kMid) << d;
    discards += d;
  }
  RecordProperty("discarded_slots", static_cast<int>(discards));
}

}  // namespace
}  // namespace psnap::segarray
