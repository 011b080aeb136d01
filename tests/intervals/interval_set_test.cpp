#include "intervals/interval_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"

namespace psnap::intervals {
namespace {

TEST(IntervalSet, EmptyBehaviour) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.cardinality(), 0u);
  EXPECT_FALSE(s.contains(0));
  EXPECT_TRUE(s.is_canonical());
}

TEST(IntervalSet, FromPointsCoalescesRuns) {
  auto s = IntervalSet::from_points({1, 2, 3, 7, 9, 10});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.intervals()[0], (Interval{1, 3}));
  EXPECT_EQ(s.intervals()[1], (Interval{7, 7}));
  EXPECT_EQ(s.intervals()[2], (Interval{9, 10}));
  EXPECT_TRUE(s.is_canonical());
}

TEST(IntervalSet, FromPointsDuplicatesIgnored) {
  auto s = IntervalSet::from_points({5, 5, 5});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.cardinality(), 1u);
}

TEST(IntervalSet, FromIntervalsMergesOverlap) {
  auto s = IntervalSet::from_intervals({{1, 5}, {3, 8}, {10, 12}});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.intervals()[0], (Interval{1, 8}));
  EXPECT_EQ(s.intervals()[1], (Interval{10, 12}));
}

TEST(IntervalSet, FromIntervalsMergesAdjacent) {
  auto s = IntervalSet::from_intervals({{1, 2}, {3, 4}});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.intervals()[0], (Interval{1, 4}));
}

TEST(IntervalSet, NoCoalesceKeepsAdjacentSeparate) {
  auto s = IntervalSet::from_points({1, 2, 3}, /*merge_adjacent=*/false);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.cardinality(), 3u);
  // Overlap must still merge even in no-coalesce mode.
  auto t = IntervalSet::from_intervals({{1, 5}, {2, 3}}, false);
  EXPECT_EQ(t.size(), 1u);
}

TEST(IntervalSet, ContainsOnBoundaries) {
  auto s = IntervalSet::from_intervals({{10, 20}});
  EXPECT_FALSE(s.contains(9));
  EXPECT_TRUE(s.contains(10));
  EXPECT_TRUE(s.contains(15));
  EXPECT_TRUE(s.contains(20));
  EXPECT_FALSE(s.contains(21));
}

TEST(IntervalSet, MergedWithPoints) {
  auto s = IntervalSet::from_points({1, 2});
  auto t = s.merged_with_points({3, 10});
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.intervals()[0], (Interval{1, 3}));
  EXPECT_EQ(t.intervals()[1], (Interval{10, 10}));
  // Original is immutable.
  EXPECT_EQ(s.size(), 1u);
}

TEST(IntervalSet, MergedWithSets) {
  auto a = IntervalSet::from_intervals({{1, 3}, {10, 12}});
  auto b = IntervalSet::from_intervals({{4, 9}});
  auto c = a.merged_with(b);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.intervals()[0], (Interval{1, 12}));
}

TEST(IntervalSet, ForEachGapWalksUncovered) {
  auto s = IntervalSet::from_intervals({{2, 3}, {6, 7}});
  std::vector<std::uint64_t> gaps;
  s.for_each_gap(1, 9, [&](std::uint64_t x) { gaps.push_back(x); });
  EXPECT_EQ(gaps, (std::vector<std::uint64_t>{1, 4, 5, 8, 9}));
}

TEST(IntervalSet, ForEachGapFullyCovered) {
  auto s = IntervalSet::from_intervals({{1, 100}});
  int count = 0;
  s.for_each_gap(1, 100, [&](std::uint64_t) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(IntervalSet, ForEachGapEmptySet) {
  IntervalSet s;
  std::vector<std::uint64_t> gaps;
  s.for_each_gap(3, 6, [&](std::uint64_t x) { gaps.push_back(x); });
  EXPECT_EQ(gaps, (std::vector<std::uint64_t>{3, 4, 5, 6}));
}

TEST(IntervalSet, ForEachGapIntervalBeyondRange) {
  auto s = IntervalSet::from_intervals({{100, 200}});
  std::vector<std::uint64_t> gaps;
  s.for_each_gap(1, 3, [&](std::uint64_t x) { gaps.push_back(x); });
  EXPECT_EQ(gaps, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(IntervalSet, ToStringReadable) {
  auto s = IntervalSet::from_points({1, 2, 9});
  EXPECT_EQ(s.to_string(), "{[1,2], [9,9]}");
}

TEST(IntervalSet, HandlesUint64MaxBoundary) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  auto s = IntervalSet::from_points({kMax - 1, kMax});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(kMax));
  EXPECT_EQ(s.cardinality(), 2u);
}

// ---------------------------------------------------------------------------
// Property suite: IntervalSet must agree with a naive std::set<uint64_t>
// model under random merge workloads.
// ---------------------------------------------------------------------------

class IntervalSetPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(IntervalSetPropertyTest, AgreesWithNaiveModel) {
  Xoshiro256 rng(GetParam());
  IntervalSet set;
  std::set<std::uint64_t> model;
  constexpr std::uint64_t kUniverse = 200;

  for (int round = 0; round < 40; ++round) {
    // Random batch of points, merged in.
    std::vector<std::uint64_t> points;
    std::uint64_t batch = rng.next_in(1, 10);
    for (std::uint64_t i = 0; i < batch; ++i) {
      points.push_back(rng.next_below(kUniverse));
    }
    for (auto p : points) model.insert(p);
    set = set.merged_with_points(points);

    ASSERT_TRUE(set.is_canonical()) << set.to_string();
    ASSERT_EQ(set.cardinality(), model.size());
    for (std::uint64_t x = 0; x < kUniverse; ++x) {
      ASSERT_EQ(set.contains(x), model.count(x) > 0)
          << "x=" << x << " " << set.to_string();
    }
    // Gap iteration agrees with the complement.
    std::vector<std::uint64_t> gaps;
    set.for_each_gap(0, kUniverse - 1,
                     [&](std::uint64_t x) { gaps.push_back(x); });
    std::vector<std::uint64_t> expected;
    for (std::uint64_t x = 0; x < kUniverse; ++x) {
      if (!model.count(x)) expected.push_back(x);
    }
    ASSERT_EQ(gaps, expected);
  }
}

TEST_P(IntervalSetPropertyTest, MergeOfSetsMatchesModel) {
  Xoshiro256 rng(GetParam() * 977 + 3);
  constexpr std::uint64_t kUniverse = 150;
  auto random_set = [&](std::set<std::uint64_t>& model) {
    std::vector<Interval> ivs;
    std::uint64_t count = rng.next_in(0, 6);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t lo = rng.next_below(kUniverse);
      std::uint64_t hi = std::min(kUniverse - 1, lo + rng.next_below(12));
      ivs.push_back({lo, hi});
      for (std::uint64_t x = lo; x <= hi; ++x) model.insert(x);
    }
    return IntervalSet::from_intervals(ivs);
  };
  std::set<std::uint64_t> model_a, model_b;
  auto a = random_set(model_a);
  auto b = random_set(model_b);
  auto c = a.merged_with(b);
  ASSERT_TRUE(c.is_canonical());
  for (std::uint64_t x = 0; x < kUniverse; ++x) {
    ASSERT_EQ(c.contains(x), model_a.count(x) + model_b.count(x) > 0);
  }
}

TEST_P(IntervalSetPropertyTest, AssignUnionMatchesFromIntervals) {
  // The in-place merge against the sort-and-normalize reference, under
  // both coalescing settings.  Points are drawn next to (lo - 1, hi + 1)
  // and inside existing intervals as well as at random, and one target is
  // rebuilt every round, so a longer earlier list must not leak through
  // the reused capacity.
  Xoshiro256 rng(GetParam() * 7919 + 11);
  constexpr std::uint64_t kUniverse = 120;
  for (bool merge_adjacent : {true, false}) {
    IntervalSet target;
    for (int round = 0; round < 60; ++round) {
      std::vector<Interval> raw;
      std::uint64_t count = rng.next_in(0, 8);
      for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t lo = rng.next_in(1, kUniverse);
        raw.push_back({lo, std::min(kUniverse, lo + rng.next_below(6))});
      }
      IntervalSet base = IntervalSet::from_intervals(raw, merge_adjacent);

      std::vector<std::uint64_t> points;
      std::uint64_t batch = rng.next_in(0, 12);
      for (std::uint64_t i = 0; i < batch; ++i) {
        if (base.empty() || rng.next_below(3) == 0) {
          points.push_back(rng.next_in(1, kUniverse));
          continue;
        }
        const Interval& iv =
            base.intervals()[rng.next_below(base.size())];
        switch (rng.next_below(3)) {
          case 0: points.push_back(iv.lo - 1); break;
          case 1: points.push_back(iv.hi + 1); break;
          default: points.push_back(rng.next_in(iv.lo, iv.hi)); break;
        }
      }
      std::sort(points.begin(), points.end());
      points.erase(std::unique(points.begin(), points.end()), points.end());

      std::vector<Interval> all = base.intervals();
      for (std::uint64_t p : points) all.push_back({p, p});
      IntervalSet expected = IntervalSet::from_intervals(all, merge_adjacent);

      target.assign_union(base, points, merge_adjacent);
      ASSERT_EQ(target, expected)
          << "merge_adjacent=" << merge_adjacent << " base "
          << base.to_string() << " got " << target.to_string();
      ASSERT_EQ(base.merged_with_points(points, merge_adjacent), expected);
      if (merge_adjacent) {
        ASSERT_TRUE(target.is_canonical());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, IntervalSetPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace psnap::intervals
