// The scan's local bookkeeping (core/record.h): the forward-cursor lookup
// that extracts a scan's result from its view, the positional extraction
// an increasing scan takes instead, and the canonicalization of its index
// set.
//
// view_find must agree with std::lower_bound for every query order a
// caller may use -- increasing, descending, repeating, absent -- on views
// that hold exactly the scanned set and on the superset views a
// condition-(2) borrow returns.  For increasing queries its key reads are
// bounded by 2 * (r + |view|), which an O(r log r) lookup (a bisection of
// the whole view per index) exceeds at the sizes used here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/record.h"

namespace psnap::core {
namespace {

// A sorted view over `size` distinct indices drawn from [0, 4 * size).
View random_view(Xoshiro256& rng, std::size_t size) {
  std::vector<std::uint32_t> keys;
  while (keys.size() < size) {
    keys.push_back(static_cast<std::uint32_t>(rng.next_below(4 * size + 1)));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  View view;
  for (std::uint32_t k : keys) view.push_back({k, 1000u + k});
  return view;
}

const ViewEntry* reference_find(const View& view, std::uint32_t index) {
  auto it = std::lower_bound(
      view.begin(), view.end(), index,
      [](const ViewEntry& e, std::uint32_t i) { return e.index < i; });
  return it == view.end() || it->index != index ? nullptr : &*it;
}

// Runs one query sequence through a single cursor and checks every answer
// against the reference.
void expect_agrees(const View& view, const std::vector<std::uint32_t>& keys) {
  std::size_t cursor = 0;
  for (std::size_t q = 0; q < keys.size(); ++q) {
    const ViewEntry* got = view_find(view, keys[q], cursor);
    ASSERT_EQ(got, reference_find(view, keys[q]))
        << "query " << q << " key " << keys[q] << " |view| " << view.size();
    ASSERT_LE(cursor, view.size());
  }
}

TEST(ViewCursor, AgreesWithLowerBoundForEveryQueryOrder) {
  Xoshiro256 rng(17);
  for (std::size_t size : {1u, 2u, 3u, 7u, 64u, 257u}) {
    for (int trial = 0; trial < 20; ++trial) {
      const View view = random_view(rng, size);
      const std::uint32_t span = view.back().index + 3;
      std::vector<std::uint32_t> present;
      for (const ViewEntry& e : view) present.push_back(e.index);
      std::vector<std::uint32_t> any(2 * size);
      for (auto& k : any) k = static_cast<std::uint32_t>(rng.next_below(span));

      std::vector<std::uint32_t> increasing = any;
      std::sort(increasing.begin(), increasing.end());
      increasing.erase(std::unique(increasing.begin(), increasing.end()),
                       increasing.end());
      std::vector<std::uint32_t> descending(increasing.rbegin(),
                                            increasing.rend());
      // Non-decreasing, so each repeat sits right behind the cursor.
      std::vector<std::uint32_t> repeating;
      for (std::uint32_t k : present) {
        repeating.insert(repeating.end(), 1 + rng.next_below(3), k);
      }

      expect_agrees(view, present);
      expect_agrees(view, increasing);
      expect_agrees(view, descending);
      expect_agrees(view, repeating);
      expect_agrees(view, any);  // random order, absent keys included
      expect_agrees(view, {span, span + 1, 0, view.front().index});
    }
  }
}

TEST(ViewCursor, BorrowedSupersetViewsServeEveryCallerOrder) {
  // A borrowed view covers the union of every announced set; the scan's
  // own indices are a subset, asked for in the caller's order.
  Xoshiro256 rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    const View view = random_view(rng, 200);
    std::vector<std::uint32_t> mine;
    for (const ViewEntry& e : view) {
      if (rng.next_bool(0.3)) mine.push_back(e.index);
    }
    if (mine.empty()) mine.push_back(view[100].index);
    mine.push_back(mine[mine.size() / 2]);  // one duplicate
    rng.shuffle(mine);
    for (const auto& order :
         {mine, std::vector<std::uint32_t>(mine.rbegin(), mine.rend())}) {
      std::size_t cursor = 0;
      for (std::uint32_t k : order) {
        const ViewEntry* e = view_find(view, k, cursor);
        ASSERT_NE(e, nullptr) << k;
        EXPECT_EQ(e->index, k);
        EXPECT_EQ(e->value, 1000u + k);
      }
    }
  }
}

TEST(ViewCursor, EmptyViewFindsNothing) {
  const View empty;
  std::size_t cursor = 0;
  for (std::uint32_t k : {0u, 5u, 3u, 3u, ~0u}) {
    EXPECT_EQ(view_find(empty, k, cursor), nullptr);
    EXPECT_EQ(cursor, 0u);
  }
}

// Key reads of cursor_find over `keys` for one query sequence.
std::size_t count_reads(const std::vector<std::uint32_t>& keys,
                        const std::vector<std::uint32_t>& queries) {
  std::size_t reads = 0;
  std::size_t cursor = 0;
  for (std::uint32_t q : queries) {
    const std::size_t k = cursor_find(keys, q, cursor, [&](std::uint32_t key) {
      ++reads;
      return key;
    });
    EXPECT_LT(k, keys.size());
    EXPECT_EQ(keys[k], q);
  }
  return reads;
}

TEST(ViewCursor, IncreasingQueriesReadLinearlyManyKeys) {
  Xoshiro256 rng(41);
  for (std::size_t size : {1u, 16u, 4096u, 16384u}) {
    std::vector<std::uint32_t> keys(size);
    std::iota(keys.begin(), keys.end(), 0u);
    for (auto& k : keys) k = 3 * k + 1;  // gaps between keys

    // The scan_all shape: the view is exactly the scanned set.
    EXPECT_LE(count_reads(keys, keys), 2 * (size + size)) << size;

    // Borrowed shapes: the scanned set is a sparse or dense subset.
    for (double keep : {0.01, 0.25, 0.9}) {
      std::vector<std::uint32_t> subset;
      for (std::uint32_t k : keys) {
        if (rng.next_bool(keep)) subset.push_back(k);
      }
      EXPECT_LE(count_reads(keys, subset), 2 * (subset.size() + size))
          << size << " keep " << keep;
    }
  }
}

TEST(Canonicalize, SortsAndDedupsOnlyWhenNeeded) {
  using Indices = std::vector<std::uint32_t>;
  for (const auto& [in, want] : {std::pair{Indices{1, 4, 9}, Indices{1, 4, 9}},
                                 {Indices{9, 1, 4, 1, 9}, Indices{1, 4, 9}},
                                 {Indices{2, 2}, Indices{2}},
                                 {Indices{}, Indices{}}}) {
    Indices got = in;
    canonicalize(got);
    EXPECT_EQ(got, want);
  }

  Xoshiro256 rng(53);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint32_t> in(rng.next_below(40));
    for (auto& k : in) k = static_cast<std::uint32_t>(rng.next_below(30));
    if (trial % 2 == 0) std::sort(in.begin(), in.end());
    std::vector<std::uint32_t> want = in;
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    canonicalize(in);
    EXPECT_EQ(in, want);
  }
}

TEST(CanonicalIndices, StrictlyIncreasingSetsAreReadInPlace) {
  using Indices = std::vector<std::uint32_t>;
  for (const Indices& in : {Indices{7}, Indices{1, 4, 9}, Indices{0, 1, 2}}) {
    Indices scratch;
    const std::span<const std::uint32_t> got = canonical_indices(in, scratch);
    EXPECT_EQ(got.data(), in.data());
    EXPECT_EQ(got.size(), in.size());
    EXPECT_EQ(scratch.capacity(), 0u);
  }
}

TEST(CanonicalIndices, OtherSetsAreCopiedAndCanonicalized) {
  using Indices = std::vector<std::uint32_t>;
  for (const auto& [in, want] : {std::pair{Indices{9, 1, 4}, Indices{1, 4, 9}},
                                 {Indices{1, 4, 4, 9}, Indices{1, 4, 9}},
                                 {Indices{2, 2}, Indices{2}},
                                 {Indices{}, Indices{}}}) {
    Indices scratch{77, 78, 79, 80, 81};  // stale contents are replaced
    const std::span<const std::uint32_t> got = canonical_indices(in, scratch);
    EXPECT_EQ(got.data(), scratch.data());
    EXPECT_EQ(Indices(got.begin(), got.end()), want);
    EXPECT_EQ(scratch, want);
  }
}

// extract_view's answer for `indices`, as (position, value) pairs in the
// order emitted.
std::vector<std::pair<std::size_t, std::uint64_t>> extracted(
    const View& view, const std::vector<std::uint32_t>& indices) {
  std::vector<std::pair<std::size_t, std::uint64_t>> got;
  extract_view(view, indices, [&](std::size_t k, std::uint64_t v) {
    got.emplace_back(k, v);
  });
  return got;
}

// Every position once, in order, with the reference lookup's value.
void expect_extracts(const View& view,
                     const std::vector<std::uint32_t>& indices) {
  const auto got = extracted(view, indices);
  ASSERT_EQ(got.size(), indices.size());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const ViewEntry* want = reference_find(view, indices[k]);
    ASSERT_NE(want, nullptr) << indices[k];
    EXPECT_EQ(got[k].first, k);
    EXPECT_EQ(got[k].second, want->value) << "position " << k;
  }
}

TEST(ExtractView, PositionalAndCursorPathsAgree) {
  Xoshiro256 rng(61);
  for (std::size_t size : {1u, 2u, 5u, 64u, 300u}) {
    for (int trial = 0; trial < 20; ++trial) {
      const View view = random_view(rng, size);
      std::vector<std::uint32_t> exact;
      for (const ViewEntry& e : view) exact.push_back(e.index);
      // The exact set: every entry by position.
      expect_extracts(view, exact);

      // A subset of a superset view, as a borrowed view serves it.
      std::vector<std::uint32_t> subset;
      for (std::uint32_t k : exact) {
        if (rng.next_bool(0.5)) subset.push_back(k);
      }
      if (subset.empty()) subset.push_back(exact.back());
      expect_extracts(view, subset);

      // The same components unsorted: a view of as many entries that
      // matches by position only in part.
      std::vector<std::uint32_t> unsorted = exact;
      rng.shuffle(unsorted);
      expect_extracts(view, unsorted);
      expect_extracts(view, {exact.rbegin(), exact.rend()});

      // Repeating callers, of the view's size and longer.
      std::vector<std::uint32_t> repeating = exact;
      repeating.back() = repeating.front();
      expect_extracts(view, repeating);
      repeating.push_back(exact[size / 2]);
      expect_extracts(view, repeating);
    }
  }
  EXPECT_TRUE(extracted(View{}, {}).empty());
}

TEST(ExtractViewDeathTest, MissingComponentAborts) {
  // A view of the caller's size that lacks one of its components: the
  // positional pass stops at the mismatch and the cursor does not find it.
  const View view{{1, 11}, {2, 12}, {4, 14}};
  EXPECT_DEATH((void)extracted(view, {1, 2, 3}),
               "missing an announced component");
  EXPECT_DEATH((void)extracted(view, {0, 1, 2}),
               "missing an announced component");
}

}  // namespace
}  // namespace psnap::core
