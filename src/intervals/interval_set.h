// Sorted, coalesced interval sets over array indices.
//
// Figure 2's active set publishes, through a compare&swap object, "a list of
// intervals of array indices that are known to contain only 0's".  The paper
// requires the list to be kept sorted and for "consecutive intervals that
// have no gaps between them [to] be coalesced into a single interval in
// order to keep the length of the list as small as possible" (Section 4.1).
//
// IntervalSet is that list: an immutable-after-build, sorted vector of
// disjoint, non-adjacent closed intervals [lo, hi].  Immutability matters:
// the published object is shared by racing getSet operations and is only
// ever replaced wholesale via CAS, never mutated in place.  The one
// in-place builder, assign_union, fills a set nobody else can see yet (a
// recycled node before its publishing CAS).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace psnap::intervals {

struct Interval {
  std::uint64_t lo;
  std::uint64_t hi;  // inclusive

  friend bool operator==(const Interval&, const Interval&) = default;
};

class IntervalSet {
 public:
  IntervalSet() = default;

  // Builds from arbitrary (possibly overlapping, unsorted) intervals,
  // normalizing to the canonical sorted coalesced form.  When
  // merge_adjacent is false, overlapping intervals are still merged (that
  // is a correctness requirement) but touching intervals are kept separate
  // -- the "no coalescing" configuration exercised by the ABL-1 ablation
  // bench, which measures how much Section 4.1's coalescing rule matters.
  static IntervalSet from_intervals(std::vector<Interval> raw,
                                    bool merge_adjacent = true);

  // Builds from single points.
  static IntervalSet from_points(std::vector<std::uint64_t> points,
                                 bool merge_adjacent = true);

  // Returns the union of this set and `points` (any order, duplicates
  // allowed), coalesced: sorts the points, then builds via assign_union.
  // O(|this| + |points| log |points|).
  IntervalSet merged_with_points(std::vector<std::uint64_t> points,
                                 bool merge_adjacent = true) const;

  // Rebuilds this set in place as base ∪ points, coalesced, reusing this
  // set's vector capacity.  This is the getSet path: start from the
  // currently published set, add every newly observed vacated index.
  // `points` must be ascending (getSet gathers them in walk order), so
  // the build is one linear merge with no sort and no temporaries:
  // O(|base| + |points|).  `base` must not be *this.
  void assign_union(const IntervalSet& base,
                    std::span<const std::uint64_t> points,
                    bool merge_adjacent = true);

  // Set union of two interval sets.
  IntervalSet merged_with(const IntervalSet& other,
                          bool merge_adjacent = true) const;

  bool contains(std::uint64_t x) const;

  bool empty() const { return intervals_.empty(); }
  std::size_t size() const { return intervals_.size(); }
  const std::vector<Interval>& intervals() const { return intervals_; }

  // Total number of points covered.
  std::uint64_t cardinality() const;

  // Iterates over every x in [lo, hi] NOT covered by this set, in
  // increasing order.  This is the getSet scan loop: walk the array slots
  // that are not known-vacated.  O(gaps + size) total, not O(hi - lo) when
  // large stretches are covered.
  template <class Fn>
  void for_each_gap(std::uint64_t lo, std::uint64_t hi, Fn&& fn) const {
    std::uint64_t cursor = lo;
    for (const Interval& iv : intervals_) {
      if (iv.hi < cursor) continue;
      if (iv.lo > hi) break;
      for (std::uint64_t x = cursor; x < iv.lo && x <= hi; ++x) fn(x);
      cursor = iv.hi + 1;
      if (cursor > hi) return;
    }
    for (std::uint64_t x = cursor; x <= hi; ++x) fn(x);
  }

  // True iff the representation invariant holds (sorted, disjoint,
  // non-adjacent, lo <= hi).  Checked by tests and debug assertions.
  bool is_canonical() const;

  std::string to_string() const;

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

 private:
  std::vector<Interval> intervals_;
};

}  // namespace psnap::intervals
