#include "intervals/interval_set.h"

#include <algorithm>

#include "common/assert.h"

namespace psnap::intervals {

namespace {

// Appends iv to an output sorted by lo, folding it into the last interval
// when they overlap -- or touch, when merge_adjacent is set.
void append_coalesced(std::vector<Interval>& out, Interval iv,
                      bool merge_adjacent) {
  PSNAP_ASSERT(iv.lo <= iv.hi);
  if (!out.empty()) {
    Interval& last = out.back();
    // The adjacency disjunct only evaluates when iv.lo > last.hi, so
    // last.hi + 1 cannot overflow there.
    if (iv.lo <= last.hi || (merge_adjacent && iv.lo == last.hi + 1)) {
      last.hi = std::max(last.hi, iv.hi);
      return;
    }
  }
  out.push_back(iv);
}

// The one merge routine: appends the union of two sequences, each sorted
// by lo, to `out` in coalesced form.  `as_interval` maps b's elements
// (points or intervals) to intervals.
template <class B, class AsInterval>
void merge_into(std::vector<Interval>& out, std::span<const Interval> a,
                std::span<const B> b, AsInterval as_interval,
                bool merge_adjacent) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() ||
        (i < a.size() && a[i].lo <= as_interval(b[j]).lo)) {
      append_coalesced(out, a[i++], merge_adjacent);
    } else {
      append_coalesced(out, as_interval(b[j++]), merge_adjacent);
    }
  }
}

Interval point_interval(std::uint64_t p) { return Interval{p, p}; }

Interval same_interval(const Interval& iv) { return iv; }

}  // namespace

IntervalSet IntervalSet::from_intervals(std::vector<Interval> raw,
                                        bool merge_adjacent) {
  std::sort(raw.begin(), raw.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  IntervalSet set;
  set.intervals_.reserve(raw.size());
  for (const Interval& iv : raw) {
    append_coalesced(set.intervals_, iv, merge_adjacent);
  }
  return set;
}

IntervalSet IntervalSet::from_points(std::vector<std::uint64_t> points,
                                     bool merge_adjacent) {
  return IntervalSet().merged_with_points(std::move(points), merge_adjacent);
}

IntervalSet IntervalSet::merged_with_points(std::vector<std::uint64_t> points,
                                            bool merge_adjacent) const {
  std::sort(points.begin(), points.end());
  IntervalSet set;
  set.assign_union(*this, points, merge_adjacent);
  return set;
}

void IntervalSet::assign_union(const IntervalSet& base,
                               std::span<const std::uint64_t> points,
                               bool merge_adjacent) {
  PSNAP_ASSERT(&base != this);
  intervals_.clear();
  merge_into(intervals_, std::span<const Interval>(base.intervals_), points,
             point_interval, merge_adjacent);
}

IntervalSet IntervalSet::merged_with(const IntervalSet& other,
                                     bool merge_adjacent) const {
  IntervalSet set;
  set.intervals_.reserve(intervals_.size() + other.intervals_.size());
  merge_into(set.intervals_, std::span<const Interval>(intervals_),
             std::span<const Interval>(other.intervals_), same_interval,
             merge_adjacent);
  return set;
}

bool IntervalSet::contains(std::uint64_t x) const {
  // Binary search on interval lower bounds.
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), x,
      [](std::uint64_t v, const Interval& iv) { return v < iv.lo; });
  if (it == intervals_.begin()) return false;
  --it;
  return x >= it->lo && x <= it->hi;
}

std::uint64_t IntervalSet::cardinality() const {
  std::uint64_t n = 0;
  for (const Interval& iv : intervals_) n += iv.hi - iv.lo + 1;
  return n;
}

bool IntervalSet::is_canonical() const {
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
    if (intervals_[i].lo > intervals_[i].hi) return false;
    if (i > 0) {
      // Strictly increasing with a gap of at least one point: otherwise the
      // intervals should have been coalesced.
      if (intervals_[i].lo <= intervals_[i - 1].hi) return false;
      if (intervals_[i].lo == intervals_[i - 1].hi + 1) return false;
    }
  }
  return true;
}

std::string IntervalSet::to_string() const {
  std::string out = "{";
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
    // Appended piecewise: GCC 12's -Wrestrict false-positives on the
    // chained operator+ form at -O3 (PR105651), which -Werror promotes.
    if (i) out += ", ";
    out += '[';
    out += std::to_string(intervals_[i].lo);
    out += ',';
    out += std::to_string(intervals_[i].hi);
    out += ']';
  }
  out += "}";
  return out;
}

}  // namespace psnap::intervals
