// Percentiles of nanosecond timings that read each sample as the 1 ns
// timer tick it fell in.
#pragma once

#include <algorithm>
#include <vector>

#include "common/stats.h"

namespace psnapbench {

// Grouped-data interpolation: rank p*n inside the run of samples equal to
// v lands at v - 0.5 + (p*n - below) / equal.  Plain linear interpolation
// between ranks would report a ~60 ns call's median as exactly 60 run after
// run, hiding every shift smaller than a tick.
inline psnap::Percentiles tick_percentiles(std::vector<double> s) {
  psnap::Percentiles out;
  if (s.empty()) return out;
  std::sort(s.begin(), s.end());
  auto at = [&s](double p) {
    const double rank = p * static_cast<double>(s.size());
    const double v = s[std::min(static_cast<std::size_t>(rank), s.size() - 1)];
    const auto lo = std::lower_bound(s.begin(), s.end(), v);
    const auto hi = std::upper_bound(lo, s.end(), v);
    return v - 0.5 + (rank - static_cast<double>(lo - s.begin())) /
                         static_cast<double>(hi - lo);
  };
  out.count = s.size();
  out.p50 = at(0.50);
  out.p90 = at(0.90);
  out.p99 = at(0.99);
  out.max = s.back();
  return out;
}

}  // namespace psnapbench
