#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "common/assert.h"

namespace psnap {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  std::uint64_t n = n_ + other.n_;
  double delta = other.mean_ - mean_;
  double mean = mean_ + delta * static_cast<double>(other.n_) /
                            static_cast<double>(n);
  double m2 = m2_ + other.m2_ +
              delta * delta * static_cast<double>(n_) *
                  static_cast<double>(other.n_) / static_cast<double>(n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ = n;
  mean_ = mean;
  m2_ = m2;
}

namespace {

// Rank interpolation on an already-sorted vector (shared by percentile and
// summarize_percentiles so the summary pays for one sort, not four).
double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.size() == 1) return sorted[0];
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  PSNAP_ASSERT(!samples.empty());
  PSNAP_ASSERT(p >= 0.0 && p <= 100.0);
  std::sort(samples.begin(), samples.end());
  return sorted_percentile(samples, p);
}

Percentiles summarize_percentiles(std::vector<double> samples) {
  Percentiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.count = samples.size();
  out.p50 = sorted_percentile(samples, 50.0);
  out.p90 = sorted_percentile(samples, 90.0);
  out.p99 = sorted_percentile(samples, 99.0);
  out.max = samples.back();
  return out;
}

Percentiles summarize_weighted_percentiles(
    const std::vector<double>& samples,
    const std::vector<std::uint64_t>& weights) {
  PSNAP_ASSERT(samples.size() == weights.size());
  if (std::adjacent_find(weights.begin(), weights.end(),
                         std::not_equal_to<>()) == weights.end()) {
    return summarize_percentiles(samples);  // uniform: a plain sample
  }
  std::vector<std::pair<double, std::uint64_t>> sorted(samples.size());
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    PSNAP_ASSERT(weights[k] >= 1);
    sorted[k] = {samples[k], weights[k]};
    total += weights[k];
  }
  std::sort(sorted.begin(), sorted.end());

  // The value at position q (0-based) of the expanded population.
  auto at = [&sorted](std::uint64_t q) {
    std::uint64_t end = 0;
    for (const auto& [value, weight] : sorted) {
      end += weight;
      if (q < end) return value;
    }
    return sorted.back().first;
  };
  auto rank_percentile = [&](double p) {
    double rank = p / 100.0 * static_cast<double>(total - 1);
    std::uint64_t lo = static_cast<std::uint64_t>(rank);
    std::uint64_t hi = std::min(lo + 1, total - 1);
    double frac = rank - static_cast<double>(lo);
    return at(lo) * (1.0 - frac) + at(hi) * frac;
  };

  Percentiles out;
  out.count = samples.size();
  out.p50 = rank_percentile(50.0);
  out.p90 = rank_percentile(90.0);
  out.p99 = rank_percentile(99.0);
  out.max = sorted.back().first;
  return out;
}

LinearFit fit_linear(const std::vector<double>& xs,
                     const std::vector<double>& ys) {
  PSNAP_ASSERT(xs.size() == ys.size());
  PSNAP_ASSERT(xs.size() >= 2);
  double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  double denom = n * sxx - sx * sx;
  LinearFit fit;
  if (denom == 0.0) {
    fit.intercept = sy / n;
    return fit;
  }
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  double ss_tot = syy - sy * sy / n;
  double ss_res = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    double e = ys[i] - (fit.intercept + fit.slope * xs[i]);
    ss_res += e * e;
  }
  fit.r2 = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

LinearFit fit_power_law(const std::vector<double>& xs,
                        const std::vector<double>& ys) {
  std::vector<double> lx, ly;
  lx.reserve(xs.size());
  ly.reserve(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    PSNAP_ASSERT(xs[i] > 0 && ys[i] > 0);
    lx.push_back(std::log(xs[i]));
    ly.push_back(std::log(ys[i]));
  }
  return fit_linear(lx, ly);
}

}  // namespace psnap
