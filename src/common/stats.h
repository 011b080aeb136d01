// Small statistics helpers used by the benchmark harness and tests.
#pragma once

#include <cstdint>
#include <vector>

namespace psnap {

// Welford's online mean/variance.  Numerically stable; O(1) per sample.
class OnlineStats {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  // Merge another accumulator into this one (parallel reduction).
  void merge(const OnlineStats& other);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Percentile of a sample vector using linear interpolation between closest
// ranks.  p in [0, 100].  The input is copied and sorted.
double percentile(std::vector<double> samples, double p);

// Tail-latency summary: the percentiles the bench tables report, computed
// with one sort of the sample vector (same interpolation as percentile()).
// Zero-filled for an empty input.
struct Percentiles {
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};
Percentiles summarize_percentiles(std::vector<double> samples);

// The same summary over samples that stand for different numbers of
// observations: sample k counts weights[k] times (weights.size() must
// equal samples.size(), every weight >= 1).  Ranks interpolate over the
// expanded population, as summarize_percentiles does over the samples; with
// all weights equal the result is exactly summarize_percentiles(samples).
// `count` stays the number of samples.
Percentiles summarize_weighted_percentiles(
    const std::vector<double>& samples,
    const std::vector<std::uint64_t>& weights);

// Least-squares fit of y = a + b*x; returns {a, b}.  Used by the benchmark
// harness to report empirical growth exponents (fit on log-log data).
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  // Coefficient of determination in [0,1]; 1 means a perfect fit.
  double r2 = 0.0;
};
LinearFit fit_linear(const std::vector<double>& xs,
                     const std::vector<double>& ys);

// Fits y = c * x^k on positive data by regressing log y on log x; returns
// the exponent k (slope) and r^2.  This is how the harness checks "scan cost
// grows quadratically in r" style claims.
LinearFit fit_power_law(const std::vector<double>& xs,
                        const std::vector<double>& ys);

}  // namespace psnap
