#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bench/harness.h"

namespace psnap {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleSample) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(OnlineStats, KnownMeanAndVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7 denominator: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    double x = i * 0.37;
    a.add(x);
    all.add(x);
  }
  for (int i = 50; i < 120; ++i) {
    double x = i * 0.37;
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  OnlineStats c;
  c.merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 2.0);
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 75), 7.5);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99), 7.0);
}

TEST(WeightedPercentiles, UniformWeightsMatchUnweighted) {
  std::vector<double> v{5, 1, 4, 2, 3, 9, 7};
  Percentiles plain = summarize_percentiles(v);
  Percentiles weighted =
      summarize_weighted_percentiles(v, std::vector<std::uint64_t>(7, 3));
  EXPECT_EQ(weighted.count, plain.count);
  EXPECT_DOUBLE_EQ(weighted.p50, plain.p50);
  EXPECT_DOUBLE_EQ(weighted.p90, plain.p90);
  EXPECT_DOUBLE_EQ(weighted.p99, plain.p99);
  EXPECT_DOUBLE_EQ(weighted.max, plain.max);
}

TEST(WeightedPercentiles, WeightsCountAsRepeatedSamples) {
  std::vector<double> v{8, 1, 5, 3, 13, 2};
  std::vector<std::uint64_t> w{1, 4, 2, 1, 3, 2};
  std::vector<double> expanded;
  for (std::size_t k = 0; k < v.size(); ++k) {
    expanded.insert(expanded.end(), w[k], v[k]);
  }
  Percentiles want = summarize_percentiles(expanded);
  Percentiles got = summarize_weighted_percentiles(v, w);
  EXPECT_EQ(got.count, v.size());
  EXPECT_DOUBLE_EQ(got.p50, want.p50);
  EXPECT_DOUBLE_EQ(got.p90, want.p90);
  EXPECT_DOUBLE_EQ(got.p99, want.p99);
  EXPECT_DOUBLE_EQ(got.max, want.max);
}

// A sampler that thinned to stride 4 stands for four times as many ops per
// sample as one that never thinned; the merge must count each op once.
TEST(LatencySampler, MergeWeightsEachSampleByItsStride) {
  bench::LatencySampler busy(4), idle(64);
  for (int i = 0; i < 16; ++i) busy.add(100.0);  // thins to stride 4
  for (int i = 0; i < 4; ++i) idle.add(1.0);
  ASSERT_EQ(busy.samples().size(), 4u);
  EXPECT_EQ(busy.weights(), (std::vector<std::uint64_t>{4, 4, 4, 4}));

  bench::LatencySampler merged;
  merged.merge(busy);
  merged.merge(idle);
  EXPECT_EQ(merged.samples().size(), 8u);
  // 16 ops at 100 against 4 at 1: the median op took 100.  Concatenating
  // the unequal strides would have put the median at 50.5.
  EXPECT_DOUBLE_EQ(merged.summarize().p50, 100.0);
}

TEST(LatencySampler, EqualStridesMergeByConcatenation) {
  bench::LatencySampler a, b;
  for (double x : {1.0, 2.0, 3.0}) a.add(x);
  for (double x : {4.0, 5.0}) b.add(x);
  a.merge(b);
  EXPECT_EQ(a.samples(), (std::vector<double>{1, 2, 3, 4, 5}));
  EXPECT_DOUBLE_EQ(a.summarize().p50, 3.0);
}

TEST(FitLinear, ExactLine) {
  std::vector<double> xs{1, 2, 3, 4}, ys{3, 5, 7, 9};  // y = 1 + 2x
  auto fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(FitLinear, FlatLine) {
  std::vector<double> xs{1, 2, 3}, ys{4, 4, 4};
  auto fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 0.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 4.0, 1e-9);
}

TEST(FitPowerLaw, RecoversQuadraticExponent) {
  std::vector<double> xs, ys;
  for (double x : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * x * x);
  }
  auto fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(FitPowerLaw, RecoversLinearExponent) {
  std::vector<double> xs, ys;
  for (double x : {1.0, 2.0, 5.0, 10.0, 20.0}) {
    xs.push_back(x);
    ys.push_back(7.0 * x);
  }
  auto fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.slope, 1.0, 1e-9);
}

}  // namespace
}  // namespace psnap
