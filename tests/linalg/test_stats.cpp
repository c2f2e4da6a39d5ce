#include "linalg/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

namespace lion::linalg {
namespace {

TEST(Stats, MeanOfKnownValues) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_DOUBLE_EQ(mean({}), 0.0); }

TEST(Stats, VarianceAndStddev) {
  // Population variance of {2, 4, 4, 4, 5, 5, 7, 9} is 4.
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(variance(v), 4.0);
  EXPECT_DOUBLE_EQ(stddev(v), 2.0);
}

TEST(Stats, VarianceOfSingletonIsZero) {
  EXPECT_DOUBLE_EQ(variance({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, MedianSingleElement) { EXPECT_DOUBLE_EQ(median({7.0}), 7.0); }

TEST(Stats, MedianEmptyThrows) {
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, PercentileEndpointsAndMidpoint) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 30.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 90.0), 9.0);
}

TEST(Stats, PercentileValidatesInput) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Stats, MinMax) {
  const std::vector<double> v{3.0, -1.0, 4.0, 1.5};
  EXPECT_DOUBLE_EQ(min_value(v), -1.0);
  EXPECT_DOUBLE_EQ(max_value(v), 4.0);
  EXPECT_THROW(min_value({}), std::invalid_argument);
  EXPECT_THROW(max_value({}), std::invalid_argument);
}

TEST(Stats, Rms) {
  EXPECT_DOUBLE_EQ(rms({3.0, 4.0}), std::sqrt(12.5));
  EXPECT_DOUBLE_EQ(rms({}), 0.0);
}

TEST(Stats, RmsOfConstantIsMagnitude) {
  EXPECT_DOUBLE_EQ(rms({-2.0, -2.0, -2.0}), 2.0);
}

TEST(Stats, EmpiricalCdfIsSortedAndEndsAtOne) {
  const auto cdf = empirical_cdf({3.0, 1.0, 2.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf[2].value, 3.0);
  EXPECT_NEAR(cdf[0].fraction, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

TEST(Stats, EmpiricalCdfEmpty) { EXPECT_TRUE(empirical_cdf({}).empty()); }

TEST(Stats, SummarizeBundlesAllFields) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p90, percentile(v, 90.0));
  EXPECT_EQ(s.count, 5u);
}

TEST(Stats, SummarizeEmptyThrows) {
  EXPECT_THROW(summarize({}), std::invalid_argument);
}

// --- median_in_bracket: differential against median_order_in_place -------

// The reference: full selection on a copy.
MedianOrder reference_middle(const std::vector<double>& v) {
  std::vector<double> copy = v;
  return median_order_in_place(copy.data(), copy.data() + copy.size());
}

// Runs median_in_bracket and checks it either declines (returning false
// with `out` untouched) or reports exactly the reference. Returns whether
// it answered.
bool check_bracket(const std::vector<double>& v, double lo, double hi) {
  std::vector<double> scratch(v.size());
  const std::vector<double> before = v;
  MedianOrder out{-7.0, -7.0, -7.0};
  const bool hit =
      median_in_bracket(v.data(), v.size(), lo, hi, scratch.data(), out);
  EXPECT_EQ(v, before) << "values must not be modified";
  if (!hit) {
    EXPECT_EQ(out.lower, -7.0);
    EXPECT_EQ(out.upper, -7.0);
    EXPECT_EQ(out.median, -7.0);
    return false;
  }
  const MedianOrder ref = reference_middle(v);
  EXPECT_EQ(out.lower, ref.lower);
  EXPECT_EQ(out.upper, ref.upper);
  EXPECT_EQ(out.median, ref.median);
  return true;
}

TEST(MedianOrder, MatchesMedianInPlaceAndSortedRanks) {
  std::mt19937_64 rng(41);
  std::normal_distribution<double> d(0.0, 1.0);
  for (std::size_t n = 1; n <= 40; ++n) {
    std::vector<double> v(n);
    for (auto& x : v) x = d(rng);
    std::vector<double> a = v;
    std::vector<double> b = v;
    const MedianOrder m = median_order_in_place(a.data(), a.data() + n);
    EXPECT_EQ(m.median, median_in_place(b.data(), b.data() + n));
    std::sort(v.begin(), v.end());
    EXPECT_EQ(m.lower, v[(n - 1) / 2]);
    EXPECT_EQ(m.upper, v[n / 2]);
  }
}

TEST(MedianInBracket, RandomSizesWithTightAndLooseBrackets) {
  std::mt19937_64 rng(42);
  std::normal_distribution<double> d(0.0, 1.0);
  std::uniform_real_distribution<double> pad(0.0, 0.05);
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 17u, 64u, 257u, 1000u, 1001u}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> v(n);
      for (auto& x : v) x = d(rng);
      const MedianOrder ref = reference_middle(v);
      // A bracket around the true middle always answers.
      EXPECT_TRUE(check_bracket(v, ref.lower - pad(rng), ref.upper + pad(rng)))
          << "n=" << n;
      // The exact middle as a closed bracket answers too.
      EXPECT_TRUE(check_bracket(v, ref.lower, ref.upper)) << "n=" << n;
      // Arbitrary brackets either decline or agree exactly.
      const double a = d(rng);
      const double b = d(rng);
      check_bracket(v, std::min(a, b), std::max(a, b));
    }
  }
}

TEST(MedianInBracket, DeclinesWhenTheBracketMisses) {
  const std::vector<double> odd{5.0, 1.0, 4.0, 2.0, 3.0};  // middle 3
  EXPECT_FALSE(check_bracket(odd, 3.5, 10.0));   // entirely above
  EXPECT_FALSE(check_bracket(odd, -10.0, 2.5));  // entirely below
  EXPECT_TRUE(check_bracket(odd, 2.5, 3.5));
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};  // middles 2 and 3
  EXPECT_FALSE(check_bracket(even, 2.5, 10.0));  // misses the lower middle
  EXPECT_FALSE(check_bracket(even, -1.0, 2.5));  // misses the upper middle
  EXPECT_FALSE(check_bracket(even, 2.2, 2.8));   // between them: both missed
  EXPECT_TRUE(check_bracket(even, 2.0, 3.0));    // both middles needed
}

TEST(MedianInBracket, EmptyAndFullBrackets) {
  const std::vector<double> v{0.3, -1.0, 2.0, 0.1, 0.2, 9.0};
  EXPECT_FALSE(check_bracket(v, 1.0, 0.0));  // lo > hi: empty
  EXPECT_FALSE(check_bracket(v, 0.15, 0.15));  // no value inside
  EXPECT_TRUE(check_bracket(v, -1e300, 1e300));
  EXPECT_TRUE(check_bracket(v, -INFINITY, INFINITY));
  std::vector<double> scratch(1);
  MedianOrder out;
  EXPECT_FALSE(median_in_bracket(nullptr, 0, -1.0, 1.0, scratch.data(), out));
}

TEST(MedianInBracket, SizesOneAndTwo) {
  EXPECT_TRUE(check_bracket({7.0}, 7.0, 7.0));
  EXPECT_FALSE(check_bracket({7.0}, 7.5, 8.0));
  EXPECT_TRUE(check_bracket({2.0, -1.0}, -1.0, 2.0));
  EXPECT_FALSE(check_bracket({2.0, -1.0}, -1.0, 1.9));
  EXPECT_FALSE(check_bracket({2.0, -1.0}, -0.9, 2.0));
}

TEST(MedianInBracket, DuplicatesAndAllEqual) {
  std::mt19937_64 rng(43);
  std::uniform_int_distribution<int> pick(0, 4);
  for (std::size_t n : {2u, 6u, 7u, 50u, 51u}) {
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<double> v(n);
      for (auto& x : v) x = 0.5 * pick(rng);
      const MedianOrder ref = reference_middle(v);
      EXPECT_TRUE(check_bracket(v, ref.lower, ref.upper));
      // Brackets whose edges sit on a duplicated value.
      for (int e = 0; e <= 4; ++e) {
        check_bracket(v, 0.5 * e, 2.0);
        check_bracket(v, 0.0, 0.5 * e);
      }
    }
  }
  const std::vector<double> same(9, 1.25);
  EXPECT_TRUE(check_bracket(same, 1.25, 1.25));
  EXPECT_FALSE(check_bracket(same, 1.3, 2.0));
  const std::vector<double> same_even(10, -0.5);
  EXPECT_TRUE(check_bracket(same_even, -0.5, -0.5));
  EXPECT_FALSE(check_bracket(same_even, -1.0, -0.6));
}

// --- median_order_in_place with the verified sample bracket ---------------

// Sort-based reference for the middle order statistics.
MedianOrder sorted_middle(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  MedianOrder m;
  m.lower = v[(n - 1) / 2];
  m.upper = v[n / 2];
  m.median = n % 2 == 1 ? m.upper : 0.5 * (m.lower + m.upper);
  return m;
}

void check_sampled_median(const std::vector<double>& v, const char* what) {
  const MedianOrder ref = sorted_middle(v);
  std::vector<double> work = v;
  const MedianOrder got =
      median_order_in_place(work.data(), work.data() + work.size());
  EXPECT_EQ(got.lower, ref.lower) << what << " n=" << v.size();
  EXPECT_EQ(got.upper, ref.upper) << what << " n=" << v.size();
  EXPECT_EQ(got.median, ref.median) << what << " n=" << v.size();
  // The range is reordered, never overwritten.
  std::vector<double> a = v;
  std::sort(a.begin(), a.end());
  std::sort(work.begin(), work.end());
  EXPECT_EQ(work, a) << what << " n=" << v.size();
}

TEST(MedianOrder, SampledSelectionMatchesSortReference) {
  std::mt19937_64 rng(44);
  std::normal_distribution<double> d(0.0, 1.0);
  std::uniform_int_distribution<int> few(0, 6);
  const std::size_t t = kMedianSampleMin;
  for (const std::size_t n : {t - 1, t, t + 1, std::size_t{8191},
                              std::size_t{8192}, std::size_t{20001}}) {
    std::vector<double> v(n);
    for (auto& x : v) x = d(rng);
    check_sampled_median(v, "normal");
    for (auto& x : v) x = x * x;  // squared residuals: heavy right tail
    check_sampled_median(v, "squared");
    std::sort(v.begin(), v.end());
    check_sampled_median(v, "sorted");
    std::reverse(v.begin(), v.end());
    check_sampled_median(v, "reverse sorted");
    for (auto& x : v) x = 0.25 * few(rng);  // duplicates at the median
    check_sampled_median(v, "duplicates");
    std::fill(v.begin(), v.end(), -1.5);
    check_sampled_median(v, "all equal");
  }
}

TEST(MedianOrder, UnrepresentativeSampleTakesTheFullSelection) {
  // The sampled positions hold the largest values, so the sample's middle
  // brackets nothing near the range's middle: the count misses and the
  // full selection runs over the intact range.
  std::mt19937_64 rng(45);
  std::uniform_real_distribution<double> small(0.0, 1.0);
  for (const std::size_t n : {kMedianSampleMin, std::size_t{8191},
                              std::size_t{8192}, std::size_t{12345}}) {
    std::vector<double> v(n);
    for (auto& x : v) x = small(rng);
    for (std::size_t j = 0; j < kMedianSample; ++j) {
      v[median_sample_position(j, n)] = 1e6 + static_cast<double>(j);
    }
    check_sampled_median(v, "unrepresentative");
    // And the mirror image: the sample holds the smallest values.
    for (std::size_t j = 0; j < kMedianSample; ++j) {
      v[median_sample_position(j, n)] = -1e6 - static_cast<double>(j);
    }
    check_sampled_median(v, "unrepresentative low");
  }
}

TEST(MedianOrder, SamplePositionsCoverEveryStratum) {
  for (const std::size_t n : {kMedianSampleMin, std::size_t{8191},
                              std::size_t{8192}, std::size_t{20001}}) {
    for (std::size_t j = 0; j < kMedianSample; ++j) {
      const std::size_t p = median_sample_position(j, n);
      EXPECT_GE(p, j * n / kMedianSample) << "n=" << n << " j=" << j;
      EXPECT_LT(p, (j + 1) * n / kMedianSample) << "n=" << n << " j=" << j;
    }
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(MedianOrder, NaNInSampledRangeTakesTheFullSelection) {
  // Inputs must be NaN-free, but a NaN must not make the sampled path
  // select among slots the bracket never held: the range goes to the
  // full selection intact, so both the order statistics and the final
  // layout match median_order_full bit for bit.
  std::mt19937_64 rng(46);
  std::normal_distribution<double> d(0.0, 1.0);
  for (const std::size_t n : {kMedianSampleMin, std::size_t{8191},
                              std::size_t{8192}}) {
    std::vector<double> v(n);
    for (auto& x : v) x = d(rng);
    // One NaN off the sample (the bracket holds the middle otherwise),
    // one on it, and one of each.
    const std::size_t off = median_sample_position(7, n) + 1;
    const std::size_t on = median_sample_position(300, n);
    for (const auto& nans : {std::vector<std::size_t>{off},
                             std::vector<std::size_t>{on},
                             std::vector<std::size_t>{off, on}}) {
      std::vector<double> w = v;
      for (const std::size_t i : nans) w[i] = std::nan("");
      std::vector<double> ref = w;
      const MedianOrder want = median_order_full(ref.data(),
                                                 ref.data() + n);
      const MedianOrder got = median_order_in_place(w.data(), w.data() + n);
      EXPECT_TRUE(same_bits(got.lower, want.lower)) << "n=" << n;
      EXPECT_TRUE(same_bits(got.upper, want.upper)) << "n=" << n;
      EXPECT_TRUE(same_bits(got.median, want.median)) << "n=" << n;
      EXPECT_EQ(std::memcmp(w.data(), ref.data(), n * sizeof(double)), 0)
          << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace lion::linalg
