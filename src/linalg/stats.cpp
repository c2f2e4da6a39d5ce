#include "linalg/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/lanes.hpp"

namespace lion::linalg {

namespace {

// Floyd-Rivest selection (CACM Algorithm 489): place the k-th smallest
// element at a[k] with everything left of k no larger and everything
// right of k no smaller — the same postcondition as std::nth_element,
// reached with ~1.5n comparisons instead of introselect's ~3n. The k-th
// order statistic of a finite multiset is a single well-defined double,
// so swapping the selection algorithm cannot change any downstream
// value; this routine sits under every LMedS score and MAD scale in the
// solver hot path. Two caveats shared with nth_element: input must be
// NaN-free (callers feed sanitized residuals), and when elements compare
// equal but differ in bits (only possible for +0.0 vs -0.0) *which* of
// them lands at position k is arbitrary — the solver paths never produce
// -0.0 (sums start at +0.0 and squares/abs are non-negative), so the
// selected bits are reproducible there.
void floyd_rivest_select(double* a, std::ptrdiff_t left, std::ptrdiff_t right,
                         std::ptrdiff_t k) {
  while (right > left) {
    if (right - left > 600) {
      // Select within a small sample around k first, so the main
      // partition below runs against a near-optimal pivot.
      const double n = static_cast<double>(right - left + 1);
      const double i = static_cast<double>(k - left + 1);
      const double z = std::log(n);
      const double s = 0.5 * std::exp(2.0 * z / 3.0);
      const double sd = 0.5 * std::sqrt(z * s * (n - s) / n) *
                        (i - n / 2.0 < 0.0 ? -1.0 : 1.0);
      const auto new_left = std::max(
          left, static_cast<std::ptrdiff_t>(
                    static_cast<double>(k) - i * s / n + sd));
      const auto new_right = std::min(
          right, static_cast<std::ptrdiff_t>(
                     static_cast<double>(k) + (n - i) * s / n + sd));
      floyd_rivest_select(a, new_left, new_right, k);
    }
    const double t = a[k];
    std::ptrdiff_t i = left;
    std::ptrdiff_t j = right;
    std::swap(a[left], a[k]);
    if (a[right] > t) std::swap(a[right], a[left]);
    while (i < j) {
      std::swap(a[i], a[j]);
      ++i;
      --j;
      while (a[i] < t) ++i;
      while (a[j] > t) --j;
    }
    if (a[left] == t) {
      std::swap(a[left], a[j]);
    } else {
      ++j;
      std::swap(a[j], a[right]);
    }
    if (j <= k) left = j + 1;
    if (k <= j) right = j - 1;
  }
}

}  // namespace

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

double stddev(const std::vector<double>& v) { return std::sqrt(variance(v)); }

double median(std::vector<double> v) {
  return median_in_place(v.data(), v.data() + v.size());
}

double median_in_place(double* first, double* last) {
  return median_order_in_place(first, last).median;
}

namespace {

// Middle order statistics once a[k] holds the upper middle value with
// everything left of it no larger (the selection postcondition): for an
// even-sized sample the lower middle is then the maximum of a[0..k).
MedianOrder middle_of_selected(const double* a, std::size_t k, bool odd) {
  MedianOrder m;
  m.upper = a[k];
  if (odd) {
    m.lower = m.upper;
    m.median = m.upper;
  } else {
    m.lower = *std::max_element(a, a + static_cast<std::ptrdiff_t>(k));
    m.median = 0.5 * (m.lower + m.upper);
  }
  return m;
}

struct BracketCounts {
  std::size_t below = 0;   // values < lo
  std::size_t inside = 0;  // values in [lo, hi]
};

// One read-only pass, one lane per value (a true lane compare is -1). A
// value counts as inside by the test the compaction keeps it by. Returns
// false when some value is neither below, inside nor above the bracket
// (a NaN): such a range takes the full selection, whose result on
// NaN-holding input is its own.
bool count_bracket(const double* values, std::size_t n, double lo, double hi,
                   BracketCounts& out) {
  const Lanes2 lo2 = splat2(lo);
  const Lanes2 hi2 = splat2(hi);
  Counts2 below{};
  Counts2 inside{};
  Counts2 above{};
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const Lanes2 v = load2(values + i);
    below -= v < lo2;
    inside -= (v >= lo2) & (v <= hi2);
    above -= v > hi2;
  }
  out.below = static_cast<std::size_t>(below[0] + below[1]);
  out.inside = static_cast<std::size_t>(inside[0] + inside[1]);
  std::size_t a = static_cast<std::size_t>(above[0] + above[1]);
  if (i < n) {
    out.below += values[i] < lo;
    out.inside += (values[i] >= lo) & (values[i] <= hi);
    a += values[i] > hi;
  }
  return out.below + out.inside + a == n;
}

// Ranks (n-1)/2 and n/2 of the whole sample are ranks (n-1)/2 - below
// and n/2 - below of the bracketed values exactly when both fall in
// [below, below + inside).
bool bracket_holds_middle(std::size_t n, const BracketCounts& c) {
  return c.below <= (n - 1) / 2 && n / 2 < c.below + c.inside;
}

// The middle order statistics of the n-value sample, selected among its
// `inside` bracketed values gathered at the front of `a`.
MedianOrder select_bracketed(double* a, std::size_t n,
                             const BracketCounts& c) {
  const std::size_t k = n / 2 - c.below;
  floyd_rivest_select(a, 0, static_cast<std::ptrdiff_t>(c.inside) - 1,
                      static_cast<std::ptrdiff_t>(k));
  return middle_of_selected(a, k, n % 2 == 1);
}

}  // namespace

MedianOrder median_order_in_place(double* first, double* last) {
  if (first == last) throw std::invalid_argument("median: empty input");
  const auto n = static_cast<std::size_t>(last - first);
  if (n >= kMedianSampleMin) {
    // The range's middle falls near rank s/2 of the sample, give or take
    // sqrt(s)/2 ~ 11 ranks. A bracket of kMargin sample ranks (about 2.5
    // of those) on either side holds it in all but a few layouts in a
    // thousand (DESIGN §10.7 counts them per workload); the count
    // verifies it every time, and a miss costs only that read-only pass.
    constexpr std::size_t kMargin = 28;
    double sample[kMedianSample];
    for (std::size_t j = 0; j < kMedianSample; ++j) {
      sample[j] = first[median_sample_position(j, n)];
    }
    constexpr auto hi_rank =
        static_cast<std::ptrdiff_t>(kMedianSample / 2 + kMargin);
    constexpr auto lo_rank =
        static_cast<std::ptrdiff_t>(kMedianSample / 2 - 1 - kMargin);
    floyd_rivest_select(sample, 0, kMedianSample - 1, hi_rank);
    floyd_rivest_select(sample, 0, hi_rank - 1, lo_rank);
    const double lo = sample[lo_rank];
    const double hi = sample[hi_rank];
    BracketCounts c;
    if (count_bracket(first, n, lo, hi, c) && bracket_holds_middle(n, c)) {
      // Swap the bracketed values to the front, branch-free: a[0..k)
      // holds them and a[k..i) the rest, so every step is a swap.
      std::size_t k = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double v = first[i];
        first[i] = first[k];
        first[k] = v;
        k += (v >= lo) & (v <= hi);
      }
      return select_bracketed(first, n, c);
    }
  }
  return median_order_full(first, last);
}

MedianOrder median_order_full(double* first, double* last) {
  if (first == last) throw std::invalid_argument("median: empty input");
  const auto n = static_cast<std::size_t>(last - first);
  floyd_rivest_select(first, 0, static_cast<std::ptrdiff_t>(n) - 1,
                      static_cast<std::ptrdiff_t>(n / 2));
  return middle_of_selected(first, n / 2, n % 2 == 1);
}

bool median_in_bracket(const double* values, std::size_t n, double lo,
                       double hi, double* scratch, MedianOrder& out) {
  if (n == 0) return false;
  // Branch-free: every value is stored at the next free slot and the slot
  // is kept only when the value is inside the bracket. A narrow bracket
  // holds ~1% of the values, but which side of it a value falls on is a
  // coin flip, so no comparison here is worth a branch.
  BracketCounts c;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = values[i];
    c.below += v < lo;
    scratch[c.inside] = v;
    c.inside += (v >= lo) & (v <= hi);
  }
  if (!bracket_holds_middle(n, c)) return false;
  out = select_bracketed(scratch, n, c);
  return true;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile: empty input");
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("percentile: p outside [0, 100]");
  }
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(idx));
  const auto hi = static_cast<std::size_t>(std::ceil(idx));
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double min_value(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("min_value: empty input");
  return *std::min_element(v.begin(), v.end());
}

double max_value(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("max_value: empty input");
  return *std::max_element(v.begin(), v.end());
}

double rms(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s / static_cast<double>(v.size()));
}

std::vector<CdfPoint> empirical_cdf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  std::vector<CdfPoint> cdf;
  cdf.reserve(samples.size());
  const double n = static_cast<double>(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    cdf.push_back({samples[i], static_cast<double>(i + 1) / n});
  }
  return cdf;
}

Summary summarize(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("summarize: empty input");
  Summary s;
  s.mean = mean(v);
  s.stddev = stddev(v);
  s.median = median(v);
  s.p90 = percentile(v, 90.0);
  s.min = min_value(v);
  s.max = max_value(v);
  s.count = v.size();
  return s;
}

}  // namespace lion::linalg
