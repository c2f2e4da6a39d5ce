// Descriptive statistics used by the solvers, the adaptive parameter
// selection scheme, and the benchmark harnesses.
#pragma once

#include <cstddef>
#include <vector>

namespace lion::linalg {

/// Arithmetic mean; 0 for an empty input.
double mean(const std::vector<double>& v);

/// Population standard deviation; 0 for fewer than two samples.
double stddev(const std::vector<double>& v);

/// Population variance; 0 for fewer than two samples.
double variance(const std::vector<double>& v);

/// Median (average of middle two for even sizes). Throws on empty input.
double median(std::vector<double> v);

/// Median of [first, last), partially reordering the range in place (the
/// allocation-free form of median() for callers that own a scratch
/// buffer). Same selection, same result. Throws on an empty range.
double median_in_place(double* first, double* last);

/// The middle of a sample of n values: its two middle order statistics
/// (0-based ranks (n-1)/2 and n/2 of the sorted sample, equal for odd n)
/// and the median they define, bit-identical with median_in_place.
struct MedianOrder {
  double lower = 0.0;
  double upper = 0.0;
  double median = 0.0;
};

/// Sizes from which median_order_in_place tries a verified sample
/// bracket before full selection, and the size of that sample.
inline constexpr std::size_t kMedianSampleMin = 2048;
inline constexpr std::size_t kMedianSample = 512;

/// Position of the j-th of the kMedianSample values median_order_in_place
/// samples from n >= kMedianSampleMin: one per stratum
/// [j*n/kMedianSample, (j+1)*n/kMedianSample), at a hashed offset inside
/// it, so a layout that repeats with some period (rows in rung order)
/// cannot alias the sample.
inline std::size_t median_sample_position(std::size_t j, std::size_t n) {
  const std::size_t start = j * n / kMedianSample;
  const std::size_t width = (j + 1) * n / kMedianSample - start;
  return start + (j * 2654435761u >> 8) % width;
}

/// median_in_place, also reporting both middle order statistics. From
/// n = kMedianSampleMin values on, the kMedianSample values at
/// median_sample_position are a deterministic sample whose order
/// statistics around its middle bracket the range's middle. One read-only pass counts the values below and inside that
/// bracket; only when the counts prove both middle ranks inside are the
/// bracketed values swapped to the front and selected among. Otherwise
/// (an unrepresentative sample, or a NaN anywhere in the range) the range
/// is still intact and takes the full Floyd-Rivest selection. Either way
/// the result is the same order statistics, and the range is left a
/// permutation of its input.
MedianOrder median_order_in_place(double* first, double* last);

/// The full Floyd-Rivest selection median_order_in_place takes below
/// kMedianSampleMin values and on a missed sample bracket, alone.
MedianOrder median_order_full(double* first, double* last);

/// Exact median from a bracket [lo, hi] believed to hold the middle order
/// statistics of values[0..n). One pass counts the values below lo and
/// copies the values inside the bracket to `scratch` (capacity >= n); if
/// the counts prove both middle ranks fall inside the bracket, the order
/// statistics are selected among the copied values only, `out` is set
/// bit-identical with median_order_in_place on the same values, and the
/// result is true. Otherwise `out` is untouched and the result is false
/// (the caller takes the full median). `values` is not modified. Input
/// must be NaN-free, as for median_in_place; n == 0 returns false.
bool median_in_bracket(const double* values, std::size_t n, double lo,
                       double hi, double* scratch, MedianOrder& out);

/// p-th percentile in [0, 100] with linear interpolation. Throws on empty
/// input or p outside [0, 100].
double percentile(std::vector<double> v, double p);

/// Min / max; throw on empty input.
double min_value(const std::vector<double>& v);
double max_value(const std::vector<double>& v);

/// Root mean square; 0 for an empty input.
double rms(const std::vector<double>& v);

/// One point of an empirical CDF.
struct CdfPoint {
  double value;     ///< sample value
  double fraction;  ///< fraction of samples <= value, in (0, 1]
};

/// Empirical CDF of the samples (sorted ascending).
std::vector<CdfPoint> empirical_cdf(std::vector<double> samples);

/// Summary bundle used by the bench harnesses.
struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  double median = 0.0;
  double p90 = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

/// Compute all summary fields at once. Throws on empty input.
Summary summarize(const std::vector<double>& v);

}  // namespace lion::linalg
