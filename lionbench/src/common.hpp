// Shared plumbing of the LION benchmark harness: options, timing, sample
// distributions, process memory probes, and the result table that ends in
// the one-line JSON summary.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lionbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Input scale. kFull is the frozen benchmark; kTiny exists for the
/// harness's own tests and is never used for measurements.
enum class Size { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string served;   ///< path of the lion_served binary under test
  std::string workdir;  ///< output directory (span files)
  std::string scratch;  ///< this process's own scratch under workdir
  /// Fault injection for the harness's own tests: pretend the first N
  /// responses of the serve workloads never arrived.
  std::size_t drop_responses = 0;
};

/// A sample set with the percentile rule of the benchmark: a percentile is
/// named only when at least 10 samples lie beyond it.
class Dist {
 public:
  void add(double v) { v_.push_back(v); sorted_ = false; }
  std::size_t size() const { return v_.size(); }
  bool supports(double pct) const;
  /// Linear-interpolated percentile (numpy's default rule); 0 when empty.
  double pct(double p) const;
  double mean() const;
  double sum() const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
double peak_rss_mb(int pid);
/// Current resident set (VmRSS) of a process in MiB; 0 when unreadable.
double current_rss_mb(int pid);
/// Reset this process's VmHWM to its current RSS (/proc/self/clear_refs).
bool reset_peak_rss();

/// Median of a small vector (copy).
double median(std::vector<double> v);

/// Result table of one run: named metrics with units, correctness checks,
/// and the attempted/failed operation counts.
class Results {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    bool valid = true;   ///< false: printed as n/a (too few samples)
    std::string note;
  };

  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// A percentile metric: valid only when `d` supports `p`.
  void add_pct(const std::string& name, const Dist& d, double p,
               const std::string& unit);
  void add_na(const std::string& name, const std::string& unit,
              const std::string& note);
  /// Tiny runs (the harness's own tests) name percentiles from any
  /// non-empty sample; measured runs keep the 10-beyond rule.
  void set_strict(bool strict) { strict_ = strict; }

  /// Record a correctness check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return checks_failed_ == 0 && failed_ == 0; }

  const Metric* find(const std::string& name) const;

  /// Human-readable table (stdout), then the failed checks.
  void print_table(const std::string& title) const;
  /// Fail the run unless every name in `names` was measured (and at
  /// least one operation was attempted).
  void require(const std::vector<std::string>& names);
  /// The final JSON line over the measured names in `names`.
  void print_json(const std::vector<std::string>& names) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  bool strict_ = true;
  std::size_t checks_failed_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace lionbench
