#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

namespace lionbench {

bool Dist::supports(double p) const {
  return static_cast<double>(v_.size()) * (1.0 - p / 100.0) >= 10.0 - 1e-9;
}

double Dist::pct(double p) const {
  if (v_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double pos = p / 100.0 * static_cast<double>(v_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v_[lo] + (v_[hi] - v_[lo]) * frac;
}

double Dist::mean() const {
  return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size());
}

double Dist::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

namespace {

double status_field_mb(int pid, const char* key) {
  const std::string path =
      pid <= 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  const std::string prefix = std::string(key) + ":";
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb(int pid) { return status_field_mb(pid, "VmHWM"); }

double current_rss_mb(int pid) { return status_field_mb(pid, "VmRSS"); }

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Results::add(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  metrics_.push_back({name, value, unit, std::isfinite(value), note});
}

void Results::add_pct(const std::string& name, const Dist& d, double p,
                      const std::string& unit) {
  const std::string note = "n=" + std::to_string(d.size());
  if (strict_ ? !d.supports(p) : d.size() == 0) {
    add_na(name, unit,
           note + ", needs " +
               std::to_string(static_cast<long>(
                   std::ceil(10.0 / (1.0 - p / 100.0) - 1e-9))));
    return;
  }
  add(name, d.pct(p), unit, note);
}

void Results::add_na(const std::string& name, const std::string& unit,
                     const std::string& note) {
  metrics_.push_back({name, 0.0, unit, false, note});
}

void Results::check(bool ok, const std::string& what) {
  if (ok) return;
  ++checks_failed_;
  failures_.push_back(what);
}

const Results::Metric* Results::find(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Results::print_table(const std::string& title) const {
  std::printf("== %s ==\n", title.c_str());
  for (const auto& m : metrics_) {
    if (m.valid) {
      std::printf("  %-34s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    } else {
      std::printf("  %-34s %16s %-8s %s\n", m.name.c_str(), "n/a",
                  m.unit.c_str(), m.note.c_str());
    }
  }
  std::printf("  attempted %llu, failed %llu, checks failed %zu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), checks_failed_);
  for (const auto& f : failures_) std::printf("  CHECK FAILED: %s\n", f.c_str());
  std::fflush(stdout);
}

void Results::require(const std::vector<std::string>& names) {
  check(attempted_ > 0, "no operation was attempted");
  for (const auto& name : names) {
    const Metric* m = find(name);
    check(m != nullptr && m->valid, "metric " + name + " was not measured");
  }
}

void Results::print_json(const std::vector<std::string>& names) const {
  std::string metrics;
  for (const auto& name : names) {
    const Metric* m = find(name);
    if (m == nullptr || !m->valid) continue;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", m->value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               m->unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(attempted_, 1)),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace lionbench
