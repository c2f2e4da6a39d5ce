#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common.hpp"

namespace lionbench {

std::size_t SpanRecorder::begin(const char* name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.request = request;
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  spans_.back().start_ns = now_ns();
  return spans_.size() - 1;
}

void SpanRecorder::end(std::size_t index) {
  spans_[index].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, SpanRecorder::Summary> SpanRecorder::summarize() const {
  // Children's intervals per parent, merged so overlapping children are
  // not subtracted twice.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans_.size());
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::map<std::string, Summary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0, cur_hi = 0;
    bool have = false;
    for (const auto& [lo0, hi0] : iv) {
      const std::uint64_t lo = std::max(lo0, s.start_ns);
      const std::uint64_t hi = std::min(hi0, s.end_ns);
      if (hi <= lo) continue;
      if (have && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (have) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        have = true;
      }
    }
    if (have) covered += cur_hi - cur_lo;
    const std::uint64_t dur = s.end_ns - s.start_ns;
    Summary& sum = out[s.name];
    ++sum.count;
    sum.total_ms += static_cast<double>(dur) * 1e-6;
    sum.self_ms += static_cast<double>(dur - std::min(dur, covered)) * 1e-6;
  }
  return out;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%lld,\"request\":%llu}%s\n",
                 s.name, static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(s.end_ns - t0),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace lionbench
