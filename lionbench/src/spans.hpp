// In-memory span recorder of the traced run. Spans are opened and closed
// from the benchmark's own code around calls into the program's public
// entry points; nothing inside the program is instrumented.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lionbench {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;     ///< index of the enclosing span, -1 = root
  std::uint64_t request = 0;    ///< spans of one request share this id
};

class SpanRecorder {
 public:
  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::uint64_t request)
        : rec_(rec), index_(rec.begin(name, request)) {}
    ~Scope() { rec_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    std::size_t index_;
  };

  std::size_t begin(const char* name, std::uint64_t request);
  void end(std::size_t index);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t duration_ns(std::size_t i) const {
    return spans_[i].end_ns - spans_[i].start_ns;
  }

  /// Per-name totals: count, total duration, and self time (duration minus
  /// the part of the interval covered by direct children).
  struct Summary {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Summary> summarize() const;

  /// Write every span as a JSON array (name, start/end ns relative to the
  /// first span, parent index, request id).
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace lionbench
