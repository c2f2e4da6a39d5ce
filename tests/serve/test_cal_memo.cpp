// The calibrate report memo (serve::CalMemo) and the `!flush` path it
// serves.
//
// The contract under test:
//   - a memo answer is BYTE-identical — through the same io::report_json
//     serialization the serving stack ships — to the full-pipeline report
//     it memoized, for any report status;
//   - the memo misses on every buffer except the exact prefix it
//     memoized (truncation, append, a one-bit field flip anywhere), and
//     every hit over seeded append/carve/flush interleavings equals a
//     fresh batch solve;
//   - the memo rests on pipeline purity: calibrate_antenna_robust gives
//     the same bytes through a reused workspace, a fresh one, and none;
//   - over the wire, a clean session answers fallback -> memo -> fallback
//     after an append, the emitted bytes are chunk- and thread-invariant,
//     `!healthz` carries the calibrate counters, and smoothing= is a
//     calibrate-only declare option that reaches the pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/calibration.hpp"
#include "io/csv.hpp"
#include "io/report_json.hpp"
#include "linalg/small.hpp"
#include "linalg/vec.hpp"
#include "rf/phase_model.hpp"
#include "rf/rng.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "sim/scenario.hpp"
#include "sim/trajectory.hpp"

namespace lion::serve {
namespace {

using linalg::Vec3;

constexpr Vec3 kPhysical{0.0, 0.8, 0.0};

// Noise-free analytic stream along the continuous Fig. 11 three-line rig
// trajectory: exact distance phases from a known electrical center.
std::vector<sim::PhaseSample> clean_stream(const Vec3& center,
                                           double phase_offset) {
  sim::ThreeLineRig rig;
  rig.x_min = -0.55;
  rig.x_max = 0.55;
  const auto traj = rig.build();
  std::vector<sim::PhaseSample> out;
  for (double t = 0.0; t <= traj.duration(); t += 0.1) {
    sim::PhaseSample s;
    s.t = t;
    s.position = traj.position(t);
    const double d = linalg::distance(center, s.position);
    s.phase = rf::wrap_phase(rf::distance_phase(d) + phase_offset);
    s.rssi_dbm = -55.0;
    s.channel = 0;
    out.push_back(s);
  }
  return out;
}

std::vector<sim::PhaseSample> noisy_stream(std::uint64_t seed) {
  auto scenario = sim::Scenario::Builder{}
                      .environment(sim::EnvironmentKind::kLabTypical)
                      .add_antenna(kPhysical)
                      .add_tag()
                      .seed(seed)
                      .build();
  sim::ThreeLineRig rig;
  rig.x_min = -0.55;
  rig.x_max = 0.55;
  return scenario.sweep(0, 0, rig.build());
}

core::CalibrationReport batch(const std::vector<sim::PhaseSample>& buffer) {
  return core::calibrate_antenna_robust(buffer, kPhysical);
}

std::string json(const core::CalibrationReport& report) {
  return io::report_json(report);
}

// ---------------------------------------------------------------------------
// CalMemo
// ---------------------------------------------------------------------------

TEST(CalMemo, EmptyMemoMisses) {
  const CalMemo memo;
  const auto stream = clean_stream(kPhysical + Vec3{0.01, -0.008, 0.005}, 1.0);
  EXPECT_EQ(memo.lookup(stream), nullptr);
  EXPECT_EQ(memo.lookup({}), nullptr);
}

TEST(CalMemo, MemoIsByteIdentical) {
  CalMemo memo;
  const auto stream = clean_stream(kPhysical + Vec3{0.012, -0.01, 0.004}, 0.7);
  const auto report = batch(stream);
  ASSERT_EQ(report.status, core::CalibrationStatus::kOk);
  ASSERT_TRUE(memo.install(stream, report));

  const core::CalibrationReport* hit = memo.lookup(stream);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(json(*hit), json(report));
  EXPECT_EQ(memo.samples, stream.size());
}

TEST(CalMemo, MemoServesNonOkReportsToo) {
  // The memo rests on pipeline determinism alone, so even a
  // degenerate-geometry report is memoizable byte for byte.
  CalMemo memo;
  std::vector<sim::PhaseSample> stream(100);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i].t = 0.01 * static_cast<double>(i);
    stream[i].position = {0.1, 0.2, 0.0};
    stream[i].phase = 1.0;
  }
  const auto report = batch(stream);
  ASSERT_EQ(report.status, core::CalibrationStatus::kDegenerateGeometry);
  memo.install(stream, report);
  const core::CalibrationReport* hit = memo.lookup(stream);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(json(*hit), json(report));
}

TEST(CalMemo, MissesOnTruncationAppendAndPrefixMutation) {
  CalMemo memo;
  const auto stream = clean_stream(kPhysical + Vec3{0.008, -0.01, 0.003}, 1.4);
  memo.install(stream, batch(stream));
  ASSERT_NE(memo.lookup(stream), nullptr);

  auto truncated = stream;
  truncated.pop_back();
  EXPECT_EQ(memo.lookup(truncated), nullptr);

  auto appended = stream;
  appended.push_back(stream.back());
  EXPECT_EQ(memo.lookup(appended), nullptr);

  auto mutated = stream;
  mutated[mutated.size() / 2].phase += 1e-9;
  EXPECT_EQ(memo.lookup(mutated), nullptr);
}

TEST(CalMemo, InstallKeepsTheLargerSolve) {
  // Full solves may complete out of order; the memo never regresses to a
  // shorter prefix.
  CalMemo memo;
  const auto stream = clean_stream(kPhysical + Vec3{0.01, -0.01, 0.005}, 0.2);
  const std::vector<sim::PhaseSample> prefix(stream.begin(),
                                             stream.end() - 10);
  ASSERT_TRUE(memo.install(stream, batch(stream)));
  EXPECT_FALSE(memo.install(prefix, batch(prefix)));
  EXPECT_FALSE(memo.install(stream, batch(stream)));
  EXPECT_EQ(memo.samples, stream.size());
  EXPECT_EQ(memo.lookup(prefix), nullptr);
  EXPECT_NE(memo.lookup(stream), nullptr);
}

// Seeded differential over interleaved appends, tail carves, and flushes
// on clean and noisy streams. Every memo hit must serialize to the same
// bytes as a fresh full-pipeline solve over the same buffer; every miss
// is followed by that solve and an install, as the serving layer does.
TEST(CalMemo, DifferentialInterleavings200Seeds) {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    rf::Rng rng(seed * 7919 + 13);
    const bool noisy = (seed % 4) == 3;
    const Vec3 center =
        kPhysical + Vec3{0.005 + 0.0001 * static_cast<double>(seed % 17),
                         -0.012 + 0.0002 * static_cast<double>(seed % 11),
                         0.004};
    const auto full =
        noisy ? noisy_stream(seed + 1)
              : clean_stream(center, 0.1 * static_cast<double>(seed % 31));
    ASSERT_GE(full.size(), 60u) << "seed " << seed;

    CalMemo memo;
    std::vector<sim::PhaseSample> buffer(full.begin(),
                                         full.begin() + full.size() / 2);
    std::size_t cursor = buffer.size();
    const int ops = 3 + static_cast<int>(rng.uniform_int(0, 2));
    for (int op = 0; op < ops; ++op) {
      const int kind = static_cast<int>(rng.uniform_int(0, 9));
      if (kind < 5 && cursor < full.size()) {
        // Append a chunk of the remaining stream.
        const std::size_t avail = full.size() - cursor;
        const std::size_t cap = std::min<std::size_t>(avail, 12);
        const std::size_t chunk =
            1 + static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(cap) - 1));
        buffer.insert(buffer.end(), full.begin() + cursor,
                      full.begin() + cursor + chunk);
        cursor += chunk;
      } else if (kind < 6 && buffer.size() > 30) {
        // Carve the tail (serve buffers never shrink, but the memo must
        // miss rather than trust the append invariant).
        buffer.resize(buffer.size() - 5);
        cursor -= 5;
      }

      const auto fresh = batch(buffer);
      if (const core::CalibrationReport* hit = memo.lookup(buffer)) {
        ++hits;
        EXPECT_EQ(json(*hit), json(fresh)) << "seed " << seed << " op " << op;
      } else {
        ++misses;
        memo.install(buffer, fresh);
      }
    }
  }
  // Both outcomes must be exercised heavily, or the byte checks pass
  // vacuously.
  EXPECT_GT(hits, 100u);
  EXPECT_GT(misses, 200u);
}

TEST(CalMemo, DigestDetectsEveryFieldFlip) {
  const auto stream = clean_stream(kPhysical + Vec3{0.01, -0.01, 0.005}, 0.2);
  const auto base = cal_buffer_digest(stream, stream.size());
  auto flip = [&](auto mutate) {
    auto copy = stream;
    mutate(copy[copy.size() / 3]);
    return cal_buffer_digest(copy, copy.size());
  };
  EXPECT_NE(base, flip([](sim::PhaseSample& s) { s.t += 1e-12; }));
  EXPECT_NE(base, flip([](sim::PhaseSample& s) { s.position[1] += 1e-12; }));
  EXPECT_NE(base, flip([](sim::PhaseSample& s) { s.phase += 1e-12; }));
  EXPECT_NE(base, flip([](sim::PhaseSample& s) { s.rssi_dbm += 1.0; }));
  EXPECT_NE(base, flip([](sim::PhaseSample& s) { s.channel += 1; }));
  // Bitwise, not numeric: -0.0 differs from 0.0 (position[2] is 0.0 on L1).
  EXPECT_NE(base, flip([](sim::PhaseSample& s) { s.position[2] = -0.0; }));
  // Prefix digest ignores rows past `count`.
  auto longer = stream;
  longer.push_back(stream.back());
  EXPECT_EQ(base, cal_buffer_digest(longer, stream.size()));
}

TEST(CalMemo, BatchPipelineIsPureAcrossWorkspaceReuse) {
  // The memo contract rests on pipeline purity: the same buffer must
  // serialize identically through a reused caller workspace, a fresh one,
  // and none (this thread's default workspace) — for every method.
  const auto stream = noisy_stream(7);
  for (const core::SolveMethod method :
       {core::SolveMethod::kLeastSquares,
        core::SolveMethod::kWeightedLeastSquares,
        core::SolveMethod::kIterativeReweighted, core::SolveMethod::kHuberIrls,
        core::SolveMethod::kTukeyIrls, core::SolveMethod::kRansac}) {
    SCOPED_TRACE(core::solve_method_name(method));
    core::RobustCalibrationConfig cfg;
    cfg.adaptive.base.method = method;
    linalg::SolverWorkspace ws;
    const auto warm1 =
        core::calibrate_antenna_robust(stream, kPhysical, cfg, &ws);
    const auto warm2 =
        core::calibrate_antenna_robust(stream, kPhysical, cfg, &ws);
    const auto none = core::calibrate_antenna_robust(stream, kPhysical, cfg);
    EXPECT_EQ(json(warm1), json(none));
    EXPECT_EQ(json(warm2), json(none));
  }
  EXPECT_EQ(json(core::calibrate_antenna_robust(stream, kPhysical)),
            json(core::calibrate_antenna_robust(
                stream, kPhysical, {}, &linalg::default_workspace())));
}

// ---------------------------------------------------------------------------
// `!flush` over the wire
// ---------------------------------------------------------------------------

constexpr char kDeclare[] = "!session cal center=0.009,0.789,0.006 smoothing=1";

/// Clean three-line-rig scan as CSV rows: exact Eq. (1) phases from a
/// slightly offset physical center plus a constant cable offset, with full
/// rssi/channel/t columns on the dt = 0.1 grid.
std::vector<std::string> rig_rows() {
  sim::ThreeLineRig rig;
  rig.x_min = -0.55;
  rig.x_max = 0.55;
  const auto traj = rig.build();
  const Vec3 center{0.009, 0.789, 0.006};
  std::vector<std::string> rows;
  for (double t = 0.0; t <= traj.duration(); t += 0.1) {
    const auto p = traj.position(t);
    const double phase = rf::wrap_phase(
        rf::distance_phase(linalg::distance(center, p)) + 2.1);
    char buf[200];
    std::snprintf(buf, sizeof(buf), "%.17g,%.17g,%.17g,%.17g,-55,0,%.17g",
                  p[0], p[1], p[2], phase, t);
    rows.emplace_back(buf);
  }
  return rows;
}

/// Single-line scan (y = z = 0): too low-rank for a 3D fix on purpose,
/// so the batch pipeline reports a non-kOk status.
std::vector<std::string> line_rows(std::size_t n) {
  const Vec3 center{0.0, 0.8, 0.0};
  std::vector<std::string> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x =
        -0.5 + static_cast<double>(i) / static_cast<double>(n - 1);
    const Vec3 p{x, 0.0, 0.0};
    const double phase =
        rf::wrap_phase(rf::distance_phase(linalg::distance(center, p)));
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%.17g,0,0,%.17g", x, phase);
    rows.emplace_back(buf);
  }
  return rows;
}

struct Capture {
  std::mutex mu;
  std::vector<std::string> lines;
  StreamService::Sink sink() {
    return [this](std::string_view line) {
      std::lock_guard<std::mutex> lock(mu);
      lines.emplace_back(line);
    };
  }
};

std::vector<std::string> run_stream(const std::string& input,
                                    std::size_t chunk,
                                    const ServiceConfig& cfg = {}) {
  Capture cap;
  StreamService service(cfg, cap.sink());
  if (chunk == 0) {
    service.ingest_bytes(input);
  } else {
    for (std::size_t i = 0; i < input.size(); i += chunk) {
      service.ingest_bytes(input.substr(i, chunk));
    }
  }
  service.finish();
  return cap.lines;
}

std::vector<std::string> filter_reports(const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  for (const auto& l : lines) {
    if (l.find("\"schema\":\"lion.report.v1\"") != std::string::npos) {
      out.push_back(l);
    }
  }
  return out;
}

std::string source_of(const std::string& report_line) {
  const auto key = report_line.find("\"source\":\"");
  if (key == std::string::npos) return "";
  const auto start = key + 10;
  return report_line.substr(start, report_line.find('"', start) - start);
}

/// The serialized report payload, independent of envelope (seq, source).
std::string report_payload(const std::string& report_line) {
  const auto key = report_line.find("\"report\":");
  EXPECT_NE(key, std::string::npos) << report_line;
  if (key == std::string::npos) return "";
  return report_line.substr(key);
}

/// Declare, the first 90% of the rig rows, two flushes, the rest, and a
/// third flush: fallback, memo, fallback.
std::string tiered_input(const std::vector<std::string>& rows) {
  const std::size_t base = rows.size() - rows.size() / 10;
  std::string input = std::string(kDeclare) + "\n";
  for (std::size_t i = 0; i < base; ++i) input += rows[i] + "\n";
  input += "!flush cal\n!flush cal\n";
  for (std::size_t i = base; i < rows.size(); ++i) input += rows[i] + "\n";
  input += "!flush cal\n";
  return input;
}

TEST(CalMemoServe, SourceTagProgressesFallbackMemoFallback) {
  const auto rows = rig_rows();
  const auto reports =
      filter_reports(run_stream(tiered_input(rows) + "!flush cal\n", 0));
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(source_of(reports[0]), "fallback");
  EXPECT_EQ(source_of(reports[1]), "memo");
  EXPECT_EQ(report_payload(reports[1]), report_payload(reports[0]));
  EXPECT_EQ(source_of(reports[2]), "fallback");
  EXPECT_EQ(source_of(reports[3]), "memo");
  EXPECT_EQ(report_payload(reports[3]), report_payload(reports[2]));

  // The post-append report is the batch answer over every row: a fresh
  // session fed the same rows answers with the same payload.
  std::string fresh = std::string(kDeclare) + "\n";
  for (const auto& r : rows) fresh += r + "\n";
  const auto batch_reports = filter_reports(run_stream(fresh + "!flush cal\n", 0));
  ASSERT_EQ(batch_reports.size(), 1u);
  EXPECT_EQ(report_payload(reports[2]), report_payload(batch_reports[0]));
}

TEST(CalMemoServe, FlushStreamIsChunkAndThreadInvariant) {
  const std::string input = tiered_input(rig_rows());
  const auto whole = run_stream(input, 0);
  ASSERT_FALSE(whole.empty());
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
    EXPECT_EQ(run_stream(input, chunk), whole) << "chunk " << chunk;
  }
  ServiceConfig one;
  one.threads = 1;
  EXPECT_EQ(run_stream(input, 0, one), whole);
}

TEST(CalMemoServe, NonOkReportIsMemoizedToo) {
  const auto rows = line_rows(120);
  std::string input = "!session line center=0,0.8,0 smoothing=1\n";
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) input += rows[i] + "\n";
  input += "!flush line\n";  // full solve; memoizes a degenerate report
  input += "!flush line\n";  // unchanged buffer -> memo, any status
  input += rows.back() + "\n";
  input += "!flush line\n";  // append -> full solve
  input += "!stats\n";

  const auto lines = run_stream(input, 0);
  const auto reports = filter_reports(lines);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(source_of(reports[0]), "fallback");
  EXPECT_EQ(reports[0].find("\"status\":\"ok\""), std::string::npos)
      << reports[0];
  EXPECT_EQ(source_of(reports[1]), "memo");
  EXPECT_EQ(report_payload(reports[1]), report_payload(reports[0]));
  EXPECT_EQ(source_of(reports[2]), "fallback");

  const std::string& stats = lines.back();
  ASSERT_NE(stats.find("\"schema\":\"lion.stats.v1\""), std::string::npos);
  EXPECT_NE(stats.find("\"cal_flushes\":3"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"cal_memo\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"cal_fallbacks\":2"), std::string::npos) << stats;
}

TEST(CalMemoServe, HealthzCarriesCalCountersAndRatio) {
  // lion.health.v1 is out-of-band: it may overtake the last (scheduled)
  // report on the sink, but its counters are taken in ingest order.
  const auto lines = run_stream(tiered_input(rig_rows()) + "!healthz\n", 0);
  std::string health;
  for (const auto& l : lines) {
    if (l.find("\"schema\":\"lion.health.v1\"") != std::string::npos) {
      health = l;
    }
  }
  ASSERT_FALSE(health.empty());
  EXPECT_NE(health.find("\"cal_flushes\":3"), std::string::npos) << health;
  EXPECT_NE(health.find("\"cal_memo\":1"), std::string::npos) << health;
  EXPECT_NE(health.find("\"cal_fallbacks\":2"), std::string::npos) << health;
  EXPECT_NE(health.find("\"cal_fallback_ratio\":"), std::string::npos)
      << health;
}

// ---------------------------------------------------------------------------
// smoothing= declares
// ---------------------------------------------------------------------------

TEST(CalMemoServe, SmoothingIsACalibrateOnlyOption) {
  const auto lines = run_stream(
      "!session trk mode=track center=0,0,0 dir=1,0,0 speed=1 "
      "window=1000 hop=500 smoothing=1\n",
      0);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"schema\":\"lion.error.v1\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("smoothing"), std::string::npos) << lines[0];
}

TEST(CalMemoServe, MalformedSmoothingValueIsAnError) {
  const auto lines =
      run_stream("!session cal center=0,0.8,0 smoothing=banana\n", 0);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"schema\":\"lion.error.v1\""), std::string::npos)
      << lines[0];
}

TEST(CalMemoServe, SmoothingDeclareReachesThePipeline) {
  // smoothing=1 answers with the batch report under smoothing_window = 1.
  const auto rows = rig_rows();
  std::string data;
  io::CsvStreamParser parser;
  std::vector<sim::PhaseSample> samples;
  for (const auto& r : rows) {
    data += r + "\n";
    const auto parsed = parser.push_line(r);
    if (parsed.status == io::CsvRowStatus::kSample) {
      samples.push_back(parsed.sample);
    }
  }
  ASSERT_EQ(samples.size(), rows.size());
  const auto smoothed = filter_reports(run_stream(
      "!session cal center=0.009,0.789,0.006\n" + data + "!flush cal\n", 0));
  const auto unsmoothed = filter_reports(
      run_stream(std::string(kDeclare) + "\n" + data + "!flush cal\n", 0));
  ASSERT_EQ(smoothed.size(), 1u);
  ASSERT_EQ(unsmoothed.size(), 1u);

  core::RobustCalibrationConfig cfg;
  cfg.preprocess.smoothing_window = 1;
  const Vec3 center{0.009, 0.789, 0.006};
  EXPECT_EQ(report_payload(unsmoothed[0]),
            "\"report\":" +
                json(core::calibrate_antenna_robust(samples, center, cfg)) +
                "}");
  EXPECT_EQ(report_payload(smoothed[0]),
            "\"report\":" +
                json(core::calibrate_antenna_robust(samples, center)) + "}");
  EXPECT_NE(report_payload(smoothed[0]), report_payload(unsmoothed[0]));
}

}  // namespace
}  // namespace lion::serve
