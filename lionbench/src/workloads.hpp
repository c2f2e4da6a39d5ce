// The three workloads and the traced per-layer replay.
//
//   batch_fleet   closed loop, in-process engine::BatchEngine::run over a
//                 fleet of simulated antenna units (core/linalg bound).
//   serve_mixed   open loop at frozen rates against `lion_served --shards 1
//                 --threads 2`: calibrate flushes (solve / repeat classes)
//                 and track `!tick`s on four loopback connections.
//   serve_ingest  closed loop saturating `lion_served --shards 2 --threads 1
//                 --journal-dir ...` with interleaved `@id` CSV reads and
//                 no flushes (wire, front-end, demux, journal bound).
//
// Each run fills a Results table with the end-to-end metrics and hands the
// generated inputs on to the traced replay (layers.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/calibration.hpp"
#include "inputs.hpp"
#include "sim/reader.hpp"

namespace lionbench {

/// Engine threads of batch_fleet and of the traced engine replay.
inline constexpr std::size_t kEngineThreads = 2;
/// Accuracy gate: a run whose center_error_mm_p90 exceeds it is incorrect.
inline constexpr double kCenterErrorGateMm = 20.0;

/// One calibration the traced run replays through the layers.
struct CalInput {
  std::uint64_t id = 0;
  std::vector<lion::sim::PhaseSample> samples;
  Vec3 physical{};
  lion::core::RobustCalibrationConfig config{};
};

/// Request classes of the serve_mixed replay.
enum class LineClass { kData, kSolveFlush, kRepeatFlush, kTick };

struct WorkloadRun {
  Results results;                 ///< end-to-end table
  std::vector<CalInput> calibrations;
  /// Declares and read records of the workload, in wire order, for the
  /// in-process serve replay (no flushes, no ticks).
  std::vector<std::string> wire_lines;
  /// serve_mixed: a prefix of the full ordered stream with each line's
  /// class, for timing inline (ingest-thread) answers.
  std::vector<std::string> mixed_lines;
  std::vector<LineClass> mixed_classes;
  /// serve_mixed: client latency [ms] of answers given inline (memo
  /// repeats and incremental ticks).
  Dist inline_client_ms;
  /// Workload-specific per-layer figures measured on the TCP run.
  std::map<std::string, std::pair<double, std::string>> serve_layer;
  /// serve_ingest: reads and wall of the TCP run, for the front-end share.
  double tcp_reads = 0.0;
  double tcp_wall_s = 0.0;
  double tcp_shards = 0.0;
};

/// `measure == false` only generates the inputs (the batch trace run needs
/// no end-to-end pass).
WorkloadRun run_batch_fleet(const Options& opt, bool measure);
WorkloadRun run_serve_mixed(const Options& opt);
WorkloadRun run_serve_ingest(const Options& opt);

/// The traced run: replay `run`'s inputs through each layer's public entry
/// points, record spans, and add the per-layer metrics to `out`.
void run_layers(const Options& opt, WorkloadRun& run, Results& out);

/// Build `!session` declares plus row-interleaved `@id` read lines.
std::vector<std::string> interleave_sessions(
    const std::vector<std::string>& ids,
    const std::vector<const std::vector<std::string>*>& rows,
    const std::string& declare_suffix);

}  // namespace lionbench
