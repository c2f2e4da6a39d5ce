// The traced run: replay a workload's generated inputs through each
// layer's public entry points, recording spans from this file only.
//
// Calibrations go through core::calibrate_with_sweep with a sweep that
// re-composes core::locate_adaptive from its public pieces, so every cell
// is visible: restrict_to_x_range + ladder_pairs + prepare_system
// (`core.radical`), ransac_solve on a SolverWorkspace (`core.ransac`), and
// assemble_result (the cell's self time). The composed sweep returns the
// same bytes as the untraced pipeline; the run checks that per input.
// IRLS refits run inside ransac_solve and are re-timed afterwards on the
// recorded consensus masks (`linalg.irls`), outside the calibrate span.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive.hpp"
#include "core/calibration.hpp"
#include "core/localizer.hpp"
#include "core/pairing.hpp"
#include "core/ransac.hpp"
#include "engine/batch.hpp"
#include "io/report_json.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/small.hpp"
#include "serve/journal.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "signal/sanitize.hpp"
#include "signal/stitch.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace lionbench {

using namespace lion;

namespace {

/// One consensus solve kept for the IRLS re-timing.
struct CellSystem {
  linalg::Matrix a;
  std::vector<double> k;
  std::vector<char> mask;  ///< empty: full-row fallback
  std::size_t count = 0;
  linalg::IrlsOptions irls;
};

struct CalCounts {
  double radical_rows = 0.0;
  double ransac_iterations = 0.0;
  double consensus_share_sum = 0.0;
  double ransac_solves = 0.0;
  double irls_iterations = 0.0;
};

/// locate_adaptive, composed from its public pieces with a span per layer.
core::AdaptiveResult traced_sweep(SpanRecorder& rec, std::uint64_t req,
                                  std::vector<CellSystem>& cells,
                                  CalCounts& counts,
                                  const signal::PhaseProfile& profile,
                                  const core::AdaptiveConfig& config) {
  SpanRecorder::Scope adaptive(rec, "core.adaptive", req);
  if (config.ranges.empty() || config.intervals.empty()) {
    return core::locate_adaptive(profile, config);  // throws the same way
  }
  std::vector<core::AdaptiveCandidate> candidates;
  candidates.reserve(config.ranges.size() * config.intervals.size());
  for (double range : config.ranges) {
    signal::PhaseProfile windowed;
    {
      SpanRecorder::Scope s(rec, "core.restrict", req);
      windowed =
          core::restrict_to_x_range(profile, config.range_center_x, range);
    }
    for (double interval : config.intervals) {
      core::AdaptiveCandidate cand;
      cand.range = range;
      cand.interval = interval;
      const core::LocalizerConfig lc =
          core::adaptive_cell_config(config, interval, windowed);
      SpanRecorder::Scope cell(rec, "core.cell_solve", req);
      try {
        const core::LinearLocalizer loc(lc);
        if (lc.method != core::SolveMethod::kRansac ||
            lc.workspace == nullptr) {
          cand.result = loc.locate(windowed);
        } else {
          std::vector<core::IndexPair> pairs;
          core::TrajectoryFrame frame;
          core::LinearSystem sys;
          {
            SpanRecorder::Scope s(rec, "core.radical", req);
            pairs = core::ladder_pairs(windowed, lc.pair_interval,
                                       lc.pair_tolerance, lc.pair_stride);
            sys = loc.prepare_system(windowed, pairs, frame);
          }
          counts.radical_rows += static_cast<double>(sys.a.rows());
          core::RansacResult rr;
          {
            SpanRecorder::Scope s(rec, "core.ransac", req);
            rr = core::ransac_solve(sys.a, sys.k, lc.ransac, *lc.workspace);
          }
          counts.ransac_iterations += static_cast<double>(rr.iterations);
          counts.consensus_share_sum += rr.inlier_fraction;
          counts.ransac_solves += 1.0;
          counts.irls_iterations +=
              static_cast<double>(rr.solution.iterations);
          CellSystem cs{sys.a, sys.k, {}, sys.a.rows(), lc.ransac.irls};
          cs.irls.loss = lc.ransac.refit_loss;
          if (rr.consensus) {
            cs.mask = rr.inlier_mask;
            cs.count = static_cast<std::size_t>(
                std::count(cs.mask.begin(), cs.mask.end(), 1));
          }
          cells.push_back(std::move(cs));
          core::SolveOutcome oc;
          oc.solution = std::move(rr.solution);
          oc.inlier_fraction = rr.inlier_fraction;
          oc.ws_holds_system = true;
          oc.consensus = rr.consensus;
          oc.consensus_scale = rr.scale;
          oc.consensus_threshold = rr.threshold;
          cand.result =
              loc.assemble_result(windowed, frame, sys, pairs.size(), oc);
        }
        cand.usable = core::adaptive_candidate_usable(cand.result, config);
      } catch (const std::exception&) {
        cand.usable = false;
      }
      candidates.push_back(std::move(cand));
    }
  }
  return core::finalize_adaptive_sweep(std::move(candidates), config);
}

double sum_ns(const SpanRecorder& rec, const char* name) {
  double total = 0.0;
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    if (std::string(rec.spans()[i].name) == name) {
      total += static_cast<double>(rec.duration_ns(i));
    }
  }
  return total;
}

/// Per-line cost [ns] of the in-process serve path, median of 3.
struct ServeReplay {
  double chunk_decode_ns = 0.0;
  double parse_line_ns = 0.0;
  double ingest_line_ns = 0.0;
  double journaled_ns = 0.0;
  double journal_bytes = 0.0;
  double journal_fsyncs = 0.0;
  std::size_t reads = 0;
  bool samples_ok = true;
};

ServeReplay replay_serve(const std::vector<std::string>& lines,
                         const std::string& workdir, SpanRecorder& rec) {
  ServeReplay out;
  std::string bytes;
  for (const auto& l : lines) {
    bytes += l;
    bytes += '\n';
    if (!l.empty() && l[0] != '!') ++out.reads;
  }
  const double n = static_cast<double>(lines.size());
  std::vector<double> decode, parse, plain, journaled, jbytes, fsyncs;
  for (std::uint64_t rep = 0; rep < 3; ++rep) {
    {
      SpanRecorder::Scope s(rec, "serve.chunk_decode", rep);
      serve::ChunkDecoder dec;
      std::size_t got = 0;
      const auto t0 = Clock::now();
      for (std::size_t off = 0; off < bytes.size(); off += 1 << 16) {
        got += dec.feed(std::string_view(bytes).substr(off, 1 << 16))
                   .lines.size();
      }
      decode.push_back(seconds_since(t0) * 1e9 / n);
      out.samples_ok = out.samples_ok && got == lines.size();
    }
    {
      SpanRecorder::Scope s(rec, "serve.parse_line", rep);
      std::size_t data = 0;
      const auto t0 = Clock::now();
      for (const auto& l : lines) {
        data += serve::parse_line(l).kind == serve::ParsedLine::kData;
      }
      parse.push_back(seconds_since(t0) * 1e9 / n);
      out.samples_ok = out.samples_ok && data == out.reads;
    }
    for (int journal = 0; journal < 2; ++journal) {
      const std::string dir =
          workdir + "/layers-journal-" + std::to_string(rep);
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      std::unique_ptr<serve::JournalStore> store;
      serve::ServiceConfig cfg;
      cfg.threads = 1;
      if (journal) {
        store = std::make_unique<serve::JournalStore>(
            serve::JournalStoreConfig{dir});
        cfg.journal = store.get();
      }
      double ns = 0.0;
      {
        serve::StreamService svc(cfg, [](std::string_view) {});
        SpanRecorder::Scope s(
            rec, journal ? "serve.ingest_line_journaled" : "serve.ingest_line",
            rep);
        const auto t0 = Clock::now();
        for (const auto& l : lines) svc.ingest_line(l);
        ns = seconds_since(t0) * 1e9 / n;
        out.samples_ok =
            out.samples_ok && svc.stats().samples == out.reads &&
            svc.stats().errors == 0;
      }
      if (!journal) {
        plain.push_back(ns);
        continue;
      }
      journaled.push_back(ns);
      fsyncs.push_back(static_cast<double>(store->stats().syncs));
      double size = 0.0;
      for (const auto& f : std::filesystem::directory_iterator(dir, ec)) {
        size += static_cast<double>(f.file_size(ec));
      }
      jbytes.push_back(size);
      store.reset();
      std::filesystem::remove_all(dir, ec);
    }
  }
  out.chunk_decode_ns = median(decode);
  out.parse_line_ns = median(parse);
  out.ingest_line_ns = median(plain);
  out.journaled_ns = median(journaled);
  out.journal_bytes = median(jbytes);
  out.journal_fsyncs = median(fsyncs);
  return out;
}

}  // namespace

void run_layers(const Options& opt, WorkloadRun& run, Results& out) {
  SpanRecorder rec;
  linalg::SolverWorkspace ws;
  Dist calibrate_ms, preprocess_ms, report_us;
  CalCounts counts;
  double untraced_ns = 0.0, traced_ns = 0.0;
  double cells_attempted = 0.0, cells_usable = 0.0, cells_selected = 0.0;
  std::size_t mismatches = 0;
  std::vector<std::string> traced_json;
  std::vector<CellSystem> cells;
  const std::size_t n = run.calibrations.size();

  for (std::size_t i = 0; i < n; ++i) {
    const CalInput& in = run.calibrations[i];
    const std::uint64_t req = i + 1;
    {
      SpanRecorder::Scope s(rec, "signal.preprocess", req);
      const auto t0 = Clock::now();
      const auto clean = signal::sanitize_samples(in.samples);
      const auto profile = signal::preprocess(in.samples, in.config.preprocess);
      preprocess_ms.add(seconds_since(t0) * 1e3);
      (void)clean;
      (void)profile;
    }
    // Untraced and traced passes alternate which goes first.
    core::CalibrationReport untraced, traced;
    const auto untraced_pass = [&] {
      const auto t0 = Clock::now();
      untraced = core::calibrate_antenna_robust(in.samples, in.physical,
                                                in.config, &ws);
      untraced_ns += seconds_since(t0) * 1e9;
    };
    const auto traced_pass = [&] {
      cells.clear();
      const std::size_t span = rec.begin("core.calibrate", req);
      traced = core::calibrate_with_sweep(
          in.samples, in.physical, in.config, &ws,
          [&](const signal::PhaseProfile& profile,
              const core::AdaptiveConfig& cfg) {
            return traced_sweep(rec, req, cells, counts, profile, cfg);
          });
      rec.end(span);
      traced_ns += static_cast<double>(rec.duration_ns(span));
      calibrate_ms.add(static_cast<double>(rec.duration_ns(span)) * 1e-6);
    };
    if (i % 2 == 0) {
      untraced_pass();
      traced_pass();
    } else {
      traced_pass();
      untraced_pass();
    }
    for (CellSystem& c : cells) {
      ws.load(c.a, c.k);
      linalg::LstsqResult sol;
      SpanRecorder::Scope s(rec, "linalg.irls", req);
      linalg::solve_irls_masked(ws, c.mask.empty() ? nullptr : c.mask.data(),
                                c.count, c.irls, sol);
    }
    std::string json;
    {
      const auto t0 = Clock::now();
      SpanRecorder::Scope s(rec, "io.report_json", req);
      json = io::report_json(traced);
      report_us.add(seconds_since(t0) * 1e6);
    }
    if (json != io::report_json(untraced)) ++mismatches;
    traced_json.push_back(std::move(json));
    const auto& d = traced.center.details;
    cells_attempted += static_cast<double>(d.candidates.size());
    for (const auto& c : d.candidates) cells_usable += c.usable ? 1.0 : 0.0;
    cells_selected += static_cast<double>(d.selected.size());
  }
  out.count(n, mismatches);
  out.check(n > 0, "the traced run replayed at least one calibration");
  out.check(mismatches == 0,
            "traced calibrations equal the untraced pipeline byte for byte");

  // ---- engine: the same inputs as one BatchEngine::run call --------------
  // Each job's own calibrate time is taken inside the job (the work hook
  // runs the same calibrate_antenna_robust the engine would, with a
  // per-worker workspace), so the idle share needs no serial estimate.
  std::vector<double> busy_s(run.calibrations.size(), 0.0);
  std::vector<engine::CalibrationJob> jobs;
  for (std::size_t i = 0; i < run.calibrations.size(); ++i) {
    const CalInput& in = run.calibrations[i];
    engine::CalibrationJob job;
    job.id = in.id;
    job.samples = in.samples;
    job.physical_center = in.physical;
    job.config = in.config;
    job.work = [&busy_s, i](const engine::CalibrationJob& j) {
      thread_local linalg::SolverWorkspace worker_ws;
      const auto t0 = Clock::now();
      auto report = core::calibrate_antenna_robust(
          j.samples, j.physical_center, j.config, &worker_ws);
      busy_s[i] = seconds_since(t0);
      return report;
    };
    jobs.push_back(std::move(job));
  }
  engine::BatchEngine eng(engine::BatchEngineOptions{kEngineThreads});
  std::size_t engine_span = rec.begin("engine.run", 0);
  const auto batch = eng.run(jobs);
  rec.end(engine_span);
  double busy_total = 0.0;
  for (double b : busy_s) busy_total += b;
  Dist job_ms;
  std::size_t engine_diff = 0;
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    job_ms.add(batch.results[i].latency_s * 1e3);
    if (io::report_json(batch.results[i].report) != traced_json[i]) {
      ++engine_diff;
    }
  }
  out.check(engine_diff == 0, "BatchEngine reports equal the traced reports");

  // ---- serve: in-process wire path ---------------------------------------
  const ServeReplay sr = replay_serve(run.wire_lines, opt.scratch, rec);
  out.check(sr.samples_ok, "in-process serve replay accepted every read");

  // ---- serve_mixed: inline answers on the ingest thread ------------------
  Dist flush_inline_us, tick_inline_us, inline_us;
  if (!run.mixed_lines.empty()) {
    serve::ServiceConfig cfg;
    cfg.threads = 2;
    serve::StreamService svc(cfg, [](std::string_view) {});
    for (std::size_t i = 0; i < run.mixed_lines.size(); ++i) {
      const LineClass cls = run.mixed_classes[i];
      if (cls != LineClass::kRepeatFlush && cls != LineClass::kTick) {
        svc.ingest_line(run.mixed_lines[i]);
        continue;
      }
      svc.drain();  // time the inline answer alone, not the wait behind it
      SpanRecorder::Scope s(rec,
                            cls == LineClass::kTick ? "serve.tick_inline"
                                                    : "serve.flush_inline",
                            i);
      const auto t0 = Clock::now();
      svc.ingest_line(run.mixed_lines[i]);
      const double us = seconds_since(t0) * 1e6;
      (cls == LineClass::kTick ? tick_inline_us : flush_inline_us).add(us);
      inline_us.add(us);
    }
    svc.finish();
  }

  // ---- per-layer table ----------------------------------------------------
  const double cal_n = std::max<double>(1.0, static_cast<double>(n));
  const auto per_cal_ms = [&](const char* name) {
    return sum_ns(rec, name) * 1e-6 / cal_n;
  };
  const auto summary = rec.summarize();
  const auto self_ms = [&](const char* name) {
    const auto it = summary.find(name);
    return it == summary.end() ? 0.0 : it->second.self_ms / cal_n;
  };
  out.add("signal.preprocess_ms", preprocess_ms.mean(), "ms",
          "sanitize_samples + preprocess");
  out.add_pct("core.calibrate_ms_p50", calibrate_ms, 50, "ms");
  out.add_pct("core.calibrate_ms_p90", calibrate_ms, 90, "ms");
  out.add("core.adaptive_ms", per_cal_ms("core.adaptive"), "ms");
  out.add("core.adaptive_self_ms", self_ms("core.adaptive"), "ms",
          "adaptive minus restrict and cell spans");
  out.add("core.cell_solve_ms", per_cal_ms("core.cell_solve"), "ms");
  out.add("core.radical_ms",
          per_cal_ms("core.restrict") + per_cal_ms("core.radical"), "ms");
  out.add("core.ransac_ms", per_cal_ms("core.ransac"), "ms");
  out.add("linalg.irls_ms", per_cal_ms("linalg.irls"), "ms",
          "refits re-timed on the consensus masks");
  out.add("core.radical_rows", counts.radical_rows / cal_n, "count");
  out.add("core.ransac_iterations", counts.ransac_iterations / cal_n,
          "count");
  out.add("core.ransac_consensus_share",
          counts.consensus_share_sum / std::max(1.0, counts.ransac_solves),
          "share");
  out.add("linalg.irls_iterations", counts.irls_iterations / cal_n, "count");
  out.add("core.cells_usable_share",
          cells_usable / std::max(1.0, cells_attempted), "share");
  out.add("core.cells_selected_share",
          cells_selected / std::max(1.0, cells_attempted), "share");
  out.add("engine.steals", static_cast<double>(batch.stats.steals), "count");
  out.add_pct("engine.job_latency_p50_ms", job_ms, 50, "ms");
  out.add("engine.idle_share",
          1.0 - busy_total / (static_cast<double>(kEngineThreads) *
                              batch.stats.wall_s),
          "share", std::to_string(n) + " jobs");
  out.add("io.report_json_us", report_us.mean(), "us");
  out.add("serve.chunk_decode_ns", sr.chunk_decode_ns, "ns",
          std::to_string(run.wire_lines.size()) + " lines");
  out.add("serve.parse_line_ns", sr.parse_line_ns, "ns");
  out.add("serve.ingest_line_ns", sr.ingest_line_ns, "ns", "journal off");
  out.add("serve.journal_ns_per_read",
          (sr.journaled_ns - sr.ingest_line_ns) *
              static_cast<double>(run.wire_lines.size()) /
              static_cast<double>(std::max<std::size_t>(1, sr.reads)),
          "ns");
  out.add("serve.journal_bytes_per_read",
          sr.journal_bytes /
              static_cast<double>(std::max<std::size_t>(1, sr.reads)),
          "B");
  out.add("serve.journal_fsyncs", sr.journal_fsyncs, "count",
          std::to_string(sr.reads) + " reads");
  out.add("bench.tracing_overhead_pct",
          (traced_ns - untraced_ns) / untraced_ns * 100.0, "%",
          "traced vs untraced calibrate");

  // Workload-specific layers (printed, not part of the JSON line).
  if (run.tcp_wall_s > 0.0) {
    out.add("serve.frontend_share",
            1.0 - sr.journaled_ns * run.tcp_reads * 1e-9 /
                      (run.tcp_wall_s * run.tcp_shards),
            "share", "1 - in-process journaled ingest / shard wall");
  }
  if (!run.mixed_lines.empty()) {
    out.add_pct("serve.flush_inline_us", flush_inline_us, 50, "us");
    out.add_pct("serve.tick_inline_us", tick_inline_us, 50, "us");
    out.add("serve.reorder_wait_ms",
            run.inline_client_ms.pct(50) - inline_us.pct(50) * 1e-3, "ms",
            "client latency minus inline time, inline answers, p50");
  }
  for (const auto& [name, value] : run.serve_layer) {
    out.add(name, value.first, value.second);
  }

  std::filesystem::create_directories(opt.workdir);
  const std::string path = opt.workdir + "/spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".json";
  out.check(rec.write_json(path), "spans written to " + path);
  std::printf("spans: %zu written to %s\n", rec.spans().size(), path.c_str());
  std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, s] : summary) {
    std::printf("%-28s %8zu %12.3f %12.3f\n", name.c_str(), s.count,
                s.total_ms, s.self_ms);
  }
}

}  // namespace lionbench
