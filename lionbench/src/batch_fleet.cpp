// batch_fleet: one engine::BatchEngine::run call covers the whole fleet of
// simulated antenna units; calls repeat (same jobs) until the run's
// seconds are spent. Closed loop: the next call starts when the last one
// returns.

#include <cmath>
#include <string>
#include <vector>

#include "engine/batch.hpp"
#include "io/report_json.hpp"
#include "workloads.hpp"

namespace lionbench {

using namespace lion;

std::vector<std::string> interleave_sessions(
    const std::vector<std::string>& ids,
    const std::vector<const std::vector<std::string>*>& rows,
    const std::string& declare_suffix) {
  std::vector<std::string> out;
  std::size_t longest = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out.push_back("!session " + ids[i] + " center=0,0.8,0" + declare_suffix);
    longest = std::max(longest, rows[i]->size());
  }
  for (std::size_t r = 0; r < longest; ++r) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (r < rows[i]->size()) out.push_back("@" + ids[i] + " " + (*rows[i])[r]);
    }
  }
  return out;
}

WorkloadRun run_batch_fleet(const Options& opt, bool measure) {
  const std::size_t units = opt.size == Size::kTiny ? 4 : 100;
  WorkloadRun run;
  Results& res = run.results;
  res.set_strict(opt.size == Size::kFull);

  // Set-up, repeated three times (median reported): generate the fleet
  // and build the jobs the engine receives.
  std::vector<engine::CalibrationJob> jobs;
  std::vector<Unit> fleet;
  std::vector<double> setups;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    fleet.clear();
    jobs.clear();
    for (std::size_t i = 0; i < units; ++i) {
      fleet.push_back(make_unit(opt.seed, i, 1, false));
      jobs.push_back(engine::make_calibration_job(
          fleet.back().id, fleet.back().samples, kPhysicalCenter));
    }
    setups.push_back(seconds_since(t0));
  }

  for (const auto& job : jobs) {
    run.calibrations.push_back(
        CalInput{job.id, job.samples, job.physical_center, job.config});
  }
  {
    std::vector<std::string> ids;
    std::vector<const std::vector<std::string>*> rows;
    for (std::size_t i = 0; i < std::min<std::size_t>(16, fleet.size());
         ++i) {
      std::string id = "u";
      id += std::to_string(i);
      ids.push_back(std::move(id));
      for (const auto& sample : fleet[i].samples) {
        fleet[i].rows.push_back(csv_row(sample));
      }
      rows.push_back(&fleet[i].rows);
    }
    run.wire_lines = interleave_sessions(ids, rows, "");
  }
  if (!measure) return run;

  reset_peak_rss();
  const double rss0 = current_rss_mb(0);

  engine::BatchEngine eng(engine::BatchEngineOptions{kEngineThreads});
  std::vector<std::string> reference(jobs.size());
  Dist job_ms, error_mm;
  double engine_wall = 0.0;
  std::size_t done = 0, failed = 0, calls = 0;
  bool deterministic = true;
  const auto start = Clock::now();
  do {
    const auto result = eng.run(jobs);
    engine_wall += result.stats.wall_s;
    for (std::size_t i = 0; i < result.results.size(); ++i) {
      const auto& jr = result.results[i];
      ++done;
      job_ms.add(jr.latency_s * 1e3);
      if (jr.report.status != core::CalibrationStatus::kOk) ++failed;
      const std::string json = io::report_json(jr.report);
      if (calls == 0) {
        reference[i] = json;
        error_mm.add(linalg::distance(jr.report.center.estimated_center,
                                      fleet[i].truth) *
                     1e3);
      } else if (json != reference[i]) {
        deterministic = false;
      }
    }
    ++calls;
  } while (seconds_since(start) < opt.seconds);
  const double growth = peak_rss_mb(0) - rss0;

  res.count(done, failed);
  res.check(failed == 0, "every batch_fleet report has status ok");
  res.check(deterministic,
            "repeated BatchEngine::run calls return byte-identical reports");
  res.check(error_mm.pct(90) <= kCenterErrorGateMm,
            "center_error_mm_p90 within the 20 mm accuracy gate");

  const double per_s = static_cast<double>(done) / engine_wall;
  const std::string calls_note = std::to_string(calls) + " run() calls of " +
                                 std::to_string(units) + " units, " +
                                 std::to_string(kEngineThreads) + " threads";
  res.add("setup_s", median(setups), "s", "median of 3 set-ups");
  res.add("failed_share", static_cast<double>(failed) / done, "share");
  res.add("peak_rss_mb", growth, "MB", "growth of the benchmark process");
  res.add("calibrations_per_s", per_s, "1/s", calls_note);
  res.add_pct("center_error_mm_p50", error_mm, 50, "mm");
  res.add_pct("center_error_mm_p90", error_mm, 90, "mm");
  res.add("throughput_per_s", per_s, "1/s", "= calibrations_per_s");
  res.add_pct("latency_p50_ms", job_ms, 50, "ms");
  res.add_pct("latency_p90_ms", job_ms, 90, "ms");
  return run;
}

}  // namespace lionbench
