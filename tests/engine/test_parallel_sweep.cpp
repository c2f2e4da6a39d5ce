// The adaptive sweep on an executor: AdaptiveConfig::executor only decides
// where the per-range tasks run, so a calibration report serializes to the
// same bytes with and without one — for every solve method, on any pool
// size, called from inside a pool task or from a thread outside the pool,
// on the planar-fallback path, and when a range throws.

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "core/lion.hpp"
#include "engine/thread_pool.hpp"
#include "io/report_json.hpp"
#include "signal/stitch.hpp"
#include "sim/scenario.hpp"

namespace lion::engine {
namespace {

using linalg::Vec3;

constexpr Vec3 kPhysical{0.0, 0.8, 0.0};

sim::Scenario make_scenario(std::uint64_t seed) {
  return sim::Scenario::Builder{}
      .environment(sim::EnvironmentKind::kLabTypical)
      .add_antenna(kPhysical)
      .add_tag()
      .seed(seed)
      .build();
}

std::vector<sim::PhaseSample> rig_scan(std::uint64_t seed) {
  auto scenario = make_scenario(seed);
  sim::ThreeLineRig rig;
  rig.x_min = -0.55;
  rig.x_max = 0.55;
  return scenario.sweep(0, 0, rig.build());
}

std::vector<sim::PhaseSample> single_line_scan(std::uint64_t seed) {
  auto scenario = make_scenario(seed);
  return scenario.sweep(
      0, 0, sim::LinearTrajectory({-0.5, 0.0, 0.0}, {0.5, 0.0, 0.0}, 0.1));
}

std::string report_bytes(const std::vector<sim::PhaseSample>& samples,
                         const core::RobustCalibrationConfig& cfg) {
  return io::report_json(
      core::calibrate_antenna_robust(samples, kPhysical, cfg));
}

// The report with `pool` as the sweep's executor, called from this thread
// (outside the pool) or from inside one of the pool's tasks.
std::string pooled_bytes(ThreadPool& pool, bool from_worker,
                         const std::vector<sim::PhaseSample>& samples,
                         core::RobustCalibrationConfig cfg) {
  cfg.adaptive.executor = &pool;
  if (!from_worker) return report_bytes(samples, cfg);
  std::promise<std::string> out;
  pool.submit([&] { out.set_value(report_bytes(samples, cfg)); });
  return out.get_future().get();
}

void expect_executor_invariant(const std::vector<sim::PhaseSample>& samples,
                               const core::RobustCalibrationConfig& cfg) {
  const std::string serial = report_bytes(samples, cfg);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    for (const bool from_worker : {false, true}) {
      EXPECT_EQ(pooled_bytes(pool, from_worker, samples, cfg), serial)
          << threads << " threads, called from "
          << (from_worker ? "a pool task" : "outside the pool");
    }
  }
}

// A 3 x 2 sweep keeps the six-method matrix fast; the default 6 x 6 sweep
// runs once below.
core::RobustCalibrationConfig small_sweep(core::SolveMethod method) {
  core::RobustCalibrationConfig cfg;
  cfg.adaptive.ranges = {0.6, 0.8, 1.0};
  cfg.adaptive.intervals = {0.15, 0.25};
  cfg.adaptive.base.method = method;
  return cfg;
}

TEST(ParallelSweep, EveryMethodIsByteIdenticalWithAnExecutor) {
  const auto samples = rig_scan(3);
  for (const core::SolveMethod method :
       {core::SolveMethod::kLeastSquares,
        core::SolveMethod::kWeightedLeastSquares,
        core::SolveMethod::kIterativeReweighted, core::SolveMethod::kHuberIrls,
        core::SolveMethod::kTukeyIrls, core::SolveMethod::kRansac}) {
    SCOPED_TRACE(core::solve_method_name(method));
    expect_executor_invariant(samples, small_sweep(method));
  }
}

TEST(ParallelSweep, DefaultSweepIsByteIdenticalWithAnExecutor) {
  const auto samples = rig_scan(5);
  const core::RobustCalibrationConfig cfg;
  ASSERT_EQ(core::calibrate_antenna_robust(samples, kPhysical, cfg).status,
            core::CalibrationStatus::kOk);
  expect_executor_invariant(samples, cfg);
}

TEST(ParallelSweep, CallerWorkspaceIsNotSharedAcrossRangeTasks) {
  // calibrate_antenna_robust's workspace reaches every cell of a serial
  // sweep. Under an executor each range task must solve on its own
  // thread's workspace instead: one workspace on four threads at once
  // would be a data race and corrupt the solves.
  const auto samples = rig_scan(7);
  core::RobustCalibrationConfig cfg;
  const std::string serial = report_bytes(samples, cfg);
  ThreadPool pool(4);
  cfg.adaptive.executor = &pool;
  linalg::SolverWorkspace ws;
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(io::report_json(core::calibrate_antenna_robust(
                  samples, kPhysical, cfg, &ws)),
              serial)
        << "round " << round;
  }
}

TEST(ParallelSweep, PlanarFallbackIsByteIdenticalWithAnExecutor) {
  const auto samples = single_line_scan(2);
  const auto cfg = small_sweep(core::SolveMethod::kRansac);
  ASSERT_EQ(core::calibrate_antenna_robust(samples, kPhysical, cfg).status,
            core::CalibrationStatus::kDegraded2D);
  expect_executor_invariant(samples, cfg);
}

TEST(ParallelSweep, ThrowingRangeGivesTheSerialDiagnostics) {
  // restrict_to_x_range throws on a non-positive range: both sweep
  // attempts fail, and the report's message must read as it does serially.
  const auto samples = rig_scan(4);
  auto cfg = small_sweep(core::SolveMethod::kRansac);
  cfg.adaptive.ranges = {0.6, 0.0, 0.8, -0.2};
  const auto report = core::calibrate_antenna_robust(samples, kPhysical, cfg);
  ASSERT_EQ(report.status, core::CalibrationStatus::kSolverFailure);
  ASSERT_NE(report.diagnostics.message.find("range must be positive"),
            std::string::npos)
      << report.diagnostics.message;
  expect_executor_invariant(samples, cfg);
}

TEST(ParallelSweep, LocateAdaptiveCandidatesKeepTheirSlots) {
  // Ranges listed out of width order: the executor claims them widest
  // first, yet every candidate lands in its (range, interval) slot.
  const auto samples = rig_scan(6);
  const auto profile = signal::preprocess(samples, {});
  core::AdaptiveConfig cfg;
  cfg.ranges = {0.8, 0.6, 1.1, 0.7};
  cfg.intervals = {0.2, 0.1};
  cfg.base.target_dim = 3;
  cfg.base.method = core::SolveMethod::kRansac;
  cfg.base.side_hint = kPhysical;
  const auto serial = core::locate_adaptive(profile, cfg);
  ThreadPool pool(3);
  cfg.executor = &pool;
  const auto pooled = core::locate_adaptive(profile, cfg);
  ASSERT_EQ(pooled.candidates.size(), serial.candidates.size());
  for (std::size_t i = 0; i < serial.candidates.size(); ++i) {
    EXPECT_EQ(pooled.candidates[i].range, serial.candidates[i].range);
    EXPECT_EQ(pooled.candidates[i].interval, serial.candidates[i].interval);
    EXPECT_EQ(pooled.candidates[i].usable, serial.candidates[i].usable);
    EXPECT_EQ(pooled.candidates[i].result.position,
              serial.candidates[i].result.position);
    EXPECT_EQ(pooled.candidates[i].result.mean_residual,
              serial.candidates[i].result.mean_residual);
  }
  EXPECT_EQ(pooled.position, serial.position);
  EXPECT_EQ(pooled.best_range, serial.best_range);
  EXPECT_EQ(pooled.best_interval, serial.best_interval);
}

}  // namespace
}  // namespace lion::engine
