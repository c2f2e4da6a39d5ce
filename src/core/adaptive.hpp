// Adaptive parameter selection (Sec. IV-C1, evaluated in Sec. V-E).
//
// The scanning range and pairing interval materially change accuracy: too
// small a range gives near-parallel radical lines (plane-wave regime), too
// large a range drags in noisy off-beam samples; small intervals make the
// phase-difference term noise-dominated. The paper's cue is the *mean WLS
// residual*: with Gaussian reweighting it sits near zero exactly when the
// data is clean, so LION sweeps candidate (range, interval) pairs and
// averages the estimates whose mean residual is closest to zero.
#pragma once

#include <cstddef>
#include <vector>

#include "core/executor.hpp"
#include "core/localizer.hpp"
#include "signal/profile.hpp"

namespace lion::core {

/// One evaluated parameter combination.
struct AdaptiveCandidate {
  double range = 0.0;      ///< scanning range [m]
  double interval = 0.0;   ///< pairing interval [m]
  LocalizationResult result;
  bool usable = false;     ///< false when this combination failed to solve
};

/// Adaptive sweep configuration.
struct AdaptiveConfig {
  /// Candidate scanning ranges [m] (paper sweeps 0.6-1.1 m).
  std::vector<double> ranges{0.6, 0.7, 0.8, 0.9, 1.0, 1.1};
  /// Candidate pairing intervals [m] (paper sweeps 0.1-0.35 m).
  std::vector<double> intervals{0.10, 0.15, 0.20, 0.25, 0.30, 0.35};
  /// Center of the scanning-range window along x [m].
  double range_center_x = 0.0;
  /// Fraction of candidates (by |mean residual|, ascending) averaged into
  /// the final estimate; at least one candidate is always kept.
  double keep_fraction = 0.25;
  /// Minimum equations a candidate must have to count. A barely-determined
  /// system fits its few equations exactly — near-zero residual, garbage
  /// estimate — and would otherwise win the residual contest.
  std::size_t min_equations = 12;
  /// Maximum tolerated condition estimate of a candidate's linear system;
  /// windows whose geometry barely constrains a direction (e.g. a slice so
  /// narrow that only cross-line pairs survive) are rejected.
  double max_condition = 1e5;
  /// Base localizer settings (dimension, method, hints). pair_interval is
  /// overridden per candidate.
  LocalizerConfig base{};
  /// Optional non-owning executor for the sweep; null runs the ranges one
  /// after another on the calling thread. With one, locate_adaptive runs
  /// one task per scanning range (widest first) and every task solves on
  /// its own thread's linalg::default_workspace() instead of
  /// `base.workspace`. Results are bit-identical either way. The executor
  /// must outlive the call.
  Executor* executor = nullptr;
};

/// Outcome of an adaptive sweep.
struct AdaptiveResult {
  Vec3 position{};                  ///< average of the selected estimates
  double reference_distance = 0.0;  ///< average d_r of selected estimates
  std::vector<AdaptiveCandidate> selected;    ///< candidates averaged
  std::vector<AdaptiveCandidate> candidates;  ///< every evaluated combination
  double best_range = 0.0;     ///< range of the |mean-residual|-best candidate
  double best_interval = 0.0;  ///< interval of that candidate
};

/// Run the adaptive sweep. Throws std::invalid_argument when no candidate
/// combination yields a solvable system, and whatever restricting the
/// profile to the first failing range (in `ranges` order) throws.
AdaptiveResult locate_adaptive(const signal::PhaseProfile& profile,
                               const AdaptiveConfig& config);

/// The localizer configuration locate_adaptive uses for one (range,
/// interval) cell over the windowed profile `windowed` — exposed so a
/// sweep composed outside this file evaluates identical systems.
LocalizerConfig adaptive_cell_config(const AdaptiveConfig& config,
                                     double interval,
                                     const signal::PhaseProfile& windowed);

/// locate_adaptive's per-candidate acceptance gate (enough equations,
/// tolerable conditioning, finite position).
bool adaptive_candidate_usable(const LocalizationResult& result,
                               const AdaptiveConfig& config);

/// The ranking/selection/averaging tail of locate_adaptive over an
/// already-evaluated candidate list, exposed so a sweep composed outside
/// this file reproduces the exact selection order and averaging
/// arithmetic.
/// Throws std::invalid_argument when no candidate is usable.
AdaptiveResult finalize_adaptive_sweep(std::vector<AdaptiveCandidate> candidates,
                                       const AdaptiveConfig& config);

}  // namespace lion::core
