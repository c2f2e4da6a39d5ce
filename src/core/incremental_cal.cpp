#include "core/incremental_cal.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/frame.hpp"
#include "core/pairing.hpp"
#include "linalg/stats.hpp"

namespace lion::core {

namespace {

// Gate-trip signal of the warm sweep. Deliberately NOT derived from
// std::exception: calibrate_with_sweep's stage handlers catch
// std::exception (that is batch behavior the warm path must not disturb),
// so the abort rides an unrelated type straight out to flush().
struct WarmAbort {
  CalFallbackReason reason;
  const char* detail;
};

// NaN-safe gate: trips when `value` is above `limit` OR not comparable
// (NaN must fall back, not sail through a false '>' comparison).
bool gate_exceeded(double value, double limit) { return !(value <= limit); }

}  // namespace

const char* cal_flush_source_name(CalFlushSource source) {
  switch (source) {
    case CalFlushSource::kMemo:
      return "memo";
    case CalFlushSource::kIncremental:
      return "incremental";
    case CalFlushSource::kFallback:
      return "fallback";
  }
  return "unknown";
}

const char* cal_fallback_reason_name(CalFallbackReason reason) {
  switch (reason) {
    case CalFallbackReason::kNone:
      return "none";
    case CalFallbackReason::kCold:
      return "cold";
    case CalFallbackReason::kStatus:
      return "status";
    case CalFallbackReason::kCarve:
      return "carve";
    case CalFallbackReason::kDelta:
      return "delta";
    case CalFallbackReason::kRows:
      return "rows";
    case CalFallbackReason::kDrift:
      return "drift";
    case CalFallbackReason::kCancellation:
      return "cancellation";
    case CalFallbackReason::kSweep:
      return "sweep";
  }
  return "unknown";
}

std::uint64_t cal_buffer_digest(const std::vector<sim::PhaseSample>& buffer,
                                std::size_t count) {
  // FNV-1a 64 over the bit patterns of every per-sample field, in stream
  // order. Bitwise, so -0.0 vs 0.0 and NaN payloads all count as changes:
  // the memo tier must never equate buffers the solver could distinguish.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix64 = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  const auto mixd = [&mix64](double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    mix64(bits);
  };
  const std::size_t n = std::min(count, buffer.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = buffer[i];
    mixd(s.t);
    mixd(s.position[0]);
    mixd(s.position[1]);
    mixd(s.position[2]);
    mixd(s.phase);
    mixd(s.rssi_dbm);
    mix64(s.channel);
  }
  return h;
}

IncrementalCalibrationSolver::IncrementalCalibrationSolver(
    IncrementalCalConfig config)
    : config_(std::move(config)) {}

void IncrementalCalibrationSolver::reset() {
  anchor_valid_ = false;
  anchor_samples_ = 0;
  anchor_digest_ = 0;
  anchor_candidates_.clear();
}

void IncrementalCalibrationSolver::install_anchor(
    const std::vector<sim::PhaseSample>& buffer,
    const CalibrationReport& report) {
  anchor_report_ = report;
  anchor_samples_ = buffer.size();
  anchor_digest_ = cal_buffer_digest(buffer, buffer.size());
  anchor_candidates_.clear();
  anchor_candidates_.reserve(report.center.details.candidates.size());
  for (const auto& cand : report.center.details.candidates) {
    AnchorCandidate a;
    a.usable = cand.usable;
    // equations == 0 marks a candidate whose solve threw (its result is
    // default-constructed) — there is nothing to seed from.
    a.consensus = cand.result.equations > 0 && cand.result.consensus;
    a.position = cand.result.position;
    a.consensus_scale = cand.result.consensus_scale;
    anchor_candidates_.push_back(a);
  }
  anchor_valid_ = true;
}

CalFlushDecision IncrementalCalibrationSolver::fallback(
    CalFallbackReason reason, const char* detail) {
  ++stats_.fallbacks;
  switch (reason) {
    case CalFallbackReason::kCold:
      ++stats_.fb_cold;
      break;
    case CalFallbackReason::kStatus:
      ++stats_.fb_status;
      break;
    case CalFallbackReason::kCarve:
      ++stats_.fb_carve;
      break;
    case CalFallbackReason::kDelta:
      ++stats_.fb_delta;
      break;
    case CalFallbackReason::kRows:
      ++stats_.fb_rows;
      break;
    case CalFallbackReason::kDrift:
      ++stats_.fb_drift;
      break;
    case CalFallbackReason::kCancellation:
      ++stats_.fb_cancellation;
      break;
    case CalFallbackReason::kSweep:
      ++stats_.fb_sweep;
      break;
    case CalFallbackReason::kNone:
      break;
  }
  CalFlushDecision d;
  d.source = CalFlushSource::kFallback;
  d.reason = reason;
  d.report_ready = false;
  d.detail = detail;
  return d;
}

CalFlushDecision IncrementalCalibrationSolver::flush(
    const std::vector<sim::PhaseSample>& buffer) {
  ++stats_.flushes;
  if (!anchor_valid_) return fallback(CalFallbackReason::kCold, "no anchor");

  // Append detection. Calibrate session buffers are append-only upstream,
  // but the solver re-verifies: the anchor prefix must be bitwise intact.
  if (buffer.size() < anchor_samples_ ||
      cal_buffer_digest(buffer, anchor_samples_) != anchor_digest_) {
    return fallback(CalFallbackReason::kCarve, "anchor prefix not intact");
  }

  if (buffer.size() == anchor_samples_) {
    // The exact anchor buffer: the pipeline is deterministic, so the
    // anchor report IS the batch answer — for any status, ok or not.
    ++stats_.memo;
    CalFlushDecision d;
    d.source = CalFlushSource::kMemo;
    d.reason = CalFallbackReason::kNone;
    d.report_ready = true;
    d.report = anchor_report_;
    return d;
  }

  // Warm tier below: only a clean 3D consensus anchor seeds it.
  if (anchor_report_.status != CalibrationStatus::kOk) {
    return fallback(CalFallbackReason::kStatus, "anchor not a clean 3d fix");
  }
  const double delta =
      static_cast<double>(buffer.size() - anchor_samples_);
  if (gate_exceeded(delta, config_.max_delta_fraction *
                               static_cast<double>(anchor_samples_))) {
    return fallback(CalFallbackReason::kDelta, "append delta too large");
  }

  try {
    CalFlushDecision d;
    d.source = CalFlushSource::kIncremental;
    d.reason = CalFallbackReason::kNone;
    d.report = calibrate_with_sweep(
        buffer, config_.physical_center, config_.calibration, &ws_,
        [this](const signal::PhaseProfile& profile,
               const AdaptiveConfig& cfg) { return warm_sweep(profile, cfg); });
    d.report_ready = true;
    ++stats_.incremental;
    return d;
  } catch (const WarmAbort& abort) {
    return fallback(abort.reason, abort.detail);
  }
}

AdaptiveResult IncrementalCalibrationSolver::warm_sweep(
    const signal::PhaseProfile& profile, const AdaptiveConfig& cfg) {
  // The anchor ran the 3D sweep; a 2D request means the shared ladder
  // diverged from the anchor's path (3D attempt failed or was rejected)
  // and there is no 2D anchor state to seed from.
  if (cfg.base.target_dim != 3) {
    throw WarmAbort{CalFallbackReason::kSweep, "2d sweep requested"};
  }
  if (cfg.ranges.empty() || cfg.intervals.empty()) {
    throw std::invalid_argument("locate_adaptive: empty candidate lists");
  }
  if (anchor_candidates_.size() != cfg.ranges.size() * cfg.intervals.size()) {
    throw WarmAbort{CalFallbackReason::kSweep, "sweep grid changed"};
  }

  std::vector<AdaptiveCandidate> candidates;
  candidates.reserve(anchor_candidates_.size());
  std::size_t idx = 0;
  for (double range : cfg.ranges) {
    const auto windowed =
        restrict_to_x_range(profile, cfg.range_center_x, range);
    for (double interval : cfg.intervals) {
      const AnchorCandidate& anchor = anchor_candidates_[idx++];
      AdaptiveCandidate cand;
      cand.range = range;
      cand.interval = interval;
      const LocalizerConfig lc = adaptive_cell_config(cfg, interval, windowed);
      try {
        cand.result = warm_candidate(windowed, lc, anchor);
        cand.usable = adaptive_candidate_usable(cand.result, cfg);
      } catch (const std::exception&) {
        // Same verdict the batch sweep reaches: these throws come from the
        // shared prepare/pairing/full-row code, deterministic in the data.
        cand.usable = false;
      }
      candidates.push_back(std::move(cand));
    }
  }
  return finalize_adaptive_sweep(std::move(candidates), cfg);
}

LocalizationResult IncrementalCalibrationSolver::warm_candidate(
    const signal::PhaseProfile& windowed, const LocalizerConfig& lc,
    const AnchorCandidate& anchor) {
  const LinearLocalizer loc(lc);
  const auto pairs = ladder_pairs(windowed, lc.pair_interval,
                                  lc.pair_tolerance, lc.pair_stride);
  TrajectoryFrame frame;
  const LinearSystem sys = loc.prepare_system(windowed, pairs, frame);

  const RansacOptions& options = lc.ransac;
  ws_.load(sys.a, sys.k);
  const std::size_t n = ws_.rows();
  const std::size_t p = ws_.cols();

  SolveOutcome oc;
  oc.ws_holds_system = lc.workspace != nullptr;

  if (n < p + 3) {
    // Too few rows for subset sampling: the batch solver short-circuits to
    // the full-row robust fallback before any tournament randomness, so
    // this branch is data-deterministic and safe to reproduce exactly.
    RansacResult rr;
    ransac_full_row_fallback(ws_, options, 0, rr);
    oc.solution = std::move(rr.solution);
    oc.inlier_fraction = rr.inlier_fraction;
    oc.consensus = rr.consensus;
    oc.consensus_scale = rr.scale;
    oc.consensus_threshold = rr.threshold;
    return loc.assemble_result(windowed, frame, sys, pairs.size(), oc);
  }

  if (n < config_.min_rows) {
    throw WarmAbort{CalFallbackReason::kRows, "candidate below row floor"};
  }
  if (!anchor.consensus || p != frame.rank + 1) {
    // No consensus solution to seed this cell from (the anchor cell threw,
    // fell back, or solved a different unknown layout).
    throw WarmAbort{CalFallbackReason::kSweep, "anchor cell not consensus"};
  }

  // Alias-degeneracy gate. A pair whose endpoints sit on the same scan line
  // (identical y/z) is exactly consistent with every rotation of the tag
  // about that line, so when one line contributes a majority of the pairs
  // the LMedS median can tie between the true basin and an alias and the
  // tournament winner is decided by ulps — unreproducible without running
  // the tournament.
  if (pairs.size() >= 2) {
    struct LineCount {
      double y, z;
      std::size_t count;
    };
    LineCount lines[8];
    std::size_t n_lines = 0;
    std::size_t max_line = 0;
    for (const auto& pr : pairs) {
      const auto& a = windowed[pr.first].position;
      const auto& b = windowed[pr.second].position;
      if (a[1] != b[1] || a[2] != b[2]) continue;  // cross-line pair
      std::size_t li = 0;
      for (; li < n_lines; ++li) {
        if (lines[li].y == a[1] && lines[li].z == a[2]) break;
      }
      if (li == n_lines) {
        if (n_lines == 8) continue;  // many distinct lines: no dominance
        lines[n_lines++] = {a[1], a[2], 0};
      }
      lines[li].count++;
      max_line = std::max(max_line, lines[li].count);
    }
    const double frac =
        static_cast<double>(max_line) / static_cast<double>(pairs.size());
    if (frac >= config_.max_single_line_fraction) {
      throw WarmAbort{CalFallbackReason::kDrift,
                      "single scan line dominates window pairs"};
    }
  }

  // Seed from the anchor candidate's *world* position: express it in this
  // flush's trajectory frame (frames drift as samples append, so a stored
  // local solution would be stale; a world point is not).
  double x[linalg::kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
  {
    const auto local = frame.to_local(anchor.position);
    for (std::size_t c = 0; c < frame.rank; ++c) x[c] = local[c];
    x[frame.rank] = linalg::distance(
        anchor.position, windowed[sys.reference_index].position);
  }

  // Mask/OLS fixpoint: residuals at x -> LMedS-style scale and threshold
  // -> consensus mask -> OLS on the mask -> repeat until the mask repeats.
  residuals_.resize(n);
  scratch_.resize(n);
  mask_.assign(n, 0);
  prev_mask_.assign(n, 0);
  double sigma = 0.0;
  double threshold = 0.0;
  std::size_t count = 0;
  bool stable = false;
  for (std::size_t sweep = 0; sweep < config_.max_fixpoint_sweeps; ++sweep) {
    linalg::residuals(ws_.system(), x, residuals_.data());
    for (std::size_t i = 0; i < n; ++i) {
      scratch_[i] = residuals_[i] * residuals_[i];
    }
    const double med =
        linalg::median_in_place(scratch_.data(), scratch_.data() + n);
    // Same scale/threshold derivation as the batch consensus cut (LMedS
    // small-sample-corrected sigma, 2.5 sigma with the 1e-12 floor).
    sigma = 1.4826 * (1.0 + 5.0 / static_cast<double>(n - p)) *
            std::sqrt(med);
    threshold = options.inlier_threshold > 0.0
                    ? options.inlier_threshold
                    : std::max(2.5 * sigma, 1e-12);
    if (!std::isfinite(threshold)) {
      throw WarmAbort{CalFallbackReason::kDrift, "non-finite threshold"};
    }

    count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool in = std::abs(residuals_[i]) <= threshold;
      mask_[i] = in ? 1 : 0;
      if (in) ++count;
    }
    if (sweep > 0 && mask_ == prev_mask_) {
      stable = true;
      break;
    }
    prev_mask_ = mask_;

    if (count < p) {
      throw WarmAbort{CalFallbackReason::kDrift, "mask starved mid-fixpoint"};
    }
    linalg::SmallGram g;
    g.reset(p);
    double rhs[linalg::kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
    accumulate_masked(ws_, mask_.data(), g, rhs);
    g.mirror();
    linalg::SmallCholesky chol;
    if (!small_cholesky_factor(g, chol)) {
      throw WarmAbort{CalFallbackReason::kDrift, "masked gram not spd"};
    }
    small_cholesky_solve(chol, rhs, x);
  }
  if (!stable) {
    throw WarmAbort{CalFallbackReason::kDrift, "mask fixpoint did not settle"};
  }

  // Margin band: the warm mask can only be trusted when no row sits close
  // enough to the cut for the batch tournament to classify it differently.
  // Two regimes:
  //  - Floor regime (2.5*sigma below the 1e-12 floor): the cut is made
  //    against *rounding noise*, and the tournament evaluates residuals at
  //    a subset solution whose own rounding error inflates them — a
  //    relative margin is meaningless there. Require a hard decades-wide
  //    gap instead: every masked row far below the floor, every rejected
  //    row far above it.
  //  - Scale regime: the warm and tournament thresholds differ only by
  //    their best-candidate residuals; a relative band around the cut
  //    covers that.
  const bool floor_active = 2.5 * sigma <= 1e-12;
  if (floor_active) {
    const double gap_lo = threshold / config_.floor_gap;
    const double gap_hi = threshold * config_.floor_gap;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = std::abs(residuals_[i]);
      if (r > gap_lo && r < gap_hi) {
        throw WarmAbort{CalFallbackReason::kDrift,
                        "rounding residual near consensus floor"};
      }
    }
  } else {
    const double band_lo = threshold * (1.0 - config_.threshold_margin);
    const double band_hi = threshold * (1.0 + config_.threshold_margin);
    for (std::size_t i = 0; i < n; ++i) {
      const double r = std::abs(residuals_[i]);
      if (r >= band_lo && r <= band_hi) {
        throw WarmAbort{CalFallbackReason::kDrift, "residual in threshold margin band"};
      }
    }
  }

  // Robust-scale drift vs the anchor candidate. Below the threshold floor
  // the scale does not influence the cut at all, so it is exempt.
  if (std::max(2.5 * sigma, 2.5 * anchor.consensus_scale) > 1e-12) {
    if (!(anchor.consensus_scale > 0.0) ||
        gate_exceeded(std::abs(sigma / anchor.consensus_scale - 1.0),
                      config_.scale_drift_max)) {
      throw WarmAbort{CalFallbackReason::kDrift, "robust scale drifted from anchor"};
    }
  }

  // The batch consensus branch also requires a healthy mask; a mask this
  // thin means the batch solver's *branch choice* (consensus vs full-row
  // fallback) cannot be predicted without the tournament — fall back.
  if (count < p + 1 ||
      static_cast<double>(count) <
          options.min_inlier_fraction * static_cast<double>(n)) {
    throw WarmAbort{CalFallbackReason::kDrift, "consensus mask too thin"};
  }

  // Exact batch refit on the consensus rows.
  linalg::IrlsOptions irls = options.irls;
  irls.loss = options.refit_loss;
  linalg::LstsqResult& sol = oc.solution;
  if (linalg::solve_irls_masked(ws_, mask_.data(), count, irls, sol) !=
      linalg::SolveStatus::kOk) {
    throw WarmAbort{CalFallbackReason::kDrift, "masked refit failed"};
  }

  // IRLS fixpoint verification. sol.weights are the weights the final
  // accepted solve used (derived from the previous iterate's residuals);
  // re-deriving weights from the final residuals must land within the
  // convergence lag, or the refit stopped outside its fixpoint basin.
  const auto w_check = linalg::robust_residual_weights(
      sol.residuals, irls.loss, irls.tuning, irls.min_sigma);
  double weight_drift = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    weight_drift =
        std::max(weight_drift, std::abs(w_check[i] - sol.weights[i]));
  }
  if (gate_exceeded(weight_drift, config_.weight_drift_max)) {
    throw WarmAbort{CalFallbackReason::kDrift, "irls weight fixpoint drifted"};
  }

  // Weighted-gram re-solve: assemble the refit's weighted normal equations
  // with rank-1 weighted appends, then *re-weight in place* to the
  // re-derived weights (O(changed rows), the incremental kernel's reason to
  // exist) and confirm the solution barely moves. Catches a refit whose
  // normal equations are too ill-conditioned for the fixpoint to mean
  // anything, and bounds accumulated cancellation.
  normals_.reset(p);
  {
    double row[linalg::kSmallMaxCols];
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!mask_[i]) continue;
      ws_.gather_row(i, row);
      normals_.append_weighted(row, ws_.rhs(i), sol.weights[k]);
      ++k;
    }
    k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!mask_[i]) continue;
      if (w_check[k] != sol.weights[k]) {
        ws_.gather_row(i, row);
        normals_.reweight(row, ws_.rhs(i), sol.weights[k], w_check[k]);
      }
      ++k;
    }
  }
  if (gate_exceeded(normals_.cancellation(), config_.max_cancellation)) {
    throw WarmAbort{CalFallbackReason::kCancellation, "weighted gram cancelled"};
  }
  double xw[linalg::kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
  if (!normals_.solve(xw)) {
    throw WarmAbort{CalFallbackReason::kCancellation, "weighted gram not solvable"};
  }
  double solution_drift = 0.0;
  for (std::size_t c = 0; c < p; ++c) {
    solution_drift = std::max(solution_drift, std::abs(xw[c] - sol.x[c]));
  }
  if (gate_exceeded(solution_drift, config_.solution_drift_max)) {
    throw WarmAbort{CalFallbackReason::kDrift, "weighted re-solve drifted"};
  }

  oc.inlier_fraction = static_cast<double>(count) / static_cast<double>(n);
  oc.consensus = true;
  oc.consensus_scale = sigma;
  oc.consensus_threshold = threshold;
  return loc.assemble_result(windowed, frame, sys, pairs.size(), oc);
}

}  // namespace lion::core
