#include "linalg/lstsq.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/decompositions.hpp"
#include "linalg/lanes.hpp"
#include "linalg/small.hpp"
#include "linalg/stats.hpp"
#include "obs/obs.hpp"

namespace lion::linalg {

namespace {

// Fill residual/summary fields of a result whose x is already set.
void finalize(const Matrix& a, const std::vector<double>& b,
              LstsqResult& out) {
  out.residuals = a.multiply(out.x);
  for (std::size_t i = 0; i < b.size(); ++i) out.residuals[i] -= b[i];
  out.mean_residual = mean(out.residuals);
  double ss = 0.0;
  for (double r : out.residuals) ss += r * r;
  out.rms_residual =
      out.residuals.empty()
          ? 0.0
          : std::sqrt(ss / static_cast<double>(out.residuals.size()));
}

std::vector<double> solve_normal_or_qr(const Matrix& a,
                                       const std::vector<double>& b,
                                       const std::vector<double>* weights) {
  if (a.rows() < a.cols()) {
    throw std::domain_error("least squares: underdetermined system");
  }
  const Matrix gram = weights ? a.weighted_gram(*weights) : a.gram();
  const std::vector<double> rhs =
      weights ? a.weighted_transpose_multiply(*weights, b)
              : a.transpose_multiply(b);
  if (const auto chol = Cholesky::factor(gram)) return chol->solve(rhs);
  // Normal equations failed (rank-deficient or badly conditioned): fall back
  // to QR on the (row-scaled, for WLS) design matrix.
  Matrix design = a;
  std::vector<double> target = b;
  if (weights) {
    for (std::size_t r = 0; r < design.rows(); ++r) {
      const double s = std::sqrt(std::max(0.0, (*weights)[r]));
      for (std::size_t c = 0; c < design.cols(); ++c) design(r, c) *= s;
      target[r] *= s;
    }
  }
  return HouseholderQR(std::move(design)).solve(target);
}

}  // namespace

const char* solve_status_name(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOk:
      return "ok";
    case SolveStatus::kUnderdetermined:
      return "underdetermined";
    case SolveStatus::kRankDeficient:
      return "rank_deficient";
  }
  return "unknown";
}

LstsqResult solve_least_squares(const Matrix& a,
                                const std::vector<double>& b) {
  if (b.size() != a.rows()) {
    throw std::invalid_argument("solve_least_squares: rhs size mismatch");
  }
  LstsqResult out;
  out.x = solve_normal_or_qr(a, b, nullptr);
  out.weights.assign(a.rows(), 1.0);
  finalize(a, b, out);
  return out;
}

SolveStatus try_solve_least_squares(const Matrix& a,
                                    const std::vector<double>& b,
                                    std::vector<double>& x) {
  if (b.size() != a.rows()) {
    throw std::invalid_argument("solve_least_squares: rhs size mismatch");
  }
  if (a.rows() < a.cols()) return SolveStatus::kUnderdetermined;
  const Matrix gram = a.gram();
  const std::vector<double> rhs = a.transpose_multiply(b);
  if (const auto chol = Cholesky::factor(gram)) {
    x = chol->solve(rhs);
    return SolveStatus::kOk;
  }
  // Same QR fallback as solve_normal_or_qr, but the rank-deficiency it
  // would signal by throwing is detected from the R diagonal up front
  // (|R_ii| < kSingularTol is exactly HouseholderQR::solve's throw
  // condition, so the two paths accept the same systems).
  HouseholderQR qr(a);
  for (const double d : qr.r_diagonal()) {
    if (d < kSingularTol) return SolveStatus::kRankDeficient;
  }
  x = qr.solve(b);
  return SolveStatus::kOk;
}

LstsqResult solve_weighted_least_squares(const Matrix& a,
                                         const std::vector<double>& b,
                                         const std::vector<double>& weights) {
  if (b.size() != a.rows() || weights.size() != a.rows()) {
    throw std::invalid_argument(
        "solve_weighted_least_squares: size mismatch");
  }
  LstsqResult out;
  out.x = solve_normal_or_qr(a, b, &weights);
  out.weights = weights;
  finalize(a, b, out);
  return out;
}

const char* robust_loss_name(RobustLoss loss) {
  switch (loss) {
    case RobustLoss::kGaussian:
      return "gaussian";
    case RobustLoss::kHuber:
      return "huber";
    case RobustLoss::kTukey:
      return "tukey";
  }
  return "unknown";
}

std::vector<double> robust_residual_weights(
    const std::vector<double>& residuals, RobustLoss loss, double tuning,
    double min_sigma) {
  if (loss == RobustLoss::kGaussian) {
    return gaussian_residual_weights(residuals, min_sigma);
  }
  if (residuals.empty()) return {};
  const double med = median(residuals);
  std::vector<double> abs_dev(residuals.size());
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    abs_dev[i] = std::abs(residuals[i] - med);
  }
  const double sigma = std::max(1.4826 * median(abs_dev), min_sigma);

  const double c = tuning > 0.0
                       ? tuning
                       : (loss == RobustLoss::kHuber ? 1.345 : 4.685);
  auto weights_for = [&](RobustLoss l) {
    std::vector<double> w(residuals.size());
    for (std::size_t i = 0; i < residuals.size(); ++i) {
      const double z = std::abs(residuals[i] - med) / sigma;
      if (l == RobustLoss::kHuber) {
        w[i] = z <= c ? 1.0 : c / z;
      } else {  // Tukey biweight
        const double u = z / c;
        w[i] = u < 1.0 ? (1.0 - u * u) * (1.0 - u * u) : 0.0;
      }
    }
    return w;
  };

  auto w = weights_for(loss);
  double total = 0.0;
  for (double wi : w) total += wi;
  // Feasibility gate: if the loss rejected essentially every row, retry
  // with Huber (never zero). The threshold is on the *mean* weight — a
  // dimensionless quantity — not on min_sigma, which is a residual-scale
  // floor in metres and happens to share the 1e-12 default.
  if (total <= kMinMeanRobustWeight * static_cast<double>(w.size())) {
    w = weights_for(RobustLoss::kHuber);
  }
  return w;
}

std::vector<double> gaussian_residual_weights(
    const std::vector<double>& residuals, double min_sigma) {
  const double mu = mean(residuals);
  const double sigma = std::max(stddev(residuals), min_sigma);
  std::vector<double> w(residuals.size());
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    const double z = (residuals[i] - mu) / sigma;
    w[i] = std::exp(-0.5 * z * z);
  }
  return w;
}

namespace {

// Observability for a finished IRLS run: iterations-to-converge, the final
// robust weight mass (sum of weights / rows — how much of the data the
// loss kept), and a counter of runs that hit the iteration cap.
void note_irls_outcome(const LstsqResult& result) {
  LION_OBS_HIST("irls.iterations", obs::count_bounds(),
                static_cast<double>(result.iterations));
  if (!result.weights.empty()) {
    double mass = 0.0;
    for (double w : result.weights) mass += w;
    LION_OBS_HIST("irls.weight_mass", obs::fraction_bounds(),
                  mass / static_cast<double>(result.weights.size()));
  }
  if (!result.converged) LION_OBS_COUNT("irls.nonconverged", 1);
}

}  // namespace

LstsqResult solve_irls(const Matrix& a, const std::vector<double>& b,
                       const IrlsOptions& options) {
  LION_OBS_SPAN(obs::Stage::kIrls);
  LstsqResult current = solve_least_squares(a, b);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    const auto weights = robust_residual_weights(
        current.residuals, options.loss, options.tuning, options.min_sigma);
    LstsqResult next = solve_weighted_least_squares(a, b, weights);
    next.iterations = iter + 1;
    double delta = 0.0;
    for (std::size_t i = 0; i < next.x.size(); ++i) {
      delta = std::max(delta, std::abs(next.x[i] - current.x[i]));
    }
    current = std::move(next);
    if (delta < options.tolerance) {
      current.converged = true;
      note_irls_outcome(current);
      return current;
    }
  }
  current.converged = false;
  note_irls_outcome(current);
  return current;
}

namespace {

// w_i = lane(res_i), two residuals per step; an odd last residual runs in
// both lanes of one step. GCC 12 keeps the selects below as branches in a
// scalar loop and so does not vectorize it; spelled out as lanes, they
// are blends.
template <typename Lane>
void map_pairs(const double* res, std::size_t n, double* w, Lane lane) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) store2(w + i, lane(load2(res + i)));
  if (i < n) w[i] = lane(splat2(res[i]))[0];
}

}  // namespace

void map_residual_weights(const ResidualWeightFn& fn, const double* res,
                          std::size_t n, double* w) {
  const double center = fn.center;
  const double sigma = fn.sigma;
  const double c = fn.c;
  switch (fn.loss) {
    case RobustLoss::kGaussian:
      // A vector exp would round differently; libm's stays scalar.
      for (std::size_t i = 0; i < n; ++i) {
        const double z = (res[i] - center) / sigma;
        w[i] = std::exp(-0.5 * z * z);
      }
      return;
    case RobustLoss::kHuber:
      // Both arms are computed; the unused c / z (infinite at z == 0) is
      // discarded by the select.
      map_pairs(res, n, w, [&](Lanes2 r) {
        const Lanes2 z = abs2(r - splat2(center)) / splat2(sigma);
        const Lanes2 down = splat2(c) / z;
        return z <= splat2(c) ? splat2(1.0) : down;
      });
      return;
    case RobustLoss::kTukey:
      map_pairs(res, n, w, [&](Lanes2 r) {
        const Lanes2 u =
            abs2(r - splat2(center)) / splat2(sigma) / splat2(c);
        const Lanes2 t = splat2(1.0) - u * u;
        return u < splat2(1.0) ? t * t : splat2(0.0);
      });
      return;
  }
}

// --------------------------------------------------------------------------
// Workspace path: the same IRLS, operation for operation, over the rows a
// mask selects from the system cached in a SolverWorkspace. The selected
// columns are compacted once; each reweighting round is then the
// bracketed medians, a lane-parallel weight map, the weighted normal
// equations (one lane per gram entry), a small solve, and a residual
// update (lane-parallel residuals and their largest move D). The
// row-order residual sums are formed only where they are read. Steady
// state (warm workspace, reused result) performs no heap allocation; only
// the rare Cholesky-reject -> QR fallback materializes the subsystem.
// --------------------------------------------------------------------------

namespace {

// Solve the normal equations (g, rhs) of `sys` — weighted by `weights`
// when given — mirroring solve_normal_or_qr on the materialized system:
// Cholesky first, then QR on the (row-scaled, for WLS) design, with the
// rank-deficiency throw turned into a status via the same
// |R_ii| < kSingularTol cutoff.
SolveStatus solve_normals(const ColumnSystem& sys, SmallGram& g,
                          const double* rhs, const double* weights,
                          double* x) {
  const std::size_t p = sys.p;
  g.mirror();
  SmallCholesky chol;
  if (small_cholesky_factor(g, chol)) {
    small_cholesky_solve(chol, rhs, x);
    return SolveStatus::kOk;
  }
  Matrix design(sys.n, p);
  std::vector<double> target(sys.b, sys.b + sys.n);
  for (std::size_t r = 0; r < sys.n; ++r) {
    for (std::size_t c = 0; c < p; ++c) design(r, c) = sys.col(c)[r];
    if (weights) {
      const double s = std::sqrt(std::max(0.0, weights[r]));
      for (std::size_t c = 0; c < p; ++c) design(r, c) *= s;
      target[r] *= s;
    }
  }
  const HouseholderQR qr(std::move(design));
  for (const double d : qr.r_diagonal()) {
    if (d < kSingularTol) return SolveStatus::kRankDeficient;
  }
  const auto xs = qr.solve(target);
  for (std::size_t c = 0; c < p; ++c) x[c] = xs[c];
  return SolveStatus::kOk;
}

// Sum and sum of squares of the residuals, in row order (the order of
// mean() and of finalize()'s sum of squares).
struct ResidualSums {
  double sum = 0.0;
  double squares = 0.0;
};

ResidualSums residual_sums(const double* res, std::size_t n) {
  ResidualSums out;
  for (std::size_t i = 0; i < n; ++i) {
    out.sum += res[i];
    out.squares += res[i] * res[i];
  }
  return out;
}

// Median of `values` (n of them), from the previous round's middle order
// statistics widened by `widen` when a previous round exists, else (or
// when the bracket misses) by full selection over `scratch`.
MedianOrder bracketed_median(const double* values, std::size_t n,
                             const MedianOrder* prev, double widen,
                             double* scratch) {
  MedianOrder m;
  if (prev && median_in_bracket(values, n, prev->lower - widen,
                                prev->upper + widen, scratch, m)) {
    return m;
  }
  std::copy(values, values + n, scratch);
  return median_order_in_place(scratch, scratch + n);
}

}  // namespace

SolveStatus solve_irls_masked(SolverWorkspace& ws, const char* mask,
                              std::size_t count, const IrlsOptions& options,
                              LstsqResult& out) {
  LION_OBS_SPAN(obs::Stage::kIrls);
  const std::size_t p = ws.cols();
  if (count < p) return SolveStatus::kUnderdetermined;

  // Compact the selected columns once (an unmasked solve reads the cache).
  ColumnSystem sys = ws.system();
  if (mask) {
    ws.irls_cols.resize(count * p);
    ws.irls_rhs.resize(count);
    for (std::size_t c = 0; c <= p; ++c) {
      const double* src = c < p ? sys.col(c) : sys.b;
      double* dst = c < p ? ws.irls_cols.data() + c * count
                          : ws.irls_rhs.data();
      std::size_t sel = 0;
      for (std::size_t r = 0; r < sys.n; ++r) {
        if (mask[r]) dst[sel++] = src[r];
      }
    }
    sys = {ws.irls_cols.data(), ws.irls_rhs.data(), count, p};
  }

  // OLS seed (the classic path's solve_least_squares).
  out.weights.assign(count, 1.0);
  double x[kSmallMaxCols];
  double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
  SmallGram g;
  g.reset(p);
  accumulate_weighted(sys, nullptr, g, rhs);
  SolveStatus st = solve_normals(sys, g, rhs, nullptr, x);
  if (st != SolveStatus::kOk) return st;

  const double n = static_cast<double>(count);
  out.x.assign(x, x + p);
  out.residuals.assign(count, 0.0);
  double* res = out.residuals.data();
  // The mean and rms of the residuals are diagnostics of the final round,
  // except that the Gaussian weights centre on the mean each round.
  const auto finish = [&](bool converged) {
    const ResidualSums sums = residual_sums(res, count);
    out.mean_residual = sums.sum / n;
    out.rms_residual = std::sqrt(sums.squares / n);
    out.converged = converged;
    note_irls_outcome(out);
    return SolveStatus::kOk;
  };
  // D, the largest residual move of the last update; it brackets the
  // next round's medians.
  double move = update_residuals(sys, x, res);
  out.iterations = 0;
  if (options.max_iterations == 0) {
    return finish(false);  // the classic loop's "cap hit" outcome
  }

  ws.median_scratch.resize(count);
  ws.abs_dev.resize(count);
  double* w = out.weights.data();
  const double c = options.tuning > 0.0
                       ? options.tuning
                       : (options.loss == RobustLoss::kHuber ? 1.345 : 4.685);
  MedianOrder med;
  MedianOrder mad;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    ResidualWeightFn fn{options.loss, 0.0, 0.0, c};
    if (options.loss == RobustLoss::kGaussian) {
      // gaussian_residual_weights: mean and population stddev.
      const double mu = residual_sums(res, count).sum / n;
      double var = 0.0;
      if (count >= 2) {
        for (std::size_t i = 0; i < count; ++i) {
          var += (res[i] - mu) * (res[i] - mu);
        }
        var /= n;
      }
      fn.center = mu;
      fn.sigma = std::max(std::sqrt(var), options.min_sigma);
    } else {
      // robust_residual_weights: median centre, MAD scale. From the second
      // round on, the medians are bracketed by the previous round's middle
      // order statistics: order statistics are 1-Lipschitz in the sup
      // norm, so they moved by at most D, and each deviation |r_i - med|
      // by at most D + |delta med| (widened once more by D as slack).
      const bool warm = iter > 0;
      const MedianOrder prev_med = med;
      med = bracketed_median(res, count, warm ? &prev_med : nullptr, move,
                             ws.median_scratch.data());
      double* dev = ws.abs_dev.data();
      for (std::size_t i = 0; i < count; ++i) {
        dev[i] = std::abs(res[i] - med.median);
      }
      const double mad_widen =
          2.0 * move + std::abs(med.median - prev_med.median);
      mad = bracketed_median(dev, count, warm ? &mad : nullptr, mad_widen,
                             ws.median_scratch.data());
      fn.center = med.median;
      fn.sigma = std::max(1.4826 * mad.median, options.min_sigma);
    }

    map_residual_weights(fn, res, count, w);
    const double total = accumulate_weighted(sys, w, g, rhs);
    // Feasibility gate of robust_residual_weights: a Tukey round that
    // rejected essentially every row is redone with Huber weights. (For
    // Huber the refill would reproduce the same weights.)
    if (options.loss == RobustLoss::kTukey &&
        total <= kMinMeanRobustWeight * n) {
      fn.loss = RobustLoss::kHuber;
      map_residual_weights(fn, res, count, w);
      accumulate_weighted(sys, w, g, rhs);
    }
    double next[kSmallMaxCols];
    st = solve_normals(sys, g, rhs, w, next);
    if (st != SolveStatus::kOk) return st;

    move = update_residuals(sys, next, res);
    double delta = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      delta = std::max(delta, std::abs(next[i] - x[i]));
      x[i] = next[i];
    }
    std::copy(x, x + p, out.x.begin());
    out.iterations = iter + 1;
    if (delta < options.tolerance) return finish(true);
  }
  return finish(false);
}

void solve_irls(const Matrix& a, const std::vector<double>& b,
                const IrlsOptions& options, SolverWorkspace& ws,
                LstsqResult& out) {
  ws.load(a, b);  // rejects cols outside [1, kSmallMaxCols] and bad rhs
  const SolveStatus st = solve_irls_masked(ws, nullptr, a.rows(), options, out);
  if (st == SolveStatus::kUnderdetermined) {
    throw std::domain_error("least squares: underdetermined system");
  }
  if (st != SolveStatus::kOk) {
    throw std::domain_error("HouseholderQR::solve: rank deficient");
  }
}

LstsqResult solve_irls(const Matrix& a, const std::vector<double>& b,
                       const IrlsOptions& options, SolverWorkspace& ws) {
  LstsqResult out;
  solve_irls(a, b, options, ws, out);
  return out;
}

}  // namespace lion::linalg
