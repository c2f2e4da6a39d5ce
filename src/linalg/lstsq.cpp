#include "linalg/lstsq.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/decompositions.hpp"
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

std::vector<double> solve_least_squares_solution(const Matrix& a,
                                                 const std::vector<double>& b) {
  if (b.size() != a.rows()) {
    throw std::invalid_argument("solve_least_squares: rhs size mismatch");
  }
  return solve_normal_or_qr(a, b, nullptr);
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

// --------------------------------------------------------------------------
// Workspace path: the same IRLS, operation for operation, over the rows a
// mask selects from the system cached in a SolverWorkspace. The selected
// rows are compacted once; each reweighting round is then one fused pass
// (robust weights + weighted normal equations), a small solve, and one
// fused pass (residuals, their sum and sum of squares, and the largest
// residual move D that brackets the next round's medians). Steady state
// (warm workspace, reused result) performs no heap allocation; only the
// rare Cholesky-reject -> QR fallback materializes the subsystem.
// --------------------------------------------------------------------------

namespace {

// Compact row-major view of the rows an IRLS solve runs over.
struct CompactRows {
  const double* a = nullptr;  // n x p, row-major
  const double* b = nullptr;  // n
  std::size_t n = 0;
  std::size_t p = 0;
};

// Solve the normal equations (g, rhs) of `rows` — weighted by `weights`
// when given — mirroring solve_normal_or_qr on the materialized system:
// Cholesky first, then QR on the (row-scaled, for WLS) design, with the
// rank-deficiency throw turned into a status via the same
// |R_ii| < kSingularTol cutoff.
SolveStatus solve_normals(const CompactRows& rows, SmallGram& g,
                          const double* rhs, const double* weights,
                          double* x) {
  const std::size_t p = rows.p;
  g.mirror();
  SmallCholesky chol;
  if (small_cholesky_factor(g, chol)) {
    small_cholesky_solve(chol, rhs, x);
    return SolveStatus::kOk;
  }
  Matrix design(rows.n, p);
  std::vector<double> target(rows.b, rows.b + rows.n);
  for (std::size_t r = 0; r < rows.n; ++r) {
    const double* row = rows.a + r * p;
    for (std::size_t c = 0; c < p; ++c) design(r, c) = row[c];
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

// Per-round robust weight function: the body of robust_residual_weights /
// gaussian_residual_weights for one residual, with the round's centre and
// scale already computed.
struct WeightFn {
  RobustLoss loss;
  double center;  // median (Huber/Tukey) or mean (Gaussian)
  double sigma;
  double c;       // tuning constant (Huber/Tukey)

  double operator()(double r) const {
    if (loss == RobustLoss::kGaussian) {
      const double z = (r - center) / sigma;
      return std::exp(-0.5 * z * z);
    }
    const double z = std::abs(r - center) / sigma;
    if (loss == RobustLoss::kHuber) return z <= c ? 1.0 : c / z;
    const double u = z / c;  // Tukey biweight
    return u < 1.0 ? (1.0 - u * u) * (1.0 - u * u) : 0.0;
  }
};

// One pass: w_i = fn(res_i) into `w`, the weighted normal equations into
// (g, rhs) in the legacy multiplication order ((w * a_i) * a_j and
// a_c * (w * b), Matrix::weighted_gram / weighted_transpose_multiply),
// and the weight mass summed in row order. The legacy `w == 0` /
// `w * a_i == 0` skips only ever skip (+/-)0.0 contributions, which leave
// an accumulator that starts at +0.0 unchanged for finite rows, so the
// straight-line form is bit-identical. Writes every entry of the upper
// triangle of `g` and of `rhs`.
template <std::size_t P>
double reweight_pass(const CompactRows& rows, const double* res,
                     const WeightFn& fn, double* w, SmallGram& g,
                     double* rhs) {
  double acc[P][P] = {};
  double acc_rhs[P] = {};
  double total = 0.0;
  for (std::size_t r = 0; r < rows.n; ++r) {
    const double* row = rows.a + r * P;
    const double wr = fn(res[r]);
    w[r] = wr;
    total += wr;
    const double wv = wr * rows.b[r];
    double wrow[P];
    for (std::size_t i = 0; i < P; ++i) wrow[i] = wr * row[i];
    for (std::size_t i = 0; i < P; ++i) {
      for (std::size_t j = i; j < P; ++j) acc[i][j] += wrow[i] * row[j];
    }
    for (std::size_t c = 0; c < P; ++c) acc_rhs[c] += row[c] * wv;
  }
  for (std::size_t i = 0; i < P; ++i) {
    for (std::size_t j = i; j < P; ++j) g.g[i][j] = acc[i][j];
    rhs[i] = acc_rhs[i];
  }
  return total;
}

double reweight_pass(const CompactRows& rows, const double* res,
                     const WeightFn& fn, double* w, SmallGram& g,
                     double* rhs) {
  switch (rows.p) {
    case 1:
      return reweight_pass<1>(rows, res, fn, w, g, rhs);
    case 2:
      return reweight_pass<2>(rows, res, fn, w, g, rhs);
    case 3:
      return reweight_pass<3>(rows, res, fn, w, g, rhs);
    default:
      return reweight_pass<4>(rows, res, fn, w, g, rhs);
  }
}

// Sums of one residual pass, in row order (the order of mean() and of
// finalize()'s sum of squares), plus the sup-norm move of the residuals.
struct ResidualSums {
  double sum = 0.0;
  double squares = 0.0;
  double move = 0.0;  // D = max_i |r_i - r_i_prev|
};

// One pass: res_i = a_i . x - b_i (overwriting the previous residuals),
// with their sum, sum of squares and largest move.
template <std::size_t P>
ResidualSums residual_pass(const CompactRows& rows, const double* x,
                           double* res) {
  ResidualSums out;
  for (std::size_t r = 0; r < rows.n; ++r) {
    const double* row = rows.a + r * P;
    double s = 0.0;
    for (std::size_t c = 0; c < P; ++c) s += row[c] * x[c];
    const double v = s - rows.b[r];
    out.move = std::max(out.move, std::abs(v - res[r]));
    res[r] = v;
    out.sum += v;
    out.squares += v * v;
  }
  return out;
}

ResidualSums residual_pass(const CompactRows& rows, const double* x,
                           double* res) {
  switch (rows.p) {
    case 1:
      return residual_pass<1>(rows, x, res);
    case 2:
      return residual_pass<2>(rows, x, res);
    case 3:
      return residual_pass<3>(rows, x, res);
    default:
      return residual_pass<4>(rows, x, res);
  }
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

  // Compact the selected rows once (an unmasked solve reads the cache).
  CompactRows rows{ws.row(0), ws.rhs_data(), count, p};
  if (mask) {
    ws.irls_rows.resize(count * p);
    ws.irls_rhs.resize(count);
    std::size_t sel = 0;
    for (std::size_t r = 0; r < ws.rows(); ++r) {
      if (!mask[r]) continue;
      std::copy(ws.row(r), ws.row(r) + p, ws.irls_rows.data() + sel * p);
      ws.irls_rhs[sel++] = ws.rhs(r);
    }
    rows.a = ws.irls_rows.data();
    rows.b = ws.irls_rhs.data();
  }

  // OLS seed (the classic path's solve_least_squares).
  double x[kSmallMaxCols];
  double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
  SmallGram g;
  g.reset(p);
  accumulate_masked(ws, mask, g, rhs);
  SolveStatus st = solve_normals(rows, g, rhs, nullptr, x);
  if (st != SolveStatus::kOk) return st;

  const double n = static_cast<double>(count);
  out.x.assign(x, x + p);
  out.residuals.assign(count, 0.0);
  ResidualSums sums = residual_pass(rows, x, out.residuals.data());
  out.mean_residual = sums.sum / n;
  out.rms_residual = std::sqrt(sums.squares / n);
  out.iterations = 0;
  if (options.max_iterations == 0) {
    out.weights.assign(count, 1.0);
    out.converged = false;  // the classic loop's "cap hit" outcome
    note_irls_outcome(out);
    return SolveStatus::kOk;
  }

  out.weights.resize(count);
  ws.median_scratch.resize(count);
  ws.abs_dev.resize(count);
  double* res = out.residuals.data();
  const double c = options.tuning > 0.0
                       ? options.tuning
                       : (options.loss == RobustLoss::kHuber ? 1.345 : 4.685);
  MedianOrder med;
  MedianOrder mad;
  bool converged = false;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    WeightFn fn{options.loss, 0.0, 0.0, c};
    if (options.loss == RobustLoss::kGaussian) {
      // gaussian_residual_weights: mean and population stddev.
      double var = 0.0;
      if (count >= 2) {
        for (std::size_t i = 0; i < count; ++i) {
          var += (res[i] - out.mean_residual) * (res[i] - out.mean_residual);
        }
        var /= n;
      }
      fn.center = out.mean_residual;
      fn.sigma = std::max(std::sqrt(var), options.min_sigma);
    } else {
      // robust_residual_weights: median centre, MAD scale. From the second
      // round on, the medians are bracketed by the previous round's middle
      // order statistics: order statistics are 1-Lipschitz in the sup
      // norm, so they moved by at most D, and each deviation |r_i - med|
      // by at most D + |delta med| (widened once more by D as slack).
      const bool warm = iter > 0;
      const MedianOrder prev_med = med;
      med = bracketed_median(res, count, warm ? &prev_med : nullptr,
                             sums.move, ws.median_scratch.data());
      for (std::size_t i = 0; i < count; ++i) {
        ws.abs_dev[i] = std::abs(res[i] - med.median);
      }
      const double mad_widen =
          2.0 * sums.move + std::abs(med.median - prev_med.median);
      mad = bracketed_median(ws.abs_dev.data(), count, warm ? &mad : nullptr,
                             mad_widen, ws.median_scratch.data());
      fn.center = med.median;
      fn.sigma = std::max(1.4826 * mad.median, options.min_sigma);
    }

    const double total =
        reweight_pass(rows, res, fn, out.weights.data(), g, rhs);
    // Feasibility gate of robust_residual_weights: a Tukey round that
    // rejected essentially every row is redone with Huber weights. (For
    // Huber the refill would reproduce the same weights.)
    if (options.loss == RobustLoss::kTukey &&
        total <= kMinMeanRobustWeight * n) {
      fn.loss = RobustLoss::kHuber;
      reweight_pass(rows, res, fn, out.weights.data(), g, rhs);
    }
    double next[kSmallMaxCols];
    st = solve_normals(rows, g, rhs, out.weights.data(), next);
    if (st != SolveStatus::kOk) return st;

    sums = residual_pass(rows, next, res);
    out.mean_residual = sums.sum / n;
    out.rms_residual = std::sqrt(sums.squares / n);
    double delta = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      delta = std::max(delta, std::abs(next[i] - x[i]));
      x[i] = next[i];
    }
    std::copy(x, x + p, out.x.begin());
    out.iterations = iter + 1;
    if (delta < options.tolerance) {
      converged = true;
      break;
    }
  }
  out.converged = converged;
  note_irls_outcome(out);
  return SolveStatus::kOk;
}

void solve_irls(const Matrix& a, const std::vector<double>& b,
                const IrlsOptions& options, SolverWorkspace& ws,
                LstsqResult& out) {
  if (a.cols() == 0 || a.cols() > kSmallMaxCols) {
    out = solve_irls(a, b, options);
    return;
  }
  if (b.size() != a.rows()) {
    throw std::invalid_argument("solve_least_squares: rhs size mismatch");
  }
  ws.load(a, b);
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
