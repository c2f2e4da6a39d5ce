#include "core/ransac.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "linalg/stats.hpp"
#include "obs/obs.hpp"
#include "rf/rng.hpp"

namespace lion::core {

namespace {

using linalg::SolveStatus;

// Every solve runs on a SolverWorkspace: all sampling, scoring, and refit
// state lives there, so once it and the result are warm a solve performs
// zero heap allocations.

// The full-row fallback: a robust IRLS (per `options.refit_loss`) over
// every row loaded into `ws`, taken when sampling cannot be trusted. Solver
// failures propagate as the Matrix-based solvers' exceptions.
void full_row_fallback(linalg::SolverWorkspace& ws,
                       const RansacOptions& options, std::size_t iterations,
                       RansacResult& out) {
  LION_OBS_COUNT("ransac.fallbacks", 1);
  linalg::IrlsOptions irls = options.irls;
  irls.loss = options.refit_loss;
  const SolveStatus st =
      linalg::solve_irls_masked(ws, nullptr, ws.rows(), irls, out.solution);
  if (st == SolveStatus::kUnderdetermined) {
    throw std::domain_error("least squares: underdetermined system");
  }
  if (st != SolveStatus::kOk) {
    throw std::domain_error("HouseholderQR::solve: rank deficient");
  }
  out.inlier_mask.assign(ws.rows(), 1);
  out.inlier_fraction = 1.0;
  out.iterations = iterations;
  out.consensus = false;
  out.scale = 0.0;
  out.threshold = 0.0;
}

// LMedS score of candidate x: the exact median of its squared residuals.
double lmeds_score(linalg::SolverWorkspace& ws, const double* x) {
  double* sq = ws.median_scratch.data();
  linalg::squared_residuals(ws.system(), x, sq);
  return linalg::median_in_place(sq, sq + ws.rows());
}

// The one consensus solve behind ransac_solve and ransac_solve_warm
// (`who` names the entry point in exceptions). warm_mask == nullptr is
// the cold solve.
void consensus_solve(const char* who, const linalg::Matrix& a,
                     const std::vector<double>& b,
                     const RansacOptions& options, const char* warm_mask,
                     linalg::SolverWorkspace& ws, RansacResult& out) {
  LION_OBS_SPAN(obs::Stage::kRansac);
  const std::size_t n = a.rows();
  const std::size_t p = a.cols();
  if (b.size() != n) {
    throw std::invalid_argument(std::string(who) + ": rhs size mismatch");
  }
  if (n < p) {
    throw std::invalid_argument(std::string(who) + ": underdetermined system");
  }
  ws.load(a, b);  // rejects cols outside [1, kSmallMaxCols]
  if (n < p + 3) {
    full_row_fallback(ws, options, 0, out);
    return;
  }

  rf::Rng rng(options.seed);
  const std::size_t m = p + 1;
  const linalg::ColumnSystem sys = ws.system();

  ws.indices.resize(n);
  for (std::size_t i = 0; i < n; ++i) ws.indices[i] = i;
  ws.median_scratch.resize(n);

  double best_score = std::numeric_limits<double>::infinity();
  double best_x[linalg::kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
  bool have_best = false;
  std::size_t evaluated = 0;
  double x[linalg::kSmallMaxCols];

  // Warm start: seed the best-so-far candidate with the OLS fit over the
  // caller's prior inlier set (the previous window's consensus, mapped to
  // this system's rows). With a still-valid prior, the median prescreen
  // below rejects most random candidates after one counting pass; with a
  // stale prior the seed simply loses the sampling tournament. Either way
  // the loop below is untouched, so warm_mask == nullptr is exactly the
  // cold solve.
  if (warm_mask != nullptr) {
    std::size_t warm_rows = 0;
    for (std::size_t i = 0; i < n; ++i) warm_rows += warm_mask[i] ? 1 : 0;
    if (warm_rows >= m) {
      linalg::SmallGram g;
      g.reset(p);
      double rhs[linalg::kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
      accumulate_masked(ws, warm_mask, g, rhs);
      g.mirror();
      linalg::SmallCholesky chol;
      if (small_cholesky_factor(g, chol)) {
        small_cholesky_solve(chol, rhs, x);
        const double score = lmeds_score(ws, x);
        if (std::isfinite(score)) {
          best_score = score;
          std::copy(x, x + p, best_x);
          have_best = true;
          LION_OBS_COUNT("ransac.warm_seeds", 1);
        }
      }
    }
  }

  // Count-only median prescreen: with mid = n/2, median_in_place returns
  // v[mid] for odd n and 0.5 * (v[mid-1] + v[mid]) for even n. A candidate
  // can only *strictly* beat best_score if at least mid+1 (odd) / mid
  // (even) squared residuals are below it: otherwise v[mid] (and for even
  // n also v[mid-1]) is >= best, and the monotone FP add/halve keeps the
  // even-n average >= best too. The prescreen counts that over the columns
  // and stores nothing, stopping as soon as the rows left cannot reach the
  // bound; only a candidate that passes computes its squared residuals and
  // takes the exact median. Losing is the common case once an early good
  // subset sets the bar.
  const std::size_t median_need = n / 2 + (n % 2 == 1 ? 1 : 0);

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(rng.uniform_int(
                                    0, static_cast<std::int64_t>(n - 1 - i)));
      std::swap(ws.indices[i], ws.indices[j]);
    }
    LION_OBS_COUNT("ransac.iterations", 1);
    // Minimal-subset solve from rows gathered out of the cached columns.
    linalg::SmallGram g;
    g.reset(p);
    double rhs[linalg::kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
    accumulate_rows(ws, ws.indices.data(), m, g, rhs);
    g.mirror();
    linalg::SmallCholesky chol;
    SolveStatus st;
    if (small_cholesky_factor(g, chol)) {
      small_cholesky_solve(chol, rhs, x);
      st = SolveStatus::kOk;
    } else {
      double qa[linalg::kSmallMaxMinimalRows][linalg::kSmallMaxCols];
      double qb[linalg::kSmallMaxMinimalRows];
      for (std::size_t i = 0; i < m; ++i) {
        ws.gather_row(ws.indices[i], qa[i]);
        qb[i] = ws.rhs(ws.indices[i]);
      }
      st = linalg::small_qr_solve(qa, qb, m, p, x);
    }
    if (st != SolveStatus::kOk) {
      LION_OBS_COUNT("ransac.degenerate_subsets", 1);
      continue;
    }
    ++evaluated;
    if (linalg::count_squared_below(sys, x, best_score, median_need) <
        median_need) {
      continue;  // median provably >= best_score
    }
    const double score = lmeds_score(ws, x);
    if (score < best_score) {
      best_score = score;
      std::copy(x, x + p, best_x);
      have_best = true;
    }
  }
  if (!std::isfinite(best_score) || !have_best) {
    full_row_fallback(ws, options, evaluated, out);
    return;
  }

  const double sigma = 1.4826 *
                       (1.0 + 5.0 / static_cast<double>(n - p)) *
                       std::sqrt(best_score);
  const double threshold = options.inlier_threshold > 0.0
                               ? options.inlier_threshold
                               : std::max(2.5 * sigma, 1e-12);

  // The winner's residuals, recomputed with the same operations its
  // scoring pass performed.
  ws.residuals.resize(n);
  linalg::residuals(sys, best_x, ws.residuals.data());
  out.inlier_mask.resize(n);
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool inlier = std::abs(ws.residuals[i]) <= threshold;
    out.inlier_mask[i] = inlier;
    count += inlier;
  }
  if (count < p + 1 ||
      static_cast<double>(count) <
          options.min_inlier_fraction * static_cast<double>(n)) {
    full_row_fallback(ws, options, evaluated, out);
    return;
  }

  linalg::IrlsOptions irls = options.irls;
  irls.loss = options.refit_loss;
  if (linalg::solve_irls_masked(ws, out.inlier_mask.data(), count, irls,
                                out.solution) != SolveStatus::kOk) {
    full_row_fallback(ws, options, evaluated, out);
    return;
  }
  out.inlier_fraction = static_cast<double>(count) / static_cast<double>(n);
  out.iterations = evaluated;
  out.consensus = true;
  out.scale = sigma;
  out.threshold = threshold;
  LION_OBS_COUNT("ransac.consensus", 1);
  LION_OBS_HIST("ransac.inlier_fraction", obs::fraction_bounds(),
                out.inlier_fraction);
}

}  // namespace

void ransac_solve(const linalg::Matrix& a, const std::vector<double>& b,
                  const RansacOptions& options, linalg::SolverWorkspace& ws,
                  RansacResult& out) {
  consensus_solve("ransac_solve", a, b, options, nullptr, ws, out);
}

RansacResult ransac_solve(const linalg::Matrix& a,
                          const std::vector<double>& b,
                          const RansacOptions& options,
                          linalg::SolverWorkspace& ws) {
  RansacResult out;
  ransac_solve(a, b, options, ws, out);
  return out;
}

RansacResult ransac_solve(const linalg::Matrix& a,
                          const std::vector<double>& b,
                          const RansacOptions& options) {
  return ransac_solve(a, b, options, linalg::default_workspace());
}

void ransac_solve_warm(const linalg::Matrix& a, const std::vector<double>& b,
                       const RansacOptions& options,
                       linalg::SolverWorkspace& ws,
                       const std::vector<char>& prior_inliers,
                       RansacResult& out) {
  const bool usable_prior = prior_inliers.size() == a.rows();
  consensus_solve("ransac_solve_warm", a, b, options,
                  usable_prior ? prior_inliers.data() : nullptr, ws, out);
}

}  // namespace lion::core
