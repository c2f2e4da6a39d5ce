#include "linalg/lstsq.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

#include "linalg/decompositions.hpp"
#include "linalg/small.hpp"
#include "linalg/stats.hpp"

namespace lion::linalg {
namespace {

TEST(LeastSquares, ExactSystemHasZeroResiduals) {
  const Matrix a{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  const std::vector<double> b{2.0, 3.0, 5.0};
  const auto r = solve_least_squares(a, b);
  EXPECT_NEAR(r.x[0], 2.0, 1e-12);
  EXPECT_NEAR(r.x[1], 3.0, 1e-12);
  EXPECT_NEAR(r.rms_residual, 0.0, 1e-12);
  EXPECT_NEAR(r.mean_residual, 0.0, 1e-12);
}

TEST(LeastSquares, LinearRegressionClosedForm) {
  const Matrix a{{1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}, {1.0, 4.0}};
  const std::vector<double> b{6.0, 5.0, 7.0, 10.0};
  const auto r = solve_least_squares(a, b);
  EXPECT_NEAR(r.x[0], 3.5, 1e-12);
  EXPECT_NEAR(r.x[1], 1.4, 1e-12);
}

TEST(LeastSquares, ResidualsMatchDefinition) {
  const Matrix a{{1.0}, {1.0}, {1.0}};
  const std::vector<double> b{1.0, 2.0, 6.0};
  const auto r = solve_least_squares(a, b);
  EXPECT_NEAR(r.x[0], 3.0, 1e-12);  // mean
  ASSERT_EQ(r.residuals.size(), 3u);
  EXPECT_NEAR(r.residuals[0], 2.0, 1e-12);
  EXPECT_NEAR(r.residuals[1], 1.0, 1e-12);
  EXPECT_NEAR(r.residuals[2], -3.0, 1e-12);
}

TEST(LeastSquares, OlsWeightsAreAllOne) {
  const Matrix a{{1.0}, {2.0}};
  const auto r = solve_least_squares(a, {1.0, 2.0});
  EXPECT_EQ(r.weights, (std::vector<double>{1.0, 1.0}));
}

TEST(LeastSquares, UnderdeterminedThrows) {
  EXPECT_THROW(solve_least_squares(Matrix(1, 2), {1.0}), std::domain_error);
}

TEST(LeastSquares, RhsSizeMismatchThrows) {
  EXPECT_THROW(solve_least_squares(Matrix(3, 2), {1.0}),
               std::invalid_argument);
}

TEST(LeastSquares, RankDeficientFallsToQrAndThrows) {
  // Two identical columns: no unique solution even via QR.
  const Matrix a{{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  EXPECT_THROW(solve_least_squares(a, {1.0, 2.0, 3.0}), std::domain_error);
}

TEST(WeightedLeastSquares, ZeroWeightIgnoresRow) {
  // Three observations of a constant; the wild third one has zero weight.
  const Matrix a{{1.0}, {1.0}, {1.0}};
  const std::vector<double> b{2.0, 2.0, 100.0};
  const auto r = solve_weighted_least_squares(a, b, {1.0, 1.0, 0.0});
  EXPECT_NEAR(r.x[0], 2.0, 1e-12);
}

TEST(WeightedLeastSquares, MatchesClosedFormWeightedMean) {
  const Matrix a{{1.0}, {1.0}};
  const std::vector<double> b{0.0, 10.0};
  const auto r = solve_weighted_least_squares(a, b, {3.0, 1.0});
  EXPECT_NEAR(r.x[0], 2.5, 1e-12);  // (3*0 + 1*10) / 4
}

TEST(WeightedLeastSquares, UniformWeightsMatchOls) {
  const Matrix a{{1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}};
  const std::vector<double> b{1.0, 2.0, 2.5};
  const auto ols = solve_least_squares(a, b);
  const auto wls = solve_weighted_least_squares(a, b, {2.0, 2.0, 2.0});
  EXPECT_NEAR(ols.x[0], wls.x[0], 1e-12);
  EXPECT_NEAR(ols.x[1], wls.x[1], 1e-12);
}

TEST(WeightedLeastSquares, SizeMismatchThrows) {
  EXPECT_THROW(
      solve_weighted_least_squares(Matrix(2, 1), {1.0, 2.0}, {1.0}),
      std::invalid_argument);
}

TEST(GaussianResidualWeights, CleanResidualGetsHighWeight) {
  // One outlier among small residuals.
  const std::vector<double> residuals{0.01, -0.02, 0.015, -0.01, 5.0};
  const auto w = gaussian_residual_weights(residuals);
  ASSERT_EQ(w.size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_GT(w[i], w[4]);
  EXPECT_LT(w[4], 0.2);
}

TEST(GaussianResidualWeights, AllWeightsInUnitInterval) {
  const auto w = gaussian_residual_weights({1.0, -2.0, 0.5, 0.0});
  for (double v : w) {
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(GaussianResidualWeights, EqualResidualsGetWeightOne) {
  // Degenerate spread: sigma floored, all residuals at the mean.
  const auto w = gaussian_residual_weights({0.5, 0.5, 0.5});
  for (double v : w) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(Irls, ConvergesOnCleanData) {
  const Matrix a{{1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}, {1.0, 4.0}};
  std::vector<double> b{3.0, 5.0, 7.0, 9.0};  // y = 1 + 2x exactly
  const auto r = solve_irls(a, b);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 2.0, 1e-9);
}

TEST(Irls, DownweightsOutlier) {
  // y = 2x with one corrupted observation; IRLS should sit closer to the
  // clean slope than OLS does.
  Matrix a(9, 1);
  std::vector<double> b(9);
  for (std::size_t i = 0; i < 9; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    b[i] = 2.0 * static_cast<double>(i + 1);
  }
  b[4] += 30.0;  // outlier
  const auto ols = solve_least_squares(a, b);
  const auto irls = solve_irls(a, b);
  EXPECT_LT(std::abs(irls.x[0] - 2.0), std::abs(ols.x[0] - 2.0));
}

TEST(Irls, OutlierWeightIsSmallest) {
  Matrix a(7, 1);
  std::vector<double> b(7);
  for (std::size_t i = 0; i < 7; ++i) {
    a(i, 0) = 1.0;
    b[i] = 1.0;
  }
  b[3] = 50.0;
  const auto r = solve_irls(a, b);
  const auto min_it = std::min_element(r.weights.begin(), r.weights.end());
  EXPECT_EQ(std::distance(r.weights.begin(), min_it), 3);
}

TEST(Irls, RespectsIterationCap) {
  IrlsOptions opts;
  opts.max_iterations = 2;
  opts.tolerance = 0.0;  // never converges by tolerance
  Matrix a(4, 1);
  std::vector<double> b{1.0, 2.0, 3.0, 10.0};
  for (std::size_t i = 0; i < 4; ++i) a(i, 0) = 1.0;
  const auto r = solve_irls(a, b, opts);
  EXPECT_EQ(r.iterations, 2u);
  EXPECT_FALSE(r.converged);
}

TEST(Irls, ReportsIterationCount) {
  const Matrix a{{1.0}, {1.0}, {1.0}};
  const auto r = solve_irls(a, {1.0, 1.0, 1.0});
  EXPECT_GE(r.iterations, 1u);
  EXPECT_TRUE(r.converged);
}

TEST(RobustWeights, HuberKeepsSmallResidualsAtFullWeight) {
  const std::vector<double> residuals{0.01, -0.02, 0.015, -0.01, 5.0};
  const auto w = robust_residual_weights(residuals, RobustLoss::kHuber);
  ASSERT_EQ(w.size(), residuals.size());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(w[i], 1.0);
  EXPECT_LT(w[4], 0.1);
}

TEST(RobustWeights, TukeyZerosGrossOutliers) {
  const std::vector<double> residuals{0.01, -0.02, 0.015, -0.01, 0.02, 50.0};
  const auto w = robust_residual_weights(residuals, RobustLoss::kTukey);
  EXPECT_EQ(w.back(), 0.0);
  for (std::size_t i = 0; i + 1 < w.size(); ++i) EXPECT_GT(w[i], 0.5);
}

TEST(RobustWeights, ScaleInvariant) {
  // MAD normalization: multiplying every residual by a constant must not
  // change the weights.
  const std::vector<double> r1{0.1, -0.2, 0.15, -0.1, 3.0};
  std::vector<double> r2 = r1;
  for (auto& v : r2) v *= 1000.0;
  const auto w1 = robust_residual_weights(r1, RobustLoss::kHuber);
  const auto w2 = robust_residual_weights(r2, RobustLoss::kHuber);
  for (std::size_t i = 0; i < w1.size(); ++i) {
    EXPECT_NEAR(w1[i], w2[i], 1e-12);
  }
}

TEST(RobustWeights, TukeyAllZeroFallsBackToHuber) {
  // Identical residual magnitudes make MAD zero; the guard must not return
  // an all-zero weight vector that would make the refit singular.
  const std::vector<double> residuals{1.0, 1.0, 1.0, 1.0};
  const auto w = robust_residual_weights(residuals, RobustLoss::kTukey);
  double total = 0.0;
  for (const double v : w) total += v;
  EXPECT_GT(total, 0.0);
}

TEST(Irls, HuberLossRecoversFromCoherentBlock) {
  // Scattered-outlier robustness is shared; the block case is where the
  // Gaussian weighting (centered on the poisoned OLS fit) struggles most.
  Matrix a(30, 1);
  std::vector<double> b(30);
  for (std::size_t i = 0; i < 30; ++i) {
    a(i, 0) = 1.0;
    b[i] = 2.0;
  }
  for (std::size_t i = 0; i < 6; ++i) b[i] = 12.0;
  IrlsOptions huber;
  huber.loss = RobustLoss::kHuber;
  const auto r = solve_irls(a, b, huber);
  EXPECT_NEAR(r.x[0], 2.0, 0.2);
}

TEST(Irls, TukeyLossIgnoresCoherentBlockCompletely) {
  Matrix a(30, 1);
  std::vector<double> b(30);
  for (std::size_t i = 0; i < 30; ++i) {
    a(i, 0) = 1.0;
    b[i] = 2.0;
  }
  for (std::size_t i = 0; i < 6; ++i) b[i] = 12.0;
  IrlsOptions tukey;
  tukey.loss = RobustLoss::kTukey;
  const auto r = solve_irls(a, b, tukey);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
}

TEST(RobustLossNames, AreStable) {
  EXPECT_STREQ(robust_loss_name(RobustLoss::kGaussian), "gaussian");
  EXPECT_STREQ(robust_loss_name(RobustLoss::kHuber), "huber");
  EXPECT_STREQ(robust_loss_name(RobustLoss::kTukey), "tukey");
}

TEST(SolveStatusNames, AreStable) {
  EXPECT_STREQ(solve_status_name(SolveStatus::kOk), "ok");
  EXPECT_STREQ(solve_status_name(SolveStatus::kUnderdetermined),
               "underdetermined");
  EXPECT_STREQ(solve_status_name(SolveStatus::kRankDeficient),
               "rank_deficient");
}

TEST(LeastSquares, TrySolveStatusMatchesThrowingPath) {
  std::vector<double> x;
  EXPECT_EQ(try_solve_least_squares(Matrix(1, 2), {1.0}, x),
            SolveStatus::kUnderdetermined);

  // Identical columns: the throwing path raises domain_error, the status
  // path reports kRankDeficient — same systems, same classification.
  const Matrix deficient{{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  const std::vector<double> b{1.0, 2.0, 3.0};
  EXPECT_THROW(solve_least_squares(deficient, b), std::domain_error);
  EXPECT_EQ(try_solve_least_squares(deficient, b, x),
            SolveStatus::kRankDeficient);

  const Matrix ok{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  const std::vector<double> bo{2.0, 3.0, 5.0};
  ASSERT_EQ(try_solve_least_squares(ok, bo, x), SolveStatus::kOk);
  const auto ref = solve_least_squares(ok, bo);
  ASSERT_EQ(x.size(), ref.x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], ref.x[i]);

  // A rhs size mismatch is a caller bug, not a data property: still throws.
  EXPECT_THROW(try_solve_least_squares(Matrix(3, 2), {1.0}, x),
               std::invalid_argument);
}

TEST(RobustWeights, TukeyHardZerosSurviveLargeMinSigma) {
  // Regression for the weight-mass gate: the old check compared the total
  // weight mass against min_sigma — a residual *scale* in measurement
  // units — so a large scale floor silently replaced valid Tukey weights
  // with Huber ones. The gate is now a dimensionless mean-weight floor
  // (kMinMeanRobustWeight); total mass 3.0 < min_sigma 6.0 must keep the
  // Tukey weights, hard zeros included.
  const std::vector<double> residuals{0.0, 0.0, 0.0, 50.0, -50.0};
  const auto w =
      robust_residual_weights(residuals, RobustLoss::kTukey, 0.0, 6.0);
  ASSERT_EQ(w.size(), 5u);
  EXPECT_EQ(w[0], 1.0);  // at the median: weight 1
  EXPECT_EQ(w[1], 1.0);
  EXPECT_EQ(w[2], 1.0);
  EXPECT_EQ(w[3], 0.0);  // |z| = 50/6 beyond the 4.685 cutoff: rejected
  EXPECT_EQ(w[4], 0.0);
}

TEST(RobustWeights, AllRejectingTukeyStillFallsBackToHuber) {
  // Every row beyond a tiny tuning cutoff: the whole system would be
  // zeroed, so the Huber weights (never zero) must take over.
  const std::vector<double> residuals{1.0, 2.0, 4.0, 5.0};
  const auto w =
      robust_residual_weights(residuals, RobustLoss::kTukey, 0.1, 1e-12);
  ASSERT_EQ(w.size(), 4u);
  for (double v : w) EXPECT_GT(v, 0.0);
}

TEST(Irls, WorkspaceOverloadBitIdenticalAcrossLosses) {
  std::mt19937 rng(33);
  std::uniform_real_distribution<double> d(-1.5, 1.5);
  for (std::size_t p = 2; p <= 4; ++p) {
    for (RobustLoss loss :
         {RobustLoss::kGaussian, RobustLoss::kHuber, RobustLoss::kTukey}) {
      Matrix a(24, p);
      std::vector<double> b(24);
      for (std::size_t i = 0; i < 24; ++i) {
        for (std::size_t j = 0; j < p; ++j) a(i, j) = d(rng);
        b[i] = d(rng) + (i % 7 == 0 ? 4.0 : 0.0);  // a few outliers
      }
      IrlsOptions opt;
      opt.loss = loss;

      const auto legacy = solve_irls(a, b, opt);
      SolverWorkspace ws;
      LstsqResult got;
      solve_irls(a, b, opt, ws, got);

      EXPECT_EQ(got.x, legacy.x);
      EXPECT_EQ(got.residuals, legacy.residuals);
      EXPECT_EQ(got.weights, legacy.weights);
      EXPECT_EQ(got.mean_residual, legacy.mean_residual);
      EXPECT_EQ(got.rms_residual, legacy.rms_residual);
      EXPECT_EQ(got.iterations, legacy.iterations);
      EXPECT_EQ(got.converged, legacy.converged);
    }
  }
}

TEST(Irls, WorkspaceSolveRejectsColumnCountsOutsideTheSmallKernel) {
  // LION systems have at most four unknowns; the workspace solve has no
  // second path for anything else.
  SolverWorkspace ws;
  LstsqResult out;
  for (const std::size_t cols : {std::size_t{0}, kSmallMaxCols + 1}) {
    const Matrix a(12, cols, 1.0);
    const std::vector<double> b(12, 1.0);
    EXPECT_THROW(solve_irls(a, b, {}, ws, out), std::invalid_argument)
        << cols << " cols";
    EXPECT_THROW(solve_irls(a, b, {}, ws), std::invalid_argument)
        << cols << " cols";
  }
}

TEST(Irls, MaskedSolveMatchesMaterializedSubsystemBitExact) {
  std::mt19937 rng(34);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  const std::size_t n = 40;
  const std::size_t p = 3;
  Matrix a(n, p);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < p; ++j) a(i, j) = d(rng);
    b[i] = d(rng);
  }
  std::vector<char> mask(n, 0);
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += (mask[i] = (i % 3 != 0));

  Matrix sub(count, p);
  std::vector<double> sub_b(count);
  std::size_t r = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!mask[i]) continue;
    for (std::size_t j = 0; j < p; ++j) sub(r, j) = a(i, j);
    sub_b[r] = b[i];
    ++r;
  }

  IrlsOptions opt;
  opt.loss = RobustLoss::kHuber;
  const auto ref = solve_irls(sub, sub_b, opt);

  SolverWorkspace ws;
  ws.load(a, b);
  LstsqResult got;
  ASSERT_EQ(solve_irls_masked(ws, mask.data(), count, opt, got),
            SolveStatus::kOk);
  EXPECT_EQ(got.x, ref.x);
  EXPECT_EQ(got.residuals, ref.residuals);
  EXPECT_EQ(got.weights, ref.weights);
  EXPECT_EQ(got.mean_residual, ref.mean_residual);
  EXPECT_EQ(got.rms_residual, ref.rms_residual);
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.converged, ref.converged);
}

// --- Workspace IRLS against the legacy Matrix path, bit for bit ----------

void expect_same_result(const LstsqResult& got, const LstsqResult& ref) {
  EXPECT_EQ(got.x, ref.x);
  EXPECT_EQ(got.residuals, ref.residuals);
  EXPECT_EQ(got.weights, ref.weights);
  EXPECT_EQ(got.mean_residual, ref.mean_residual);
  EXPECT_EQ(got.rms_residual, ref.rms_residual);
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.converged, ref.converged);
}

// Masked workspace solve vs legacy solve_irls on the materialized subset:
// the same result, or a failure status exactly where the legacy throws.
void expect_masked_matches_legacy(const Matrix& a, const std::vector<double>& b,
                                  const std::vector<char>& mask,
                                  const IrlsOptions& opt, SolverWorkspace& ws,
                                  LstsqResult& got) {
  std::size_t count = 0;
  for (const char m : mask) count += m ? 1 : 0;
  Matrix sub(count, a.cols());
  std::vector<double> sub_b(count);
  std::size_t r = 0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    if (!mask[i]) continue;
    for (std::size_t j = 0; j < a.cols(); ++j) sub(r, j) = a(i, j);
    sub_b[r++] = b[i];
  }
  ws.load(a, b);
  const SolveStatus st = solve_irls_masked(ws, mask.data(), count, opt, got);
  LstsqResult ref;
  try {
    ref = solve_irls(sub, sub_b, opt);
  } catch (const std::domain_error&) {
    EXPECT_NE(st, SolveStatus::kOk);
    return;
  }
  ASSERT_EQ(st, SolveStatus::kOk);
  expect_same_result(got, ref);
}

TEST(Irls, WorkspaceMatchesLegacyAcrossLossesMasksAndSizes) {
  std::mt19937_64 rng(35);
  std::normal_distribution<double> noise(0.0, 0.05);
  std::uniform_real_distribution<double> coord(-2.0, 2.0);
  std::bernoulli_distribution keep(0.8);
  SolverWorkspace ws;  // reused across shapes, as in the batch engine
  LstsqResult got;
  for (std::size_t p = 1; p <= 4; ++p) {
    for (const std::size_t n : {9u, 10u, 57u, 200u, 401u}) {
      Matrix a(n, p);
      std::vector<double> b(n);
      for (std::size_t i = 0; i < n; ++i) {
        double truth = 0.0;
        for (std::size_t j = 0; j < p; ++j) {
          a(i, j) = coord(rng);
          truth += (0.5 + static_cast<double>(j)) * a(i, j);
        }
        b[i] = truth + noise(rng) + (i % 9 == 4 ? 3.0 : 0.0);
      }
      std::vector<char> all(n, 1);
      std::vector<char> random_mask(n);
      std::vector<char> odd_rows(n);
      for (std::size_t i = 0; i < n; ++i) {
        random_mask[i] = keep(rng) || i < p + 1 ? 1 : 0;
        odd_rows[i] = static_cast<char>(i % 2);
      }
      for (RobustLoss loss :
           {RobustLoss::kGaussian, RobustLoss::kHuber, RobustLoss::kTukey}) {
        for (const auto* mask : {&all, &random_mask, &odd_rows}) {
          IrlsOptions opt;
          opt.loss = loss;
          SCOPED_TRACE(::testing::Message()
                       << "p=" << p << " n=" << n << " loss="
                       << robust_loss_name(loss));
          expect_masked_matches_legacy(a, b, *mask, opt, ws, got);
          // Capped (non-converged) and zero-iteration runs.
          opt.max_iterations = 2;
          opt.tolerance = 0.0;
          expect_masked_matches_legacy(a, b, *mask, opt, ws, got);
          opt.max_iterations = 0;
          expect_masked_matches_legacy(a, b, *mask, opt, ws, got);
        }
      }
    }
  }
}

TEST(Irls, WorkspaceMatchesLegacyWhenTukeyRefillsWithHuber) {
  // A tuning constant so small that Tukey rejects every row of an
  // even-sized system (no residual sits exactly on the averaged median):
  // both paths must redo the round with Huber weights.
  std::mt19937_64 rng(36);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  const std::size_t n = 40;
  Matrix a(n, 3);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = d(rng);
    b[i] = d(rng);
  }
  IrlsOptions opt;
  opt.loss = RobustLoss::kTukey;
  opt.tuning = 1e-6;
  const auto first = solve_least_squares(a, b).residuals;
  ASSERT_EQ(robust_residual_weights(first, RobustLoss::kTukey, opt.tuning),
            robust_residual_weights(first, RobustLoss::kHuber, opt.tuning))
      << "the first round must take the Huber refill";
  const LstsqResult ref = solve_irls(a, b, opt);
  SolverWorkspace ws;
  LstsqResult got;
  solve_irls(a, b, opt, ws, got);
  expect_same_result(got, ref);
}

TEST(Irls, WorkspaceMatchesLegacyWhenCholeskyFallsBackToQr) {
  // Nearly collinear columns: the normal equations square the tiny
  // singular value away (Cholesky rejects) while QR on the design still
  // resolves it. Unselected, well-conditioned rows must not leak in.
  std::mt19937_64 rng(37);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::size_t checked = 0;
  for (int trial = 0; trial < 200 && checked < 5; ++trial) {
    const std::size_t n = 40;  // every fourth row is a decoy
    Matrix a(n, 2);
    std::vector<double> b(n);
    std::vector<char> mask(n, 0);
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = d(rng);
      mask[i] = i % 4 != 3 ? 1 : 0;
      count += mask[i];
      a(i, 0) = 1.0;
      a(i, 1) = mask[i] ? 1.0 + 1e-9 * t : d(rng);
      b[i] = 2.0 + 3e-9 * t + 1e-12 * d(rng);
    }
    Matrix sub(count, 2);
    std::vector<double> sub_b(count);
    for (std::size_t i = 0, r = 0; i < n; ++i) {
      if (!mask[i]) continue;
      sub(r, 0) = a(i, 0);
      sub(r, 1) = a(i, 1);
      sub_b[r++] = b[i];
    }
    if (Cholesky::factor(sub.gram())) continue;  // need the QR fallback
    IrlsOptions opt;
    opt.loss = RobustLoss::kHuber;
    LstsqResult ref;
    try {
      ref = solve_irls(sub, sub_b, opt);
    } catch (const std::domain_error&) {
      continue;  // rank deficient for QR too
    }
    SolverWorkspace ws;
    ws.load(a, b);
    LstsqResult got;
    ASSERT_EQ(solve_irls_masked(ws, mask.data(), count, opt, got),
              SolveStatus::kOk);
    expect_same_result(got, ref);
    ++checked;
  }
  EXPECT_GT(checked, 0u) << "no trial exercised the QR fallback";
}

TEST(Irls, MaskedSolveReportsUnderdeterminedStatus) {
  SolverWorkspace ws;
  ws.load(Matrix(5, 3), std::vector<double>(5, 0.0));
  const std::vector<char> mask{1, 1, 0, 0, 0};
  LstsqResult out;
  EXPECT_EQ(solve_irls_masked(ws, mask.data(), 2, {}, out),
            SolveStatus::kUnderdetermined);
}

// --- The split IRLS reweight: weight map + weighted normal equations ------

TEST(SplitReweight, MatchesReferenceWeightsAndWeightedGramBitExact) {
  std::mt19937_64 rng(61);
  std::normal_distribution<double> noise(0.0, 0.02);
  std::uniform_real_distribution<double> coef(-2.0, 2.0);
  for (std::size_t p = 1; p <= 4; ++p) {
    for (const std::size_t n : {7u, 64u, 501u}) {
      Matrix a(n, p);
      std::vector<double> b(n);
      std::vector<double> res(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < p; ++c) a(i, c) = coef(rng);
        b[i] = coef(rng);
        res[i] = noise(rng) + (i % 9 == 0 ? 1.5 : 0.0);  // a few outliers
      }
      SolverWorkspace ws;
      ws.load(a, b);
      for (const RobustLoss loss :
           {RobustLoss::kHuber, RobustLoss::kTukey, RobustLoss::kGaussian}) {
        // The round's centre and scale, as the IRLS loop derives them.
        ResidualWeightFn fn{loss, 0.0, 0.0,
                            loss == RobustLoss::kHuber ? 1.345 : 4.685};
        if (loss == RobustLoss::kGaussian) {
          fn.center = mean(res);
          fn.sigma = std::max(stddev(res), 1e-12);
        } else {
          fn.center = median(res);
          std::vector<double> dev(n);
          for (std::size_t i = 0; i < n; ++i) {
            dev[i] = std::abs(res[i] - fn.center);
          }
          fn.sigma = std::max(1.4826 * median(dev), 1e-12);
        }
        const auto ref_w = loss == RobustLoss::kGaussian
                               ? gaussian_residual_weights(res)
                               : robust_residual_weights(res, loss);
        std::vector<double> w(n);
        map_residual_weights(fn, res.data(), n, w.data());
        ASSERT_EQ(w, ref_w) << robust_loss_name(loss) << " p=" << p;

        SmallGram g;
        g.reset(p);
        double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
        const double mass = accumulate_weighted(ws.system(), w.data(), g, rhs);
        g.mirror();
        const Matrix ref_g = a.weighted_gram(ref_w);
        const auto ref_rhs = a.weighted_transpose_multiply(ref_w, b);
        double ref_mass = 0.0;
        for (const double wi : ref_w) ref_mass += wi;
        EXPECT_EQ(mass, ref_mass);
        for (std::size_t i = 0; i < p; ++i) {
          for (std::size_t j = 0; j < p; ++j) {
            EXPECT_EQ(g.g[i][j], ref_g(i, j))
                << robust_loss_name(loss) << " p=" << p << " n=" << n;
          }
          EXPECT_EQ(rhs[i], ref_rhs[i]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace lion::linalg
