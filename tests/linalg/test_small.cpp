// Property tests of the zero-allocation small-matrix kernels against the
// general Matrix / Cholesky / HouseholderQR reference path. The kernels'
// contract is *bit-exactness* — they must perform the same floating-point
// operations in the same order as the code they replace — so almost every
// assertion here is EXPECT_EQ on doubles, not EXPECT_NEAR.

#include "linalg/small.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

#include "linalg/decompositions.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/matrix.hpp"

namespace lion::linalg {
namespace {

Matrix random_matrix(std::mt19937_64& rng, std::size_t n, std::size_t p,
                     double scale = 1.0) {
  std::uniform_real_distribution<double> d(-scale, scale);
  Matrix a(n, p);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < p; ++j) a(i, j) = d(rng);
  }
  return a;
}

std::vector<double> random_vector(std::mt19937_64& rng, std::size_t n,
                                  double lo = -1.0, double hi = 1.0) {
  std::uniform_real_distribution<double> d(lo, hi);
  std::vector<double> v(n);
  for (auto& x : v) x = d(rng);
  return v;
}

TEST(SolverWorkspace, LoadValidatesShape) {
  SolverWorkspace ws;
  EXPECT_THROW(ws.load(Matrix(3, 5), std::vector<double>(3, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(ws.load(Matrix(3, 2), std::vector<double>(2, 0.0)),
               std::invalid_argument);
  EXPECT_FALSE(ws.loaded());
  ws.load(Matrix(3, 2), std::vector<double>(3, 0.0));
  EXPECT_TRUE(ws.loaded());
  EXPECT_EQ(ws.rows(), 3u);
  EXPECT_EQ(ws.cols(), 2u);
}

TEST(SmallKernels, UnweightedAccumulationMatchesGramBitExact) {
  std::mt19937_64 rng(7);
  for (std::size_t p = 2; p <= 4; ++p) {
    for (int trial = 0; trial < 50; ++trial) {
      const std::size_t n = 5 + static_cast<std::size_t>(trial);
      const Matrix a = random_matrix(rng, n, p, 3.0);
      const auto b = random_vector(rng, n, -2.0, 2.0);

      SolverWorkspace ws;
      ws.load(a, b);
      SmallGram g;
      g.reset(p);
      double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
      accumulate_masked(ws, nullptr, g, rhs);
      g.mirror();

      const Matrix ref = a.gram();
      const auto ref_rhs = a.transpose_multiply(b);
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) EXPECT_EQ(g.g[i][j], ref(i, j));
        EXPECT_EQ(rhs[i], ref_rhs[i]);
      }
    }
  }
}

TEST(SmallKernels, UnweightedAccumulationWithZeroEntriesStaysBitExact) {
  // Matrix::gram skips zero terms; the cache adds them unconditionally.
  // Adding +/-0.0 products must not move any accumulator.
  std::mt19937_64 rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 12;
    const std::size_t p = 3;
    Matrix a = random_matrix(rng, n, p, 2.0);
    std::uniform_int_distribution<int> coin(0, 3);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        if (coin(rng) == 0) a(i, j) = coin(rng) == 0 ? -0.0 : 0.0;
      }
    }
    const auto b = random_vector(rng, n);

    SolverWorkspace ws;
    ws.load(a, b);
    SmallGram g;
    g.reset(p);
    double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
    accumulate_masked(ws, nullptr, g, rhs);
    g.mirror();

    const Matrix ref = a.gram();
    const auto ref_rhs = a.transpose_multiply(b);
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) EXPECT_EQ(g.g[i][j], ref(i, j));
      EXPECT_EQ(rhs[i], ref_rhs[i]);
    }
  }
}

TEST(SmallKernels, GramMatrixHelperMatchesGramBitExact) {
  std::mt19937_64 rng(9);
  for (std::size_t p = 2; p <= 4; ++p) {
    const Matrix a = random_matrix(rng, 40, p, 5.0);
    const auto b = random_vector(rng, 40);
    SolverWorkspace ws;
    ws.load(a, b);
    const Matrix got = ws.gram_matrix();
    const Matrix ref = a.gram();
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) EXPECT_EQ(got(i, j), ref(i, j));
    }
  }
  SolverWorkspace empty;
  EXPECT_THROW(empty.gram_matrix(), std::logic_error);
}

TEST(SmallKernels, QrRDiagonalMatchesHouseholderBitExact) {
  std::mt19937_64 rng(12);
  std::vector<double> scratch;  // reused across shapes
  for (std::size_t p = 1; p <= 4; ++p) {
    for (const std::size_t m : {p, p + 1, std::size_t{17}, std::size_t{300}}) {
      for (int trial = 0; trial < 10; ++trial) {
        Matrix a = random_matrix(rng, m, p, 3.0);
        if (trial == 1) {
          for (std::size_t i = 0; i < m; ++i) a(i, p - 1) = 0.0;  // zero column
        }
        if (trial == 2 && p >= 2) {
          for (std::size_t i = 0; i < m; ++i) a(i, 1) = 2.0 * a(i, 0);
        }
        double diag[kSmallMaxCols];
        qr_r_diagonal(a, scratch, diag);
        const HouseholderQR ref(a);
        const auto ref_diag = ref.r_diagonal();
        for (std::size_t k = 0; k < p; ++k) {
          EXPECT_EQ(diag[k], ref_diag[k]) << "m=" << m << " p=" << p << " k=" << k;
        }
        EXPECT_EQ(qr_condition_estimate(a, scratch), ref.condition_estimate());
      }
    }
  }
}

TEST(SmallKernels, QrConditionEstimateHandlesWideAndBadShapes) {
  std::mt19937_64 rng(13);
  std::vector<double> scratch;
  const Matrix wide = random_matrix(rng, 12, 6);  // beyond the small kernel
  EXPECT_EQ(qr_condition_estimate(wide, scratch),
            HouseholderQR(wide).condition_estimate());
  double diag[kSmallMaxCols];
  EXPECT_THROW(qr_r_diagonal(wide, scratch, diag), std::invalid_argument);
  EXPECT_THROW(qr_r_diagonal(Matrix(2, 3), scratch, diag),
               std::invalid_argument);
}

TEST(SmallKernels, CholeskyMatchesReferenceBitExact) {
  std::mt19937_64 rng(12);
  for (std::size_t p = 2; p <= 4; ++p) {
    for (int trial = 0; trial < 50; ++trial) {
      const Matrix a = random_matrix(rng, p + 4, p, 2.0);
      const Matrix gram = a.gram();
      const auto b = random_vector(rng, p);

      SmallGram g;
      g.reset(p);
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) g.g[i][j] = gram(i, j);
      }
      SmallCholesky chol;
      const bool ok = small_cholesky_factor(g, chol);
      const auto ref = Cholesky::factor(gram);
      ASSERT_EQ(ok, ref.has_value());
      if (!ok) continue;
      double x[kSmallMaxCols];
      small_cholesky_solve(chol, b.data(), x);
      const auto ref_x = ref->solve(b);
      for (std::size_t i = 0; i < p; ++i) EXPECT_EQ(x[i], ref_x[i]);
    }
  }
}

TEST(SmallKernels, CholeskyRejectsNonSpdLikeReference) {
  // Rank-1 gram: both paths must reject it the same way.
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
  const Matrix gram = a.gram();
  SmallGram g;
  g.reset(2);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) g.g[i][j] = gram(i, j);
  }
  SmallCholesky chol;
  EXPECT_FALSE(small_cholesky_factor(g, chol));
  EXPECT_FALSE(Cholesky::factor(gram).has_value());
}

TEST(SmallKernels, QrSolveMatchesHouseholderBitExact) {
  std::mt19937_64 rng(13);
  for (std::size_t p = 2; p <= 4; ++p) {
    const std::size_t m = p + 1;  // the RANSAC minimal-subset shape
    for (int trial = 0; trial < 100; ++trial) {
      const Matrix a = random_matrix(rng, m, p, 2.0);
      const auto b = random_vector(rng, m);

      double qa[kSmallMaxMinimalRows][kSmallMaxCols];
      double qb[kSmallMaxMinimalRows];
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t c = 0; c < p; ++c) qa[i][c] = a(i, c);
        qb[i] = b[i];
      }
      double x[kSmallMaxCols];
      const SolveStatus st = small_qr_solve(qa, qb, m, p, x);
      ASSERT_EQ(st, SolveStatus::kOk);
      const auto ref = HouseholderQR(a).solve(b);
      for (std::size_t i = 0; i < p; ++i) EXPECT_EQ(x[i], ref[i]);
    }
  }
}

TEST(SmallKernels, QrReportsRankDeficientExactlyWhenReferenceThrows) {
  std::mt19937_64 rng(14);
  std::size_t deficient = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t p = 2 + static_cast<std::size_t>(trial % 3);
    const std::size_t m = p + 1;
    Matrix a = random_matrix(rng, m, p);
    // Half the trials get a duplicated column (rank deficient), the rest
    // stay generic; the status and the throw must always agree.
    if (trial % 2 == 0) {
      for (std::size_t i = 0; i < m; ++i) a(i, p - 1) = a(i, 0);
    }
    const auto b = random_vector(rng, m);

    double qa[kSmallMaxMinimalRows][kSmallMaxCols];
    double qb[kSmallMaxMinimalRows];
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t c = 0; c < p; ++c) qa[i][c] = a(i, c);
      qb[i] = b[i];
    }
    double x[kSmallMaxCols];
    const SolveStatus st = small_qr_solve(qa, qb, m, p, x);

    bool threw = false;
    std::vector<double> ref;
    try {
      ref = HouseholderQR(a).solve(b);
    } catch (const std::domain_error&) {
      threw = true;
    }
    ASSERT_EQ(st == SolveStatus::kRankDeficient, threw) << "trial " << trial;
    if (threw) ++deficient;
    if (!threw && st == SolveStatus::kOk) {
      for (std::size_t i = 0; i < p; ++i) EXPECT_EQ(x[i], ref[i]);
    }
  }
  EXPECT_GT(deficient, 50u);  // the degenerate half actually exercised
}

TEST(SmallKernels, QrUnderdeterminedStatus) {
  double qa[kSmallMaxMinimalRows][kSmallMaxCols] = {};
  double qb[kSmallMaxMinimalRows] = {};
  double x[kSmallMaxCols];
  EXPECT_EQ(small_qr_solve(qa, qb, 2, 3, x), SolveStatus::kUnderdetermined);
}

TEST(SmallKernels, SubsetAccumulationMatchesGatheredSubsystem) {
  std::mt19937_64 rng(15);
  const std::size_t p = 4;
  const std::size_t n = 25;
  const std::size_t m = p + 1;
  const Matrix a = random_matrix(rng, n, p);
  const auto b = random_vector(rng, n);
  SolverWorkspace ws;
  ws.load(a, b);

  const std::size_t subset[kSmallMaxMinimalRows] = {17, 3, 22, 9, 11};
  SmallGram g;
  g.reset(p);
  double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
  accumulate_rows(ws, subset, m, g, rhs);
  g.mirror();

  Matrix sub(m, p);
  std::vector<double> sub_b(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t c = 0; c < p; ++c) sub(i, c) = a(subset[i], c);
    sub_b[i] = b[subset[i]];
  }
  const Matrix ref = sub.gram();
  const auto ref_rhs = sub.transpose_multiply(sub_b);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) EXPECT_EQ(g.g[i][j], ref(i, j));
    EXPECT_EQ(rhs[i], ref_rhs[i]);
  }
}

}  // namespace
}  // namespace lion::linalg
