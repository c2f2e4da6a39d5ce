// Property tests of the zero-allocation small-matrix kernels against the
// general Matrix / Cholesky / HouseholderQR reference path. The kernels'
// contract is *bit-exactness* — they must perform the same floating-point
// operations in the same order as the code they replace — so almost every
// assertion here is EXPECT_EQ on doubles, not EXPECT_NEAR.

#include "linalg/small.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
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

// The unweighted normal equations of (a, b) through both production
// kernels, the unit-weight lane gram and the masked row gram with every
// row selected, match Matrix::gram / transpose_multiply bit for bit.
void expect_unweighted_normals_match(const Matrix& a,
                                     const std::vector<double>& b) {
  const std::size_t p = a.cols();
  SolverWorkspace ws;
  ws.load(a, b);
  const Matrix ref = a.gram();
  const auto ref_rhs = a.transpose_multiply(b);
  const std::vector<char> all(a.rows(), 1);
  for (const bool lanes : {true, false}) {
    SmallGram g;
    g.reset(p);
    double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
    if (lanes) {
      accumulate_weighted(ws.system(), nullptr, g, rhs);
    } else {
      accumulate_masked(ws, all.data(), g, rhs);
    }
    g.mirror();
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        EXPECT_EQ(g.g[i][j], ref(i, j)) << (lanes ? "lanes" : "masked");
      }
      EXPECT_EQ(rhs[i], ref_rhs[i]) << (lanes ? "lanes" : "masked");
    }
  }
}

TEST(SmallKernels, UnweightedAccumulationMatchesGramBitExact) {
  std::mt19937_64 rng(7);
  for (std::size_t p = 2; p <= 4; ++p) {
    for (int trial = 0; trial < 50; ++trial) {
      const std::size_t n = 5 + static_cast<std::size_t>(trial);
      const Matrix a = random_matrix(rng, n, p, 3.0);
      const auto b = random_vector(rng, n, -2.0, 2.0);

      expect_unweighted_normals_match(a, b);
    }
  }
}

TEST(SmallKernels, UnweightedAccumulationWithZeroEntriesStaysBitExact) {
  // Matrix::gram skips zero terms; the kernels add them unconditionally.
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
    expect_unweighted_normals_match(a, b);
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

// --- Lane-parallel kernels over the column-major system -------------------

// The scalar row-major pass the lane kernels replace: residual of row i in
// Matrix::multiply's order.
double reference_residual(const Matrix& a, const std::vector<double>& b,
                          const double* x, std::size_t i) {
  double s = 0.0;
  for (std::size_t c = 0; c < a.cols(); ++c) s += a(i, c) * x[c];
  return s - b[i];
}

// The fused residual/score pass the count-only prescreen replaces: squared
// residuals counted below `bound`, stopping after a 256-row block once the
// rows left cannot lift the count to `need`.
std::size_t reference_prescreen(const Matrix& a, const std::vector<double>& b,
                                const double* x, double bound,
                                std::size_t need) {
  const std::size_t n = a.rows();
  std::size_t below = 0;
  for (std::size_t start = 0; start < n; start += 256) {
    const std::size_t end = std::min(n, start + 256);
    for (std::size_t i = start; i < end; ++i) {
      const double r = reference_residual(a, b, x, i);
      below += r * r < bound ? 1 : 0;
    }
    if (below + (n - end) < need) break;
  }
  return below;
}

TEST(LaneKernels, LoadStoresColumnsAndGathersRows) {
  std::mt19937_64 rng(20);
  const Matrix a = random_matrix(rng, 7, 3);
  const auto b = random_vector(rng, 7);
  SolverWorkspace ws;
  ws.load(a, b);
  const ColumnSystem sys = ws.system();
  ASSERT_EQ(sys.n, 7u);
  ASSERT_EQ(sys.p, 3u);
  for (std::size_t r = 0; r < 7; ++r) {
    double row[kSmallMaxCols];
    ws.gather_row(r, row);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(sys.col(c)[r], a(r, c));
      EXPECT_EQ(row[c], a(r, c));
    }
    EXPECT_EQ(sys.b[r], b[r]);
    EXPECT_EQ(ws.rhs(r), b[r]);
  }
}

TEST(LaneKernels, ResidualPassesMatchScalarRowsBitExact) {
  std::mt19937_64 rng(21);
  for (std::size_t p = 1; p <= 4; ++p) {
    for (const std::size_t n : {1u, 2u, 3u, 255u, 256u, 257u, 1001u}) {
      const Matrix a = random_matrix(rng, n, p, 3.0);
      const auto b = random_vector(rng, n, -2.0, 2.0);
      const auto xv = random_vector(rng, p, -1.5, 1.5);
      SolverWorkspace ws;
      ws.load(a, b);
      std::vector<double> r(n), sq(n), upd = random_vector(rng, n);
      const std::vector<double> before = upd;
      residuals(ws.system(), xv.data(), r.data());
      squared_residuals(ws.system(), xv.data(), sq.data());
      const double move = update_residuals(ws.system(), xv.data(), upd.data());
      double ref_move = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double ref = reference_residual(a, b, xv.data(), i);
        EXPECT_EQ(r[i], ref) << "p=" << p << " n=" << n << " row " << i;
        EXPECT_EQ(sq[i], ref * ref);
        EXPECT_EQ(upd[i], ref);
        ref_move = std::max(ref_move, std::abs(ref - before[i]));
      }
      EXPECT_EQ(move, ref_move) << "p=" << p << " n=" << n;
    }
  }
}

TEST(LaneKernels, PrescreenCountMatchesFusedReference) {
  std::mt19937_64 rng(22);
  for (std::size_t p = 1; p <= 4; ++p) {
    // Sizes below, at and off multiples of the 256-row early-exit block.
    for (const std::size_t n : {5u, 255u, 256u, 257u, 700u, 1024u, 1031u}) {
      const Matrix a = random_matrix(rng, n, p, 2.0);
      const auto b = random_vector(rng, n, -3.0, 3.0);
      const auto xv = random_vector(rng, p);
      SolverWorkspace ws;
      ws.load(a, b);
      const ColumnSystem sys = ws.system();
      std::vector<double> sq(n);
      squared_residuals(sys, xv.data(), sq.data());
      std::vector<double> sorted = sq;
      std::sort(sorted.begin(), sorted.end());

      const auto check = [&](double bound, std::size_t need) {
        const std::size_t got = count_squared_below(sys, xv.data(), bound,
                                                    need);
        EXPECT_EQ(got, reference_prescreen(a, b, xv.data(), bound, need))
            << "p=" << p << " n=" << n << " need=" << need;
        return got;
      };
      // A bound at the k-th smallest value has exactly k values below it
      // (the values are distinct): the count passes at need == k and
      // fails at need == k + 1, where it comes back at need - 1 or lower.
      for (const std::size_t k : {std::size_t{0}, n / 2, n - 1}) {
        const double bound = sorted[k];
        EXPECT_EQ(check(bound, 0), k);
        EXPECT_EQ(check(bound, k), k);
        EXPECT_LT(check(bound, k + 1), k + 1);
      }
      // The early-exit boundary after the first block: with b0 rows of
      // the first block below, the pass stops there exactly when
      // b0 + (n - 256) < need.
      if (n > 256) {
        const double bound = sorted[n / 2];
        std::size_t b0 = 0;
        for (std::size_t i = 0; i < 256; ++i) b0 += sq[i] < bound ? 1 : 0;
        const std::size_t edge = b0 + (n - 256);
        EXPECT_EQ(check(bound, edge + 1), b0);  // stops after block one
        check(bound, edge);                     // reads on
      }
      // Every bar from nothing to everything.
      for (std::size_t need = 0; need <= n + 1; need += 1 + n / 17) {
        check(sorted[n / 3], need);
        check(std::numeric_limits<double>::infinity(), need);
      }
    }
  }
}

TEST(LaneKernels, UnitWeightGramMatchesGramBitExact) {
  std::mt19937_64 rng(23);
  for (std::size_t p = 1; p <= 4; ++p) {
    for (const std::size_t n : {1u, 2u, 9u, 300u}) {
      Matrix a = random_matrix(rng, n, p, 3.0);
      auto b = random_vector(rng, n);
      if (n > 2) {
        // Matrix::gram and transpose_multiply skip zero terms; the lanes
        // add them, and +/-0.0 products must not move an accumulator.
        a(1, 0) = 0.0;
        a(2, p - 1) = -0.0;
        b[1] = -0.0;
        b[2] = 0.0;
      }
      if (n > 9) {
        for (std::size_t r = 3; r < n; r += 7) a(r, r % p) = -0.0;
      }
      SolverWorkspace ws;
      ws.load(a, b);
      SmallGram g;
      g.reset(p);
      double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
      const double mass = accumulate_weighted(ws.system(), nullptr, g, rhs);
      g.mirror();
      EXPECT_EQ(mass, static_cast<double>(n));
      const Matrix ref = a.gram();
      const auto ref_rhs = a.transpose_multiply(b);
      for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) EXPECT_EQ(g.g[i][j], ref(i, j));
        EXPECT_EQ(rhs[i], ref_rhs[i]);
      }
    }
  }
}

}  // namespace
}  // namespace lion::linalg
