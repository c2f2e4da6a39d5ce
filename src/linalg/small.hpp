// Zero-allocation small-matrix kernels for the RANSAC/IRLS hot path.
//
// Every LION system is tall-skinny: N radical-line equations over at most
// four unknowns (frame coordinates plus the reference distance d_r). The
// general Matrix/Cholesky/QR classes solve it correctly but heap-allocate
// a gram matrix, a factor, and several result vectors per solve — and the
// consensus sampler performs hundreds of such solves per calibration. The
// kernels here are the fixed-capacity, stack-allocated, *non-throwing*
// counterparts, built around one contract:
//
//   Bit-exactness. Each kernel performs the same floating-point
//   operations in the same order as the general-path code it replaces
//   (Matrix::gram / weighted_gram / transpose_multiply, Cholesky::factor
//   / solve, HouseholderQR), so a solver that switches between the two
//   paths produces byte-identical calibration reports. The engine
//   determinism and golden-CSV suites referee this contract; the
//   randomized kernel tests in tests/linalg/test_small.cpp assert exact
//   (==) agreement, not just closeness.
//
// The SolverWorkspace keeps the loaded system in one column-major layout
// (§10.7 of DESIGN.md): the row-parallel kernels below run one SIMD lane
// per row over contiguous columns, and the few row readers (minimal-subset
// grams, masked grams, the QR fallback) gather their row. The unweighted
// grams form each product a_i * a_j on the fly in Matrix::gram's order;
// the weighted grams keep the legacy (w * a_i) * a_j association —
// forming a_i * a_j first would round differently and break bit-exactness.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/lstsq.hpp"
#include "linalg/matrix.hpp"

namespace lion::linalg {

/// Widest system the small kernels accept (LION solves p in {2, 3, 4}).
inline constexpr std::size_t kSmallMaxCols = 4;

/// Rows of a RANSAC minimal subset at the widest system (p + 1).
inline constexpr std::size_t kSmallMaxMinimalRows = kSmallMaxCols + 1;

/// Packed length of the upper triangle of a kSmallMaxCols-wide gram.
inline constexpr std::size_t kSmallMaxPacked =
    kSmallMaxCols * (kSmallMaxCols + 1) / 2;

/// Fixed-capacity symmetric p x p accumulator (a gram matrix in the
/// making). accumulate fills the upper triangle in the same (i, j >= i)
/// order as Matrix::gram; mirror() copies it down, after which the full
/// array is valid for the Cholesky kernel (which reads the lower half).
struct SmallGram {
  std::size_t p = 0;
  double g[kSmallMaxCols][kSmallMaxCols];

  void reset(std::size_t cols) {
    p = cols;
    for (std::size_t i = 0; i < kSmallMaxCols; ++i) {
      for (std::size_t j = 0; j < kSmallMaxCols; ++j) g[i][j] = 0.0;
    }
  }
  void mirror() {
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < i; ++j) g[i][j] = g[j][i];
    }
  }
};

/// Stack-allocated Cholesky factor L of a SmallGram.
struct SmallCholesky {
  std::size_t p = 0;
  double l[kSmallMaxCols][kSmallMaxCols];
};

/// Factor a mirrored SmallGram; false when not SPD within tolerance
/// (same accept/reject condition as Cholesky::factor returning nullopt).
bool small_cholesky_factor(const SmallGram& a, SmallCholesky& out);

/// Solve L L^T x = b from a successful factorization.
void small_cholesky_solve(const SmallCholesky& chol, const double* b,
                          double* x);

/// Non-throwing Householder-QR least squares for an m x p system with
/// m <= kSmallMaxMinimalRows (the RANSAC minimal subsets). `a` and `b`
/// are scratch and are destroyed. Mirrors HouseholderQR's reflector
/// construction and solve bit-for-bit; returns kRankDeficient exactly
/// when the general path would throw.
SolveStatus small_qr_solve(double a[][kSmallMaxCols], double* b,
                           std::size_t m, std::size_t p, double* x);

/// Column-major view of a tall system with p <= kSmallMaxCols columns:
/// column c of the design matrix holds rows [0, n) at a + c * n, and the
/// rhs holds n entries at b.
struct ColumnSystem {
  const double* a = nullptr;
  const double* b = nullptr;
  std::size_t n = 0;
  std::size_t p = 0;

  const double* col(std::size_t c) const { return a + c * n; }
};

/// Reusable scratch for the consensus/IRLS solver stack. One workspace
/// per thread (default_workspace() below, or a caller-owned one); load()
/// caches a system column by column, and the public buffers back every
/// intermediate the solvers need. All storage grows geometrically and
/// never shrinks, so a warmed workspace makes the steady-state solve loop
/// allocation-free (asserted by tests/perf/test_alloc.cpp).
///
/// A workspace never affects results — solves through any workspace are
/// bit-identical to the Matrix-based reference solvers in lstsq.hpp.
class SolverWorkspace {
 public:
  SolverWorkspace() = default;
  SolverWorkspace(const SolverWorkspace&) = delete;
  SolverWorkspace& operator=(const SolverWorkspace&) = delete;

  /// Cache system (a, b) column-major. Requires a.cols() <=
  /// kSmallMaxCols and b.size() == a.rows() (throws
  /// std::invalid_argument otherwise).
  void load(const Matrix& a, const std::vector<double>& b);

  std::size_t rows() const { return n_; }
  std::size_t cols() const { return p_; }
  bool loaded() const { return p_ != 0; }

  /// The cached system as a column-major view.
  ColumnSystem system() const { return {cols_.data(), b_.data(), n_, p_}; }
  /// Copy row r of the cached design matrix (cols() entries) to `out`.
  void gather_row(std::size_t r, double* out) const {
    for (std::size_t c = 0; c < p_; ++c) out[c] = cols_[c * n_ + r];
  }
  double rhs(std::size_t r) const { return b_[r]; }

  /// A^T A of the loaded system, bit-exact with Matrix::gram() on the
  /// loaded matrix (used by the GDOP diagnostics after a workspace
  /// solve). Requires loaded().
  Matrix gram_matrix() const;

  // Scratch buffers, resized (never shrunk) by the solver routines.
  std::vector<double> residuals;       ///< residual scratch (RANSAC mask)
  std::vector<double> median_scratch;  ///< median selection buffer
  std::vector<double> abs_dev;         ///< MAD deviations (robust weights)
  std::vector<double> irls_cols;       ///< compacted masked columns (IRLS)
  std::vector<double> irls_rhs;        ///< compacted masked rhs (IRLS)
  std::vector<double> qr_scratch;      ///< column-major copy (qr_r_diagonal)
  std::vector<std::size_t> indices;    ///< Fisher-Yates subset sampler

 private:
  std::size_t n_ = 0;
  std::size_t p_ = 0;
  std::vector<double> cols_;  ///< n x p design matrix, column-major
  std::vector<double> b_;
};

/// This thread's default workspace: the scratch a solve uses when its
/// caller supplies none (a LinearLocalizer without
/// LocalizerConfig::workspace, the three-argument ransac_solve, the batch
/// engine's and the serving layer's pool workers). Each solve reloads it,
/// so a caller reads what one solve left there only before the next
/// default-workspace solve on the same thread.
SolverWorkspace& default_workspace();

// Row-parallel kernels over a ColumnSystem. One SIMD lane is one row and
// performs exactly the scalar operations of that row: the residual is
// r_i = (((0 + a_i0 x_0) + a_i1 x_1) + ...) - b_i, the dot-product order
// of Matrix::multiply. Requires sys.p in [1, kSmallMaxCols].

/// r_i for every row into `out` (sys.n entries).
void residuals(const ColumnSystem& sys, const double* x, double* out);

/// Overwrite res_i with r_i for every row and return the largest move
/// max_i |r_i - res_i| (+0.0 for sys.n == 0).
double update_residuals(const ColumnSystem& sys, const double* x,
                        double* res);

/// r_i * r_i for every row into `out` (sys.n entries).
void squared_residuals(const ColumnSystem& sys, const double* x,
                       double* out);

/// Row block of the count-only LMedS prescreen's early-exit test.
inline constexpr std::size_t kPrescreenBlock = 256;

/// Number of rows with r_i * r_i < bound, stored nowhere. After every
/// block of kPrescreenBlock rows the pass stops once fewer than `need`
/// rows could still be counted (count + rows left < need); the partial
/// count returned then is below `need`. need == 0 never stops early.
std::size_t count_squared_below(const ColumnSystem& sys, const double* x,
                                double bound, std::size_t need);

/// The weighted normal equations of `sys` in the legacy order, one SIMD
/// lane per gram entry: g(i, j >= i) = sum_r (w_r * a_ri) * a_rj and
/// rhs[c] = sum_r a_rc * (w_r * b_r), every sum in row order — bit-exact
/// with Matrix::weighted_gram / weighted_transpose_multiply. Writes the
/// upper triangle of `g` (reset to sys.p by the caller; call mirror()
/// afterwards) and sys.p entries of `rhs`; returns the weight mass
/// sum_r w_r, also in row order. w == nullptr means unit weights: the
/// products are then a_ri * a_rj and a_rc * b_r (multiplying by 1.0 is
/// exact), bit-exact with Matrix::gram / transpose_multiply.
double accumulate_weighted(const ColumnSystem& sys, const double* w,
                           SmallGram& g, double* rhs);

/// Incrementally maintained normal equations of a tall-skinny system with
/// p <= kSmallMaxCols unknowns: G = A^T A (packed upper triangle, the
/// accumulation order of Matrix::gram), c = A^T k, plus sum(k^2) so the
/// residual RMS of a candidate x is available in O(p^2) without touching
/// the rows:  n * rms^2 = x^T G x - 2 x^T c + sum(k^2).
///
/// append() is a rank-1 update; downdate() removes a previously appended
/// row by subtracting the identical products, so an append immediately
/// followed by its downdate round-trips the accumulator to within one ulp
/// per entry (the metamorphic suite pins 1e-12 relative). Long
/// append/downdate chains lose precision when the surviving mass is a
/// tiny difference of large totals — `cancellation()` measures exactly
/// that ratio so callers can re-accumulate from the surviving rows
/// (sliding-window rebuild) before the gram turns to noise.
class IncrementalNormals {
 public:
  void reset(std::size_t cols);

  std::size_t cols() const { return p_; }
  std::size_t rows() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Rank-1 update with row `a` (cols() entries) and rhs `k`.
  void append(const double* a, double k);
  /// Remove a previously appended row. Requires rows() > 0.
  void downdate(const double* a, double k);

  /// Solve G x = c by the small Cholesky kernel; false when the
  /// accumulated gram is not SPD (degenerate or downdated-to-noise).
  bool solve(double* x) const;

  /// Residual RMS of `x` over the accumulated rows, from the maintained
  /// quantities only. Cancellation can push the quadratic form slightly
  /// negative; it is clamped at zero.
  double rms(const double* x) const;

  /// Ratio of total appended diagonal mass to the surviving diagonal
  /// mass (>= 1). Large values mean the gram is a small difference of
  /// large sums — time to re-accumulate from the surviving rows.
  double cancellation() const;

  /// Packed upper triangle of G ((i, j >= i) row-major; cols()*(cols()+1)/2
  /// entries) — exposed for the metamorphic kernel suite.
  const double* gram_packed() const { return g_; }
  const double* rhs() const { return c_; }
  double rhs_squared_sum() const { return kk_; }

 private:
  std::size_t p_ = 0;
  std::size_t packed_ = 0;
  std::size_t n_ = 0;
  double g_[kSmallMaxPacked] = {};
  double c_[kSmallMaxCols] = {};
  double kk_ = 0.0;          ///< sum of k^2 over live rows
  double added_diag_ = 0.0;  ///< diagonal mass ever appended (monotone)
};

/// g += the outer products a_r a_r^T of `rows[0..m)` (in that order) and
/// rhs[c] += a_r(c) * b_r — the unweighted normal equations of the row
/// subset, bit-exact with Matrix::gram / transpose_multiply on the
/// gathered submatrix. `g` must be reset to ws.cols() and `rhs`
/// zeroed by the caller; call g.mirror() afterwards.
void accumulate_rows(const SolverWorkspace& ws, const std::size_t* rows,
                     std::size_t m, SmallGram& g, double* rhs);

/// Same over the rows selected by `mask` (non-null, one entry per row),
/// in increasing row order. The full unweighted gram is
/// accumulate_weighted(ws.system(), nullptr, ...).
void accumulate_masked(const SolverWorkspace& ws, const char* mask,
                       SmallGram& g, double* rhs);

/// Absolute values of the R diagonal of the Householder QR of `a`
/// (rows >= cols, cols <= kSmallMaxCols), bit-identical with
/// HouseholderQR(a).r_diagonal(): the same reflector operations over a
/// column-major copy of `a` held in `scratch`, without materializing a
/// Matrix and without applying the last reflector. Writes a.cols()
/// entries to `diag`. Throws std::invalid_argument on a shape outside
/// that range.
void qr_r_diagonal(const Matrix& a, std::vector<double>& scratch,
                   double* diag);

/// HouseholderQR(a).condition_estimate() (max |R_ii| / min |R_ii|,
/// infinity when some R_ii is zero), through qr_r_diagonal when
/// a.cols() <= kSmallMaxCols. Requires a.rows() >= a.cols().
double qr_condition_estimate(const Matrix& a, std::vector<double>& scratch);

}  // namespace lion::linalg
