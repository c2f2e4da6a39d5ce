#include "linalg/small.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/decompositions.hpp"
#include "linalg/lanes.hpp"

namespace lion::linalg {

bool small_cholesky_factor(const SmallGram& a, SmallCholesky& out) {
  // Mirrors Cholesky::factor operation for operation.
  const std::size_t n = a.p;
  out.p = n;
  for (std::size_t i = 0; i < kSmallMaxCols; ++i) {
    for (std::size_t j = 0; j < kSmallMaxCols; ++j) out.l[i][j] = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    double d = a.g[j][j];
    for (std::size_t k = 0; k < j; ++k) d -= out.l[j][k] * out.l[j][k];
    if (d <= 0.0 || !std::isfinite(d)) return false;
    out.l[j][j] = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a.g[i][j];
      for (std::size_t k = 0; k < j; ++k) s -= out.l[i][k] * out.l[j][k];
      out.l[i][j] = s / out.l[j][j];
    }
  }
  return true;
}

void small_cholesky_solve(const SmallCholesky& chol, const double* b,
                          double* x) {
  // Mirrors Cholesky::solve: forward L y = b, then back L^T x = y.
  const std::size_t n = chol.p;
  double y[kSmallMaxCols];
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= chol.l[i][k] * y[k];
    y[i] = s / chol.l[i][i];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= chol.l[k][ii] * x[k];
    x[ii] = s / chol.l[ii][ii];
  }
}

SolveStatus small_qr_solve(double a[][kSmallMaxCols], double* b,
                           std::size_t m, std::size_t p, double* x) {
  if (m < p) return SolveStatus::kUnderdetermined;
  // Mirrors the HouseholderQR constructor on the m x p block of `a`.
  double beta[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t k = 0; k < p; ++k) {
    double norm2 = 0.0;
    for (std::size_t i = k; i < m; ++i) norm2 += a[i][k] * a[i][k];
    const double norm = std::sqrt(norm2);
    if (norm == 0.0) continue;
    const double alpha = a[k][k] >= 0 ? -norm : norm;
    const double v0 = a[k][k] - alpha;
    const double vnorm2 = v0 * v0 + (norm2 - a[k][k] * a[k][k]);
    if (vnorm2 == 0.0) continue;
    beta[k] = 2.0 * v0 * v0 / vnorm2;
    for (std::size_t i = k + 1; i < m; ++i) a[i][k] /= v0;
    a[k][k] = alpha;
    for (std::size_t j = k + 1; j < p; ++j) {
      double s = a[k][j];
      for (std::size_t i = k + 1; i < m; ++i) s += a[i][k] * a[i][j];
      s *= beta[k];
      a[k][j] -= s;
      for (std::size_t i = k + 1; i < m; ++i) a[i][j] -= s * a[i][k];
    }
  }
  // HouseholderQR::solve throws exactly when some |R_ii| < kSingularTol;
  // checking the whole diagonal up front turns that into a status without
  // changing which systems succeed (the partial back-substitution the
  // throwing path performs first is discarded either way).
  for (std::size_t i = 0; i < p; ++i) {
    if (std::abs(a[i][i]) < kSingularTol) return SolveStatus::kRankDeficient;
  }
  // Mirrors HouseholderQR::solve: apply Q^T to b, then back-substitute.
  for (std::size_t k = 0; k < p; ++k) {
    if (beta[k] == 0.0) continue;
    double s = b[k];
    for (std::size_t i = k + 1; i < m; ++i) s += a[i][k] * b[i];
    s *= beta[k];
    b[k] -= s;
    for (std::size_t i = k + 1; i < m; ++i) b[i] -= s * a[i][k];
  }
  for (std::size_t ii = p; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t k = ii + 1; k < p; ++k) s -= a[ii][k] * x[k];
    x[ii] = s / a[ii][ii];
  }
  return SolveStatus::kOk;
}

void SolverWorkspace::load(const Matrix& a, const std::vector<double>& b) {
  const std::size_t n = a.rows();
  const std::size_t p = a.cols();
  if (p == 0 || p > kSmallMaxCols) {
    throw std::invalid_argument(
        "SolverWorkspace::load: cols outside [1, kSmallMaxCols]");
  }
  if (b.size() != n) {
    throw std::invalid_argument("SolverWorkspace::load: rhs size mismatch");
  }
  n_ = n;
  p_ = p;
  cols_.resize(n * p);
  b_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const double* row = a.row_data(r);
    for (std::size_t c = 0; c < p; ++c) cols_[c * n + r] = row[c];
  }
  std::copy(b.begin(), b.end(), b_.begin());
}

SolverWorkspace& default_workspace() {
  thread_local SolverWorkspace ws;
  return ws;
}

Matrix SolverWorkspace::gram_matrix() const {
  if (!loaded()) {
    throw std::logic_error("SolverWorkspace::gram_matrix: nothing loaded");
  }
  SmallGram g;
  g.reset(p_);
  double rhs[kSmallMaxCols] = {0.0, 0.0, 0.0, 0.0};
  accumulate_weighted(system(), nullptr, g, rhs);
  g.mirror();
  Matrix out(p_, p_);
  for (std::size_t i = 0; i < p_; ++i) {
    for (std::size_t j = 0; j < p_; ++j) out(i, j) = g.g[i][j];
  }
  return out;
}

// The two accumulators below sum per-row contributions exactly as
// Matrix::gram / transpose_multiply do over the corresponding row-subset
// matrix: the products a_i * a_j and a_c * b in (i, j >= i) order. They
// add every product where the Matrix code skips zero terms — for finite
// inputs adding a (+/-)0.0 product never changes an accumulator that
// started at +0.0 (and can never round to -0.0), so the sums are
// bit-identical. The sums are held in locals (seeded from, and written
// back to, g and rhs) so the add chains stay in registers. Each row is
// gathered from the columns first; these grams touch a handful of rows
// (minimal subsets) or run once per solve.

namespace {

template <std::size_t P>
struct NormalSums {
  double g[P][P] = {};  // upper triangle used
  double rhs[P] = {};

  NormalSums(const SmallGram& from, const double* from_rhs) {
    for (std::size_t i = 0; i < P; ++i) {
      for (std::size_t j = i; j < P; ++j) g[i][j] = from.g[i][j];
      rhs[i] = from_rhs[i];
    }
  }
  void add(const SolverWorkspace& ws, std::size_t r) {
    double row[P];
    ws.gather_row(r, row);
    const double b = ws.rhs(r);
    for (std::size_t i = 0; i < P; ++i) {
      const double ri = row[i];
      for (std::size_t j = i; j < P; ++j) g[i][j] += ri * row[j];
      rhs[i] += ri * b;
    }
  }
  void store(SmallGram& to, double* to_rhs) const {
    for (std::size_t i = 0; i < P; ++i) {
      for (std::size_t j = i; j < P; ++j) to.g[i][j] = g[i][j];
      to_rhs[i] = rhs[i];
    }
  }
};

template <std::size_t P>
void accumulate_rows_impl(const SolverWorkspace& ws, const std::size_t* rows,
                          std::size_t m, SmallGram& g, double* rhs) {
  NormalSums<P> sums(g, rhs);
  for (std::size_t r = 0; r < m; ++r) sums.add(ws, rows[r]);
  sums.store(g, rhs);
}

template <std::size_t P>
void accumulate_masked_impl(const SolverWorkspace& ws, const char* mask,
                            SmallGram& g, double* rhs) {
  NormalSums<P> sums(g, rhs);
  for (std::size_t r = 0; r < ws.rows(); ++r) {
    if (!mask[r]) continue;
    sums.add(ws, r);
  }
  sums.store(g, rhs);
}

// Calls fn.template operator()<P>() for the system width p in [1, 4].
template <typename Fn>
decltype(auto) with_cols(std::size_t p, Fn&& fn) {
  switch (p) {
    case 1:
      return fn.template operator()<1>();
    case 2:
      return fn.template operator()<2>();
    case 3:
      return fn.template operator()<3>();
    default:
      return fn.template operator()<4>();
  }
}

}  // namespace

void accumulate_rows(const SolverWorkspace& ws, const std::size_t* rows,
                     std::size_t m, SmallGram& g, double* rhs) {
  with_cols(ws.cols(), [&]<std::size_t P>() {
    accumulate_rows_impl<P>(ws, rows, m, g, rhs);
  });
}

void accumulate_masked(const SolverWorkspace& ws, const char* mask,
                       SmallGram& g, double* rhs) {
  with_cols(ws.cols(), [&]<std::size_t P>() {
    accumulate_masked_impl<P>(ws, mask, g, rhs);
  });
}

// ---------------------------------------------------------------------------
// Row-parallel kernels (one lane per row) and the weighted gram (one lane
// per gram entry). Plain loops over contiguous columns vectorize at the
// default ISA; where GCC does not vectorize a loop (counts, the lane max,
// the weighted gram) it is spelled out with the vector-extension types of
// lanes.hpp. Lane-wise IEEE operations round exactly like their scalar
// counterparts, so every value is the one the scalar loop forms.
// ---------------------------------------------------------------------------

namespace {

// Column pointers and solution of a P-wide system, hoisted out of the row
// loops so the compiler sees no aliasing with the output.
template <std::size_t P>
struct Dot {
  const double* col[P];
  double x[P];

  Dot(const ColumnSystem& sys, const double* xs, std::size_t first = 0) {
    for (std::size_t c = 0; c < P; ++c) {
      col[c] = sys.col(c) + first;
      x[c] = xs[c];
    }
  }
  // a_i . x in Matrix::multiply's order, seeded with +0.0.
  double at(std::size_t i) const {
    double s = 0.0;
    for (std::size_t c = 0; c < P; ++c) s += col[c][i] * x[c];
    return s;
  }
  // Rows i and i + 1, one per lane.
  Lanes2 at2(std::size_t i) const {
    Lanes2 s{};
    for (std::size_t c = 0; c < P; ++c) {
      s += load2(col[c] + i) * splat2(x[c]);
    }
    return s;
  }
};

template <std::size_t P>
void residuals_impl(const ColumnSystem& sys, const double* x,
                    double* __restrict out) {
  const Dot<P> dot(sys, x);
  const double* b = sys.b;
  for (std::size_t i = 0; i < sys.n; ++i) out[i] = dot.at(i) - b[i];
}

template <std::size_t P>
double update_residuals_impl(const ColumnSystem& sys, const double* x,
                             double* __restrict res) {
  const Dot<P> dot(sys, x);
  const double* b = sys.b;
  const std::size_t n = sys.n;
  // A lane keeps its running max unless d is larger (a NaN d is skipped,
  // as std::max(move, d) skips it), and a max of non-negative values is
  // the same in any order.
  Lanes2 move{};
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const Lanes2 r = dot.at2(i) - load2(b + i);
    const Lanes2 d = abs2(r - load2(res + i));
    move = d > move ? d : move;
    store2(res + i, r);
  }
  double out = std::max(move[0], move[1]);
  if (i < n) {
    const double r = dot.at(i) - b[i];
    out = std::max(out, std::abs(r - res[i]));
    res[i] = r;
  }
  return out;
}

template <std::size_t P>
void squared_residuals_impl(const ColumnSystem& sys, const double* x,
                            double* __restrict out) {
  const Dot<P> dot(sys, x);
  const double* b = sys.b;
  for (std::size_t i = 0; i < sys.n; ++i) {
    const double r = dot.at(i) - b[i];
    out[i] = r * r;
  }
}

template <std::size_t P>
std::size_t count_squared_below_impl(const ColumnSystem& sys,
                                     const double* x, double bound,
                                     std::size_t need) {
  const std::size_t n = sys.n;
  std::size_t below = 0;
  for (std::size_t start = 0; start < n; start += kPrescreenBlock) {
    const std::size_t len = std::min(n - start, kPrescreenBlock);
    const Dot<P> dot(sys, x, start);
    const double* b = sys.b + start;
    // Two rows per step; a lane's compare is all-ones (-1) when true.
    Counts2 block{};
    std::size_t i = 0;
    for (; i + 2 <= len; i += 2) {
      const Lanes2 r = dot.at2(i) - load2(b + i);
      block -= r * r < splat2(bound);
    }
    below += static_cast<std::size_t>(block[0] + block[1]);
    if (i < len) {
      const double r = dot.at(i) - b[i];
      below += r * r < bound;
    }
    if (below + (n - start - len) < need) break;
  }
  return below;
}

// Lane layouts of the weighted gram, per width. Each accumulator lane is
// one gram or rhs entry; per row it adds (w * a_i) * a_j or a_c * (w * b),
// and the weight mass adds w (as w * 1.0, exact, where it shares a
// vector). Comments name the entries of the two lanes. The legacy
// `w == 0` / `w * a_i == 0` skips of Matrix::weighted_gram only ever skip
// (+/-)0.0 contributions, which leave an accumulator that starts at +0.0
// unchanged for finite rows, so the straight-line form is bit-identical.
template <std::size_t P, bool kUnit>
double accumulate_weighted_impl(const ColumnSystem& sys, const double* w,
                                SmallGram& g, double* rhs) {
  const double* b = sys.b;
  const std::size_t n = sys.n;
  const double* c0 = sys.col(0);
  if constexpr (P == 1) {
    double g00 = 0.0, r0 = 0.0, mass = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const double wr = kUnit ? 1.0 : w[r];
      const double a0 = c0[r];
      g00 += (wr * a0) * a0;
      r0 += a0 * (wr * b[r]);
      mass += wr;
    }
    g.g[0][0] = g00;
    rhs[0] = r0;
    return mass;
  } else if constexpr (P == 2) {
    const double* c1 = sys.col(1);
    Lanes2 d{}, x{}, rr{};
    for (std::size_t r = 0; r < n; ++r) {
      const double wr = kUnit ? 1.0 : w[r];
      const Lanes2 a01{c0[r], c1[r]};
      const Lanes2 wa01 = splat2(wr) * a01;
      const double wb = wr * b[r];
      d += wa01 * a01;                                 // 00, 11
      x += Lanes2{wa01[0], wr} * Lanes2{a01[1], 1.0};  // 01, mass
      rr += a01 * splat2(wb);                          // r0, r1
    }
    g.g[0][0] = d[0];
    g.g[1][1] = d[1];
    g.g[0][1] = x[0];
    rhs[0] = rr[0];
    rhs[1] = rr[1];
    return x[1];
  } else if constexpr (P == 3) {
    const double* c1 = sys.col(1);
    const double* c2 = sys.col(2);
    Lanes2 d{}, x02{}, x01{}, r01{}, r2m{};
    for (std::size_t r = 0; r < n; ++r) {
      const double wr = kUnit ? 1.0 : w[r];
      const Lanes2 a01{c0[r], c1[r]};
      const double a2 = c2[r];
      const Lanes2 wa01 = splat2(wr) * a01;
      const double wa2 = wr * a2;
      const double wb = wr * b[r];
      d += wa01 * a01;                                   // 00, 11
      x02 += wa01 * splat2(a2);                          // 02, 12
      x01 += Lanes2{wa01[0], wa2} * Lanes2{a01[1], a2};  // 01, 22
      r01 += a01 * splat2(wb);                           // r0, r1
      r2m += Lanes2{a2, wr} * Lanes2{wb, 1.0};           // r2, mass
    }
    g.g[0][0] = d[0];
    g.g[1][1] = d[1];
    g.g[0][2] = x02[0];
    g.g[1][2] = x02[1];
    g.g[0][1] = x01[0];
    g.g[2][2] = x01[1];
    rhs[0] = r01[0];
    rhs[1] = r01[1];
    rhs[2] = r2m[0];
    return r2m[1];
  } else {
    const double* c1 = sys.col(1);
    const double* c2 = sys.col(2);
    const double* c3 = sys.col(3);
    Lanes2 d01{}, d23{}, x02{}, x03{}, x01{}, r01{}, r23{};
    double mass = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const double wr = kUnit ? 1.0 : w[r];
      const Lanes2 a01{c0[r], c1[r]};
      const Lanes2 a23{c2[r], c3[r]};
      const Lanes2 wa01 = splat2(wr) * a01;
      const Lanes2 wa23 = splat2(wr) * a23;
      const Lanes2 wb = splat2(wr * b[r]);
      d01 += wa01 * a01;                                         // 00, 11
      d23 += wa23 * a23;                                         // 22, 33
      x02 += wa01 * a23;                                         // 02, 13
      x03 += wa01 * Lanes2{a23[1], a23[0]};                      // 03, 12
      x01 += Lanes2{wa01[0], wa23[0]} * Lanes2{a01[1], a23[1]};  // 01, 23
      r01 += a01 * wb;                                           // r0, r1
      r23 += a23 * wb;                                           // r2, r3
      mass += wr;
    }
    g.g[0][0] = d01[0];
    g.g[1][1] = d01[1];
    g.g[2][2] = d23[0];
    g.g[3][3] = d23[1];
    g.g[0][2] = x02[0];
    g.g[1][3] = x02[1];
    g.g[0][3] = x03[0];
    g.g[1][2] = x03[1];
    g.g[0][1] = x01[0];
    g.g[2][3] = x01[1];
    rhs[0] = r01[0];
    rhs[1] = r01[1];
    rhs[2] = r23[0];
    rhs[3] = r23[1];
    return mass;
  }
}

}  // namespace

void residuals(const ColumnSystem& sys, const double* x, double* out) {
  with_cols(sys.p, [&]<std::size_t P>() { residuals_impl<P>(sys, x, out); });
}

double update_residuals(const ColumnSystem& sys, const double* x,
                        double* res) {
  return with_cols(sys.p, [&]<std::size_t P>() {
    return update_residuals_impl<P>(sys, x, res);
  });
}

void squared_residuals(const ColumnSystem& sys, const double* x,
                       double* out) {
  with_cols(sys.p,
            [&]<std::size_t P>() { squared_residuals_impl<P>(sys, x, out); });
}

std::size_t count_squared_below(const ColumnSystem& sys, const double* x,
                                double bound, std::size_t need) {
  return with_cols(sys.p, [&]<std::size_t P>() {
    return count_squared_below_impl<P>(sys, x, bound, need);
  });
}

double accumulate_weighted(const ColumnSystem& sys, const double* w,
                           SmallGram& g, double* rhs) {
  return with_cols(sys.p, [&]<std::size_t P>() {
    return w ? accumulate_weighted_impl<P, false>(sys, w, g, rhs)
             : accumulate_weighted_impl<P, true>(sys, w, g, rhs);
  });
}

void qr_r_diagonal(const Matrix& a, std::vector<double>& scratch,
                   double* diag) {
  const std::size_t m = a.rows();
  const std::size_t p = a.cols();
  if (p == 0 || p > kSmallMaxCols || m < p) {
    throw std::invalid_argument("qr_r_diagonal: shape outside the small kernel");
  }
  // Column k occupies q[k*m .. k*m + m): the reflector loops below walk
  // rows within a column, which is contiguous here.
  scratch.resize(m * p);
  double* q = scratch.data();
  for (std::size_t r = 0; r < m; ++r) {
    const double* row = a.row_data(r);
    for (std::size_t c = 0; c < p; ++c) q[c * m + r] = row[c];
  }
  // Mirrors the HouseholderQR constructor; R_kk is the diagonal entry it
  // leaves behind (alpha, or the untouched entry of a skipped column).
  for (std::size_t k = 0; k < p; ++k) {
    double* col = q + k * m;
    double norm2 = 0.0;
    for (std::size_t i = k; i < m; ++i) norm2 += col[i] * col[i];
    const double norm = std::sqrt(norm2);
    const double akk = col[k];
    diag[k] = std::abs(akk);
    if (norm == 0.0) continue;
    const double alpha = akk >= 0 ? -norm : norm;
    const double v0 = akk - alpha;
    const double vnorm2 = v0 * v0 + (norm2 - akk * akk);
    if (vnorm2 == 0.0) continue;
    diag[k] = std::abs(alpha);
    if (k + 1 == p) break;
    const double beta = 2.0 * v0 * v0 / vnorm2;
    for (std::size_t i = k + 1; i < m; ++i) col[i] /= v0;
    for (std::size_t j = k + 1; j < p; ++j) {
      double* cj = q + j * m;
      double s = cj[k];
      for (std::size_t i = k + 1; i < m; ++i) s += col[i] * cj[i];
      s *= beta;
      cj[k] -= s;
      for (std::size_t i = k + 1; i < m; ++i) cj[i] -= s * col[i];
    }
  }
}

double qr_condition_estimate(const Matrix& a, std::vector<double>& scratch) {
  if (a.cols() == 0 || a.cols() > kSmallMaxCols) {
    return HouseholderQR(a).condition_estimate();
  }
  double diag[kSmallMaxCols];
  qr_r_diagonal(a, scratch, diag);
  const auto [mn, mx] = std::minmax_element(diag, diag + a.cols());
  if (*mn == 0.0) return std::numeric_limits<double>::infinity();
  return *mx / *mn;
}

// ---------------------------------------------------------------------------
// IncrementalNormals
// ---------------------------------------------------------------------------

void IncrementalNormals::reset(std::size_t cols) {
  if (cols == 0 || cols > kSmallMaxCols) {
    throw std::invalid_argument(
        "IncrementalNormals: cols must be in [1, kSmallMaxCols]");
  }
  p_ = cols;
  packed_ = cols * (cols + 1) / 2;
  n_ = 0;
  for (std::size_t i = 0; i < kSmallMaxPacked; ++i) g_[i] = 0.0;
  for (std::size_t i = 0; i < kSmallMaxCols; ++i) c_[i] = 0.0;
  kk_ = 0.0;
  added_diag_ = 0.0;
}

void IncrementalNormals::append(const double* a, double k) {
  std::size_t idx = 0;
  for (std::size_t i = 0; i < p_; ++i) {
    for (std::size_t j = i; j < p_; ++j) g_[idx++] += a[i] * a[j];
    c_[i] += a[i] * k;
    added_diag_ += a[i] * a[i];
  }
  kk_ += k * k;
  ++n_;
}

void IncrementalNormals::downdate(const double* a, double k) {
  // Subtract exactly the products append() added; added_diag_ is monotone
  // on purpose (it tracks total traffic, not the surviving mass).
  std::size_t idx = 0;
  for (std::size_t i = 0; i < p_; ++i) {
    for (std::size_t j = i; j < p_; ++j) g_[idx++] -= a[i] * a[j];
    c_[i] -= a[i] * k;
  }
  kk_ -= k * k;
  if (n_ > 0) --n_;
}

bool IncrementalNormals::solve(double* x) const {
  if (n_ < p_) return false;
  SmallGram g;
  g.reset(p_);
  std::size_t idx = 0;
  for (std::size_t i = 0; i < p_; ++i) {
    for (std::size_t j = i; j < p_; ++j) g.g[i][j] = g_[idx++];
  }
  g.mirror();
  SmallCholesky chol;
  if (!small_cholesky_factor(g, chol)) return false;
  small_cholesky_solve(chol, c_, x);
  for (std::size_t i = 0; i < p_; ++i) {
    if (!std::isfinite(x[i])) return false;
  }
  return true;
}

double IncrementalNormals::rms(const double* x) const {
  if (n_ == 0) return 0.0;
  // x^T G x from the packed upper triangle (off-diagonals count twice).
  double xgx = 0.0;
  double xc = 0.0;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < p_; ++i) {
    for (std::size_t j = i; j < p_; ++j) {
      const double term = g_[idx++] * x[i] * x[j];
      xgx += i == j ? term : 2.0 * term;
    }
    xc += x[i] * c_[i];
  }
  const double ss = xgx - 2.0 * xc + kk_;
  return std::sqrt(std::max(0.0, ss / static_cast<double>(n_)));
}

double IncrementalNormals::cancellation() const {
  double live = 0.0;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < p_; ++i) {
    live += std::abs(g_[idx]);
    idx += p_ - i;  // step from diagonal (i,i) to diagonal (i+1,i+1)
  }
  if (added_diag_ <= 0.0) return 1.0;
  constexpr double kTiny = 1e-300;
  return added_diag_ / std::max(live, kTiny);
}

}  // namespace lion::linalg
