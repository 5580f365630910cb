#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hpp"
#include "util/log.hpp"

namespace soslock::linalg {
namespace {

/// Panel width of the blocked factorization. Each round factors a kB x kB
/// diagonal block, solves the panel below it, and applies one syrk-style
/// rank-kB update to the trailing matrix — the update runs on contiguous
/// row segments, so the working set per round stays cache-resident instead
/// of streaming the whole matrix per column as the unblocked loop does.
constexpr std::size_t kPanel = 48;

/// Copy of `a` plus `shift` on the diagonal, factored in place; returns
/// false when a non-positive pivot appears. The strictly-upper part is
/// zeroed on success.
bool try_factor(const Matrix& a, double shift, Matrix& l) {
  const std::size_t n = a.rows();
  l = a;
  if (shift != 0.0) {
    for (std::size_t i = 0; i < n; ++i) l(i, i) += shift;
  }
  if (!cholesky_in_place(l.data(), n, l.cols())) return false;
  for (std::size_t r = 0; r < n; ++r) {
    double* lr = l.row_ptr(r);
    for (std::size_t c = r + 1; c < n; ++c) lr[c] = 0.0;
  }
  return true;
}

double diag_scale(const Matrix& a) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) m = std::max(m, std::fabs(a(i, i)));
  return m > 0.0 ? m : 1.0;
}

}  // namespace

bool cholesky_in_place(double* a, std::size_t n, std::size_t ld) {
  const Kernels& kern = active_kernels();
  for (std::size_t k0 = 0; k0 < n; k0 += kPanel) {
    const std::size_t kb = std::min(kPanel, n - k0);
    const std::size_t t0 = k0 + kb;  // first trailing row
    // 1+2. Factor the kb x kb diagonal block and solve the panel below it
    //    (L21 = A21 * L11^{-T}) in one kernel call — columns < k0 were
    //    already folded in by the trailing updates of previous rounds, so
    //    the whole column panel is self-contained from column k0 on.
    if (!kern.chol_factor_panel(kb, n - t0, a + k0 * ld + k0, ld)) return false;
    // 3. Trailing syrk update A22 -= L21 * L21^T, lower triangle only.
    //    Vector tables may scribble on the dead strictly-upper cells of the
    //    trailing block.
    kern.chol_trailing_update(n - t0, kb, a + t0 * ld + k0, ld);
  }
  return true;
}

std::optional<Cholesky> Cholesky::factor(const Matrix& a) {
  assert(a.rows() == a.cols());
  Cholesky c;
  if (!try_factor(a, 0.0, c.l_)) return std::nullopt;
  return c;
}

Cholesky Cholesky::factor_shifted(const Matrix& a, double initial_rel_shift) {
  Cholesky c;
  c.refactor_shifted(a, initial_rel_shift);
  return c;
}

void Cholesky::refactor_shifted(const Matrix& a, double initial_rel_shift) {
  assert(a.rows() == a.cols());
  const double scale = diag_scale(a);
  double rel = initial_rel_shift;
  if (try_factor(a, rel * scale, l_)) {
    shift_ = rel * scale;
    return;
  }
  rel = rel > 0.0 ? rel * 10.0 : 1e-14;
  while (rel < 1e6) {
    if (try_factor(a, rel * scale, l_)) {
      shift_ = rel * scale;
      util::log_trace("Cholesky: applied diagonal shift ", shift_);
      return;
    }
    rel *= 10.0;
  }
  // Degenerate input (e.g. all-NaN): fall back to identity to avoid UB; the
  // caller's residual checks will expose the failure.
  util::log_warn("Cholesky: factorization failed even with large shift");
  l_ = Matrix::identity(a.rows());
  shift_ = rel * scale;
}

Vector Cholesky::solve_lower(const Vector& b) const {
  const std::size_t n = l_.rows();
  assert(b.size() == n);
  Vector y = b;
  active_kernels().trsv_lower(n, l_.data(), l_.cols(), y.data());
  return y;
}

Vector Cholesky::solve_lower_transposed(const Vector& y) const {
  const std::size_t n = l_.rows();
  assert(y.size() == n);
  Vector x = y;
  active_kernels().trsv_lower_t(n, l_.data(), l_.cols(), x.data());
  return x;
}

Vector Cholesky::solve(const Vector& b) const { return solve_lower_transposed(solve_lower(b)); }

Matrix Cholesky::solve(Matrix b) const {
  assert(b.rows() == l_.rows());
  const Kernels& kern = active_kernels();
  kern.trsm_lower(b.rows(), b.cols(), l_.data(), l_.cols(), b.data(), b.cols());
  kern.trsm_lower_t(b.rows(), b.cols(), l_.data(), l_.cols(), b.data(), b.cols());
  return b;
}

Matrix Cholesky::solve_lower(Matrix b) const {
  assert(b.rows() == l_.rows());
  active_kernels().trsm_lower(b.rows(), b.cols(), l_.data(), l_.cols(), b.data(),
                              b.cols());
  return b;
}

void Cholesky::inverse(Matrix& out) const {
  // A^{-1} = L^{-T} L^{-1}: the multi-RHS solve on the identity. Clean up
  // roundoff asymmetry so downstream symmetric kernels see an exactly
  // symmetric inverse.
  const std::size_t n = l_.rows();
  if (out.rows() != n || out.cols() != n) {
    out = Matrix(n, n);
  } else {
    out.fill(0.0);
  }
  for (std::size_t d = 0; d < n; ++d) out(d, d) = 1.0;
  const Kernels& kern = active_kernels();
  kern.trsm_lower(n, n, l_.data(), l_.cols(), out.data(), n);
  kern.trsm_lower_t(n, n, l_.data(), l_.cols(), out.data(), n);
  out.symmetrize();
}

double Cholesky::log_det() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < l_.rows(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

bool is_positive_definite(const Matrix& a, double tol) {
  Matrix l;
  const double shift = tol * diag_scale(a);
  return try_factor(a, shift, l);
}

}  // namespace soslock::linalg
