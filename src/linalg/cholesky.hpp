#pragma once
// Cholesky factorization of symmetric positive definite matrices, plus a
// shifted variant used by the IPM when the Schur complement is nearly
// singular at the end of the central path.
#include <optional>

#include "linalg/matrix.hpp"

namespace soslock::linalg {

/// Lower-triangular Cholesky factor; A = L L^T.
class Cholesky {
 public:
  /// Factor `a` (must be symmetric). Returns nullopt if not numerically PD.
  static std::optional<Cholesky> factor(const Matrix& a);

  /// Factor with adaptive diagonal shift: tries shifts 0, eps, 10*eps, ...
  /// relative to the diagonal magnitude until the factorization succeeds.
  /// Records the shift actually applied.
  static Cholesky factor_shifted(const Matrix& a, double initial_rel_shift = 0.0);
  /// factor_shifted into this object's storage: refactoring a matrix of the
  /// same size allocates nothing (the IPM refactors its Schur complement
  /// every iteration).
  void refactor_shifted(const Matrix& a, double initial_rel_shift = 0.0);

  /// Solve A x = b.
  Vector solve(const Vector& b) const;
  /// Solve A X = B for all columns at once (Kernels::trsm_lower and
  /// trsm_lower_t on whole rows of X). `b` is taken by value and solved in
  /// place, so an rvalue argument costs no allocation at all.
  Matrix solve(Matrix b) const;
  /// Solve L y = b (forward substitution).
  Vector solve_lower(const Vector& b) const;
  /// Solve L Y = B for all columns at once, as solve(Matrix).
  Matrix solve_lower(Matrix b) const;
  /// Solve L^T x = y (back substitution).
  Vector solve_lower_transposed(const Vector& y) const;

  /// Explicit (A + shift I)^{-1} = L^{-T} L^{-1}, symmetrized, into `out`:
  /// one multi-RHS solve on the identity. Turns repeated A^{-1} S
  /// applications into GEMMs (the IPM computes it once per block per
  /// iteration). Allocation-free when `out` already has the factor's size.
  void inverse(Matrix& out) const;

  const Matrix& lower() const { return l_; }
  double shift() const { return shift_; }
  /// log(det A) = 2 * sum log L_ii.
  double log_det() const;

 private:
  Matrix l_;
  double shift_ = 0.0;
};

/// Blocked right-looking Cholesky of the n x n row-major `a` (leading
/// dimension `ld`) in place: L overwrites the lower triangle, the strictly
/// upper triangle is left unspecified. Returns false on a non-positive or
/// non-finite pivot. The one pivot rule behind Cholesky and the IPM's
/// step-length test.
bool cholesky_in_place(double* a, std::size_t n, std::size_t ld);

/// Convenience: is the symmetric matrix numerically positive definite
/// (allowing diagonal shift `tol * max|diag|`)?
bool is_positive_definite(const Matrix& a, double tol = 0.0);

}  // namespace soslock::linalg
