#pragma once
// Symmetric eigensolvers. Used for:
//  * the IPM's exact step length to the PSD cone boundary, on the blocks
//    whose Cholesky step test fails (min_eigenvalue_sym),
//  * the ADMM's per-block projection onto the PSD cone (dominant cost of
//    first-order solves on large Gram blocks),
//  * Gram-matrix PSD margins in the independent certificate checker,
//  * extracting SOS decompositions (square roots of Gram matrices).
//
// The production path (eigen_sym / eigen_values_sym / eigen_sym_rows) is
// Householder tridiagonalization followed by implicit-shift QL: one O(n^3)
// tridiagonalization plus an O(n^2)-per-eigenvalue QL sweep, an order of
// magnitude faster than cyclic Jacobi (O(n^3) *per sweep*, many sweeps) at
// the block sizes the ADMM sees. Both stages work on contiguous rows: the
// reduction keeps the full symmetric matrix, and the eigenvectors are
// accumulated as the rows of Q^T, so every QL rotation updates two rows.
// 2x2 matrices take a closed form (eigen_sym_2x2). Non-finite input returns
// NaN values and vectors at once. The Jacobi path is kept as a reference
// implementation (eigen_sym_jacobi): the QL is tested against it, and it is
// the fallback on the (never observed) QL non-convergence path.
#include "linalg/matrix.hpp"

namespace soslock::linalg {

struct EigenSym {
  Vector values;   // ascending
  Matrix vectors;  // columns are eigenvectors, A = V diag(values) V^T
};

/// Full symmetric eigendecomposition: Householder tridiagonalization +
/// implicit-shift QL. Falls back to the Jacobi reference if QL fails to
/// converge (50 implicit shifts per eigenvalue, which does not happen on
/// finite input).
EigenSym eigen_sym(const Matrix& a);

/// Eigenvalues only (ascending): skips the eigenvector accumulation, which
/// is most of the work of eigen_sym. Shares its tridiagonal QL body with
/// min_eigenvalue_sym.
Vector eigen_values_sym(const Matrix& a);

/// eigen_sym into caller-owned storage, allocation-free on finite input:
/// `a` is the n x n row-major symmetric input (read only, both triangles);
/// on return values[0, n) holds the eigenvalues ascending and qt (n x n,
/// row major, must not alias `a`) the eigenvectors as ROWS — row k is the
/// unit eigenvector of values[k], i.e. qt = V^T. `work` holds n doubles.
/// The inner loop of the ADMM PSD projection.
void eigen_sym_rows(const double* a, std::size_t n, double* values, double* qt,
                    double* work);

/// Closed-form eigendecomposition of the symmetric 2x2 [[a, b], [b, c]]
/// (LAPACK dlaev2 formulas: one exact Jacobi rotation). lo <= hi;
/// (cs, sn) is the unit eigenvector of lo and (-sn, cs) that of hi.
struct Eigen2 {
  double lo = 0.0, hi = 0.0;
  double cs = 1.0, sn = 0.0;
};
Eigen2 eigen_sym_2x2(double a, double b, double c);

/// Reference implementation via cyclic Jacobi rotations. Slow; kept as the
/// eigen_sym fallback and as the reference the QL is tested against.
EigenSym eigen_sym_jacobi(const Matrix& a, double tol = 1e-12, int max_sweeps = 64);

/// Smallest eigenvalue only (values-only tridiagonal QL; no vectors).
double min_eigenvalue(const Matrix& a);

/// min_eigenvalue on raw storage, in place and allocation-free on finite
/// input: `a` is the n x n row-major symmetric input (both triangles read)
/// and is overwritten; `work` holds 2n doubles. No copy and no sort: the
/// minimum of the values-only QL's eigenvalues. n = 1 returns a[0] as is;
/// other non-finite input returns NaN; n = 2 takes the closed form. The
/// IPM's step-length kernel calls it on the blocks that limit the step.
double min_eigenvalue_sym(double* a, std::size_t n, double* work);

/// Symmetric square root A^{1/2} (clamps tiny negative eigenvalues to 0).
Matrix sqrt_psd(const Matrix& a);

}  // namespace soslock::linalg
