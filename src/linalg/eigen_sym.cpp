#include "linalg/eigen_sym.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "linalg/kernels.hpp"

namespace soslock::linalg {
namespace {

/// True when every entry is finite: x * 0 is 0 for finite x and NaN for
/// NaN/Inf, so one sum catches any non-finite entry without overflowing.
bool all_finite(const double* a, std::size_t count) {
  double acc = 0.0;
  for (std::size_t i = 0; i < count; ++i) acc += a[i] * 0.0;
  return acc == 0.0;
}

/// sqrt(f^2 + g^2) with one multiply-add and one sqrt where the squares
/// cannot overflow or lose the larger term to underflow, std::hypot
/// elsewhere (the QL rotation's hot dependency chain).
double pythag(double f, double g) {
  const double big = std::max(std::fabs(f), std::fabs(g));
  if (big >= 1e-150 && big <= 1e150) return std::sqrt(f * f + g * g);
  return std::hypot(f, g);
}

/// Householder reduction of the full symmetric n x n matrix in `z` (row
/// major) to tridiagonal form (EISPACK tred2 lineage, but on both triangles
/// so every matvec and rank-2 update walks contiguous rows): on return d
/// holds the diagonal and e the subdiagonal (e[0] unused). With
/// `want_vectors`, z is overwritten by Q^T (A = Q T Q^T), so the QL
/// rotations that follow update two contiguous rows each; without, z is
/// scratch.
void tridiagonalize(double* z, std::size_t n, double* d, double* e, bool want_vectors) {
  const Kernels& kern = active_kernels();
  for (std::size_t i = n - 1; i > 0; --i) {
    // Row i's prefix [0, i) is reflected onto its subdiagonal entry; the
    // reflector u = x - g e_l is kept there for the accumulation below.
    double* zi = z + i * n;
    const std::size_t l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k < i; ++k) scale += std::fabs(zi[k]);
    }
    if (scale == 0.0) {
      e[i] = zi[l];
    } else {
      for (std::size_t k = 0; k < i; ++k) {
        zi[k] /= scale;
        h += zi[k] * zi[k];
      }
      double f = zi[l];
      const double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
      e[i] = scale * g;
      h -= f * g;
      zi[l] = f - g;
      // p = A u / h over the leading i x i block, then q = p - (u'p / 2h) u
      // in e[0, i), then A -= u q' + q u' row by row.
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] = kern.dot(z + j * n, zi, i) / h;
        f += e[j] * zi[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * zi[j];
      for (std::size_t j = 0; j < i; ++j) kern.sub_scaled2(zi[j], e, e[j], zi, z + j * n, i);
    }
    d[i] = h;  // reflector norm until the accumulation pass reads it
  }
  e[0] = 0.0;
  // Q^T = P_2 P_3 ... P_{n-1}, built in place by right-multiplying in
  // increasing i: before step i the product only occupies the leading
  // (i x i) block, and P_i = I - u u'/h (u in row i's prefix) updates each
  // of its rows with one dot and one axpy.
  for (std::size_t i = 0; i < n; ++i) {
    double* zi = z + i * n;
    if (want_vectors && i > 0 && d[i] != 0.0) {
      const double h = d[i];
      for (std::size_t r = 0; r < i; ++r) {
        double* zr = z + r * n;
        kern.axpy(-kern.dot(zr, zi, i) / h, zi, zr, i);
      }
    }
    d[i] = zi[i];
    if (want_vectors) {
      zi[i] = 1.0;
      for (std::size_t j = 0; j < i; ++j) {
        zi[j] = 0.0;
        z[j * n + i] = 0.0;
      }
    }
  }
}

/// Implicit-shift QL on the tridiagonal (d, e) (EISPACK tql2/tql1 lineage).
/// Rotations are accumulated into the rows of qt (n x n, Q^T layout) when
/// non-null. Returns false if any eigenvalue fails to converge within 50
/// shifts (caller falls back to the Jacobi reference).
bool ql_implicit_shift(double* d, double* e, std::size_t n, double* qt) {
  if (n <= 1) return true;
  const Kernels& kern = active_kernels();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  const int nn = static_cast<int>(n);
  for (int l = 0; l < nn; ++l) {
    int iter = 0;
    int m;
    do {
      for (m = l; m < nn - 1; ++m) {
        // Machine-epsilon-relative deflation test (NR's "e + dd == dd"): a
        // tolerance tighter than eps could never be met by an off-diagonal
        // resting at the rounding floor and would burn the full iteration
        // budget before falling back to Jacobi.
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= std::numeric_limits<double>::epsilon() * dd) break;
      }
      if (m != l) {
        if (iter++ == 50) return false;
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = pythag(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0, c = 1.0, p = 0.0;
        int i = m - 1;
        for (; i >= l; --i) {
          const double f = s * e[i];
          const double b = c * e[i];
          r = pythag(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            // Deflation mid-sweep: the split is below i; undo the shift on
            // d[i+1] and restart the scan for this l.
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          const double inv = 1.0 / r;
          s = f * inv;
          c = g * inv;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          if (qt != nullptr) {
            kern.rot(c, s, qt + static_cast<std::size_t>(i) * n,
                     qt + static_cast<std::size_t>(i + 1) * n, n);
          }
        }
        if (r == 0.0 && i >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

/// Selection sort of the eigenvalues ascending, swapping the matching rows
/// of qt: O(n^2) compares and at most n row swaps, no index buffer.
void sort_rows_ascending(double* d, double* qt, std::size_t n) {
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::size_t k = i;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (d[j] < d[k]) k = j;
    }
    if (k == i) continue;
    std::swap(d[i], d[k]);
    std::swap_ranges(qt + i * n, qt + i * n + n, qt + k * n);
  }
}

/// Sort eigenvalues ascending, permuting eigenvector columns to match.
EigenSym sorted_result(Vector d, Matrix z) {
  const std::size_t n = d.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&d](std::size_t i, std::size_t j) { return d[i] < d[j]; });
  EigenSym out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = d[order[j]];
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, j) = z(i, order[j]);
  }
  return out;
}

/// Eigenvalues, unsorted, of the finite symmetric n x n (n >= 3) row-major
/// z into d, in place: Householder tridiagonalization (z becomes scratch),
/// then the values-only QL with e (n doubles) as the off-diagonal. The
/// tridiagonal is kept in z for the cold path: when the QL does not
/// converge, the Jacobi reference answers on it (the same eigenvalues; the
/// only allocation). The one values-only body behind eigen_values_sym and
/// min_eigenvalue_sym.
void tridiagonal_ql_values(double* z, std::size_t n, double* d, double* e) {
  tridiagonalize(z, n, d, e, /*want_vectors=*/false);
  std::copy(d, d + n, z);
  std::copy(e, e + n, z + n);
  if (ql_implicit_shift(d, e, n, nullptr)) return;
  Matrix t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t(i, i) = z[i];
    if (i > 0) t(i, i - 1) = t(i - 1, i) = z[n + i];
  }
  const Vector values = eigen_sym_jacobi(t).values;
  std::copy(values.begin(), values.end(), d);
}

/// eigen_sym_jacobi in the eigen_sym_rows layout (allocates): the fallback
/// when the QL does not converge.
void eigen_sym_jacobi_rows(const double* a, std::size_t n, double* values, double* qt) {
  Matrix copy(n, n);
  std::copy(a, a + n * n, copy.data());
  const EigenSym ref = eigen_sym_jacobi(copy);
  for (std::size_t k = 0; k < n; ++k) {
    values[k] = ref.values[k];
    for (std::size_t i = 0; i < n; ++i) qt[k * n + i] = ref.vectors(i, k);
  }
}

}  // namespace

Eigen2 eigen_sym_2x2(double a, double b, double c) {
  // LAPACK dlaev2: rt1 is the eigenvalue of larger magnitude, computed from
  // sum and discriminant; rt2 from the determinant, which keeps it accurate
  // when the two magnitudes differ by many orders. Every square is of a
  // ratio <= 1, so entries near 1e+-150 neither overflow nor underflow.
  const double sm = a + c;
  const double df = a - c;
  const double adf = std::fabs(df);
  const double tb = b + b;
  const double ab = std::fabs(tb);
  const bool a_bigger = std::fabs(a) > std::fabs(c);
  const double acmx = a_bigger ? a : c;
  const double acmn = a_bigger ? c : a;
  double rt;
  if (adf > ab) {
    const double t = ab / adf;
    rt = adf * std::sqrt(1.0 + t * t);
  } else if (adf < ab) {
    const double t = adf / ab;
    rt = ab * std::sqrt(1.0 + t * t);
  } else {
    rt = ab * std::sqrt(2.0);
  }
  double rt1, rt2;
  int sgn1;
  if (sm < 0.0) {
    rt1 = 0.5 * (sm - rt);
    sgn1 = -1;
    rt2 = (acmx / rt1) * acmn - (b / rt1) * b;
  } else if (sm > 0.0) {
    rt1 = 0.5 * (sm + rt);
    sgn1 = 1;
    rt2 = (acmx / rt1) * acmn - (b / rt1) * b;
  } else {
    rt1 = 0.5 * rt;
    rt2 = -0.5 * rt;
    sgn1 = 1;
  }
  // Unit eigenvector (cs1, sn1) of rt1.
  int sgn2;
  double cs;
  if (df >= 0.0) {
    cs = df + rt;
    sgn2 = 1;
  } else {
    cs = df - rt;
    sgn2 = -1;
  }
  double cs1, sn1;
  if (std::fabs(cs) > ab) {
    const double ct = -tb / cs;
    sn1 = 1.0 / std::sqrt(1.0 + ct * ct);
    cs1 = ct * sn1;
  } else if (ab == 0.0) {
    cs1 = 1.0;
    sn1 = 0.0;
  } else {
    const double tn = -cs / tb;
    cs1 = 1.0 / std::sqrt(1.0 + tn * tn);
    sn1 = tn * cs1;
  }
  if (sgn1 == sgn2) {
    const double tn = cs1;
    cs1 = -sn1;
    sn1 = tn;
  }
  Eigen2 out;
  if (rt1 <= rt2) {
    out.lo = rt1;
    out.hi = rt2;
    out.cs = cs1;
    out.sn = sn1;
  } else {
    out.lo = rt2;
    out.hi = rt1;
    out.cs = -sn1;
    out.sn = cs1;
  }
  return out;
}

void eigen_sym_rows(const double* a, std::size_t n, double* values, double* qt,
                    double* work) {
  if (n == 0) return;
  if (!all_finite(a, n * n)) {
    // Non-finite input has no eigendecomposition: answer NaN at once
    // instead of burning the QL shift budget and then every Jacobi sweep.
    std::fill(values, values + n, std::numeric_limits<double>::quiet_NaN());
    std::fill(qt, qt + n * n, std::numeric_limits<double>::quiet_NaN());
    return;
  }
  if (n == 1) {
    values[0] = a[0];
    qt[0] = 1.0;
    return;
  }
  if (n == 2) {
    const Eigen2 r = eigen_sym_2x2(a[0], a[1], a[3]);
    values[0] = r.lo;
    values[1] = r.hi;
    qt[0] = r.cs;
    qt[1] = r.sn;
    qt[2] = -r.sn;
    qt[3] = r.cs;
    return;
  }
  std::copy(a, a + n * n, qt);
  tridiagonalize(qt, n, values, work, /*want_vectors=*/true);
  if (!ql_implicit_shift(values, work, n, qt)) {
    eigen_sym_jacobi_rows(a, n, values, qt);
    return;
  }
  sort_rows_ascending(values, qt, n);
}

EigenSym eigen_sym_jacobi(const Matrix& a, double tol, int max_sweeps) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Matrix d = a;
  Matrix v = Matrix::identity(n);

  auto off_norm = [&d, n]() {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) s += d(i, j) * d(i, j);
    return std::sqrt(2.0 * s);
  };

  const double scale = std::max(frobenius_norm(d), 1e-300);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_norm() <= tol * scale) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::fabs(apq) <= 1e-300) continue;
        const double app = d(p, p), aqq = d(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply rotation J(p,q,theta) on both sides of D and accumulate in V.
        for (std::size_t k = 0; k < n; ++k) {
          const double dkp = d(k, p), dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double dpk = d(p, k), dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  Vector values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = d(i, i);
  return sorted_result(std::move(values), std::move(v));
}

EigenSym eigen_sym(const Matrix& a) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  if (n == 0) return {};
  EigenSym out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  Vector work(n);
  eigen_sym_rows(a.data(), n, out.values.data(), out.vectors.data(), work.data());
  // Q^T -> Q: eigenvectors back to columns.
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = r + 1; c < n; ++c) std::swap(out.vectors(r, c), out.vectors(c, r));
  return out;
}

Vector eigen_values_sym(const Matrix& a) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  if (n == 0) return {};
  if (!all_finite(a.data(), n * n)) return Vector(n, std::numeric_limits<double>::quiet_NaN());
  if (n == 1) return {a(0, 0)};
  if (n == 2) {
    const Eigen2 r = eigen_sym_2x2(a(0, 0), a(0, 1), a(1, 1));
    return {r.lo, r.hi};
  }
  Vector z(a.data(), a.data() + n * n), d(n), e(n);
  tridiagonal_ql_values(z.data(), n, d.data(), e.data());
  std::sort(d.begin(), d.end());
  return d;
}

double min_eigenvalue_sym(double* a, std::size_t n, double* work) {
  if (n == 0) return 0.0;
  if (n == 1) return a[0];
  if (!all_finite(a, n * n)) return std::numeric_limits<double>::quiet_NaN();
  if (n == 2) return eigen_sym_2x2(a[0], a[1], a[3]).lo;
  tridiagonal_ql_values(a, n, work, work + n);
  return *std::min_element(work, work + n);
}

double min_eigenvalue(const Matrix& a) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Vector z(a.data(), a.data() + n * n), work(2 * n);
  return min_eigenvalue_sym(z.data(), n, work.data());
}

Matrix sqrt_psd(const Matrix& a) {
  const EigenSym es = eigen_sym(a);
  const std::size_t n = a.rows();
  Matrix sqrt_d(n, n);
  for (std::size_t i = 0; i < n; ++i)
    sqrt_d(i, i) = es.values[i] > 0.0 ? std::sqrt(es.values[i]) : 0.0;
  return es.vectors * sqrt_d * es.vectors.transposed();
}

}  // namespace soslock::linalg
