#pragma once
// First-order ADMM backend ("admm" in the registry): alternating-direction
// augmented-Lagrangian method on the dual SDP (the boundary-point scheme of
// Povh-Rendl-Wiegele / Wen-Goldfarb-Yin, adapted to the free-variable rows
// of our SOS relaxations):
//
//   dual:  max b'y   s.t.  C_j - sum_i y_i A_ij = S_j >= 0,   B'y = f.
//
// One iteration solves a cached m x m normal-equation system for y, projects
// per block onto the PSD cone (admm_split_psd below), and takes a multiplier
// ascent step in the primal (X, w). The multiplier update X_j = rho * U_j^-
// keeps every primal block PSD by construction (a Gram product of the
// negative eigenpanel) and complementary to S_j up to eigensolver roundoff, so
// iterates are always certificate-shaped; accuracy is first-order (~1e-6).
#include <cstddef>

#include "linalg/matrix.hpp"
#include "sdp/options.hpp"
#include "sdp/problem.hpp"
#include "sdp/solver.hpp"

namespace soslock::sdp {

/// One worker's scratch for admm_split_psd, sized once for the largest
/// block: U, the eigenvectors (as rows), the eigenvalues and one work row
/// (the eigensolver's, then the reconstruction's). The projection itself
/// allocates nothing.
struct PsdSplitWorkspace {
  explicit PsdSplitWorkspace(std::size_t n_max = 0)
      : u(n_max * n_max), qt(n_max * n_max), values(n_max), work(n_max) {}
  linalg::AlignedVector u, qt;
  linalg::Vector values, work;
};

/// Eigensplit of the symmetric n x n U (row major, both triangles) into
/// S = U^+ and X = rho U^-, written over s and x in place (S - X/rho = U,
/// both PSD and complementary up to eigensolver roundoff). n = 1 is a clamp
/// at 0, n = 2 one closed-form rotation, larger blocks the tridiagonal QL.
/// X is rebuilt as a Gram product of the scaled negative eigenvectors, so it
/// keeps its certificate shape by construction. Returns max |X_new - X_old|,
/// accumulated while x is overwritten. `u` may live in ws.u.
double admm_split_psd(const double* u, std::size_t n, double rho, double* s, double* x,
                      PsdSplitWorkspace& ws);

class AdmmSolver : public SolverBackend {
 public:
  explicit AdmmSolver(AdmmOptions options = {}) : options_(options) {}

  using SolverBackend::solve;
  Solution solve(const Problem& problem, SolveContext& context) const override;

  std::string name() const override { return "admm"; }
  Capabilities capabilities() const override {
    Capabilities caps;
    caps.cheap_large_blocks = true;
    caps.warm_startable = true;
    return caps;
  }

  const AdmmOptions& options() const { return options_; }

 private:
  AdmmOptions options_;
};

}  // namespace soslock::sdp
