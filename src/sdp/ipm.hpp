#pragma once
// Infeasible-start primal-dual interior-point method for the block SDP of
// problem.hpp. HKM (Helmberg-Kojima-Monteiro) search direction with Mehrotra
// predictor-corrector; free variables are handled exactly via block
// elimination on the Schur complement.
//
// The second-order, high-accuracy SolverBackend ("ipm" in the registry); the
// workhorse behind every SOS feasibility/optimization query in the
// verification pipeline.
#include <cstddef>

#include "linalg/cholesky.hpp"
#include "sdp/options.hpp"
#include "sdp/problem.hpp"
#include "sdp/solver.hpp"

namespace soslock::sdp {

class IpmSolver : public SolverBackend {
 public:
  explicit IpmSolver(IpmOptions options = {}) : options_(options) {}

  using SolverBackend::solve;
  /// Solve the problem as given (equilibrate rows first for SOS-scale data;
  /// SosProgram::solve does). A fitting SolveContext::warm_start is restored
  /// with a shifted-feasible interior push.
  Solution solve(const Problem& problem, SolveContext& context) const override;

  std::string name() const override { return "ipm"; }
  Capabilities capabilities() const override {
    Capabilities caps;
    caps.detects_infeasibility = true;
    caps.high_accuracy = true;
    caps.warm_startable = true;
    return caps;
  }

  const IpmOptions& options() const { return options_; }

 private:
  IpmOptions options_;
};

/// Doubles of scratch max_step needs for an n x n block.
constexpr std::size_t max_step_scratch(std::size_t n) { return n * n + 2 * n; }

/// PSD step length of one block: the largest alpha in (0, cap] with
/// X + shift I + alpha dX PSD, given chol_x = chol(X + shift I) (shift is
/// chol_x.shift(), zero unless the factor needed one). Cholesky first (Toh,
/// Comput. Optim. Appl. 2002; SDPT3 does the same): X + shift I + cap dX =
/// L (I + cap S) L^T with S = L^{-1} dX L^{-T} factors exactly when
/// lambda_min(S) > -1/cap, and then the step is cap. Only a block whose
/// trial factorization fails forms S (two triangular solves around an
/// in-place transpose) and takes its minimum eigenvalue lambda: the step
/// is cap when lambda >= -1e-13, else min(cap, -1/lambda). Non-finite dX
/// never factors and its NaN eigenvalue never binds, so it yields cap.
/// `scratch` holds max_step_scratch(n) doubles; allocation-free on finite
/// input.
double max_step(const linalg::Matrix& x, const linalg::Cholesky& chol_x,
                const linalg::Matrix& dx, double cap, double* scratch);

}  // namespace soslock::sdp
