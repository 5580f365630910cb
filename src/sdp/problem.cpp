#include "sdp/problem.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>

namespace soslock::sdp {

void SparseSym::add(std::size_t r, std::size_t c, double v) {
  if (v == 0.0) return;
  if (r > c) std::swap(r, c);
  // Merge with an existing entry if present (linear scan: rows are tiny).
  for (Triplet& t : entries) {
    if (t.r == r && t.c == c) {
      t.v += v;
      return;
    }
  }
  entries.push_back({r, c, v});
}

double SparseSym::dot(const linalg::Matrix& s) const {
  double acc = 0.0;
  for (const Triplet& t : entries) {
    acc += (t.r == t.c ? 1.0 : 2.0) * t.v * s(t.r, t.c);
  }
  return acc;
}

void SparseSym::add_to(linalg::Matrix& out, double scale) const {
  assert(out.rows() == out.cols());
  add_to(out.data(), out.cols(), scale);
}

void SparseSym::add_to(double* out, std::size_t ld, double scale) const {
  for (const Triplet& t : entries) {
    out[t.r * ld + t.c] += scale * t.v;
    if (t.r != t.c) out[t.c * ld + t.r] += scale * t.v;
  }
}

void SparseSym::times_dense(const linalg::Matrix& x, linalg::Matrix& out) const {
  assert(out.rows() == x.rows() && out.cols() == x.cols());
  out.fill(0.0);
  const std::size_t n = x.cols();
  for (const Triplet& t : entries) {
    const double* xr = x.row_ptr(t.c);
    double* outr = out.row_ptr(t.r);
    for (std::size_t k = 0; k < n; ++k) outr[k] += t.v * xr[k];
    if (t.r != t.c) {
      const double* xr2 = x.row_ptr(t.r);
      double* outr2 = out.row_ptr(t.c);
      for (std::size_t k = 0; k < n; ++k) outr2[k] += t.v * xr2[k];
    }
  }
}

double SparseSym::frobenius_norm() const {
  double acc = 0.0;
  for (const Triplet& t : entries) acc += (t.r == t.c ? 1.0 : 2.0) * t.v * t.v;
  return std::sqrt(acc);
}

void SparseSym::scale(double s) {
  for (Triplet& t : entries) t.v *= s;
}

std::size_t Problem::add_block(std::size_t n) {
  block_sizes_.push_back(n);
  c_.emplace_back(n, n);
  return block_sizes_.size() - 1;
}

std::size_t Problem::add_free(double obj_coeff) {
  f_.push_back(obj_coeff);
  return f_.size() - 1;
}

void Problem::set_block_objective(std::size_t block, linalg::Matrix c) {
  assert(block < c_.size());
  assert(c.rows() == block_sizes_[block] && c.cols() == block_sizes_[block]);
  c_[block] = std::move(c);
}

void Problem::set_free_objective(std::size_t var, double coeff) {
  assert(var < f_.size());
  f_[var] = coeff;
}

std::size_t Problem::add_row(Row row) {
  rows_.push_back(std::move(row));
  return rows_.size() - 1;
}

std::size_t Problem::add_cone(DecomposedCone cone) {
  assert(cone.cliques.size() >= 1);
  for (const CliqueInfo& clique : cone.cliques) {
    assert(clique.block < block_sizes_.size());
    assert(block_sizes_[clique.block] == clique.vertices.size());
    (void)clique;
  }
  cones_.push_back(std::move(cone));
  return cones_.size() - 1;
}

std::size_t Problem::num_overlaps() const {
  std::size_t q = 0;
  for (const DecomposedCone& cone : cones_) q += cone.overlaps.size();
  return q;
}

std::size_t Problem::total_psd_dim() const {
  std::size_t n = 0;
  for (std::size_t s : block_sizes_) n += s;
  return n;
}

std::string Problem::stats() const {
  std::size_t nnz = 0, max_block = 0;
  for (const Row& row : rows_)
    for (const auto& [j, a] : row.blocks) nnz += a.entries.size();
  for (std::size_t s : block_sizes_) max_block = std::max(max_block, s);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "SDP: %zu rows, %zu blocks (max %zu, total dim %zu), %zu free vars, %zu nnz",
                rows_.size(), block_sizes_.size(), max_block, total_psd_dim(), f_.size(), nnz);
  std::string out = buf;
  if (!cones_.empty()) {
    std::snprintf(buf, sizeof(buf), ", %zu decomposed cone(s) (%zu overlap couplings)",
                  cones_.size(), num_overlaps());
    out += buf;
  }
  return out;
}

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Optimal: return "Optimal";
    case SolveStatus::MaxIterations: return "MaxIterations";
    case SolveStatus::PrimalInfeasible: return "PrimalInfeasible";
    case SolveStatus::DualInfeasible: return "DualInfeasible";
    case SolveStatus::NumericalProblem: return "NumericalProblem";
    case SolveStatus::Interrupted: return "Interrupted";
    case SolveStatus::Diverged: return "Diverged";
    case SolveStatus::Faulted: return "Faulted";
  }
  return "?";
}

}  // namespace soslock::sdp
