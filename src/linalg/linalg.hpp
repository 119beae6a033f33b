// Distributed sparse linear algebra for the application proxies.
//
// Row-partitioned CSR matrices and vectors over minimpi, with a
// Jacobi-preconditioned conjugate-gradient solver — the "KSp" section that
// dominates the Chaste cardiac benchmark (paper §V-C1) and the Helmholtz
// solve inside MetUM's ATM_STEP.
//
// The solver is execute-mode only: real math on a real matrix (the apps'
// downscaled problems, tests). The paper-scale model-mode runs do not call
// it: Chaste's KSp and MetUM's Helmholtz solve replay their own per-iteration
// pattern (a halo exchange plus three scalar allreduces) inline.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "mpi/minimpi.hpp"

namespace cirrus::la {

/// Even 1-D row partition of n rows over np ranks.
struct Partition {
  long long n = 0;
  int np = 1;

  [[nodiscard]] long long first(int rank) const { return n * rank / np; }
  [[nodiscard]] long long last(int rank) const { return n * (rank + 1) / np; }
  [[nodiscard]] long long count(int rank) const { return last(rank) - first(rank); }
  [[nodiscard]] long long max_count() const { return (n + np - 1) / np; }
};

/// A row-partitioned CSR matrix: each rank stores its row slice with global
/// column indices.
struct DistCsr {
  Partition part;
  int my_rank = 0;
  std::vector<long long> rowptr;  // local_rows + 1
  std::vector<long long> colidx;  // global columns
  std::vector<double> values;

  [[nodiscard]] long long local_rows() const { return part.count(my_rank); }
  [[nodiscard]] std::size_t local_nnz() const { return colidx.size(); }
};

/// Builds the 7-point Laplacian (+ diagonal shift) of an nx x ny x nz grid,
/// symmetric positive definite for shift > 0. Rows ordered x-fastest.
DistCsr grid_laplacian_7pt(int nx, int ny, int nz, double shift, const Partition& part,
                           int my_rank);

struct CgOptions {
  int max_iters = 500;
  double rtol = 1e-8;
  /// Reference compute seconds charged per iteration for the *whole* system
  /// (divided by ranks inside). 0: no charging (pure math).
  double ref_seconds_per_iter = 0.0;
};

struct CgResult {
  int iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
};

/// Jacobi-preconditioned CG on a distributed system. `b` and `x` are the
/// local slices (x is in/out). Communication per iteration: one allgather of
/// the search direction plus two scalar allreduces — the pattern the paper
/// identifies as entirely small all-reduce bound on high-latency networks.
CgResult cg_solve(mpi::RankEnv& env, const DistCsr& a, const std::vector<double>& b,
                  std::vector<double>& x, const CgOptions& opts);

// Small local helpers (exposed for tests).
double dot_local(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace cirrus::la
