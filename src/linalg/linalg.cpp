#include "linalg/linalg.hpp"

#include <cmath>

namespace cirrus::la {

DistCsr grid_laplacian_7pt(int nx, int ny, int nz, double shift, const Partition& part,
                           int my_rank) {
  DistCsr m;
  m.part = part;
  m.my_rank = my_rank;
  const long long first = part.first(my_rank);
  const long long last = part.last(my_rank);
  m.rowptr.reserve(static_cast<std::size_t>(last - first) + 1);
  m.rowptr.push_back(0);
  auto gid = [&](long long x, long long y, long long z) {
    return (z * ny + y) * nx + x;
  };
  for (long long row = first; row < last; ++row) {
    const long long x = row % nx;
    const long long y = (row / nx) % ny;
    const long long z = row / (static_cast<long long>(nx) * ny);
    // Off-diagonals first in global column order where easy; order within a
    // row does not matter for correctness.
    auto add = [&](long long col, double v) {
      m.colidx.push_back(col);
      m.values.push_back(v);
    };
    if (z > 0) add(gid(x, y, z - 1), -1.0);
    if (y > 0) add(gid(x, y - 1, z), -1.0);
    if (x > 0) add(gid(x - 1, y, z), -1.0);
    add(row, 6.0 + shift);
    if (x + 1 < nx) add(gid(x + 1, y, z), -1.0);
    if (y + 1 < ny) add(gid(x, y + 1, z), -1.0);
    if (z + 1 < nz) add(gid(x, y, z + 1), -1.0);
    m.rowptr.push_back(static_cast<long long>(m.colidx.size()));
  }
  return m;
}

double dot_local(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) s += a[i] * b[i];
  return s;
}

namespace {

/// Allgathers the distributed vector `local` (padded blocks) into `full`.
void gather_full(mpi::RankEnv& env, const Partition& part, const std::vector<double>& local,
                 std::vector<double>& full, std::vector<double>& pad_in,
                 std::vector<double>& pad_out) {
  auto& comm = env.world();
  const int np = part.np;
  const auto block = static_cast<std::size_t>(part.max_count());
  pad_in.assign(block, 0.0);
  std::copy(local.begin(), local.end(), pad_in.begin());
  pad_out.assign(block * static_cast<std::size_t>(np), 0.0);
  comm.allgather(pad_in.data(), pad_out.data(), block);
  full.assign(static_cast<std::size_t>(part.n), 0.0);
  for (int r = 0; r < np; ++r) {
    std::copy_n(pad_out.begin() + static_cast<std::ptrdiff_t>(block * static_cast<std::size_t>(r)),
                part.count(r), full.begin() + part.first(r));
  }
}

}  // namespace

CgResult cg_solve(mpi::RankEnv& env, const DistCsr& a, const std::vector<double>& b,
                  std::vector<double>& x, const CgOptions& opts) {
  auto& comm = env.world();
  const Partition& part = a.part;
  const auto nloc = static_cast<std::size_t>(a.local_rows());
  x.assign(nloc, 0.0);

  // Jacobi preconditioner: inverse diagonal.
  std::vector<double> dinv(nloc, 1.0);
  const long long first = part.first(a.my_rank);
  for (std::size_t i = 0; i < nloc; ++i) {
    for (long long k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
      if (a.colidx[static_cast<std::size_t>(k)] == first + static_cast<long long>(i)) {
        const double d = a.values[static_cast<std::size_t>(k)];
        if (d != 0.0) dinv[i] = 1.0 / d;
      }
    }
  }

  std::vector<double> r(b), z(nloc), p(nloc), q(nloc), full, pad_in, pad_out;
  for (std::size_t i = 0; i < nloc; ++i) z[i] = dinv[i] * r[i];
  p = z;
  double rz = comm.allreduce_one(dot_local(r, z), mpi::Op::Sum);
  const double b2 = comm.allreduce_one(dot_local(b, b), mpi::Op::Sum);
  const double stop2 = b2 * opts.rtol * opts.rtol;

  CgResult result;
  double r2 = b2;
  for (int it = 0; it < opts.max_iters && r2 > stop2; ++it) {
    gather_full(env, part, p, full, pad_in, pad_out);
    for (std::size_t i = 0; i < nloc; ++i) {
      double s = 0;
      for (long long k = a.rowptr[i]; k < a.rowptr[i + 1]; ++k) {
        s += a.values[static_cast<std::size_t>(k)] *
             full[static_cast<std::size_t>(a.colidx[static_cast<std::size_t>(k)])];
      }
      q[i] = s;
    }
    if (opts.ref_seconds_per_iter > 0.0) {
      env.compute(opts.ref_seconds_per_iter * static_cast<double>(nloc) /
                  static_cast<double>(part.n));
    }
    const double pq = comm.allreduce_one(dot_local(p, q), mpi::Op::Sum);
    if (pq == 0.0) break;
    const double alpha = rz / pq;
    for (std::size_t i = 0; i < nloc; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * q[i];
    }
    for (std::size_t i = 0; i < nloc; ++i) z[i] = dinv[i] * r[i];
    const double rz_new = comm.allreduce_one(dot_local(r, z), mpi::Op::Sum);
    r2 = comm.allreduce_one(dot_local(r, r), mpi::Op::Sum);
    const double beta = rz != 0.0 ? rz_new / rz : 0.0;
    rz = rz_new;
    for (std::size_t i = 0; i < nloc; ++i) p[i] = z[i] + beta * p[i];
    result.iterations = it + 1;
  }
  result.residual_norm = std::sqrt(r2);
  result.converged = r2 <= stop2;
  return result;
}

}  // namespace cirrus::la
