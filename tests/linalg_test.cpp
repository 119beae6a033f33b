// Tests for the distributed linear algebra module: partitioning, matrix
// construction, CG convergence against direct verification, and rank-count
// invariance.
#include "linalg/linalg.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace la = cirrus::la;
namespace mpi = cirrus::mpi;
namespace plat = cirrus::plat;

namespace {
mpi::JobConfig cfg(int np) {
  mpi::JobConfig c;
  c.platform = plat::vayu();
  c.np = np;
  c.name = "la-test";
  return c;
}
}  // namespace

TEST(Partition, EvenSplitCoversAllRows) {
  la::Partition p{.n = 10, .np = 3};
  EXPECT_EQ(p.first(0), 0);
  EXPECT_EQ(p.last(2), 10);
  long long total = 0;
  for (int r = 0; r < 3; ++r) {
    if (r > 0) {
      EXPECT_EQ(p.first(r), p.last(r - 1));  // contiguous, no gaps
    }
    total += p.count(r);
  }
  EXPECT_EQ(total, 10);
  EXPECT_EQ(p.max_count(), 4);
}

TEST(Partition, SingleRankOwnsEverything) {
  la::Partition p{.n = 7, .np = 1};
  EXPECT_EQ(p.count(0), 7);
}

TEST(GridLaplacian, RowSumsAreShiftOnInteriorRows) {
  la::Partition p{.n = 27, .np = 1};
  const auto m = la::grid_laplacian_7pt(3, 3, 3, 2.5, p, 0);
  ASSERT_EQ(m.local_rows(), 27);
  // The centre cell (1,1,1) = row 13 has all 6 neighbours.
  double sum = 0;
  int nnz = 0;
  for (long long k = m.rowptr[13]; k < m.rowptr[14]; ++k) {
    sum += m.values[static_cast<std::size_t>(k)];
    ++nnz;
  }
  EXPECT_EQ(nnz, 7);
  EXPECT_DOUBLE_EQ(sum, 2.5);  // -6 neighbours + (6 + shift) diagonal
}

TEST(GridLaplacian, PartitionedRowsMatchSerialMatrix) {
  la::Partition p1{.n = 64, .np = 1};
  const auto full = la::grid_laplacian_7pt(4, 4, 4, 1.0, p1, 0);
  la::Partition p4{.n = 64, .np = 4};
  for (int r = 0; r < 4; ++r) {
    const auto part = la::grid_laplacian_7pt(4, 4, 4, 1.0, p4, r);
    const long long f = p4.first(r);
    for (long long i = 0; i < part.local_rows(); ++i) {
      const long long len = part.rowptr[static_cast<std::size_t>(i) + 1] - part.rowptr[static_cast<std::size_t>(i)];
      const long long flen = full.rowptr[static_cast<std::size_t>(f + i) + 1] - full.rowptr[static_cast<std::size_t>(f + i)];
      ASSERT_EQ(len, flen);
    }
  }
}

TEST(CgSolve, SolvesIdentityInOneIteration) {
  auto r = mpi::run_job(cfg(1), [](mpi::RankEnv& env) {
    // shift large => strongly diagonal, converges immediately.
    la::Partition part{.n = 8, .np = 1};
    auto m = la::grid_laplacian_7pt(2, 2, 2, 1000.0, part, 0);
    std::vector<double> b(8, 1.0), x;
    const auto res = la::cg_solve(env, m, b, x, {});
    env.report("iters", res.iterations);
    env.report("converged", res.converged ? 1 : 0);
  });
  EXPECT_EQ(r.values.at("converged"), 1);
  EXPECT_LE(r.values.at("iters"), 5);
}

TEST(CgSolve, ResidualIsActuallySmall) {
  auto r = mpi::run_job(cfg(1), [](mpi::RankEnv& env) {
    la::Partition part{.n = 125, .np = 1};
    auto m = la::grid_laplacian_7pt(5, 5, 5, 0.5, part, 0);
    std::vector<double> b(125);
    for (int i = 0; i < 125; ++i) b[static_cast<std::size_t>(i)] = std::sin(i * 0.7);
    std::vector<double> x;
    la::CgOptions opts;
    opts.rtol = 1e-10;
    const auto res = la::cg_solve(env, m, b, x, opts);
    // Check A x = b directly.
    double err = 0;
    for (std::size_t i = 0; i < 125; ++i) {
      double s = 0;
      for (long long k = m.rowptr[i]; k < m.rowptr[i + 1]; ++k) {
        s += m.values[static_cast<std::size_t>(k)] * x[static_cast<std::size_t>(m.colidx[static_cast<std::size_t>(k)])];
      }
      err = std::max(err, std::abs(s - b[i]));
    }
    env.report("err", err);
    env.report("converged", res.converged ? 1 : 0);
  });
  EXPECT_EQ(r.values.at("converged"), 1);
  EXPECT_LT(r.values.at("err"), 1e-7);
}

TEST(CgSolve, SolutionIndependentOfRankCount) {
  auto solve_norm = [](int np) {
    auto r = mpi::run_job(cfg(np), [](mpi::RankEnv& env) {
      la::Partition part{.n = 216, .np = env.size()};
      auto m = la::grid_laplacian_7pt(6, 6, 6, 0.3, part, env.rank());
      std::vector<double> b(static_cast<std::size_t>(part.count(env.rank())));
      for (std::size_t i = 0; i < b.size(); ++i) {
        b[i] = std::cos((part.first(env.rank()) + static_cast<long long>(i)) * 0.31);
      }
      std::vector<double> x;
      la::CgOptions opts;
      opts.rtol = 1e-12;
      la::cg_solve(env, m, b, x, opts);
      double n2 = 0;
      for (const double v : x) n2 += v * v;
      n2 = env.world().allreduce_one(n2, mpi::Op::Sum);
      if (env.rank() == 0) env.report("xnorm", std::sqrt(n2));
    });
    return r.values.at("xnorm");
  };
  const double n1 = solve_norm(1);
  EXPECT_NEAR(solve_norm(2), n1, 1e-8 * n1);
  EXPECT_NEAR(solve_norm(4), n1, 1e-8 * n1);
  EXPECT_NEAR(solve_norm(8), n1, 1e-8 * n1);
}

TEST(CgSolve, ChargesComputeWhenConfigured) {
  auto elapsed_with = [](double ref) {
    auto r = mpi::run_job(cfg(2), [ref](mpi::RankEnv& env) {
      la::Partition part{.n = 64, .np = env.size()};
      auto m = la::grid_laplacian_7pt(4, 4, 4, 0.5, part, env.rank());
      std::vector<double> b(static_cast<std::size_t>(part.count(env.rank())), 1.0), x;
      la::CgOptions opts;
      opts.ref_seconds_per_iter = ref;
      la::cg_solve(env, m, b, x, opts);
    });
    return r.elapsed_seconds;
  };
  EXPECT_GT(elapsed_with(0.1), elapsed_with(0.0) + 0.05);
}

TEST(DotLocal, HandlesUnequalLengthsDefensively) {
  EXPECT_DOUBLE_EQ(la::dot_local({1, 2, 3}, {4, 5}), 14.0);
  EXPECT_DOUBLE_EQ(la::dot_local({}, {}), 0.0);
}
