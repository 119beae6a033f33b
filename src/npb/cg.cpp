// NPB CG (Conjugate Gradient): estimates the smallest eigenvalue of a large
// sparse symmetric positive-definite matrix by inverse power iteration, with
// 25 CG iterations per outer step.
//
// The matrix generator (makea/sprnvc/vecset) is a faithful port of NPB 3.3:
// the randlc stream, the acceptance loops and the outer-product assembly are
// reproduced exactly, so the verification zeta values match the published
// NPB constants for classes S/W/A/B/C in execute mode.
//
// The two modes communicate differently:
//  * Model mode (every pin): NPB's 2-D processor grid, nprows x npcols. Per
//    inner iteration the SpMV partial sums travel in log2(npcols) Sendrecvs
//    of ~na/npcols doubles, plus scalar allreduces — the "large numbers of
//    small all-reduce operations" the paper identifies as CG's weakness on
//    high-latency clouds (Table II).
//  * Execute mode (verification): a 1-D row partition. Each rank
//    re-generates the (replicated) matrix, keeps its row slice and
//    allgathers p every inner iteration, plus the same scalar allreduces.
// Making both modes run the 2-D exchange is the ROADMAP item "One
// communication schedule per NPB kernel".
#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "npb/npb.hpp"
#include "npb/randlc.hpp"

namespace cirrus::npb {

namespace {

struct CgParams {
  int na;
  int nonzer;
  int niter;
  double shift;
  double zeta_ref;  // published verification value; <0: self-consistent only
};

CgParams cg_params(Class cls) {
  switch (cls) {
    case Class::T: return {500, 4, 8, 5.0, -1.0};
    case Class::S: return {1400, 7, 15, 10.0, 8.5971775078648};
    case Class::W: return {7000, 8, 15, 12.0, 10.362595087124};
    case Class::A: return {14000, 11, 15, 20.0, 17.130235054029};
    case Class::B: return {75000, 13, 75, 60.0, 22.712745482631};
    case Class::C: return {150000, 15, 75, 110.0, 28.973605592845};
  }
  return {1400, 7, 15, 10.0, -1.0};
}

constexpr double kRcond = 0.1;
constexpr int kCgInnerIters = 25;

/// Global CSR matrix (replicated; execute mode only).
struct Csr {
  std::vector<int> rowstr;  // size n+1
  std::vector<int> colidx;
  std::vector<double> a;
};

/// NPB sprnvc: a sparse random vector with nz distinct nonzero locations.
/// `tran` is the running stream seed (shared across the whole generation).
void sprnvc(int n, int nz, double& tran, std::vector<double>& v, std::vector<int>& iv,
            std::vector<int>& mark) {
  int nn1 = 1;
  while (nn1 < n) nn1 <<= 1;
  v.clear();
  iv.clear();
  while (static_cast<int>(v.size()) < nz) {
    const double vecelt = randlc(tran, kRandlcA);
    const double vecloc = randlc(tran, kRandlcA);
    const int i = static_cast<int>(vecloc * nn1) + 1;  // 1-based
    if (i > n) continue;
    if (mark[static_cast<std::size_t>(i)] == 0) {
      mark[static_cast<std::size_t>(i)] = 1;
      v.push_back(vecelt);
      iv.push_back(i);
    }
  }
  for (const int i : iv) mark[static_cast<std::size_t>(i)] = 0;
}

/// NPB vecset: ensure component `ival` is present with value `val`.
void vecset(std::vector<double>& v, std::vector<int>& iv, int ival, double val) {
  for (std::size_t k = 0; k < iv.size(); ++k) {
    if (iv[k] == ival) {
      v[k] = val;
      return;
    }
  }
  v.push_back(val);
  iv.push_back(ival);
}

/// NPB makea: assemble the full matrix (1-based internals, 0-based CSR out).
Csr makea(int n, int nonzer, double shift) {
  double tran = kRandlcSeed;
  {
    // NPB "initialize random number generator": one warm-up draw.
    randlc(tran, kRandlcA);
  }
  const double ratio = std::pow(kRcond, 1.0 / static_cast<double>(n));
  double size = 1.0;

  struct Triplet {
    int row, col;
    double val;
  };
  std::vector<Triplet> tri;
  tri.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>((nonzer + 1)) *
              static_cast<std::size_t>(nonzer + 1) / 2);
  std::vector<double> v;
  std::vector<int> iv;
  std::vector<int> mark(static_cast<std::size_t>(2 * n + 2), 0);

  for (int iouter = 1; iouter <= n; ++iouter) {
    sprnvc(n, nonzer, tran, v, iv, mark);
    vecset(v, iv, iouter, 0.5);
    for (std::size_t ivelt = 0; ivelt < iv.size(); ++ivelt) {
      const int jcol = iv[ivelt];
      const double scale = size * v[ivelt];
      for (std::size_t ivelt1 = 0; ivelt1 < iv.size(); ++ivelt1) {
        const int irow = iv[ivelt1];
        tri.push_back(Triplet{irow - 1, jcol - 1, v[ivelt1] * scale});
      }
    }
    size *= ratio;
  }
  // Diagonal: rcond - shift.
  for (int i = 0; i < n; ++i) tri.push_back(Triplet{i, i, kRcond - shift});

  std::sort(tri.begin(), tri.end(), [](const Triplet& x, const Triplet& y) {
    return x.row != y.row ? x.row < y.row : x.col < y.col;
  });
  Csr m;
  m.rowstr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (std::size_t k = 0; k < tri.size();) {
    std::size_t j = k;
    double sum = 0;
    while (j < tri.size() && tri[j].row == tri[k].row && tri[j].col == tri[k].col) {
      sum += tri[j].val;
      ++j;
    }
    m.colidx.push_back(tri[k].col);
    m.a.push_back(sum);
    ++m.rowstr[static_cast<std::size_t>(tri[k].row) + 1];
    k = j;
  }
  for (int i = 0; i < n; ++i) m.rowstr[static_cast<std::size_t>(i) + 1] += m.rowstr[static_cast<std::size_t>(i)];
  return m;
}

}  // namespace

BenchResult run_cg(mpi::RankEnv& env, Class cls) {
  auto& comm = env.world();
  const int np = comm.size();
  const int rank = comm.rank();
  // NPB's rule in both modes: the model exchange's partner rank ^ stride
  // only stays below np when np is a power of two.
  if ((np & (np - 1)) != 0) throw std::invalid_argument("CG requires a power-of-two np");
  const auto prm = cg_params(cls);
  const int n = prm.na;
  const int first = static_cast<int>(static_cast<long long>(n) * rank / np);
  const int last = static_cast<int>(static_cast<long long>(n) * (rank + 1) / np);
  const int nlocal = last - first;
  const int max_block = (n + np - 1) / np;  // padded allgather block
  const double my_share = static_cast<double>(nlocal) / static_cast<double>(n);
  const double ref_inner =
      benchmark("CG").ref_seconds(cls) / (static_cast<double>(prm.niter) * kCgInnerIters);

  const bool exec = env.execute();
  Csr m;
  if (exec) {
    m = makea(n, prm.nonzer, prm.shift);
    env.compute(benchmark("CG").ref_seconds(cls) * 0.03 * my_share);  // makea cost
  }

  // Distributed vectors (local slices), plus a padded gather buffer for p.
  // Model mode charges time only: alpha = beta = 0 and zeta is never set, so
  // none of the vector arithmetic is observable and the vectors stay empty.
  const auto vec = [exec](std::size_t len, double fill) {
    return exec ? std::vector<double>(len, fill) : std::vector<double>();
  };
  const auto nl = static_cast<std::size_t>(nlocal);
  std::vector<double> x = vec(nl, 1.0);
  std::vector<double> z = vec(nl, 0.0);
  std::vector<double> r = vec(nl, 0.0);
  std::vector<double> p = vec(nl, 0.0);
  std::vector<double> q = vec(nl, 0.0);
  std::vector<double> pfull = vec(static_cast<std::size_t>(n), 0.0);
  std::vector<double> gather_in = vec(static_cast<std::size_t>(max_block), 0.0);
  std::vector<double> gather_out =
      vec(static_cast<std::size_t>(max_block) * static_cast<std::size_t>(np), 0.0);

  // Local dot product (0 in model mode, where the vectors are empty).
  auto dot_local = [](const std::vector<double>& a, const std::vector<double>& b) {
    double s = 0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
  };
  auto gather_p = [&]() {
    // Allgather p (padded to equal blocks) into pfull.
    if (exec) {
      std::copy(p.begin(), p.end(), gather_in.begin());
      comm.allgather(gather_in.data(), gather_out.data(), static_cast<std::size_t>(max_block));
      for (int rk = 0; rk < np; ++rk) {
        const int f = static_cast<int>(static_cast<long long>(n) * rk / np);
        const int l = static_cast<int>(static_cast<long long>(n) * (rk + 1) / np);
        std::copy_n(gather_out.begin() + static_cast<std::ptrdiff_t>(rk) * max_block, l - f,
                    pfull.begin() + f);
      }
    } else {
      // Model mode: the authentic NPB 2-D decomposition exchange. The
      // processor grid is nprows x npcols (npcols = nprows or 2*nprows); the
      // SpMV partial-sum reduction exchanges log2(npcols) segments of
      // ~na/npcols doubles with partners at strides nprows * 2^i — far less
      // volume than a full allgather of p, and the real class B pattern.
      int npcols = 1, nprows = 1;
      while (npcols * nprows < np) {
        if (npcols == nprows) npcols *= 2;
        else nprows *= 2;
      }
      const std::size_t seg =
          static_cast<std::size_t>((n + npcols - 1) / npcols) * sizeof(double);
      int tag_i = 0;
      for (int stride = nprows; stride < np; stride <<= 1) {
        const int partner = rank ^ stride;
        comm.sendrecv_bytes(partner, 900 + tag_i, nullptr, seg, partner, 900 + tag_i, nullptr,
                            seg);
        ++tag_i;
      }
    }
  };
  auto spmv = [&]() {  // q = A * pfull (rows [first, last))
    if (exec) {
      for (int i = 0; i < nlocal; ++i) {
        double s = 0;
        for (int k = m.rowstr[static_cast<std::size_t>(first + i)];
             k < m.rowstr[static_cast<std::size_t>(first + i) + 1]; ++k) {
          s += m.a[static_cast<std::size_t>(k)] * pfull[static_cast<std::size_t>(m.colidx[static_cast<std::size_t>(k)])];
        }
        q[static_cast<std::size_t>(i)] = s;
      }
    }
    env.compute(ref_inner * 0.82 * my_share);
  };

  double zeta = 0.0;
  // Checkpointable state: the normalised iterate x plus zeta — everything
  // carried across outer iterations. A restart resumes at the next outer
  // iteration with bit-identical arithmetic, so the final zeta (and hence
  // verification) matches an uninterrupted run exactly.
  std::vector<double> ck;
  const std::size_t ck_bytes = (static_cast<std::size_t>(nlocal) + 1) * sizeof(double);
  int start_it = 1;
  if (env.checkpointing()) {
    if (exec) ck.resize(static_cast<std::size_t>(nlocal) + 1);
    if (const int done = env.restore_checkpoint(ck.empty() ? nullptr : ck.data(), ck_bytes);
        done >= 1) {
      if (exec) {
        std::copy_n(ck.begin(), static_cast<std::size_t>(nlocal), x.begin());
        zeta = ck[static_cast<std::size_t>(nlocal)];
      }
      start_it = done + 1;
    }
  }
  for (int it = start_it; it <= prm.niter; ++it) {
    // --- conj_grad ---
    for (std::size_t i = 0; i < x.size(); ++i) {
      q[i] = 0;
      z[i] = 0;
      r[i] = x[i];
      p[i] = r[i];
    }
    double rho = comm.allreduce_one(dot_local(r, r), mpi::Op::Sum);
    for (int cgit = 0; cgit < kCgInnerIters; ++cgit) {
      gather_p();
      spmv();
      const double pq = comm.allreduce_one(dot_local(p, q), mpi::Op::Sum);
      const double alpha = exec ? rho / pq : 0.0;
      const double rho0 = rho;
      for (std::size_t i = 0; i < z.size(); ++i) {
        z[i] += alpha * p[i];
        r[i] -= alpha * q[i];
      }
      rho = comm.allreduce_one(dot_local(r, r), mpi::Op::Sum);
      const double beta = exec && rho0 != 0.0 ? rho / rho0 : 0.0;
      for (std::size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * p[i];
      env.compute(ref_inner * 0.18 * my_share);
    }
    // rnorm = ||x - A z|| : one more gather + spmv.
    std::swap(p, z);
    gather_p();
    std::swap(p, z);
    if (exec) {
      for (int i = 0; i < nlocal; ++i) {
        double s = 0;
        for (int k = m.rowstr[static_cast<std::size_t>(first + i)];
             k < m.rowstr[static_cast<std::size_t>(first + i) + 1]; ++k) {
          s += m.a[static_cast<std::size_t>(k)] *
               pfull[static_cast<std::size_t>(m.colidx[static_cast<std::size_t>(k)])];
        }
        q[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)] - s;
      }
    }
    const double rnorm2 = comm.allreduce_one(dot_local(q, q), mpi::Op::Sum);
    (void)rnorm2;

    // --- zeta and normalisation ---
    const double xz = comm.allreduce_one(dot_local(x, z), mpi::Op::Sum);
    const double zz = comm.allreduce_one(dot_local(z, z), mpi::Op::Sum);
    if (exec) {
      zeta = prm.shift + 1.0 / xz;
      const double inv = 1.0 / std::sqrt(zz);
      for (int i = 0; i < nlocal; ++i) {
        x[static_cast<std::size_t>(i)] = inv * z[static_cast<std::size_t>(i)];
      }
    }
    if (env.checkpointing()) {
      if (exec) {
        std::copy_n(x.begin(), static_cast<std::size_t>(nlocal), ck.begin());
        ck[static_cast<std::size_t>(nlocal)] = zeta;
      }
      env.maybe_checkpoint(it, ck.empty() ? nullptr : ck.data(), ck_bytes);
    }
  }

  BenchResult result;
  result.name = "CG";
  result.cls = cls;
  result.np = np;
  result.verification_value = zeta;
  if (exec) {
    result.verified = prm.zeta_ref > 0 ? std::abs(zeta - prm.zeta_ref) < 1e-9 : zeta != 0.0;
  } else {
    result.verified = true;
  }
  if (rank == 0) env.report("cg_zeta", zeta);
  return result;
}

}  // namespace cirrus::npb
