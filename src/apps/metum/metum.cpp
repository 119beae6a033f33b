#include "apps/metum/metum.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ipm/ipm.hpp"
#include "linalg/linalg.hpp"

namespace cirrus::metum {

plat::WorkloadTraits traits() { return plat::WorkloadTraits{.mem_intensity = 0.5}; }

namespace {

// Paper-scale (model-mode) problem: N320L70.
constexpr int kNx = 640;  // longitudes
constexpr int kNy = 481;  // latitudes
constexpr int kNz = 70;   // levels
constexpr int kTimesteps = 18;
constexpr int kWarmupSteps = 2;  // excluded from the "warmed" time
constexpr double kDumpBytes = 1.6e9;
constexpr int kHelmholtzIters = 60;

// Serial reference work (DCC-core seconds), calibrated against Fig 6
// (warmed t8: Vayu 963 s) and Table III.
constexpr double kRefStepSeconds = 350.0;  // per timestep, whole globe
constexpr double kDynamicsFrac = 0.38;
constexpr double kHelmholtzFrac = 0.34;
constexpr double kPhysicsFrac = 0.28;
constexpr double kTropicsWorkBoost = 0.45;  // extra convection work in tropical bands

// Execute-mode downscaled grid (1-D latitude decomposition).
constexpr int kExecNx = 48, kExecNy = 24, kExecNz = 3;
constexpr int kExecTimesteps = 12;

/// 2-D processor grid: py latitude bands x px longitude strips, py >= px.
void proc_grid(int np, int& px, int& py) {
  py = 1;
  for (int d = 1; d * d <= np; ++d) {
    if (np % d == 0) py = np / d;
  }
  px = np / py;
  if (px > py) std::swap(px, py);
  px = np / py;
}

/// Model mode: the N320L70 run as a full-scale timing pattern.
Result run_model(mpi::RankEnv& env) {
  auto& comm = env.world();
  const int np = comm.size();
  const int rank = comm.rank();
  int px = 1, py = 1;
  proc_grid(np, px, py);
  const int band = rank / px;   // latitude band (0 = south pole side)
  const int lon = rank % px;
  const int lx = kNx / px;
  const int ly = kNy / py + (band < kNy % py ? 1 : 0);  // uneven bands
  const double cell_share =
      static_cast<double>(lx) * ly / (static_cast<double>(kNx) * kNy);

  // Neighbours on the torus-ish grid (no wrap in latitude).
  const int east = band * px + (lon + 1) % px;
  const int west = band * px + (lon - 1 + px) % px;
  const int north = band + 1 < py ? (band + 1) * px + lon : -1;
  const int south = band > 0 ? (band - 1) * px + lon : -1;
  // Semi-Lagrangian advection needs wide (4-point) halos.
  const std::size_t ew_bytes =
      4 * static_cast<std::size_t>(ly) * static_cast<std::size_t>(kNz) * sizeof(double);
  const std::size_t ns_bytes =
      4 * static_cast<std::size_t>(lx) * static_cast<std::size_t>(kNz) * sizeof(double);

  auto halo_round = [&](int tag, std::size_t scale_num, std::size_t scale_den) {
    const std::size_t ew = ew_bytes * scale_num / scale_den;
    const std::size_t ns = ns_bytes * scale_num / scale_den;
    if (px > 1) {
      comm.sendrecv_bytes(east, tag, nullptr, ew, west, tag, nullptr, ew);
    }
    // Northward shift: send my top row north, receive my south halo.
    if (north >= 0 && south >= 0) {
      comm.sendrecv_bytes(north, tag + 1, nullptr, ns, south, tag + 1, nullptr, ns);
    } else if (north >= 0) {
      comm.send_bytes(north, tag + 1, nullptr, ns);
    } else if (south >= 0) {
      comm.recv_bytes(south, tag + 1, nullptr, ns);
    }
    // Southward shift: the symmetric exchange.
    if (north >= 0 && south >= 0) {
      comm.sendrecv_bytes(south, tag + 2, nullptr, ns, north, tag + 2, nullptr, ns);
    } else if (south >= 0) {
      comm.send_bytes(south, tag + 2, nullptr, ns);
    } else if (north >= 0) {
      comm.recv_bytes(north, tag + 2, nullptr, ns);
    }
  };

  // Tropical bands carry extra convection work: the Fig 7 imbalance.
  const bool tropics = band >= py / 4 && band < (3 * py) / 4;
  const double work_boost = tropics ? 1.0 + kTropicsWorkBoost : 1.0;
  // The physics work removed from the tropics must come from somewhere: the
  // extratropics do correspondingly less, keeping the global total fixed.
  const double boost_norm =
      1.0 + kTropicsWorkBoost * 0.5;  // half the bands are tropical

  // Checkpoint sizing: ~8 prognostic full-level fields per rank (sized but
  // dataless — model mode carries timing, not data). A restored run resumes
  // from the checkpoint instead of re-reading the start dump.
  const std::size_t state_bytes = 8 * static_cast<std::size_t>(lx) *
                                  static_cast<std::size_t>(ly) *
                                  static_cast<std::size_t>(kNz) * sizeof(double);
  int step0 = 0;
  bool restored = false;
  if (env.checkpointing()) {
    if (const int done = env.restore_checkpoint(nullptr, state_bytes); done >= 0) {
      step0 = done + 1;
      restored = true;
    }
  }

  if (!restored) {
    ipm::Region r(env.ipm(), "Read_Dump");
    if (rank == 0) env.io_read(static_cast<std::size_t>(kDumpBytes), true);
    // Scatter of the dump fields to all ranks.
    comm.scatter_bytes(nullptr, nullptr, static_cast<std::size_t>(kDumpBytes / np), 0);
  }

  // Polar filter row communicator (built once, like the UM's comm setup).
  auto row_comm = comm.split(band, lon);
  const bool polar = band == 0 || band == py - 1;

  double warm_start = 0.0;
  for (int step = step0; step < kTimesteps; ++step) {
    if (step == kWarmupSteps) {
      comm.barrier();
      warm_start = env.now_seconds();
    }
    ipm::Region atm(env.ipm(), "ATM_STEP");
    {
      // Semi-Lagrangian advection: two halo rounds (departure points need a
      // wide halo) plus the dynamics compute.
      halo_round(70, 1, 1);
      halo_round(73, 1, 1);
      env.compute(kRefStepSeconds * kDynamicsFrac * cell_share * work_boost /
                  boost_norm);
    }
    {
      // Helmholtz solve: per iteration one single-width halo round and the
      // small all-reduces the paper highlights.
      const double per_iter =
          kRefStepSeconds * kHelmholtzFrac * cell_share / kHelmholtzIters;
      for (int it = 0; it < kHelmholtzIters; ++it) {
        halo_round(76, 1, 4);
        env.compute(per_iter);
        // Three scalar reductions per solver iteration (as in a
        // preconditioned CG): the paper's "4-byte all-reduce" traffic.
        double v = 1.0;
        v = comm.allreduce_one(v, mpi::Op::Sum);
        v = comm.allreduce_one(v, mpi::Op::Sum);
        (void)comm.allreduce_one(v, mpi::Op::Sum);
      }
    }
    {
      // Physics columns (latitude-dependent work).
      env.compute(kRefStepSeconds * kPhysicsFrac * cell_share * work_boost /
                  boost_norm);
    }
    if (polar && px > 1) {
      // Polar filter: the polar rows exchange full latitude circles.
      row_comm->allgather_bytes(
          nullptr, nullptr,
          static_cast<std::size_t>(lx) * static_cast<std::size_t>(kNz) * sizeof(double));
    }
    {
      // Diagnostics: global norms.
      double v = 1.0;
      v = comm.allreduce_one(v, mpi::Op::Sum);
      (void)comm.allreduce_one(v, mpi::Op::Max);
    }
    if (env.checkpointing()) env.maybe_checkpoint(step, nullptr, state_bytes);
  }
  comm.barrier();

  Result res;
  res.verified = true;
  res.warmed_seconds = env.now_seconds() - warm_start;
  if (rank == 0) env.report("um_warmed_seconds", res.warmed_seconds);
  return res;
}

/// Execute mode: a real advection–diffusion dynamical core on latitude
/// bands, with conservation verification.
Result run_execute(mpi::RankEnv& env) {
  auto& comm = env.world();
  const int np = comm.size();
  const int rank = comm.rank();
  const int nx = kExecNx, ny = kExecNy, nz = kExecNz;
  const int y0 = ny * rank / np;
  const int y1 = ny * (rank + 1) / np;
  const int ly = y1 - y0;

  // theta(level, y + halo, x): periodic in x, solid walls at the poles.
  auto at = [&](int k, int j, int i) {
    return (static_cast<std::size_t>(k) * static_cast<std::size_t>(ly + 2) +
            static_cast<std::size_t>(j)) *
               static_cast<std::size_t>(nx) +
           static_cast<std::size_t>(i);
  };
  std::vector<double> theta(static_cast<std::size_t>(nz) * static_cast<std::size_t>(ly + 2) *
                                static_cast<std::size_t>(nx),
                            0.0);
  for (int k = 0; k < nz; ++k) {
    for (int j = 1; j <= ly; ++j) {
      const int gy = y0 + j - 1;
      for (int i = 0; i < nx; ++i) {
        theta[at(k, j, i)] =
            1.0 + std::sin(2.0 * M_PI * i / nx) * std::cos(M_PI * (gy + 0.5) / ny) + 0.1 * k;
      }
    }
  }
  double total0 = 0;
  for (int k = 0; k < nz; ++k) {
    for (int j = 1; j <= ly; ++j) {
      for (int i = 0; i < nx; ++i) total0 += theta[at(k, j, i)];
    }
  }
  total0 = comm.allreduce_one(total0, mpi::Op::Sum);
  double lo0 = 1e300, hi0 = -1e300;
  for (int k = 0; k < nz; ++k) {
    for (int j = 1; j <= ly; ++j) {
      for (int i = 0; i < nx; ++i) {
        lo0 = std::min(lo0, theta[at(k, j, i)]);
        hi0 = std::max(hi0, theta[at(k, j, i)]);
      }
    }
  }
  lo0 = comm.allreduce_one(lo0, mpi::Op::Min);
  hi0 = comm.allreduce_one(hi0, mpi::Op::Max);

  {
    ipm::Region r(env.ipm(), "Read_Dump");
    if (rank == 0) env.io_read(1 << 20, true);
    comm.barrier();
  }

  // Checkpointable state: theta, the only field carried across steps. The
  // restore comes after total0/lo0/hi0 are computed from the fresh initial
  // condition, so the conservation verification still measures the whole
  // run, restart included.
  const std::size_t ck_bytes = theta.size() * sizeof(double);
  int step0 = 0;
  if (env.checkpointing()) {
    if (const int done = env.restore_checkpoint(theta.data(), ck_bytes); done >= 0) {
      step0 = done + 1;
    }
  }

  const double cx = 0.3;  // zonal CFL number (upwind-stable)
  const double cy = 0.2;
  std::vector<double> nv(theta.size());
  std::vector<double> halo_n(static_cast<std::size_t>(nz) * nx), halo_s(halo_n.size());
  bool solver_ok = true;

  // Pressure solve system (diagnostic Helmholtz): shared across steps.
  la::Partition part{.n = static_cast<long long>(nx) * ny, .np = np};
  la::DistCsr helm = la::grid_laplacian_7pt(nx, ny, 1, /*shift=*/1.0, part, rank);

  for (int step = step0; step < kExecTimesteps; ++step) {
    ipm::Region atm(env.ipm(), "ATM_STEP");
    // Exchange N/S halos (real data).
    if (np > 1) {
      std::vector<double> out_n(halo_n.size()), out_s(halo_s.size());
      for (int k = 0; k < nz; ++k) {
        for (int i = 0; i < nx; ++i) {
          out_n[static_cast<std::size_t>(k) * nx + i] = theta[at(k, ly, i)];
          out_s[static_cast<std::size_t>(k) * nx + i] = theta[at(k, 1, i)];
        }
      }
      const int north = rank + 1 < np ? rank + 1 : -1;
      const int south = rank > 0 ? rank - 1 : -1;
      if (north >= 0 && south >= 0) {
        comm.sendrecv(north, 50, out_n.data(), out_n.size(), south, 50, halo_s.data(),
                      halo_s.size());
        comm.sendrecv(south, 51, out_s.data(), out_s.size(), north, 51, halo_n.data(),
                      halo_n.size());
      } else if (north >= 0) {
        comm.send(north, 50, out_n.data(), out_n.size());
        comm.recv(north, 51, halo_n.data(), halo_n.size());
      } else if (south >= 0) {
        comm.recv(south, 50, halo_s.data(), halo_s.size());
        comm.send(south, 51, out_s.data(), out_s.size());
      }
      for (int k = 0; k < nz; ++k) {
        for (int i = 0; i < nx; ++i) {
          if (rank > 0) theta[at(k, 0, i)] = halo_s[static_cast<std::size_t>(k) * nx + i];
          if (rank + 1 < np) theta[at(k, ly + 1, i)] = halo_n[static_cast<std::size_t>(k) * nx + i];
        }
      }
    }
    // Upwind advection: zonal wind u > 0 everywhere, meridional wind v > 0
    // but zero at the domain walls (conservative on the closed domain).
    for (int k = 0; k < nz; ++k) {
      for (int j = 1; j <= ly; ++j) {
        const int gy = y0 + j - 1;
        const double cy_in = gy > 0 ? cy : 0.0;        // flux entering from south
        const double cy_out = gy + 1 < ny ? cy : 0.0;  // flux leaving north
        for (int i = 0; i < nx; ++i) {
          const int iw = (i - 1 + nx) % nx;
          const double south_val = theta[at(k, j - 1, i)];
          nv[at(k, j, i)] = theta[at(k, j, i)] - cx * (theta[at(k, j, i)] - theta[at(k, j, iw)]) -
                            cy_out * theta[at(k, j, i)] + cy_in * south_val;
        }
      }
    }
    theta.swap(nv);
    env.compute(1e-4);
    {
      // Diagnostic Helmholtz solve on the surface level.
      std::vector<double> rhs(static_cast<std::size_t>(part.count(rank)));
      for (int j = 1; j <= ly; ++j) {
        for (int i = 0; i < nx; ++i) {
          rhs[static_cast<std::size_t>(j - 1) * nx + i] = theta[at(0, j, i)];
        }
      }
      std::vector<double> p;
      la::CgOptions opts;
      opts.max_iters = 300;
      opts.rtol = 1e-8;
      const auto cg = la::cg_solve(env, helm, rhs, p, opts);
      solver_ok = solver_ok && cg.converged;
    }
    if (env.checkpointing()) env.maybe_checkpoint(step, theta.data(), ck_bytes);
  }

  double total1 = 0, lo1 = 1e300, hi1 = -1e300;
  for (int k = 0; k < nz; ++k) {
    for (int j = 1; j <= ly; ++j) {
      for (int i = 0; i < nx; ++i) {
        total1 += theta[at(k, j, i)];
        lo1 = std::min(lo1, theta[at(k, j, i)]);
        hi1 = std::max(hi1, theta[at(k, j, i)]);
      }
    }
  }
  total1 = comm.allreduce_one(total1, mpi::Op::Sum);
  lo1 = comm.allreduce_one(lo1, mpi::Op::Min);
  hi1 = comm.allreduce_one(hi1, mpi::Op::Max);

  Result res;
  res.tracer_total = total1;
  // The flux-form upwind scheme conserves total tracer exactly (up to FP
  // summation order): interior fluxes cancel pairwise and the wall fluxes
  // are zero. Every update is a non-negative combination of non-negative
  // values, so the field stays non-negative; tracer accumulates against the
  // closed northern wall, so there is no global upper bound to check.
  (void)hi0;
  (void)hi1;
  const bool conserved = std::abs(total1 - total0) < 1e-8 * std::abs(total0);
  const bool bounded = lo1 >= std::min(lo0, 0.0) - 1e-9;
  res.verified = conserved && bounded && solver_ok;
  if (rank == 0) {
    env.report("um_tracer_total", total1);
    env.report("um_conserved", conserved ? 1.0 : 0.0);
  }
  return res;
}

}  // namespace

Result run(mpi::RankEnv& env) {
  return env.execute() ? run_execute(env) : run_model(env);
}

}  // namespace cirrus::metum
